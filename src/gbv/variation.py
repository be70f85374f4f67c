"""Variation functionals of sampled functions.

All functionals share one search problem: pick nonoverlapping grid
intervals and sum per-interval gains. When the gain of an interval depends
only on its own increment -- the modulus of variation, the unweighted
q-form and any rank-free Schramm family (every phi_j the same function:
constant weights, an explicit weight list of one value, or explicit terms
that are one repeated pair) -- one dynamic program over (grid position,
intervals left) is exact. It records an end pointer per cell in the same
pass, so the witness is read off the pointers and re-evaluated against the
value; when the count cap cannot bind, it runs on a single column. When
gains are rank-dependent -- the j-th largest increment is charged phi_j --
no polynomial exact scheme is known, so we run a proven-exact
branch-and-bound up to ``oracle_cap`` grid cells of the input and fall back
to certified lower/upper bounds beyond it. When every interval length is
allowed (``min_len == 1``) both run on the turning-point skeleton of f --
its local extrema, see :func:`_skeleton` -- and the witness is mapped back
to the input grid. This needs the family that the branch-and-bound needs
anyway: each phi_j convex with phi_j(0) = 0, and phi_1 >= phi_2 >= ... on
the increments of f. On the skeleton the upper bound charges at most one
rank per skeleton cell, so it can only be tighter than on the full grid.
The Waterman-Shiba variation is the p-th root of the Schramm variation of
phi_j(x) = x^p / lam_j, and each gauged level is that family at q_n, so one
rank objective serves all three.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (HorizonError, InternalConsistencyError, RangeError,
                     ValidationError)
from .sequences import GaugePair, SchrammFamily, WeightSequence
from .stepfn import IntervalCollection, StepFunction

#: largest grid resolution at which rank-dependent search runs exactly
ORACLE_CAP_DEFAULT = 16

_REL_TOL = 1e-12

#: relative bracket width at which the norm bisection stops
NORM_REL_TOL = 1e-10

_log = logging.getLogger("gbv")


@dataclass(frozen=True)
class VariationResult:
    value: float
    mode: str  # exact-oracle | exact-dp | bounds
    lower: float
    upper: float
    witness: IntervalCollection
    level: int | None = None

    def to_json_dict(self):
        return {
            "value": self.value,
            "mode": self.mode,
            "lower": self.lower,
            "upper": self.upper,
            "level": self.level,
            "witness": self.witness.to_json_dict(),
        }


def _exact(value, witness):
    return VariationResult(value=value, mode="exact-dp", lower=value,
                           upper=value, witness=witness)


# ---------------------------------------------------------------------------
# rank-independent dynamic program

def _dp(values, gainfn, min_len, count=None):
    """The interval DP: ``best[i, k]`` is the largest sum of
    ``gainfn(|f(t_b) - f(t_a)|)`` over at most k nonoverlapping intervals
    inside [i, m], each of grid length >= ``min_len``.

    With a ``count`` cap, column k reads column k - 1 and column 0 is
    zero. Pass ``count=None`` when the cap cannot bind (at most
    ``m // min_len`` intervals fit): the table is then a single column
    that reads itself, equal bit for bit to the last column of the capped
    table, and no k axis is built.

    ``end[i, k]`` records, in the same backward pass, where the interval
    starting at i ends in an optimal collection, or 0 to skip grid point i.
    Each grid position takes one ``argmax`` over the ends, vectorized over
    k. Tie rule: take the interval when taking ties skipping, pick the
    smallest end among equal takes, and never take a zero increment. A gain
    past the largest float is inf; zero increments are masked after the
    sum, so an inf gain never meets their -inf.
    """
    m = len(values) - 1
    if count is None:
        width, shift = 1, 0
    else:
        width, shift = max(0, min(count, m // min_len)) + 1, 1
    n = width - shift  # columns filled, reading columns 0..n-1
    best = np.zeros((m + 2, width))
    end = np.zeros((m + 2, width), dtype=np.intp)
    if n == 0:
        return best, end
    cols = np.arange(n)
    with np.errstate(over="ignore"):
        for i in range(m - min_len, -1, -1):
            lo = i + min_len  # the ends are lo..m
            incs = np.abs(values[lo:] - values[i])
            cand = gainfn(incs)[:, None] + best[lo:m + 1, :n]
            cand[incs == 0] = -np.inf
            arg = cand.argmax(axis=0)
            take, skip = cand[arg, cols], best[i + 1, shift:]
            hit = take >= skip
            best[i, shift:] = np.where(hit, take, skip)
            end[i, shift:] = np.where(hit, arg + lo, 0)
    return best, end


def _walk(best, end, col):
    """Witness pairs for ``best[0, col]``, read off the end pointers. Each
    interval spends one column of a capped table, down to the zero column
    0; a single uncapped column keeps reading itself."""
    pairs, i = [], 0
    while best[i, col] > 0:
        b = int(end[i, col])
        if b:
            pairs.append((i, b))
            i, col = b, max(col - 1, 0)
        else:
            i += 1
    return pairs


def _dp_solve(f, gainfn, min_len, count=None):
    """Value, witness and table of the interval DP; the witness is
    re-evaluated and must reproduce the value (an inf value, inf)."""
    best, end = _dp(f.values, gainfn, min_len, count)
    value = float(best[0, -1])
    witness = IntervalCollection.from_pairs(f, _walk(best, end, best.shape[1] - 1))
    with np.errstate(over="ignore"):
        check = float(np.sum(gainfn(np.array(witness.increments))))
    if check != value and not abs(check - value) <= _REL_TOL * value < math.inf:
        raise InternalConsistencyError(
            f"DP witness re-evaluates to {check!r}, not {value!r}")
    return value, witness, best


# ---------------------------------------------------------------------------
# rank-dependent objective: ``family.rank_sum`` of an ordered Schramm family
# (phi_1 >= phi_2 >= ...), the j-th largest increment charged phi_j

def _future_bounds(values, family, min_len):
    """F[pos] = upper bound on the rank objective of any feasible collection
    inside [pos, m], charging ranks from 1.

    Uses the suffix modulus table: the j-th largest increment of any
    collection with top-j sum <= nu(j) is at most nu(j)/j, and the per-rank
    gains are increasing in x.
    """
    m = len(values) - 1
    nu, _ = _dp(values, lambda x: x, min_len, m)
    F = np.zeros(m + 2)
    for pos in range(m - min_len, -1, -1):
        n = (m - pos) // min_len
        caps = nu[pos, 1:n + 1] / np.arange(1, n + 1)
        live = caps > 0
        if not live.all():
            caps = caps[:live.argmin()]
        F[pos] = family.rank_sum(caps.tolist())
    return F


def _branch_and_bound(values, family, min_len=1):
    """Exact maximum of the rank objective over nonoverlapping collections:
    (value, witness pairs) on the grid of ``values``.

    Every DFS node is itself a feasible collection; pruning uses the
    position-indexed future bound, which is valid because merging two
    increment multisets under nonincreasing per-rank gains never beats
    charging each multiset from rank 1.
    """
    F = _future_bounds(values, family, min_len)
    m = len(values) - 1
    values = values.tolist()
    best = {"value": 0.0, "pairs": []}

    def visit(pos, pairs, incs_sorted, obj):
        if obj > best["value"]:
            best["value"] = obj
            best["pairs"] = list(pairs)
        for a in range(pos, m - min_len + 1):
            if obj + F[a] <= best["value"]:
                break
            for b in range(a + min_len, m + 1):
                inc = abs(values[b] - values[a])
                if inc <= 0:
                    continue
                merged = sorted(incs_sorted + [inc], reverse=True)
                pairs.append((a, b))
                visit(b, pairs, merged, family.rank_sum(merged))
                pairs.pop()

    visit(0, [], [], 0.0)
    return best["value"], best["pairs"]


def _rank_bounds(values, family, min_len=1):
    """Certified (lower, upper, witness pairs) when exact search is off the
    table.

    Lower: evaluate the true rank objective on the witnesses of the
    surrogate DP for every interval count, keep the best. Upper: the
    future bound at position 0 (an over-estimate in general, since optimal
    k-collections need not nest)."""
    m = len(values) - 1
    best_tab, end = _dp(values, family.surrogate, min_len, m)
    samples = values.tolist()
    lower, witness_pairs = 0.0, []
    for k in range(1, best_tab.shape[1]):
        pairs = _walk(best_tab, end, k)
        incs = sorted((abs(samples[b] - samples[a]) for a, b in pairs), reverse=True)
        val = family.rank_sum(incs)
        if val > lower:
            lower, witness_pairs = val, pairs
    upper = max(float(_future_bounds(values, family, min_len)[0]), lower)
    return lower, upper, witness_pairs


def _skeleton(values):
    """Grid indices of the turning-point skeleton of ``values``: index 0,
    the first index of every plateau where the nonzero increments change
    sign, and the first index of the final plateau. f is monotone between
    consecutive skeleton points and constant after the last one. A constant
    input keeps its two ends."""
    m = len(values) - 1
    steps = np.diff(values)
    moves = np.flatnonzero(steps)
    if len(moves) == 0:
        return np.array([0, m])
    rising = steps[moves] > 0
    turns = moves[:-1][rising[1:] != rising[:-1]] + 1
    return np.concatenate(([0], turns, [moves[-1] + 1]))


def _rank_solve(f, family, min_len, oracle_cap, p=1.0):
    """``sup sum phi_j(|f(I_j)|)`` over collections of intervals of grid
    length >= ``min_len``, with value and bounds raised to ``1/p``.

    A rank-free family (every phi_j the same function) is an exact DP at
    any m. Otherwise branch-and-bound is exact up to ``oracle_cap`` cells
    of the input grid and certified bounds take over beyond it; with
    ``min_len == 1`` both run on the turning-point skeleton of f
    (:func:`_skeleton`), which only shrinks the work. Every path raises
    past the horizon alike: a positive value means up to ``m // min_len``
    ranks can be charged, and all of them are asked for.

    Why the skeleton is exact. Let each phi_j be convex with phi_j(0) = 0
    and phi_1 >= phi_2 >= ... on [0, ptp(f)], the family the B&B needs
    too, and let V(X) charge the j-th largest increment of X to phi_j. V is
    nondecreasing in each increment, since the phi_j are, and sorting
    only swaps equal ones. Take an optimal collection with no zero
    increment. An endpoint off the skeleton lies in a stretch where f is
    monotone, so it can slide along it, towards the lower value for the
    start of a rising interval and so on, without shrinking any
    increment, until it reaches a skeleton point or the endpoint of a
    neighbour. Two neighbours that meet running in opposite directions
    slide their shared point on together, since that grows both. Two that
    meet running the same way, increments x >= y, merge into one
    interval with increment z >= x + y, and V does not drop. Say y had
    rank s in X; dropping it moves only later ranks up, which loses
    nothing, so the drop is at most phi_s(y). Raising x to z passes the
    increments that lie between x and z, and the gain splits into pieces
    phi_k(b') - phi_k(b) that tile [x, z] with k < s and b >= x >= y. By
    convexity each piece is at least (b' - b) phi_k(b)/b, which is at least
    (b' - b) phi_s(y)/y, as phi_k >= phi_s and phi_s(t)/t is
    nondecreasing. The pieces sum to at least phi_s(y). Each step moves an
    endpoint onto the skeleton or removes an interval, so an optimal
    collection lies on the skeleton. Keeping the first index of each
    plateau keeps the B&B's smallest-index tie rule, except where a merge
    leaves V unchanged (phi_j linear with equal gains at both ranks): the
    skeleton then reports the merged interval, and V may differ in the last
    bit. The future bound on the skeleton charges at most as many ranks as
    it has cells, so the certified upper bound can only tighten.
    """
    if family.rank_free is not None:
        value, witness, _ = _dp_solve(f, family.rank_free, min_len)
        lower, upper, mode = value, value, "exact-dp"
        _log.debug("exact-dp: rank-free family, m=%d", f.m)
    else:
        if min_len == 1:
            idx = _skeleton(f.values)
            grid = ("skeleton %d→%d", f.m + 1, len(idx))
        else:
            idx = np.arange(f.m + 1)
            grid = ("min_len=%d, no skeleton", min_len)
        values = f.values[idx]
        if f.m <= oracle_cap:
            value, pairs = _branch_and_bound(values, family, min_len)
            lower, upper, mode, op = value, value, "exact-oracle", "<="
        else:
            lower, upper, pairs = _rank_bounds(values, family, min_len)
            value, mode, op = lower, "bounds", ">"
        witness = IntervalCollection.from_pairs(f, [(idx[a], idx[b]) for a, b in pairs])
        _log.debug("%s: m=%d %s oracle_cap=%d, " + grid[0], mode, f.m, op, oracle_cap,
                   *grid[1:])
    if value > 0 and f.m // min_len > family.k_max:
        # up to m // min_len intervals fit, so as many ranks can be charged
        raise HorizonError(f"index {family.k_max + 1} outside horizon 1..{family.k_max}")
    root = 1.0 / p
    return VariationResult(value=value ** root, mode=mode, lower=lower ** root,
                           upper=upper ** root, witness=witness)


# ---------------------------------------------------------------------------
# public functionals

def modulus_of_variation(f: StepFunction, n: int) -> VariationResult:
    """Maximum total increment over at most ``n`` nonoverlapping intervals."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    value, witness, best = _dp_solve(f, lambda x: x, 1, n)
    # the modulus is nondecreasing and concave in the interval count
    diffs = np.diff(best[0])
    if np.any(diffs < -1e-12) or np.any(np.diff(diffs) > 1e-12):
        raise InternalConsistencyError("modulus of variation not concave")
    return _exact(value, witness)


def variation_unweighted_q(f: StepFunction, q: float, s_max: int | None = None,
                           min_len: int = 1) -> VariationResult:
    """``(max sum |f(I_j)|^q)^(1/q)`` over at most ``s_max`` intervals of
    grid length >= ``min_len``. Exact: the weights are rank-independent."""
    if q < 1:
        raise ValidationError("q must be >= 1")
    if min_len < 1:
        raise ValidationError("min_len must be >= 1 grid cell")
    if s_max is not None and s_max >= f.m // min_len:
        s_max = None  # the cap cannot bind
    inner, witness, _ = _dp_solve(f, lambda x: x ** q, min_len, s_max)
    return _exact(inner ** (1.0 / q), witness)


def variation_weighted(f: StepFunction, weights: WeightSequence, p: float = 1.0,
                       oracle_cap: int = ORACLE_CAP_DEFAULT) -> VariationResult:
    """Waterman-Shiba variation ``sup (sum |f(I_j)|^p / lam_j)^(1/p)`` with
    increments matched to weights in descending order: the p-th root of the
    Schramm variation of ``SchrammFamily.power(p, weights)``."""
    if p < 1:
        raise ValidationError("p must be >= 1")
    return _rank_solve(f, SchrammFamily.power(p, weights), 1, oracle_cap, p)


def variation_schramm(f: StepFunction, family: SchrammFamily,
                      oracle_cap: int = ORACLE_CAP_DEFAULT) -> VariationResult:
    """``sup sum phi_j(|f(I_j)|)`` over nonoverlapping collections."""
    return _rank_solve(f, family, 1, oracle_cap)


def variation_gauged(f: StepFunction, weights: WeightSequence, gauge: GaugePair,
                     n_cap: int, oracle_cap: int = ORACLE_CAP_DEFAULT) -> VariationResult:
    """Constrained variation: max over levels n <= n_cap of the supremum of
    ``(sum |f(I_j)|^{q_n} / lam_j)^{1/q_n}`` over collections whose
    intervals all have length >= ``ceil(m / delta_n)`` grid cells. Each
    level is the weighted variation at exponent q_n on that grid.

    On the grid the interval count is implicitly capped at
    ``floor(m / min_len) <= delta_n``, which coincides with the count cap
    used in the sufficiency arguments.
    """
    if not 1 <= n_cap <= gauge.n_max:
        raise ValidationError(f"n_cap must be in 1..{gauge.n_max}")
    m = f.m
    best = VariationResult(0.0, "exact-dp", 0.0, 0.0,
                           IntervalCollection.from_pairs(f, []), level=None)
    cache = {}  # (q_n, min_len) -> result; levels often repeat both
    for n in range(1, n_cap + 1):
        q_n, delta_n = gauge.level(n)
        min_len = max(1, math.ceil(m / delta_n))
        if min_len > m:
            continue
        key = (q_n, min_len)
        if key not in cache:
            cache[key] = _rank_solve(f, SchrammFamily.power(q_n, weights),
                                     min_len, oracle_cap, q_n)
        if cache[key].value > best.value:
            best = replace(cache[key], level=n)
    results = cache.values()
    mode = "bounds" if any(r.mode == "bounds" for r in results) else best.mode
    return replace(best, mode=mode, upper=max((r.upper for r in results), default=0.0))


def schramm_norm(f: StepFunction, family: SchrammFamily, f_a: float | None = None,
                 oracle_cap: int = ORACLE_CAP_DEFAULT) -> float:
    """Luxemburg-style norm ``|f(a)| + inf{c > 0 : V_Phi(f/c) <= 1}``.

    For a family homogeneous of degree d (``family.degree``: a power base,
    or explicit terms sharing one exponent) ``V_Phi(f/c) = c^-d V_Phi(f)``,
    so the infimum is ``V_Phi(f)^(1/d)``: one variation call. Other
    families (the ``expm1`` base, mixed exponents) find it by bracket
    doubling plus bisection to ``NORM_REL_TOL``, since ``c -> V_Phi(f/c)``
    is nonincreasing. A norm past the largest float is inf.

    A rank-free family (constant weights, an explicit weight list of one
    value, or explicit terms that are one repeated pair) is solved by the
    exact DP, so its norm is exact at any m. Otherwise, above
    ``oracle_cap`` grid cells the variation is only bracketed and its
    certified lower bound is used, so the norm returned is a lower bound
    on the true norm; for a homogeneous family the true norm lies in
    ``[|f(a)| + lower^(1/d), |f(a)| + upper^(1/d)]`` of
    :func:`variation_schramm`.
    """
    if f_a is None:
        f_a = float(f.values[0])
    values = f.values
    if values.min() == values.max():
        return abs(f_a)
    degree = family.degree
    if degree is not None:
        # in bounds mode the value is the certified lower bound
        return abs(f_a) + variation_schramm(f, family, oracle_cap).value ** (1.0 / degree)

    # V_Phi(f/c) depends on f/c only: divide f by exact powers of two, first
    # the one above max|f| (so the range cannot overflow), then the one above
    # the range left, which puts the range in [0.5, 1). The bracket then
    # starts at c = 1 for every input, and c scales back exactly.
    shift = math.frexp(np.max(np.abs(values)))[1]
    values = np.ldexp(values, -shift)
    e = math.frexp(np.ptp(values))[1]
    g, shift = StepFunction(np.ldexp(values, -e)), shift + e

    def var_at(c):
        return variation_schramm(g.scaled(1.0 / c), family, oracle_cap).value

    hi = 1.0
    for _ in range(200):
        if var_at(hi) <= 1.0:
            break
        hi *= 2.0
    else:
        raise RangeError("variation never drops to 1 within the bracket cap")
    lo = hi / 2.0
    while lo > 1e-300 and var_at(lo) <= 1.0:
        hi = lo
        lo /= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if var_at(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= NORM_REL_TOL * hi:
            break
    try:
        return abs(f_a) + math.ldexp(0.5 * (lo + hi), shift)
    except OverflowError:  # past the largest float
        return math.inf
