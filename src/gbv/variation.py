"""Variation functionals of sampled functions.

All functionals share one search problem: pick nonoverlapping grid
intervals and sum per-interval gains. When the gain of an interval depends
only on its own increment -- the modulus of variation, the unweighted
q-form, any constant-weight family and so every level of a constant-weight
gauged variation -- one dynamic program over (grid position, intervals
left) is exact. It records an end pointer per cell in the same pass, so
the witness is read off the pointers and re-evaluated against the value;
when the count cap cannot bind, it runs on a single column. When gains are
rank-dependent -- the j-th largest increment is charged phi_j -- no
polynomial exact scheme is known, so we run a proven-exact branch-and-bound
up to ``oracle_cap`` grid cells and fall back to certified lower/upper
bounds beyond it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, RangeError, ValidationError
from .sequences import GaugePair, SchrammFamily, WeightSequence
from .stepfn import IntervalCollection, StepFunction

#: largest grid resolution at which rank-dependent search runs exactly
ORACLE_CAP_DEFAULT = 16

_REL_TOL = 1e-12


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
    smallest end among equal takes, and never take a zero increment.
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
    for i in range(m - min_len, -1, -1):
        ends = np.arange(i + min_len, m + 1)
        incs = np.abs(values[ends] - values[i])
        gains = np.where(incs > 0, gainfn(incs), -np.inf)
        cand = gains[:, None] + best[ends, :n]
        arg = cand.argmax(axis=0)
        take, skip = cand[arg, cols], best[i + 1, shift:]
        hit = take >= skip
        best[i, shift:] = np.where(hit, take, skip)
        end[i, shift:] = np.where(hit, ends[arg], 0)
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
    re-evaluated and must reproduce the value."""
    best, end = _dp(f.values, gainfn, min_len, count)
    value = float(best[0, -1])
    witness = IntervalCollection.from_pairs(f, _walk(best, end, best.shape[1] - 1))
    check = float(np.sum(gainfn(np.array(witness.increments))))
    if abs(check - value) > _REL_TOL * value:
        raise InternalConsistencyError(
            f"DP witness re-evaluates to {check!r}, not {value!r}")
    return value, witness, best


# ---------------------------------------------------------------------------
# rank-dependent objectives

class _RankObjective:
    """Per-rank gains phi_j(x), nonincreasing in j for every x."""

    #: the gain every rank shares when phi_j does not depend on j, else None
    rank_free = None

    def gains(self, xs):
        """``[phi_1(xs[0]), phi_2(xs[1]), ...]`` for descending increments."""
        raise NotImplementedError

    def objective(self, sorted_desc):
        return sum(self.gains(sorted_desc))

    def surrogate(self, x):
        """Rank-free gain used for witness-producing lower-bound DPs."""
        raise NotImplementedError


class _WeightedPower(_RankObjective):
    """phi_j(x) = x^p / lam_j (Waterman-Shiba inner sum)."""

    def __init__(self, weights: WeightSequence, p: float):
        self.w = weights
        self.p = float(p)
        self._lam = []  # lam_1, lam_2, ... as floats, grown on demand
        if weights.kind == "constant":
            w = 1.0 / weights.weight(1)
            self.rank_free = lambda x: w * x ** p

    def gains(self, xs):
        lam = self._lam
        if len(xs) > len(lam):
            # past the horizon, the sequence names the first rank it lacks
            lam = self._lam = self.w.weights(min(len(xs), self.w.k_max + 1)).tolist()
        p = self.p
        # scalar ** is libm pow; numpy's array power can differ in the last bit
        return [x ** p / w for x, w in zip(xs, lam)]

    def surrogate(self, x):
        return x ** self.p


class _SchrammGain(_RankObjective):
    def __init__(self, family: SchrammFamily):
        self.family = family

    def gains(self, xs):
        return self.family.phi(np.arange(1, len(xs) + 1), xs).tolist()

    def surrogate(self, x):
        return x


def _future_bounds(values, objective, min_len):
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
        F[pos] = sum(objective.gains(caps))
    return F


def _branch_and_bound(f, objective, min_len=1):
    """Exact maximum of the rank objective over nonoverlapping collections.

    Every DFS node is itself a feasible collection; pruning uses the
    position-indexed future bound, which is valid because merging two
    increment multisets under nonincreasing per-rank gains never beats
    charging each multiset from rank 1.
    """
    m = f.m
    F = _future_bounds(f.values, objective, min_len)
    values = f.values.tolist()
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
                visit(b, pairs, merged, objective.objective(merged))
                pairs.pop()

    visit(0, [], [], 0.0)
    return best["value"], IntervalCollection.from_pairs(f, best["pairs"])


def _rank_bounds(f, objective, min_len=1):
    """Certified (lower, upper, witness) when exact search is off the table.

    Lower: evaluate the true rank objective on the witnesses of the
    surrogate DP for every interval count, keep the best. Upper: the
    future bound at position 0 (an over-estimate in general, since optimal
    k-collections need not nest)."""
    best_tab, end = _dp(f.values, objective.surrogate, min_len, f.m)
    values = f.values.tolist()
    lower, witness_pairs = 0.0, []
    for k in range(1, best_tab.shape[1]):
        pairs = _walk(best_tab, end, k)
        incs = sorted((abs(values[b] - values[a]) for a, b in pairs), reverse=True)
        val = objective.objective(incs)
        if val > lower:
            lower, witness_pairs = val, pairs
    upper = float(_future_bounds(f.values, objective, min_len)[0])
    upper = max(upper, lower)
    return lower, upper, IntervalCollection.from_pairs(f, witness_pairs)


def _rank_solve(f, objective, min_len, oracle_cap):
    if objective.rank_free is not None:
        value, witness, _ = _dp_solve(f, objective.rank_free, min_len)
        return value, value, value, witness, "exact-dp"
    if min_len > f.m:
        empty = IntervalCollection.from_pairs(f, [])
        return 0.0, 0.0, 0.0, empty, "exact-oracle"
    if f.m <= oracle_cap:
        value, witness = _branch_and_bound(f, objective, min_len)
        return value, value, value, witness, "exact-oracle"
    lower, upper, witness = _rank_bounds(f, objective, min_len)
    return lower, lower, upper, witness, "bounds"


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
    increments matched to weights in descending order."""
    if p < 1:
        raise ValidationError("p must be >= 1")
    objective = _WeightedPower(weights, p)
    inner, lo, up, witness, mode = _rank_solve(f, objective, 1, oracle_cap)
    root = lambda v: v ** (1.0 / p)
    return VariationResult(value=root(inner), mode=mode, lower=root(lo),
                           upper=root(up), witness=witness)


def variation_schramm(f: StepFunction, family: SchrammFamily,
                      oracle_cap: int = ORACLE_CAP_DEFAULT) -> VariationResult:
    """``sup sum phi_j(|f(I_j)|)`` over nonoverlapping collections."""
    objective = _SchrammGain(family)
    inner, lo, up, witness, mode = _rank_solve(f, objective, 1, oracle_cap)
    return VariationResult(value=inner, mode=mode, lower=lo, upper=up,
                           witness=witness)


def variation_gauged(f: StepFunction, weights: WeightSequence, gauge: GaugePair,
                     n_cap: int, oracle_cap: int = ORACLE_CAP_DEFAULT) -> VariationResult:
    """Constrained variation: max over levels n <= n_cap of the supremum of
    ``(sum |f(I_j)|^{q_n} / lam_j)^{1/q_n}`` over collections whose
    intervals all have length >= ``ceil(m / delta_n)`` grid cells.

    On the grid the interval count is implicitly capped at
    ``floor(m / min_len) <= delta_n``, which coincides with the count cap
    used in the sufficiency arguments.
    """
    if not 1 <= n_cap <= gauge.n_max:
        raise ValidationError(f"n_cap must be in 1..{gauge.n_max}")
    m = f.m
    empty = IntervalCollection.from_pairs(f, [])
    best = VariationResult(0.0, "exact-dp", 0.0, 0.0, empty, level=None)
    all_exact = True
    cache = {}
    for n in range(1, n_cap + 1):
        q_n, delta_n = gauge.level(n)
        min_len = max(1, math.ceil(m / delta_n))
        if min_len > m:
            continue
        key = (q_n, min_len)
        if key in cache:
            value, lo, up, witness, mode = cache[key]
        else:
            objective = _WeightedPower(weights, q_n)
            inner, lo, up, witness, mode = _rank_solve(
                f, objective, min_len, oracle_cap)
            value = inner ** (1.0 / q_n)
            lo, up = lo ** (1.0 / q_n), up ** (1.0 / q_n)
            cache[key] = (value, lo, up, witness, mode)
        if mode == "bounds":
            all_exact = False
        if value > best.value:
            best = VariationResult(value, mode, lo, up, witness, level=n)
    mode = best.mode if all_exact else "bounds"
    upper = max(c[2] for c in cache.values()) if cache else 0.0
    return VariationResult(value=best.value, mode=mode, lower=best.lower,
                           upper=max(upper, best.upper), witness=best.witness,
                           level=best.level)


def schramm_norm(f: StepFunction, family: SchrammFamily, f_a: float | None = None,
                 oracle_cap: int = ORACLE_CAP_DEFAULT, rel_tol: float = 1e-10) -> float:
    """Luxemburg-style norm ``|f(a)| + inf{c > 0 : V_Phi(f/c) <= 1}``.

    For a family homogeneous of degree d (``family.degree``: a power base,
    or explicit terms sharing one exponent) ``V_Phi(f/c) = c^-d V_Phi(f)``,
    so the infimum is ``V_Phi(f)^(1/d)``: one variation call. Other
    families (the ``expm1`` base, mixed exponents) find it by bracket
    doubling plus bisection to ``rel_tol``, since ``c -> V_Phi(f/c)`` is
    nonincreasing.

    Above ``oracle_cap`` grid cells the variation is only bracketed and its
    certified lower bound is used, so the norm returned is a lower bound on
    the true norm; for a homogeneous family the true norm lies in
    ``[|f(a)| + lower^(1/d), |f(a)| + upper^(1/d)]`` of
    :func:`variation_schramm`.
    """
    if f_a is None:
        f_a = float(f.values[0])
    if np.ptp(f.values) == 0.0:
        return abs(f_a)
    degree = family.degree
    if degree is not None:
        # in bounds mode the value is the certified lower bound
        return abs(f_a) + variation_schramm(f, family, oracle_cap).value ** (1.0 / degree)

    def var_at(c):
        return variation_schramm(f.scaled(1.0 / c), family, oracle_cap).value

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
        if hi - lo <= rel_tol * hi:
            break
    return abs(f_a) + 0.5 * (lo + hi)
