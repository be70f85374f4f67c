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
branch-and-bound up to ``oracle_cap`` grid cells and fall back to
certified lower/upper bounds beyond it. The Waterman-Shiba variation is the
p-th root of the Schramm variation of phi_j(x) = x^p / lam_j, and each
gauged level is that family at q_n, so one rank objective serves all three.
"""

from __future__ import annotations

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
# rank-dependent objective

class _RankGains:
    """The rank objective ``sum_j phi_j(x_j)`` of an ordered Schramm family,
    phi_1 >= phi_2 >= ... for every x, with per-rank gains as Python floats.

    The Waterman-Shiba inner sum ``sum x_j^p / lam_j`` is the scaled family
    ``SchrammFamily.power(p, weights)`` and each gauged level is that family
    at q_n, so this one objective serves every rank-dependent solve.
    """

    def __init__(self, family: SchrammFamily):
        self.family = family
        self._ranks = []  # lam_j or (c_j, e_j) per rank, grown on demand
        #: the gain every rank shares when phi_j does not depend on j, else None
        self.rank_free = None
        #: rank-free gain of the witness-producing lower-bound DPs
        self.surrogate = lambda x: x
        # the per-rank formula is picked once; scalar ** is libm pow, and
        # numpy's array power can differ in the last bit
        if family.kind == "explicit":
            self._sum = lambda xs, terms: sum([c * x ** e for x, (c, e) in zip(xs, terms)])
            if len(set(family.terms)) == 1:
                c, e = family.terms[0]
                self.rank_free = lambda x: c * x ** e
            return
        w = family.weights
        if family.base.shape == "power":
            p = family.base.p
            self._sum = lambda xs, lams: sum([x ** p / lam for x, lam in zip(xs, lams)])
            # numpy's ** takes exact fast paths (x^1 as a copy, x^2 as x*x)
            # that np.power does not
            self.surrogate = lambda x: x ** p
        else:
            self._sum = lambda xs, lams: sum([math.expm1(x) / lam
                                              for x, lam in zip(xs, lams)])
            self.surrogate = family.base
        if w.kind == "constant" or (w.kind == "explicit"
                                    and len(set(w.terms[:w.k_max])) == 1):
            base, c = self.surrogate, 1.0 / w.weight(1)
            self.rank_free = lambda x: c * base(x)

    def __call__(self, xs):
        """``phi_1(xs[0]) + phi_2(xs[1]) + ...`` for descending increments."""
        ranks = self._ranks
        if len(xs) > len(ranks):
            ranks = self.ranks(len(xs))
        try:
            return self._sum(xs, ranks)
        except OverflowError:  # a gain past the largest float, as numpy's inf
            return math.inf

    def ranks(self, n):
        """lam_j or (c_j, e_j) for ranks 1..n; past the horizon, a
        :class:`HorizonError` that names the first rank it lacks."""
        family = self.family
        if n > family.k_max:
            raise HorizonError(
                f"index {family.k_max + 1} outside horizon 1..{family.k_max}")
        if family.kind == "scaled":
            self._ranks = family.weights.weights(n).tolist()
        else:
            terms = family.terms  # extended beyond the list by the last pair
            self._ranks = [*terms[:n], *[terms[-1]] * (n - len(terms))]
        return self._ranks


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
        F[pos] = objective(caps.tolist())
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
                visit(b, pairs, merged, objective(merged))
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
        val = objective(incs)
        if val > lower:
            lower, witness_pairs = val, pairs
    upper = max(float(_future_bounds(f.values, objective, min_len)[0]), lower)
    return lower, upper, IntervalCollection.from_pairs(f, witness_pairs)


def _rank_solve(f, family, min_len, oracle_cap, p=1.0):
    """``sup sum phi_j(|f(I_j)|)`` over collections of intervals of grid
    length >= ``min_len``, with value and bounds raised to ``1/p``.

    A rank-free family (every phi_j the same function) is an exact DP at
    any m, and raises past the horizon as the branch-and-bound does;
    otherwise branch-and-bound is exact up to ``oracle_cap`` grid
    cells and certified bounds take over beyond it.
    """
    objective = _RankGains(family)
    if objective.rank_free is not None:
        value, witness, _ = _dp_solve(f, objective.rank_free, min_len)
        if value > 0:
            # the DP may charge every rank up to m // min_len; ask for them
            # all, as the B&B's future bound does, to keep the horizon
            objective.ranks(f.m // min_len)
        lower, upper, mode = value, value, "exact-dp"
    elif f.m <= oracle_cap:
        value, witness = _branch_and_bound(f, objective, min_len)
        lower, upper, mode = value, value, "exact-oracle"
    else:
        lower, upper, witness = _rank_bounds(f, objective, min_len)
        value, mode = lower, "bounds"
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
                 oracle_cap: int = ORACLE_CAP_DEFAULT, rel_tol: float = 1e-10) -> float:
    """Luxemburg-style norm ``|f(a)| + inf{c > 0 : V_Phi(f/c) <= 1}``.

    For a family homogeneous of degree d (``family.degree``: a power base,
    or explicit terms sharing one exponent) ``V_Phi(f/c) = c^-d V_Phi(f)``,
    so the infimum is ``V_Phi(f)^(1/d)``: one variation call. Other
    families (the ``expm1`` base, mixed exponents) find it by bracket
    doubling plus bisection to ``rel_tol``, since ``c -> V_Phi(f/c)`` is
    nonincreasing.

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
