"""Property-test engine for the rearrangement-style inequalities.

Everything here is a check: given concrete vectors, evaluate both sides of
an inequality, report values and a boolean. Randomized suites draw
monotone vectors as sorted exponentials of uniform samples with fixed
seeds, so reports are reproducible byte for byte.

Each inequality is written once, over a batch: a zero-padded (cases, width)
array with each case's length. A suite checks ``SUITE_CHUNK`` drawn cases
at a time, so its memory does not grow with ``samples``, and a single-case
checker runs the same code on a batch of one. Row sums are running sums,
which zero padding cannot change, so a case gives the same floats in any
batch and a suite's report is the fold of its single-case checker.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import HypothesisError, ValidationError
from .sequences import SchrammFamily, WeightSequence, check_q, check_real, check_whole

REL_SLACK = 1e-9
WU_CONSTANT = 16.0
#: cases a suite draws and checks together; bounds its temporaries and is
#: part of the definition of its draws
SUITE_CHUNK = 256


def _rises(v, floor=1e-300):
    """Whether a row of ``v`` rises anywhere by more than 1e-15 of the entry
    before it (floored at ``floor``): the one test of a nonincreasing
    vector. The zero padding past a nonnegative row's end never rises."""
    return bool(np.any(np.diff(v, axis=-1) > 1e-15 * np.maximum(v[..., :-1], floor)))


def _check_positive(name, v, mask=True):
    """Raise unless the rows of ``v`` are positive where ``mask`` holds and
    nonincreasing."""
    if np.any((v <= 0) & mask):
        raise ValidationError(f"{name} must be positive")
    if _rises(v, 0.0):
        raise ValidationError(f"{name} must be nonincreasing")


def _row_sums(a):
    """Each row's sum as a running sum, so zero padding past a row's end
    cannot change it; a contiguous array, so that a power taken of it runs
    numpy's contiguous loop."""
    return np.ascontiguousarray(np.cumsum(a, axis=1)[:, -1])


def _holds(lhs, rhs):
    return lhs <= rhs * (1 + REL_SLACK)


def _case(lhs, rhs, **extra):
    """The report of a batch of one."""
    return {"lhs": lhs.item(), "rhs": rhs.item(), "ok": bool(_holds(lhs, rhs)[0]), **extra}


def _least_margin(lhs, rhs):
    """The first least margin rhs/lhs of a batch (inf where lhs is 0) and
    its index."""
    margin = np.divide(rhs, lhs, out=np.full(len(lhs), math.inf), where=lhs > 0)
    j = int(np.argmin(margin))
    return margin[j].item(), j


@dataclass(frozen=True)
class TripleSample:
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    q: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.ndim != 1 or len(v) < 1:
                raise ValidationError(f"{name} must be a nonempty vector")
            _check_positive(name, v)
            object.__setattr__(self, name, v)
        check_q(self.q)


def _monotone_rows(u):
    """Sorted exponentials of the uniforms ``u`` along the last axis,
    largest first: positive nonincreasing vectors, zero where ``u`` is -inf
    (the padding past a vector's length). The one definition of a drawn
    vector."""
    return -np.sort(-np.exp(u), axis=-1)


def monotone_vector(rng, n):
    """Positive nonincreasing vector: sorted exponentials of uniforms."""
    return _monotone_rows(rng.uniform(-3.0, 2.0, size=check_whole("n", n, 1)))


def _chunks(rng, samples, n_max, vectors=1):
    """``(start, lengths, vs)`` for each chunk of up to ``SUITE_CHUNK`` of
    ``samples`` draws from ``rng``, where draw ``start + i`` is a length
    ``lengths[i]`` in 1..n_max, then ``vectors`` monotone vectors of that
    length, one row each of the zero-padded (rows, n_max) arrays ``vs``.

    A chunk makes two generator calls: its lengths, then one
    (vectors, rows, n_max) block of uniforms, whose entries past a row's
    length become the -inf padding. The drawn numbers therefore depend on
    ``SUITE_CHUNK``, which is part of the definition of a suite's draws."""
    for start in range(0, samples, SUITE_CHUNK):
        rows = min(SUITE_CHUNK, samples - start)
        lengths = rng.integers(1, n_max + 1, size=rows)
        u = rng.uniform(-3.0, 2.0, size=(vectors, rows, n_max))
        u[:, np.arange(n_max) >= lengths[:, None]] = -math.inf
        yield start, lengths, _monotone_rows(u)


def _master_rows(x, y, z, q):
    """Both sides of the master inequality per row of zero-padded arrays:
    padding repeats the last prefix ratio, which leaves its max alone."""
    lhs = _row_sums(x ** q * z) ** (1.0 / q)
    factor = np.max(np.cumsum(z, axis=1) ** (1.0 / q) / np.cumsum(y, axis=1), axis=1)
    return lhs, _row_sums(x * y) * factor


def check_master_inequality(sample: TripleSample):
    """``(sum x^q z)^(1/q) <= (sum x y) * max_k (sum_k z)^(1/q) / (sum_k y)``."""
    return _case(*_master_rows(sample.x[None], sample.y[None], sample.z[None], sample.q))


@lru_cache(maxsize=8)
def _simplex_directions(n, denom):
    """All nonincreasing integer vectors of length n with entries in
    0..denom, excluding the zero vector, as one array."""
    rows = [c[::-1] for c in
            itertools.combinations_with_replacement(range(denom + 1), n)]
    arr = np.array(rows, dtype=float)
    return arr[np.any(arr > 0, axis=1)]


def extremal_profile(n, y, z, q, grid=40):
    """Brute-force the maximum of ``sum x^q z`` over nonincreasing x with
    ``sum x y = 1``, and compare with the k-block closed form.

    The objective is scale-invariant after normalization, so it is enough
    to scan integer direction vectors with entries up to ``grid``.
    """
    n, grid = check_whole("n", n, 1), check_whole("grid", grid, 1)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if len(y) != n or len(z) != n:
        raise ValidationError("y and z must have length n")
    u = _simplex_directions(n, grid)
    denom = u @ y
    obj = (u ** q) @ z / denom ** q
    i = int(np.argmax(obj))
    closed = float(np.max(np.cumsum(z) / np.cumsum(y) ** q))
    best_x = u[i] / denom[i]
    k_star = int(np.argmax(np.cumsum(z) / np.cumsum(y) ** q)) + 1
    return {
        "grid_max": float(obj[i]),
        "closed_form": closed,
        "argmax_x": best_x,
        "argmax_k": k_star,
    }


def _comparison_rows(a, lengths, w_lambda, w_gamma, C):
    """Both sides of the weighted comparison per row of a zero-padded array
    with constants ``C``, and whether the master route agrees."""
    if np.any(a < 0) or _rises(a):
        raise ValidationError("a must be nonnegative nonincreasing")
    width = a.shape[1]
    gam = w_gamma.prefix_sums(width)
    lam = w_lambda.prefix_sums(width)
    bad = (np.arange(width) < lengths[:, None]) & (gam > C[:, None] * lam * (1 + 1e-12))
    if bad.any():
        k = int(np.argmax(bad)) % width + 1  # in the first row that fails
        raise HypothesisError(
            f"prefix hypothesis Gamma(k) <= C Lambda(k) fails at k={k}", index=k)
    lhs = _row_sums(a / w_gamma.weights(width))
    by_lambda = _row_sums(a / w_lambda.weights(width))
    rhs = C * by_lambda
    # same statement through the master inequality with q = 1
    master_rhs = by_lambda * np.maximum.accumulate(gam / lam)[lengths - 1]
    return lhs, rhs, _holds(lhs, master_rhs) & _holds(master_rhs, rhs)


def check_weighted_comparison(a, w_lambda: WeightSequence, w_gamma: WeightSequence, C):
    """Perlman-Waterman comparison: if ``Gamma(k) <= C * Lambda(k)`` for all
    prefixes, then ``sum a_j/gamma_j <= C sum a_j/lambda_j`` for every
    nonincreasing nonnegative ``a``.

    Verified both directly and as the q = 1 instance of the master
    inequality.
    """
    a = np.asarray(a, dtype=float)
    lhs, rhs, ok_master = _comparison_rows(a[None], np.array([len(a)]), w_lambda, w_gamma,
                                           np.array([C], dtype=float))
    return _case(lhs, rhs, ok_master_route=bool(ok_master[0]))


def _holder_rows(x, lengths, w_lambda, w_gamma, p, q_n):
    """Both sides of the Hoelder branch per row of a zero-padded array."""
    if not 1 <= check_real("q_n", q_n) < check_real("p", p) < math.inf:
        raise ValidationError(f"this branch needs 1 <= q_n < p < inf (q_n={q_n}, p={p})")
    if np.any(lengths < 1) or np.any(x < 0) or _rises(x):
        raise ValidationError("x must be nonempty, nonnegative and nonincreasing")
    w_gamma.check_rising_ratio(w_lambda, int(lengths.max()))
    width = x.shape[1]
    lam = w_lambda.prefix_sums(width)
    lhs = _row_sums(x ** q_n / w_gamma.weights(width))
    inner = _row_sums(x ** p / w_lambda.weights(width))
    kernel = np.maximum.accumulate(w_gamma.prefix_sums(width) * lam ** (-q_n / p))
    return lhs, inner ** (q_n / p) * kernel[lengths - 1]


def check_holder_branch(x, w_lambda: WeightSequence, w_gamma: WeightSequence,
                        p, q_n):
    """The small-exponent branch: for ``1 <= q_n < p < inf`` and
    Gamma/Lambda nondecreasing, with ``s = len(x)``,

    ``sum_{j<=s} x_j^{q_n}/gamma_j
        <= (sum_{j<=s} x_j^p/lambda_j)^{q_n/p} * max_{k<=s} Gamma(k) Lambda(k)^{-q_n/p}``.
    """
    x = np.asarray(x, dtype=float)
    return _case(*_holder_rows(x[None], np.array([len(x)]), w_lambda, w_gamma, p, q_n))


def _wu_rows(x, lengths, family, q):
    """Both sides of the Wu estimate per row of a zero-padded array, and
    the ratio of the lhs to the rhs without the constant 16."""
    if np.any(x < 0) or _rises(x):
        raise ValidationError("x must be nonnegative nonincreasing")
    check_q(q)
    V = np.array([family.rank_sum(row[:n]) for row, n in zip(x.tolist(), lengths.tolist())])
    lhs = _row_sums(x ** q) ** (1.0 / q)
    # Phi_k^{-1}(V) at every k <= n of every row, in one call; 0 past n
    ks = np.arange(1, x.shape[1] + 1)
    inside = ks <= lengths[:, None]
    inv = np.zeros(x.shape)
    inv[inside] = family.partial_inverse_many(np.broadcast_to(ks, x.shape)[inside],
                                              np.repeat(V, lengths))
    core = np.max(ks ** (1.0 / q) * inv, axis=1)
    ratio = np.divide(lhs, core, out=np.full(len(x), math.inf), where=core > 0)
    ratio[V == 0.0] = 0.0
    return lhs, WU_CONSTANT * core, ratio


def check_wu_estimate(x, family: SchrammFamily, q):
    """``(sum x_j^q)^{1/q} <= 16 max_k k^{1/q} Phi_k^{-1}(V)`` where
    ``V = sum phi_j(x_j)`` (descending assignment; any permutation only
    increases the budget).

    Returns the observed ratio against the rhs without the constant 16.
    """
    x = np.asarray(x, dtype=float)
    # a batch of one, padded to width 1 so that an empty x sums to 0
    row = np.zeros((1, max(len(x), 1)))
    row[0, :len(x)] = x
    lhs, rhs, ratio = _wu_rows(row, np.array([len(x)]), family, q)
    return _case(lhs, rhs, ratio=ratio.item())


# ---------------------------------------------------------------------------
# randomized suites

def _check_suite(seed, samples, n_max, *readers):
    """``(seed, samples, n_max)`` as ints, checked before any sample is
    drawn: a seed >= 0, at least one sample, and lengths up to ``n_max >=
    1`` that read inside the horizon of every weight sequence or family of
    ``readers``."""
    seed, samples = check_whole("seed", seed, 0), check_whole("samples", samples, 1)
    n_max = check_whole("n_max", n_max, 1)
    for r in readers:
        if n_max > r.k_max:
            raise ValidationError(
                f"suite draws lengths up to n_max={n_max}, beyond the horizon "
                f"k_max={r.k_max} of {r!r}")
    return seed, samples, n_max


def run_master_suite(seed, samples=10000, q_list=(1.0, 1.5, 2.0, 3.0, 10.0),
                     n_max=64):
    seed, samples, n_max = _check_suite(seed, samples, n_max)
    rng = np.random.default_rng(seed)
    failures, worst, worst_case = 0, math.inf, None
    for q in q_list:
        check_q(q)
        for start, lengths, (x, y, z) in _chunks(rng, samples, n_max, 3):
            mask = np.arange(n_max) < lengths[:, None]
            for name, v in (("x", x), ("y", y), ("z", z)):
                _check_positive(name, v, mask)
            lhs, rhs = _master_rows(x, y, z, q)
            failures += int(np.count_nonzero(~_holds(lhs, rhs)))
            margin, j = _least_margin(lhs, rhs)
            if margin < worst:
                worst, worst_case = margin, {"q": q, "i": start + j, "n": int(lengths[j]),
                                             "lhs": lhs[j].item(), "rhs": rhs[j].item()}
    return {"suite": "master", "seed": seed, "samples_per_q": samples,
            "q_list": list(q_list), "failures": failures,
            "worst_margin": worst, "worst_case": worst_case}


def run_wu_suite(seed, samples, families, q_list=(1.0, 2.0), n_max=32):
    seed, samples, n_max = _check_suite(
        seed, samples, n_max, *families,
        *(fam.weights for fam in families if fam.weights is not None))
    rng = np.random.default_rng(seed)
    failures, worst, worst_case = 0, 0.0, None
    for fam_idx, family in enumerate(families):
        for q in q_list:
            for start, lengths, (x,) in _chunks(rng, samples, n_max):
                lhs, rhs, ratio = _wu_rows(x, lengths, family, q)
                failures += int(np.count_nonzero(~_holds(lhs, rhs)))
                j = int(np.argmax(ratio))
                if ratio[j] > worst:
                    worst, worst_case = ratio[j].item(), {
                        "family": fam_idx, "q": q, "i": start + j, "n": int(lengths[j])}
    return {"suite": "wu", "seed": seed, "samples": samples,
            "families": len(families), "failures": failures,
            "worst_ratio_without_16": worst,
            "worst_case": worst_case}


def run_holder_suite(seed, samples, w_lambda, w_gamma, p=2.0, q_n=1.0, n_max=32):
    seed, samples, n_max = _check_suite(seed, samples, n_max, w_lambda, w_gamma)
    failures, worst, worst_case = 0, math.inf, None
    for start, lengths, (x,) in _chunks(np.random.default_rng(seed), samples, n_max):
        lhs, rhs = _holder_rows(x, lengths, w_lambda, w_gamma, p, q_n)
        failures += int(np.count_nonzero(~_holds(lhs, rhs)))
        margin, j = _least_margin(lhs, rhs)
        if margin < worst:
            worst, worst_case = margin, {"i": start + j, "n": int(lengths[j])}
    return {"suite": "holder", "seed": seed, "samples": samples, "p": p,
            "q_n": q_n, "failures": failures, "worst_margin": worst,
            "worst_case": worst_case}


def run_comparison_suite(seed, samples, w_lambda, w_gamma, n_max=64):
    seed, samples, n_max = _check_suite(seed, samples, n_max, w_lambda, w_gamma)
    # C for a length n: the least constant of the prefix hypothesis up to n
    least_c = np.maximum.accumulate(w_gamma.prefix_sums(n_max) / w_lambda.prefix_sums(n_max))
    failures = 0
    for _, lengths, (a,) in _chunks(np.random.default_rng(seed), samples, n_max):
        C = least_c[lengths - 1]
        lhs, rhs, ok_master = _comparison_rows(a, lengths, w_lambda, w_gamma, C)
        failures += int(np.count_nonzero(~(_holds(lhs, rhs) & ok_master)))
    return {"suite": "comparison", "seed": seed, "samples": samples,
            "failures": failures}
