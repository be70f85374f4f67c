"""Property-test engine for the rearrangement-style inequalities.

Everything here is a check: given concrete vectors, evaluate both sides of
an inequality, report values and a boolean. Randomized suites draw
monotone vectors as sorted exponentials of uniform samples with fixed
seeds, so reports are reproducible byte for byte.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .criteria import check_ratio_nondecreasing
from .errors import HypothesisError, ValidationError
from .sequences import SchrammFamily, WeightSequence

REL_SLACK = 1e-9
WU_CONSTANT = 16.0


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
            if np.any(v <= 0):
                raise ValidationError(f"{name} must be positive")
            if np.any(np.diff(v) > 1e-15 * v[:-1]):
                raise ValidationError(f"{name} must be nonincreasing")
            object.__setattr__(self, name, v)
        if self.q < 1:
            raise ValidationError("q must be >= 1")

    @property
    def n(self):
        return len(self.x)


def monotone_vector(rng, n, scale=1.0):
    """Positive nonincreasing vector: sorted exponentials of uniforms."""
    v = np.exp(rng.uniform(-3.0, 2.0, size=n)) * scale
    return np.sort(v)[::-1]


def check_master_inequality(sample: TripleSample):
    """``(sum x^q z)^(1/q) <= (sum x y) * max_k (sum_k z)^(1/q) / (sum_k y)``."""
    x, y, z, q = sample.x, sample.y, sample.z, sample.q
    lhs = float(np.sum(x ** q * z)) ** (1.0 / q)
    cz = np.cumsum(z)
    cy = np.cumsum(y)
    factor = float(np.max(cz ** (1.0 / q) / cy))
    rhs = float(np.sum(x * y)) * factor
    return {"lhs": lhs, "rhs": rhs, "ok": lhs <= rhs * (1 + REL_SLACK)}


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


def check_weighted_comparison(a, w_lambda: WeightSequence, w_gamma: WeightSequence, C):
    """Perlman-Waterman comparison: if ``Gamma(k) <= C * Lambda(k)`` for all
    prefixes, then ``sum a_j/gamma_j <= C sum a_j/lambda_j`` for every
    nonincreasing nonnegative ``a``.

    Verified both directly and as the q = 1 instance of the master
    inequality.
    """
    a = np.asarray(a, dtype=float)
    if np.any(a < 0) or np.any(np.diff(a) > 1e-15 * np.maximum(a[:-1], 1e-300)):
        raise ValidationError("a must be nonnegative nonincreasing")
    n = len(a)
    gam = w_gamma.prefix_sums(n)
    lam = w_lambda.prefix_sums(n)
    bad = np.where(gam > C * lam * (1 + 1e-12))[0]
    if len(bad):
        raise HypothesisError(
            f"prefix hypothesis Gamma(k) <= C Lambda(k) fails at k={int(bad[0]) + 1}",
            index=int(bad[0]) + 1)
    lhs = float(np.sum(a / w_gamma.weights(n)))
    rhs = C * float(np.sum(a / w_lambda.weights(n)))
    ok = lhs <= rhs * (1 + REL_SLACK)
    # same statement through the master inequality with q = 1
    master_rhs = float(np.sum(a / w_lambda.weights(n))) * float(np.max(gam / lam))
    ok_master = lhs <= master_rhs * (1 + REL_SLACK) and master_rhs <= rhs * (1 + REL_SLACK)
    return {"lhs": lhs, "rhs": rhs, "ok": ok, "ok_master_route": ok_master}


def check_holder_branch(x, w_lambda: WeightSequence, w_gamma: WeightSequence,
                        p, q_n, s=None):
    """The small-exponent branch: for ``q_n < p`` and Gamma/Lambda
    nondecreasing,

    ``sum_{j<=s} x_j^{q_n}/gamma_j
        <= (sum_{j<=s} x_j^p/lambda_j)^{q_n/p} * max_{k<=s} Gamma(k) Lambda(k)^{-q_n/p}``.
    """
    x = np.asarray(x, dtype=float)
    if s is None:
        s = len(x)
    if not 1 <= s <= len(x):
        raise ValidationError("s out of range")
    if not q_n < p:
        raise ValidationError("this branch needs q_n < p")
    x = x[:s]
    if np.any(x < 0) or np.any(np.diff(x) > 1e-15 * np.maximum(x[:-1], 1e-300)):
        raise ValidationError("x must be nonnegative nonincreasing")
    check_ratio_nondecreasing(w_gamma, w_lambda, s)
    gam = w_gamma.prefix_sums(s)
    lam = w_lambda.prefix_sums(s)
    lhs = float(np.sum(x ** q_n / w_gamma.weights(s)))
    inner = float(np.sum(x ** p / w_lambda.weights(s)))
    kernel = float(np.max(gam * lam ** (-q_n / p)))
    rhs = inner ** (q_n / p) * kernel
    return {"lhs": lhs, "rhs": rhs, "ok": lhs <= rhs * (1 + REL_SLACK)}


def check_wu_estimate(x, family: SchrammFamily, q):
    """``(sum x_j^q)^{1/q} <= 16 max_k k^{1/q} Phi_k^{-1}(V)`` where
    ``V = sum phi_j(x_j)`` (descending assignment; any permutation only
    increases the budget).

    Returns the observed ratio against the rhs without the constant 16.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    if np.any(x < 0) or np.any(np.diff(x) > 1e-15 * np.maximum(x[:-1], 1e-300)):
        raise ValidationError("x must be nonnegative nonincreasing")
    if q < 1:
        raise ValidationError("q must be >= 1")
    V = family.rank_sum(x.tolist())
    lhs = float(np.sum(x ** q)) ** (1.0 / q)
    if V == 0.0:
        return {"lhs": lhs, "rhs": 0.0, "ok": lhs == 0.0, "ratio": 0.0}
    ks = np.arange(1, n + 1)
    inv = np.asarray(family.partial_inverse_many(ks, V), dtype=float)
    core = float(np.max(ks ** (1.0 / q) * inv))
    rhs = WU_CONSTANT * core
    return {"lhs": lhs, "rhs": rhs, "ok": lhs <= rhs * (1 + REL_SLACK),
            "ratio": lhs / core if core > 0 else math.inf}


# ---------------------------------------------------------------------------
# randomized suites

def _check_horizon(n_max, *readers):
    """Raise before any sample is drawn if a length up to ``n_max`` would
    read past the horizon of a weight sequence or family."""
    for r in readers:
        if n_max > r.k_max:
            raise ValidationError(
                f"suite draws lengths up to n_max={n_max}, beyond the horizon "
                f"k_max={r.k_max} of {r!r}")


def run_master_suite(seed, samples=10000, q_list=(1.0, 1.5, 2.0, 3.0, 10.0),
                     n_max=64):
    rng = np.random.default_rng(seed)
    failures = 0
    worst = {"margin": math.inf, "case": None}
    for q in q_list:
        for i in range(samples):
            n = int(rng.integers(1, n_max + 1))
            s = TripleSample(monotone_vector(rng, n), monotone_vector(rng, n),
                             monotone_vector(rng, n), q)
            res = check_master_inequality(s)
            if not res["ok"]:
                failures += 1
            margin = res["rhs"] / res["lhs"] if res["lhs"] > 0 else math.inf
            if margin < worst["margin"]:
                worst = {"margin": margin, "case": {"q": q, "i": i, "n": n,
                                                    "lhs": res["lhs"],
                                                    "rhs": res["rhs"]}}
    return {"suite": "master", "seed": seed, "samples_per_q": samples,
            "q_list": list(q_list), "failures": failures,
            "worst_margin": worst["margin"], "worst_case": worst["case"]}


def run_wu_suite(seed, samples, families, q_list=(1.0, 2.0), n_max=32):
    _check_horizon(n_max, *families,
                   *(fam.weights for fam in families if fam.weights is not None))
    rng = np.random.default_rng(seed)
    failures = 0
    worst_ratio = 0.0
    worst_case = None
    for fam_idx, family in enumerate(families):
        for q in q_list:
            for i in range(samples):
                n = int(rng.integers(1, n_max + 1))
                x = monotone_vector(rng, n)
                res = check_wu_estimate(x, family, q)
                if not res["ok"]:
                    failures += 1
                if res["ratio"] > worst_ratio:
                    worst_ratio = res["ratio"]
                    worst_case = {"family": fam_idx, "q": q, "i": i, "n": n}
    return {"suite": "wu", "seed": seed, "samples": samples,
            "families": len(families), "failures": failures,
            "worst_ratio_without_16": worst_ratio,
            "worst_case": worst_case}


def run_holder_suite(seed, samples, w_lambda, w_gamma, p=2.0, q_n=1.0, n_max=32):
    _check_horizon(n_max, w_lambda, w_gamma)
    rng = np.random.default_rng(seed)
    failures = 0
    worst = {"margin": math.inf, "case": None}
    for i in range(samples):
        n = int(rng.integers(1, n_max + 1))
        x = monotone_vector(rng, n)
        res = check_holder_branch(x, w_lambda, w_gamma, p, q_n)
        if not res["ok"]:
            failures += 1
        margin = res["rhs"] / res["lhs"] if res["lhs"] > 0 else math.inf
        if margin < worst["margin"]:
            worst = {"margin": margin, "case": {"i": i, "n": n}}
    return {"suite": "holder", "seed": seed, "samples": samples, "p": p,
            "q_n": q_n, "failures": failures, "worst_margin": worst["margin"],
            "worst_case": worst["case"]}


def run_comparison_suite(seed, samples, w_lambda, w_gamma, n_max=64):
    _check_horizon(n_max, w_lambda, w_gamma)
    rng = np.random.default_rng(seed)
    failures = 0
    for i in range(samples):
        n = int(rng.integers(1, n_max + 1))
        a = monotone_vector(rng, n)
        C = float(np.max(w_gamma.prefix_sums(n) / w_lambda.prefix_sums(n)))
        res = check_weighted_comparison(a, w_lambda, w_gamma, C)
        if not (res["ok"] and res["ok_master_route"]):
            failures += 1
    return {"suite": "comparison", "seed": seed, "samples": samples,
            "failures": failures}
