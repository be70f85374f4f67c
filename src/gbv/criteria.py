"""Truncated embedding-criterion scans.

Each criterion is a limsup-of-max over sequence growth kernels. A limsup
is undecidable from finitely many terms, so reports carry the truncated
running sup together with a least-squares slope of ``log a_n`` over the
last half of the levels; the verdict is ``diverging-trend`` iff that slope
exceeds ``SLOPE_TOL``, and ``bounded-up-to-horizon`` otherwise.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import HorizonError, HypothesisError, ValidationError
from .sequences import (INVERSE_TOL, ConvexBase, GaugePair, SchrammFamily,
                        WeightSequence)

SLOPE_TOL = 0.01
DENSE_SCAN_CAP = 1 << 20
GEOMETRIC_POINTS_PER_BINADE = 64

VERDICT_BOUNDED = "bounded-up-to-horizon"
VERDICT_DIVERGING = "diverging-trend"


@dataclass(frozen=True)
class CriterionReport:
    levels: tuple  # of dicts {"n": int, "a_n": float, "argmax_k": int}
    sup: float
    argmax_level: int
    verdict: str
    slope: float
    horizon: int
    inexact_scan: bool = False

    def to_json_dict(self):
        return {
            "levels": [dict(lv) for lv in self.levels],
            "sup": self.sup,
            "argmax_level": self.argmax_level,
            "verdict": self.verdict,
            "slope": self.slope,
            "horizon": self.horizon,
            "inexact_scan": self.inexact_scan,
        }

    def to_csv(self):
        buf = io.StringIO()
        buf.write("n,a_n,argmax_k\n")
        for lv in self.levels:
            buf.write(f"{lv['n']},{lv['a_n']!r},{lv['argmax_k']}\n")
        return buf.getvalue()


def _geometric_ks(delta):
    """A geometric grid over 1..delta with both endpoints."""
    count = int(math.log2(delta) * GEOMETRIC_POINTS_PER_BINADE)
    return np.unique(np.concatenate([
        [1, delta],
        np.geomspace(1, delta, count).astype(np.int64),
    ]))


def level_kernels(gauge, n_cap, horizon, parts, *, dense=False):
    """Yield ``(n, ks, g(ks)^{1/q_n} h(ks))`` for the levels ``n = 1..n_cap``.

    Level n scans ``1..min(delta_n, horizon)``: densely up to
    ``DENSE_SCAN_CAP`` (always with ``dense``), on a geometric grid beyond
    (inexact: ``len(ks) < ks[-1]``). ``parts(ks) -> (g, h)`` is called once,
    on the union of every level's scan; only the exponent depends on n.
    """
    tops = [min(int(d), horizon) for d in gauge.deltas[:n_cap]]
    if not tops:
        return
    dense_top = max([t for t in tops if dense or t <= DENSE_SCAN_CAP], default=0)
    grids = {t: _geometric_ks(t) for t in tops if t > dense_top}
    # the dense part is sorted and distinct already; np.unique on it would
    # cost more than the scan
    extra = np.unique(np.concatenate([[dense_top], *grids.values()]))
    ks = np.concatenate([np.arange(1, dense_top + 1), extra[extra > dense_top]])
    g, h = parts(ks)
    for n, top in enumerate(tops, 1):
        i = slice(0, top) if top <= dense_top else np.searchsorted(ks, grids[top])
        yield n, ks[i], g[i] ** (1.0 / gauge.qn[n - 1]) * h[i]


def lambda_gamma_parts(w_lambda, w_gamma, p):
    """Kernel parts ``Gamma(k)`` and ``Lambda(k)^{-1/p}`` (theorems 1.4/1.7)."""
    return lambda ks: (w_gamma.prefix_sums(int(ks[-1]))[ks - 1],
                       w_lambda.prefix_sums(int(ks[-1]))[ks - 1] ** (-1.0 / p))


def schramm_parts(family):
    """Kernel parts ``k`` and ``Phi_k^{-1}(1)`` (theorem 1.8)."""
    return lambda ks: (ks, family.partial_inverse_many(ks, 1.0))


def _peak(kernel):
    """The kernel's max and its argmax: the first index within
    ``INVERSE_TOL`` of the max, so that round-off cannot pick the argmax of
    a flat kernel."""
    a_n = float(kernel.max())
    return a_n, int(np.argmax(kernel >= a_n * (1.0 - INVERSE_TOL)))


def _scan(gauge, n_cap, horizon, parts):
    """Per level the kernel's max over the scanned k, and its argmax."""
    rows, inexact = [], False
    for n, ks, kernel in level_kernels(gauge, n_cap, horizon, parts):
        a_n, i = _peak(kernel)
        rows.append({"n": n, "a_n": a_n, "argmax_k": int(ks[i])})
        inexact = inexact or bool(len(ks) < ks[-1])
    return _assemble(rows, inexact)


def _trend(values):
    """Least-squares slope of log(a_n) over the last half of levels."""
    a = np.asarray(values, dtype=float)
    tail = a[len(a) // 2:]
    if len(tail) < 2 or np.any(tail <= 0):
        return 0.0
    x = np.arange(len(tail), dtype=float)
    y = np.log(tail)
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


def _assemble(level_rows, inexact):
    sups = [lv["a_n"] for lv in level_rows]
    best = int(np.argmax(sups))
    slope = _trend(sups)
    verdict = VERDICT_DIVERGING if slope > SLOPE_TOL else VERDICT_BOUNDED
    return CriterionReport(
        levels=tuple(level_rows),
        sup=float(max(sups)),
        argmax_level=level_rows[best]["n"],
        verdict=verdict,
        slope=slope,
        horizon=len(level_rows),
        inexact_scan=inexact,
    )


def check_ratio_nondecreasing(w_gamma, w_lambda, horizon):
    """Raise :class:`HypothesisError`, with the first bad k as ``index``,
    unless Gamma(k)/Lambda(k) is nondecreasing over k <= horizon."""
    ratio = w_gamma.prefix_sums(horizon) / w_lambda.prefix_sums(horizon)
    bad = np.where(np.diff(ratio) < -1e-12 * ratio[:-1])[0]
    if len(bad):
        raise HypothesisError(
            f"Gamma(k)/Lambda(k) decreases at k={int(bad[0]) + 2}",
            index=int(bad[0]) + 2)


def criterion_lambda_gamma(w_lambda: WeightSequence, w_gamma: WeightSequence,
                           p: float, gauge: GaugePair, n_cap: int,
                           second_part: bool = False) -> CriterionReport:
    """Scan ``a_n = max_{1<=k<=delta_n} Gamma(k)^{1/q_n} Lambda(k)^{-1/p}``.

    Requires ``1 <= p <= q_1``; with ``second_part`` the alternative
    hypothesis that Gamma(n)/Lambda(n) is nondecreasing is checked instead.
    """
    if p < 1:
        raise ValidationError("p must be >= 1")
    if not 1 <= n_cap <= gauge.n_max:
        raise ValidationError(f"n_cap must be in 1..{gauge.n_max}")
    q1 = gauge.qn[0]
    max_delta = int(gauge.deltas[n_cap - 1])
    if p > q1 + 1e-12:
        if not second_part:
            raise HypothesisError(
                "p > q_1 requires the second-part flag with "
                "Gamma/Lambda nondecreasing")
        check_ratio_nondecreasing(w_gamma, w_lambda,
                                  min(max_delta, w_gamma.k_max, w_lambda.k_max))
    if max_delta > min(w_gamma.k_max, w_lambda.k_max):
        raise HorizonError(
            f"delta_{n_cap}={max_delta} exceeds the weight-sequence horizon")

    return _scan(gauge, n_cap, min(w_gamma.k_max, w_lambda.k_max),
                 lambda_gamma_parts(w_lambda, w_gamma, p))


def criterion_corollary_q(w_lambda: WeightSequence, w_gamma: WeightSequence,
                          p: float, q: float,
                          horizon: int | None = None) -> CriterionReport:
    """Truncated ``sup_n Gamma(n)^{1/q} Lambda(n)^{-1/p}`` (fixed exponents).

    Levels in the report are dyadic checkpoints of the running sup, which
    gives the trend classifier something meaningful to look at.
    """
    if not 1 <= p <= q < math.inf:
        raise ValidationError("need 1 <= p <= q < inf")
    horizon = min(horizon or min(w_gamma.k_max, w_lambda.k_max),
                  w_gamma.k_max, w_lambda.k_max)
    gamma = w_gamma.prefix_sums(horizon)
    lam = w_lambda.prefix_sums(horizon)
    kernel = gamma ** (1.0 / q) * lam ** (-1.0 / p)
    rows = []
    level = 1
    checkpoint = 1
    while checkpoint <= horizon:
        a_n, i = _peak(kernel[:checkpoint])
        rows.append({"n": level, "a_n": a_n, "argmax_k": i + 1})
        level += 1
        checkpoint *= 2
    if checkpoint // 2 < horizon:
        a_n, i = _peak(kernel)
        rows.append({"n": level, "a_n": a_n, "argmax_k": i + 1})
    return _assemble(rows, False)


def criterion_schramm(family: SchrammFamily, gauge: GaugePair,
                      n_cap: int) -> CriterionReport:
    """Scan ``a_n = max_{1<=k<=delta_n} k^{1/q_n} Phi_k^{-1}(1)``."""
    if not 1 <= n_cap <= gauge.n_max:
        raise ValidationError(f"n_cap must be in 1..{gauge.n_max}")
    return _scan(gauge, n_cap, family.k_max, schramm_parts(family))


def criterion_phi_lambda(base: ConvexBase, weights: WeightSequence,
                         gauge: GaugePair, n_cap: int) -> CriterionReport:
    """Scan ``a_n = max_k k^{1/q_n} phi^{-1}(Lambda(k)^{-1})``: theorem 1.8
    on the scaled family phi_j = phi/lam_j, since Phi_k = phi * Lambda(k)."""
    if not 1 <= n_cap <= gauge.n_max:
        raise ValidationError(f"n_cap must be in 1..{gauge.n_max}")
    return criterion_schramm(SchrammFamily("scaled", base=base, weights=weights),
                             gauge, n_cap)


def criterion_union_p(weights: WeightSequence, p: float, gauge: GaugePair,
                      n_cap: int) -> CriterionReport:
    """The union criterion: Gamma = Lambda with ``1 <= p < q``; the scan
    must come out bounded for every admissible ``p``."""
    if not 1 <= p < gauge.q_limit:
        raise ValidationError(f"need 1 <= p < q (p={p}, q={gauge.q_limit})")
    # Gamma = Lambda makes the ratio hypothesis trivial, so levels with
    # q_n < p are admissible through the second-part route
    return criterion_lambda_gamma(weights, weights, p, gauge, n_cap,
                                  second_part=True)
