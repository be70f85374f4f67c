"""Truncated embedding-criterion scans.

Each criterion is a limsup-of-max over sequence growth kernels. A limsup
is undecidable from finitely many terms, so reports carry the truncated
running sup together with a least-squares slope of ``log a_n`` over the
last half of the levels; the verdict is ``diverging-trend`` iff that slope
exceeds ``SLOPE_TOL``, and ``bounded-up-to-horizon`` otherwise.
"""

from __future__ import annotations

import io
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import HorizonError, HypothesisError, ValidationError
from .sequences import ConvexBase, GaugePair, SchrammFamily, WeightSequence, check_real

SLOPE_TOL = 0.01
#: relative width of a max's tie band: ``argmax_k`` and ``argmax_level`` name
#: the first k and the first level within it
TIE_BAND = 1e-9
#: kernel evaluations one scan may spend: a scan over at most this many k is
#: exact
SCAN_BUDGET = 1 << 20
#: seed grid points per binade, and the parts a refined gap is split into
_SEED_PER_BINADE = 16
_SPLIT = 16

VERDICT_BOUNDED = "bounded-up-to-horizon"
VERDICT_DIVERGING = "diverging-trend"

_log = logging.getLogger("gbv")


@dataclass(frozen=True)
class CriterionReport:
    """A scan of ``len(levels)`` levels, one row each: ``a_n`` is the max
    found and ``a_n_upper`` a certified bound on the true max, equal
    unless ``inexact_scan``. ``sup`` and ``argmax_level`` read ``a_n``, and
    ``verdict`` reads ``slope`` (:func:`_trend`)."""

    # of dicts {"n": int, "a_n": float, "a_n_upper": float, "argmax_k": int}
    levels: tuple
    sup: float
    argmax_level: int
    verdict: str
    slope: float
    inexact_scan: bool = False
    evaluations: int = 0

    def to_json_dict(self):
        return {**vars(self), "levels": [dict(lv) for lv in self.levels]}

    def to_csv(self):
        buf = io.StringIO()
        buf.write("n,a_n,argmax_k\n")
        for lv in self.levels:
            buf.write(f"{lv['n']},{lv['a_n']!r},{lv['argmax_k']}\n")
        return buf.getvalue()


def kernel_parts(gamma, family):
    """The parts ``Gamma(k)`` and ``Phi_k^{-1}(1)`` of every criterion kernel
    ``Gamma(k)^{1/q_n} Phi_k^{-1}(1)``, at the ``ks`` given and no others,
    for the embedding of the Schramm class of ``family`` into
    ``Gamma BV^(q_n)``. Lambda BV^(p) is the class of ``x^p / lam_j``,
    whose ``Phi_k^{-1}(1)`` is ``Lambda(k)^{-1/p}`` (theorems 1.4, 1.5 and
    1.7); theorems 1.8 and 1.9 have ``gamma_j = 1``, so ``Gamma(k) = k``.

    A k where ``Gamma(k)`` is past the largest float and ``Phi_k^{-1}(1)``
    below the least has no kernel value in floats, only inf * 0; such k
    are a tail of the k, as g is nondecreasing and h nonincreasing. The
    scan raises a :class:`ValidationError` at the least such k it needs;
    a counterexample plan needs a finite ``Gamma(delta_n)``, which bounds
    the Gamma(k) of every k it reads."""
    return lambda ks: (gamma.prefix_sums_at(ks), family.partial_inverse_many(ks, 1.0))


def _split(lo, hi, s):
    """The points inside each gap ``(lo, hi)`` that split it into
    ``2 <= s <= hi - lo`` parts, concatenated; ``s = hi - lo`` gives every
    k inside."""
    rep = s - 1
    j = 1 + np.arange(int(rep.sum())) - np.repeat(np.cumsum(rep) - rep, rep)
    return np.repeat(lo, rep) + np.repeat(hi - lo, rep) * j // np.repeat(s, rep)


class _Bracket:
    """Brackets on ``max_{k <= top} g(k)^e h(k)`` for the levels that share
    the exponent ``e``, one per distinct ``top``.

    Its state is a function of the k evaluated up to the highest top: the
    gaps ``(lo, hi)`` between neighbouring ones, each with ``g(hi)^e``,
    ``h(lo)`` and their product, which bounds every kernel value inside the
    gap (g is nondecreasing, h nonincreasing); and the records, the k whose
    value exceeds every value before them, the only k that can be the first
    in a tie band. Per top, ``a`` is the max found, ``thr`` the low end of
    its tie band and ``kstar`` the first k in the band; all three are
    nondecreasing in the top, and ``a`` and ``thr`` only rise as k are
    added.
    """

    def __init__(self, e, tops):
        self.e = e
        self.tops = np.unique(tops)

    def reseed(self, ks, g, h):
        """Rebuild on the sorted ``ks`` (1 and every top among them) up to
        the highest top, with their parts ``g, h``. ``pending`` masks the
        gaps that may hide, for some top at or above them, a value above its
        max or a k in its tie band before its argmax."""
        i = int(np.searchsorted(ks, self.tops[-1], "right"))
        ks, ge, h = ks[:i], g[:i] ** self.e, h[:i]
        lost = (ge == math.inf) & (h == 0.0)  # see kernel_parts
        if lost.any():
            raise ValidationError(f"the criterion kernel at k={int(ks[lost][0])} is inf * 0: "
                                  "Gamma(k) overflows and Phi_k^-1(1) underflows")
        room = ks[1:] - ks[:-1] > 1
        self.lo, self.hi = ks[:-1][room], ks[1:][room]
        self.ge_hi, self.h_lo = ge[1:][room], h[:-1][room]
        self.bound = self.ge_hi * self.h_lo
        v = ge * h
        record = np.concatenate([[True], v[1:] > np.maximum.accumulate(v)[:-1]])
        rk, rv = ks[record], v[record]
        self.a = rv[np.searchsorted(rk, self.tops, "right") - 1]
        self.thr = self.a * (1.0 - TIE_BAND)
        self.kstar = rk[np.searchsorted(rv, self.thr)]
        first = np.searchsorted(self.tops, self.hi)
        last = np.searchsorted(self.thr, self.bound, "right") - 1
        late = np.searchsorted(self.kstar, self.hi)
        self.pending = (self.bound > self.a[first]) | (np.maximum(first, late) <= last)

    def row(self, n, top):
        i = np.searchsorted(self.tops, top)
        upper = self.bound[self.hi <= top].max(initial=self.a[i])
        return {"n": n, "a_n": float(self.a[i]), "a_n_upper": float(upper),
                "argmax_k": int(self.kstar[i])}


@np.errstate(over="ignore")  # kernel products past the largest float read inf
def _bracket_scan(tops, exps, parts):
    """Per level the max of ``g(k)^{e_n} h(k)`` over ``1 <= k <= tops[n]``:
    ``(rows, inexact, evaluations)`` for :func:`_assemble`.

    ``parts(ks) -> (g, h)`` gives g nondecreasing and h nonincreasing, so
    the kernel between two evaluated neighbours a < b is at most
    ``g(b)^e h(a)``. A geometric seed grid holding every level's top (every
    k, when the grid would ask for half of them) is refined where that
    bound exceeds a level's max (or, before its argmax, reaches the tie
    band), splitting a gap ``_SPLIT`` ways. Levels that share an exponent
    share their bounds. Where a split settles none of the gaps of a bracket
    (a flat kernel), the next round asks instead for every k up to its top.
    Each round makes one ``parts`` call on new k, merges them into the
    evaluated ones and rebuilds every open bracket from all the k up to its
    top; a settled bracket has no gap left that could hold a value above
    its max or a k in its tie band before its argmax, so later k cannot
    move it, and it is not rebuilt. A level is exact when no gap is left to
    refine. The scan stops before the first round whose new k would pass
    ``SCAN_BUDGET`` evaluations; the open levels then report the max found
    as ``a_n`` and the certified bound as ``a_n_upper``. A scan over at
    most ``SCAN_BUDGET`` k is always exact, and gives the ``a_n`` and
    ``argmax_k`` of a scan of every k.
    """
    top = max(tops)
    count = int(math.log2(top) * _SEED_PER_BINADE)
    if 2 * count >= top:  # refining a seed of half the k costs more than the rest
        ks = np.arange(1, top + 1)
    else:
        ks = np.unique(np.concatenate([[1], tops, np.geomspace(1, top, count).astype(np.int64)]))
    g, h = parts(ks)
    brackets = {e: _Bracket(e, [t for t, e2 in zip(tops, exps) if e2 == e])
                for e in dict.fromkeys(exps)}
    live = list(brackets.values())
    split = False
    while True:
        for br in live:
            br.reseed(ks, g, h)
        live = [br for br in live if br.pending.any()]
        if not live:
            break
        flat = [br for br in live if split and br.pending.all()]
        wide = max(flat, key=lambda br: br.tops[-1], default=None)
        # no gap of a rebuilt bracket holds an evaluated k, so every k asked is new
        if wide is not None and len(ks) + int((wide.hi - wide.lo - 1).sum()) <= SCAN_BUDGET:
            lo, hi = wide.lo, wide.hi
            s = hi - lo
        else:
            # every pending gap split _SPLIT ways, or into as many parts as it
            # has room for; open brackets share the gaps below their tops
            lo, at = np.unique(np.concatenate([br.lo[br.pending] for br in live]),
                               return_index=True)
            hi = np.concatenate([br.hi[br.pending] for br in live])[at]
            s = np.minimum(hi - lo, _SPLIT)
            if len(ks) + int((s - 1).sum()) > SCAN_BUDGET:
                break
            split = True
        asked = _split(lo, hi, s)
        g_new, h_new = parts(asked)
        order = np.argsort(np.concatenate([ks, asked]), kind="stable")
        ks, g, h = (np.concatenate(run)[order] for run in ((ks, asked), (g, g_new), (h, h_new)))
    _log.debug("criterion scan: %d levels to k=%d, %d evaluations, %s",
               len(tops), top, len(ks), "bracketed" if live else "exact")
    rows = [brackets[e].row(n, t) for n, (t, e) in enumerate(zip(tops, exps), 1)]
    return rows, bool(live), len(ks)


def _scan(levels, gamma, family):
    """The criterion report of ``levels``, ``(q_n, delta_n)`` pairs, on the
    kernel of :func:`kernel_parts`, each scanned to ``delta_n`` or the
    shorter horizon of ``gamma`` and ``family``."""
    horizon = min(gamma.k_max, family.k_max)
    return _assemble(*_bracket_scan([min(int(d), horizon) for _, d in levels],
                                    [1.0 / q for q, _ in levels], kernel_parts(gamma, family)))


def _trend(values):
    """Least-squares slope of log(a_n) over the last half of levels, never
    nan. A level past the largest float after a finite level rose past
    every bound: slope inf. Levels that read inf before any finite one
    show no rise and are left out of the fit, so levels that all read inf
    have slope 0."""
    a = np.asarray(values, dtype=float)
    finite = np.isfinite(a)
    if finite.any() and not finite[finite.argmax():].all():
        return math.inf
    tail = a[len(a) // 2:]
    tail = tail[np.isfinite(tail)]
    if len(tail) < 2 or np.any(tail <= 0):
        return 0.0
    x = np.arange(len(tail), dtype=float)
    y = np.log(tail)
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


def _assemble(level_rows, inexact, evaluations):
    sups = [lv["a_n"] for lv in level_rows]
    sup = max(sups)
    # the first level in the tie band of argmax_k, so that a flat kernel
    # names its first level, not a round-off winner
    best = next(i for i, a in enumerate(sups) if a >= sup * (1.0 - TIE_BAND))
    slope = _trend(sups)
    verdict = VERDICT_DIVERGING if slope > SLOPE_TOL else VERDICT_BOUNDED
    return CriterionReport(
        levels=tuple(level_rows),
        sup=float(sup),
        argmax_level=level_rows[best]["n"],
        verdict=verdict,
        slope=slope,
        inexact_scan=inexact,
        evaluations=evaluations,
    )


def criterion_lambda_gamma(w_lambda: WeightSequence, w_gamma: WeightSequence,
                           p: float, gauge: GaugePair, n_cap: int,
                           second_part: bool = False) -> CriterionReport:
    """Scan ``a_n = max_{1<=k<=delta_n} Gamma(k)^{1/q_n} Lambda(k)^{-1/p}``.

    Requires ``1 <= p <= q_1``; with ``second_part`` the alternative
    hypothesis that Gamma(n)/Lambda(n) is nondecreasing is checked instead.
    """
    # the family checks 1 <= p < inf before the rungs are read
    family = SchrammFamily.power(p, w_lambda)
    levels = gauge.levels(n_cap)
    max_delta = int(levels[-1][1])
    if p > levels[0][0] + 1e-12:
        if not second_part:
            raise HypothesisError(
                "p > q_1 requires the second-part flag with "
                "Gamma/Lambda nondecreasing")
        w_gamma.check_rising_ratio(w_lambda, min(max_delta, w_gamma.k_max, w_lambda.k_max))
    if max_delta > min(w_gamma.k_max, w_lambda.k_max):
        raise HorizonError(
            f"delta_{n_cap}={max_delta} exceeds the weight-sequence horizon")

    return _scan(levels, w_gamma, family)


def criterion_corollary_q(w_lambda: WeightSequence, w_gamma: WeightSequence,
                          p: float, q: float) -> CriterionReport:
    """Truncated ``sup_n Gamma(n)^{1/q} Lambda(n)^{-1/p}`` (fixed exponents),
    up to the shorter horizon of the two sequences.

    Levels in the report are dyadic checkpoints of the running sup, which
    gives the trend classifier something meaningful to look at.
    """
    if not 1 <= check_real("p", p) <= check_real("q", q) < math.inf:
        raise ValidationError("need 1 <= p <= q < inf")
    horizon = min(w_gamma.k_max, w_lambda.k_max)
    tops = [1 << i for i in range(horizon.bit_length())]
    if tops[-1] < horizon:
        tops.append(horizon)
    return _scan([(q, top) for top in tops], w_gamma, SchrammFamily.power(p, w_lambda))


def criterion_schramm(family: SchrammFamily, gauge: GaugePair,
                      n_cap: int) -> CriterionReport:
    """Scan ``a_n = max_{1<=k<=delta_n} k^{1/q_n} Phi_k^{-1}(1)``: the
    kernel with ``gamma_j = 1``, up to the family's horizon."""
    return _scan(gauge.levels(n_cap),
                 WeightSequence("constant", value=1.0, k_max=family.k_max), family)


def criterion_phi_lambda(base: ConvexBase, weights: WeightSequence,
                         gauge: GaugePair, n_cap: int) -> CriterionReport:
    """Scan ``a_n = max_k k^{1/q_n} phi^{-1}(Lambda(k)^{-1})``: theorem 1.8
    on the scaled family phi_j = phi/lam_j, since Phi_k = phi * Lambda(k)."""
    return criterion_schramm(SchrammFamily("scaled", base=base, weights=weights),
                             gauge, n_cap)


def criterion_union_p(weights: WeightSequence, p: float, gauge: GaugePair,
                      n_cap: int) -> CriterionReport:
    """The union criterion: Gamma = Lambda with ``1 <= p < q``; the scan
    must come out bounded for every admissible ``p``."""
    if not 1 <= check_real("p", p) < gauge.q_limit:
        raise ValidationError(f"need 1 <= p < q (p={p}, q={gauge.q_limit})")
    # Gamma = Lambda makes r_j = 1, which proves the ratio hypothesis without
    # a prefix read, so levels with q_n < p are admissible through the
    # second-part route
    return criterion_lambda_gamma(weights, weights, p, gauge, n_cap,
                                  second_part=True)
