"""Witness functions refuting embeddings when the criterion fails.

Given per-level violations of an embedding criterion, these routines plan
and build a plateau-train function whose source variation is certifiably
finite while its target variation blows up level by level. The constants
(eps_n, sep_n, blow_n) default to (2^-n, 2^{n+2}, 2^{4n}); the default
blow-up forces astronomically large violation indices for most families,
so desk-scale runs pass milder constants and the inequality chain is
re-verified numerically at every level.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .criteria import kernel_parts
from .errors import (HorizonError, HypothesisError, InfeasibleError,
                     InternalConsistencyError, ResolutionError, ValidationError)
from .sequences import GaugePair, SchrammFamily, WeightSequence, check_reals, check_whole
from .stepfn import StepFunction, generate_block, plateau_edges
from .variation import ORACLE_CAP_DEFAULT, variation_gauged, variation_schramm

GRID_CAP = 1 << 22

_log = logging.getLogger("gbv")


#: the paper's constants name_n = coef * base^n, as (base, coef): eps_n = 2^-n,
#: sep_n = 2^{n+2} and blow_n = 2^{4n}
PAPER_BASES = {"eps": (0.5, 1.0), "sep": (2.0, 4.0), "blow": (16.0, 1.0)}


def level_constants(name, base, n, coef=1.0):
    """The constants ``name_i = coef * base^i`` of the levels ``i = 1..n``,
    as a list; a :class:`ValidationError` when a finite base puts one past
    the largest float, which it then names as the last. A base that is not
    finite and positive is left to :func:`plan_construction` to reject."""
    n = check_whole("n", n)
    try:
        values = [coef * base ** i for i in range(1, n + 1)]
    except OverflowError:  # base^i itself past the largest float
        values = [math.inf]
    if values and math.isfinite(base) and not math.isfinite(values[-1]):
        raise ValidationError(f"{name}_{n}: {coef!r} * {base!r}^{n} is past the largest float")
    return values


def paper_constants(n_levels):
    """The canonical constants: eps 2^-n, separation 2^{n+2}, blow-up 2^{4n}."""
    n_levels = check_whole("n_levels", n_levels, 1)
    return tuple(np.array(level_constants(name, base, n_levels, coef))
                 for name, (base, coef) in PAPER_BASES.items())


@dataclass(frozen=True)
class LevelPlan:
    n: int
    q_n: float
    delta_n: int
    b_n: float       # criterion budget: Gamma(delta_n)
    r_n: int         # smallest criterion-violating index
    s_n: int         # greatest s with 2s - 1 <= eps_n * b_n
    s_fit: int       # cap: 2s - 1 <= eps_n * delta_n, train inside [2^-n, 2^-(n-1))
    t_n: int
    height: float
    eps: float
    sep: float
    blow: float

    def to_json_dict(self):
        return dict(vars(self))


@dataclass(frozen=True)
class ConstructionSpec:
    """A planned witness against the embedding of the Schramm class of
    ``family`` (the source) into ``Gamma BV^(q_n)`` with ``w_gamma`` as
    Gamma (the target). The ``lambda`` kind has the source Lambda BV^(p),
    the class of ``x^p / lam_j`` with ``w_lambda`` as Lambda; the
    ``schramm`` kind has ``gamma_j = 1``, the target BV^(q_n) of theorem
    1.8, and p = 1."""

    kind: str  # "lambda" | "schramm"
    levels: tuple
    p: float = 1.0
    w_lambda: WeightSequence | None = None
    w_gamma: WeightSequence | None = None
    family: SchrammFamily | None = None

    def gauge(self):
        return GaugePair([lv.q_n for lv in self.levels],
                         [lv.delta_n for lv in self.levels])

    def to_json_dict(self):
        doc = {
            "kind": self.kind,
            "p": self.p,
            "levels": [lv.to_json_dict() for lv in self.levels],
        }
        if self.kind == "lambda":
            doc["lambda"] = self.w_lambda.to_config()
            doc["gamma"] = self.w_gamma.to_config()
        else:
            doc["family"] = self.family.to_config()
        return doc


def _greatest_s(budget):
    """Greatest integer s with 2s - 1 <= budget."""
    return math.floor((budget + 1.0 + 1e-12) / 2.0)


def plan_construction(kind, gauge, n_levels, *, w_lambda=None, w_gamma=None,
                      p=1.0, family=None, eps=None, sep=None, blow=None):
    """Resolve per-level violation indices, plateau counts and heights.

    The levels are planned in order, and level n is checked before anything
    is read for level n + 1. The criterion kernel is read up to the first
    violation, level by level: its parts at k = 1..K are one prefix that all
    levels share, and K starts at 1024 and doubles, capped at delta_n, until
    level n's kernel exceeds blow_n there or K reaches delta_n.

    Fails loudly (:class:`InfeasibleError`) at the first level where the
    separation budget is too small or no violating index exists -- the
    criterion may simply hold. A plan raises :class:`HypothesisError` at
    the first level whose height passes the source family's ``ordered_to``
    (inf for the power family of the lambda kind): every increment of the
    witness is at most the largest height, and :func:`certify_membership`'s
    bound holds only where the family is ordered on them.
    """
    if kind not in ("lambda", "schramm"):
        raise ValidationError(f"unknown construction kind {kind!r}")
    rungs = gauge.levels(n_levels)
    # the source family and the target Gamma, once: past this point the plan
    # reads only the kernel Gamma(k)^{1/q_n} Phi_k^{-1}(1)
    if kind == "lambda":
        if w_lambda is None or w_gamma is None:
            raise ValidationError("lambda construction needs both weight sequences")
        family = SchrammFamily.power(p, w_lambda)
    elif family is None:
        raise ValidationError("schramm construction needs a family")
    elif p != 1.0:
        raise ValidationError(f"schramm construction takes no p (p={p})")
    else:
        w_gamma = WeightSequence("constant", value=1.0, k_max=family.k_max)

    # a default is built only for a constant that was not given
    constants = {"eps": eps, "sep": sep, "blow": blow}
    for name, values in constants.items():
        if values is None:
            base, coef = PAPER_BASES[name]
            values = level_constants(name, base, n_levels, coef)
        values = constants[name] = check_reals(f"a value in {name}", values)
        if values.ndim != 1 or len(values) < n_levels:
            raise ValidationError(f"{name} needs one value for each of {n_levels} levels")
        for n, value in enumerate(values[:n_levels].tolist(), 1):
            if not 0 < value < math.inf:
                raise ValidationError(f"{name}_{n}={value} must be finite and > 0")
    eps, sep, blow = constants.values()

    horizon = min(w_gamma.k_max, family.k_max)
    parts = kernel_parts(w_gamma, family)
    g = h = np.empty(0)  # the kernel parts at k = 1..len(g)
    levels = []
    for n, (q_n, delta_f) in enumerate(rungs, 1):
        delta_n = check_whole(f"delta_{n}", delta_f)
        e_n, sep_n, blow_n = eps[n - 1], sep[n - 1], blow[n - 1]
        if delta_n > horizon:
            raise HorizonError(
                f"delta_{n}={delta_n} exceeds the sequence horizon {horizon}")
        b_n = w_gamma.prefix_sum(delta_n)
        if b_n < sep_n:
            raise InfeasibleError(
                f"level {n}: separation budget {b_n:.6g} below sep_n={sep_n:.6g}",
                level=n)
        # s_n needs a finite budget; a finite Gamma(delta_n) also bounds the
        # Gamma(k) of every k the kernel is read at below, so none of them
        # is inf * 0 (see criteria.kernel_parts)
        if float(e_n) * b_n == math.inf:
            raise ValidationError(f"level {n}: plateau budget eps_n * Gamma(delta_n) = "
                                  f"{e_n:.6g} * {b_n:.6g} is past the largest float")

        start = 0
        while True:
            violating = np.flatnonzero(g[start:delta_n] ** (1.0 / q_n) * h[start:delta_n] > blow_n)
            if len(violating) or len(g) >= delta_n:
                break
            # a parts call costs about the same for any count up to 1024, so
            # the first read takes that many k and later reads double them
            start = len(g)
            g_new, h_new = parts(np.arange(start + 1, min(max(2 * start, 1024), delta_n) + 1))
            g, h = np.concatenate([g, g_new]), np.concatenate([h, h_new])
        if len(violating) == 0:
            raise InfeasibleError(
                f"level {n}: no index r <= {delta_n} violates the criterion "
                f"at blow-up {blow_n:.6g} (the embedding may simply hold)",
                level=n)
        r_n = start + int(violating[0]) + 1

        s_n = _greatest_s(e_n * b_n)
        # plateau j closes at 2^-n + (2j - 1)/delta_n: level 1 may close at 1,
        # level n >= 2 must close below 2^-(n-1), where level n - 1 starts,
        # so 2s - 1 <= delta_n/2 or 2s - 1 < delta_n/2^n, in integers
        band = delta_n // 2 if n == 1 else (delta_n - 1) >> n
        s_fit = min(_greatest_s(e_n * delta_n), (band + 1) // 2)
        t_n = min(r_n, s_n, s_fit)
        if t_n < 1:
            raise InfeasibleError(
                f"level {n}: plateau budget empty (s_n={s_n}, s_fit={s_fit})",
                level=n)

        height = e_n * h[r_n - 1]  # Phi_{r_n}^{-1}(1), read with the kernel
        if height > family.ordered_to:
            raise HypothesisError(
                f"level {n}: height {height:.6g} exceeds the family's ordering "
                f"(ordered_to {family.ordered_to:.6g})")
        levels.append(LevelPlan(
            n=n, q_n=q_n, delta_n=delta_n, b_n=float(b_n), r_n=r_n,
            s_n=s_n, s_fit=s_fit, t_n=t_n, height=float(height),
            eps=float(e_n), sep=float(sep_n), blow=float(blow_n)))
    _log.debug("counterexample plan: levels=%d, kernel read to k=%d", n_levels, len(g))
    return ConstructionSpec(kind=kind, levels=tuple(levels), p=float(p),
                            w_lambda=w_lambda, w_gamma=w_gamma, family=family)


def witness_resolution(spec):
    """Smallest uniform grid on which every plateau edge is a grid point, up
    to ``GRID_CAP``."""
    m = 1 << len(spec.levels)
    for lv in spec.levels:
        m = math.lcm(m, lv.delta_n)
        if m > GRID_CAP:
            raise ResolutionError(
                f"grid lcm exceeds cap {GRID_CAP} at level {lv.n} "
                f"(delta={lv.delta_n})")
    return m


def build_witness(spec):
    """Sum of per-level plateau trains on :func:`witness_resolution`'s grid;
    supports are checked disjoint."""
    m = witness_resolution(spec)
    total = np.zeros(m + 1)
    for lv in spec.levels:
        block = generate_block(lv.n, lv.height, lv.t_n, lv.delta_n, m)
        overlap = (total != 0) & (block.values != 0)
        if np.any(overlap):
            raise InternalConsistencyError(
                f"level {lv.n} support overlaps an earlier level")
        total += block.values
    return StepFunction(total)


def certify_membership(spec, f):
    """Certified upper bound on the source variation of the witness ``f``.

    Per level: 2 * eps_n in the weighted case (the plateau count never
    exceeds 2 r_n and doubling the index at most doubles the prefix sum),
    and 2 * Phi_{r_n}(eps_n * Phi_{r_n}^{-1}(1)) in the convex-family case
    (convexity pulls eps inside). ``engine`` is the engine's bracket of
    the source variation (:func:`_engine`), and its ``lower`` end must not
    exceed the bound.
    """
    rows = []
    for lv in spec.levels:
        if spec.kind == "lambda":
            bound = 2.0 * lv.eps
            level_value = lv.height * spec.w_lambda.prefix_sum(2 * lv.t_n) ** (1.0 / spec.p)
        else:
            bound = 2.0 * float(spec.family.partial_sum(lv.r_n, lv.height))
            level_value = float(spec.family.partial_sum(2 * lv.t_n, lv.height))
        rows.append({"n": lv.n, "bound": bound, "level_value": level_value})
    total = math.fsum(row["bound"] for row in rows)
    engine = _engine(f, lambda: variation_schramm(f, spec.family), 1.0 / spec.p)
    if engine and engine["lower"] > total * (1 + 1e-9):
        raise InternalConsistencyError(
            f"engine source variation {engine['lower']} exceeds certified bound {total}")
    return {"kind": spec.kind, "total_bound": total, "levels": rows, "engine": engine}


def certify_blowup(spec, f):
    """Per-level lower bounds on the target variation, from the designated
    consecutive intervals of length 1/delta_n.

    Each bound is constructive: the intervals satisfy the level-n minimum
    length exactly, so L_n really is a feasible inner value. The report
    also re-verifies the two chain inequalities behind the construction
    with the supplied constants; a failure is reported, not silently fixed.
    ``engine`` is the engine's bracket of the gauged variation of f
    (:func:`_engine`), and its ``upper`` end must reach the largest L_n. The
    plan's t_n, s_n, r_n and heights are in the spec, not in the rows.
    """
    m, gamma = f.m, spec.w_gamma
    rows = []
    for lv in spec.levels:
        count = 2 * lv.t_n - 1
        incs = np.abs(np.diff(f.values[plateau_edges(lv.n, lv.t_n, lv.delta_n, m)]))
        if np.any(np.abs(incs - lv.height) > 1e-9 * max(1.0, lv.height)):
            raise InternalConsistencyError(
                f"level {lv.n}: designated increments differ from the "
                f"planned height")
        inner = float(np.sum(incs ** lv.q_n / gamma.weights(count)))
        growth_ok = bool(gamma.prefix_sum(count)
                         >= (lv.eps / 2.0) * gamma.prefix_sum(lv.r_n) * (1 - 1e-9))
        L_n = inner ** (1.0 / lv.q_n)
        floor = lv.eps * (lv.eps / 2.0) ** (1.0 / lv.q_n) * lv.blow
        rows.append({"n": lv.n, "L_n": L_n, "chain_floor": floor, "growth_ok": growth_ok,
                     "floor_ok": bool(L_n >= floor * (1 - 1e-9))})
    top = max(rows, key=lambda row: row["L_n"])
    engine = _engine(f, lambda: variation_gauged(f, gamma, spec.gauge(), len(spec.levels)))
    if engine and engine["upper"] < top["L_n"] * (1 - 1e-9):
        raise InternalConsistencyError(
            f"gauged variation {engine['upper']} below constructive "
            f"bound {top['L_n']} at level {top['n']}")
    return {"kind": spec.kind, "levels": rows, "max_L": top["L_n"], "engine": engine}


def _engine(f, solve, root=1.0):
    """The engine's cross-check of a certificate: ``{"lower", "upper",
    "mode"}`` of the result of ``solve()``, both ends raised to ``root``;
    None past ``ORACLE_CAP_DEFAULT`` grid cells of f, where it is not run.
    A check reads the end that can contradict it."""
    if f.m > ORACLE_CAP_DEFAULT:
        return None
    res = solve()
    return {"lower": res.lower ** root, "upper": res.upper ** root, "mode": res.mode}
