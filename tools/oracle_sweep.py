"""Check the exact DP, the rank-dependent solves and the gauged variation
against brute force, and the criterion scans against a dense kernel.

Every case solves one input at m <= 12 and compares the result with the
brute-force maximum of ``tests/oracles.py``, which enumerates every
collection of intervals and shares no code with the engine. Per case:

- ``lower <= oracle <= upper``, at 1e-12 relative;
- the witness re-evaluates to ``lower`` under the tool's own gains;
- an ``exact-*`` mode has ``lower == upper``;
- every interval of the witness spans at least the solve's ``min_len``
  grid cells (for a gauge, that of its reported level), and a capped
  solve's witness has at most its count of intervals.

Groups:

- ``dp``: ``modulus_of_variation`` at n in 1..4, ``variation_unweighted_q``
  at q in {1, 1.5, 2, 3}, uncapped, with ``s_max = 2``, with ``min_len``
  2 and 3, and with both ``s_max`` and ``min_len`` 2 (at q = 1, the only
  case of the column rule under a ``min_len``), and ``variation_weighted``
  over constant weights of 2 at p in {1, 2, 3}: the exact DP, on the
  skeleton or on the grid.
  On the input scaled by 1e150 only exponents up to 2 run, as in the
  gauge group, since the brute force cannot pass the largest float;
- ``rank``: ``variation_weighted`` over harmonic, log, ``power:0.5`` and
  constant weights at p in {1, 1.5, 2}, and ``variation_schramm`` of the
  explicit family ``EXPLICIT_TERMS`` and of the scaled family
  ``(e^x - 1) / j`` (the ``expm1`` base over harmonic weights), each at
  the default ``oracle_cap`` (the exact label search, or the DP for
  constant weights) and at ``oracle_cap = 3`` (certified bounds past 3
  cells). The tool's ``expm1`` gain reads inf past the largest float, as
  the engine's does, so on the input scaled by 1e150 both sides are inf.
  The inputs at m = 12 run only the scaled, rank-dependent families
  (harmonic, log and ``power:0.5`` weights, and ``expm1``), at
  ``oracle_cap = 3``: their top-k dual bounds;
- ``gauge``: ``variation_gauged`` over the same weights and a one-value
  explicit list, on ``const``, ``linear``, ``to`` and ``list`` ladders
  (the last with repeated exponents), at both caps. Every exponent lies in
  [1, 2], so the brute force stays finite on the input scaled by 1e150.
  The inputs at m = 12 run only the rank-dependent weights, at
  ``oracle_cap = 3``;
- ``norm``: ``schramm_norm`` of the two families of the rank group and of
  the homogeneous ``x^2 / j`` (the power-2 base over harmonic weights), at
  both caps, on every input that is not constant. The brute force takes
  V(f/c) at c = norm - |f(a)|: where the variation solve at c is exact,
  ``|V - 1| <= REL``; in bounds mode ``V >= 1 - REL``, that is, c is at
  most the true norm;
- ``certify``: counterexample witnesses of both kinds (:data:`WITNESSES`),
  planned, built and certified. The brute-force source variation is at
  most ``total_bound``, the brute-force gauged variation is at least every
  ``L_n``, and each lies inside the ``engine`` bracket of its certificate;
- ``criteria``: theorems 1.4, 1.5, 1.7, 1.8 (the scaled families
  ``x^2 / j`` and ``(e^x - 1) / j``, and ``EXPLICIT_TERMS``) and 1.9, on
  pow2 ladders up to delta_n = ``CRIT_TOP`` = 2^16 (theorem 1.5 to that
  horizon), against the tool's own kernel ``Gamma(k)^{1/q_n}
  Phi_k^{-1}(1)`` at every k <= delta_n: lam_j from its own formulas,
  Gamma and Lambda as compensated running sums, and ``Phi_k^{-1}(1)`` in
  closed form for a scaled family and by bisection for the explicit one.
  Per row, ``a_n <= dense max <= a_n_upper`` to ``CRIT_REL`` = 1e-12
  relative, and on an exact scan ``argmax_k`` is the first k in the tie
  band. The rows agreed to 3.7e-15 relative when the group was written.

Inputs come from seeded generators: walks, rounded sines, plateau trains,
integers, zigzags, a walk scaled by 1e150 and N(0,1) noise, at every m from
3 to 10. The noise has a generator of its own, so the other inputs do not
depend on it, and so do a walk, noise and a zigzag at m = 12. The
witnesses have m = 8 and 12. The engine is imported from the ``src``
directory next to this file, so the tool checks the checkout it lives in.
It prints one line per group and one line per violation, and exits 1 on
any violation. Run it from anywhere::

    python tools/oracle_sweep.py

It takes about 20 s on a 2-core x86_64 VM: 1.4 s in the certify group,
0.6 s in the criteria group and about 9 s in the inputs at m = 12.
:func:`sweep` runs given groups at given m, and the criteria up to a given
delta_n, in-process; tier-1 runs a slice of every group through it.
"""

import functools
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import oracles  # noqa: E402
from gbv import (ConvexBase, GaugePair, SchrammFamily, StepFunction,  # noqa: E402
                 WeightSequence, build_witness, certify_blowup, certify_membership,
                 criterion_corollary_q, criterion_lambda_gamma, criterion_phi_lambda,
                 criterion_schramm, criterion_union_p, modulus_of_variation, plan_construction,
                 schramm_norm, variation_gauged, variation_schramm, variation_unweighted_q,
                 variation_weighted)
from gbv.criteria import TIE_BAND  # noqa: E402

SEED = 2017
SIZES = range(3, 11)
REL = 1e-12
CAPS = (16, 3)  # the default oracle_cap, and one that leaves m > 3 to the bounds
#: m of the inputs that the rank and gauge groups solve only for the scaled,
#: rank-dependent families, at oracle_cap 3: the brute force lists 75,025
#: collections there
BOUNDS_M = 12

#: explicit terms (c_j, e_j), phi_j(x) = c_j x^e_j, the last one repeated
EXPLICIT_TERMS = [(1.0, 1.5), (0.8, 1.7), (0.6, 2.0), (0.5, 2.0)]
#: weight name -> (the engine's sequence, lam_j from the tool's own formula)
WEIGHTS = {
    "harmonic": (WeightSequence("harmonic"), lambda j: float(j)),
    "log": (WeightSequence("log"), lambda j: j / math.log(j + 1.0)),
    "power:0.5": (WeightSequence("power", alpha=0.5), lambda j: j ** 0.5),
    "constant": (WeightSequence("constant"), lambda j: 1.0),
}
GAUGE_WEIGHTS = {**WEIGHTS, "explicit:2,2": (WeightSequence("explicit", terms=[2.0, 2.0]),
                                             lambda j: 2.0)}
#: the weights of ``GAUGE_WEIGHTS`` whose every phi_j is one function
RANK_FREE = ("constant", "explicit:2,2")
GAUGES = {
    "const:1.5/pow2": GaugePair.build("const", "pow2", n_max=4, q=1.5),
    "linear/pow2": GaugePair.build("linear", "pow2", n_max=2),
    "to:2/list:2,3,5,8": GaugePair.build("to", "list", n_max=4, q=2.0,
                                         delta_list=[2, 3, 5, 8]),
    "list:1,1,1.5,1.5,2/list:2,3,3,5,8": GaugePair.build(
        "list", "list", qn_list=[1.0, 1.0, 1.5, 1.5, 2.0], delta_list=[2, 3, 3, 5, 8]),
}


def _inputs(sizes):
    """``(name, values)`` of every input at m in ``sizes``, from the seeded
    generators, which draw every m of ``SIZES``: an input does not depend
    on the sizes asked for."""
    rng, noise = np.random.default_rng(SEED), np.random.default_rng(SEED + 1)
    out = []
    for m in SIZES:
        walk = np.round(np.cumsum(rng.normal(size=m + 1)), 2)
        turns = rng.choice([0.5, 1.0, 1.5])
        out += [
            (f"walk m={m}", walk),
            (f"sine m={m}", np.round(np.sin(np.linspace(0.0, turns * 2.0 * np.pi, m + 1)) * 3.0)),
            (f"plateau m={m}",
             np.repeat(rng.integers(-3, 4, size=m + 1) / 2.0, rng.integers(1, 4, size=m + 1))
             [:m + 1]),
            (f"integers m={m}", rng.integers(-4, 5, size=m + 1).astype(float)),
            (f"zigzag m={m}", np.array([(-1.0) ** i * (1.0 + 0.01 * i) for i in range(m + 1)])),
            (f"walk x1e150 m={m}", walk * 1e150),
            (f"noise m={m}", noise.normal(size=m + 1)),
        ]
    return [(name, values) for name, values in out if len(values) - 1 in sizes]


def _bounds_inputs(sizes):
    """``(name, values)`` of the inputs at m = ``BOUNDS_M``, if it is in
    ``sizes``, from a generator of their own: a walk, noise and a zigzag,
    which only the scaled families' bounds meet."""
    if BOUNDS_M not in sizes:
        return []
    rng, m = np.random.default_rng(SEED + 2), BOUNDS_M
    return [(f"walk m={m}", np.round(np.cumsum(rng.normal(size=m + 1)), 2)),
            (f"noise m={m}", rng.normal(size=m + 1)),
            (f"zigzag m={m}", np.array([(-1.0) ** i * (1.0 + 0.01 * i) for i in range(m + 1)]))]


def _rank_value(incs, phis, root):
    """``(sum_j phi_j(x_j))^root`` over the increments in descending order."""
    incs = sorted(incs, reverse=True)
    return sum(phis(j)(x) for j, x in enumerate(incs, 1)) ** root


def _power_phis(lam, p):
    return lambda j: (lambda x: x ** p / lam(j))


def _explicit_phis(j):
    c, e = EXPLICIT_TERMS[min(j, len(EXPLICIT_TERMS)) - 1]
    return lambda x: c * x ** e


def _expm1_phis(j):
    def phi(x):
        try:
            return math.expm1(x) / j
        except OverflowError:  # past the largest float
            return math.inf
    return phi


class Sweep:
    def __init__(self):
        self.violations = []

    def check(self, case, res, truth, phis, root, min_len=1, count=None):
        """Record every violation of ``res`` against the brute-force ``truth``;
        ``count`` caps the witness's intervals."""
        bad = []
        if not res.lower <= truth * (1 + REL) or not truth <= res.upper * (1 + REL):
            bad.append(f"lower {res.lower!r} <= oracle {truth!r} <= upper {res.upper!r} fails")
        redo = _rank_value(res.witness.increments, phis, root)
        if not (redo == res.lower or abs(redo - res.lower) <= REL * res.lower):
            bad.append(f"witness re-evaluates to {redo!r}, not lower {res.lower!r}")
        if res.mode.startswith("exact") and res.lower != res.upper:
            bad.append(f"{res.mode} with lower {res.lower!r} != upper {res.upper!r}")
        if any(b - a < min_len for a, b in res.witness.pairs):
            bad.append(f"witness {list(res.witness.pairs)} has an interval shorter than "
                       f"min_len {min_len}")
        if count is not None and len(res.witness.pairs) > count:
            bad.append(f"witness {list(res.witness.pairs)} has more than {count} intervals")
        self.violations += [f"  VIOLATION {case}: {text}" for text in bad]
        return res.mode


@functools.lru_cache(maxsize=None)
def _oracle_weighted(values, lam_name, p, min_len):
    """The brute-force weighted variation of the samples ``values``."""
    lam = GAUGE_WEIGHTS[lam_name][1]
    return oracles.oracle_weighted(list(values), [lam(j) for j in range(1, len(values) + 1)],
                                   p, min_len)


#: Schramm families of the rank group: (name, the engine's family, phi_j)
FAMILIES = [
    ("EXPLICIT_TERMS", SchrammFamily("explicit", terms=EXPLICIT_TERMS), _explicit_phis),
    ("expm1/harmonic", SchrammFamily("scaled", base=ConvexBase("expm1"),
                                     weights=WeightSequence("harmonic")), _expm1_phis),
]


#: constant weights of the dp group: lam_j = 2
DP_WEIGHTS = WeightSequence("constant", value=2.0)


def _dp_group(sweep, sizes):
    modes = {}

    def tally(mode):
        modes[mode] = modes.get(mode, 0) + 1

    for name, values in _inputs(sizes):
        f = StepFunction(values)
        key = values.tolist()
        top = 2.0 if "x1e150" in name else 3.0  # x^3 of 1e150 is past the largest float
        for n in range(1, 5):
            tally(sweep.check(f"{name} modulus n={n}", modulus_of_variation(f, n),
                              oracles.oracle_modulus(key, n), _power_phis(lambda j: 1.0, 1.0),
                              1.0, count=n))
        for q in (q for q in (1.0, 1.5, 2.0, 3.0) if q <= top):
            for s_max, min_len in ((None, 1), (2, 1), (None, 2), (None, 3), (2, 2)):
                res = variation_unweighted_q(f, q, s_max, min_len)
                truth = oracles.oracle_unweighted_q(key, q, s_max or f.m, min_len)
                tally(sweep.check(f"{name} unweighted q={q:g} s_max={s_max} min_len={min_len}",
                                  res, truth, _power_phis(lambda j: 1.0, q), 1.0 / q, min_len,
                                  s_max))
        for p in (p for p in (1.0, 2.0, 3.0) if p <= top):
            tally(sweep.check(f"{name} weighted constant:2 p={p:g}",
                              variation_weighted(f, DP_WEIGHTS, p),
                              oracles.oracle_weighted(key, [2.0] * f.m, p),
                              _power_phis(lambda j: 2.0, p), 1.0 / p))
    return modes


def _cases(sizes):
    """``(name, values, caps, scaled)`` of the rank and gauge groups: every
    input at both caps, and the inputs at ``BOUNDS_M`` at the cap of 3,
    ``scaled`` only."""
    return ([(name, values, CAPS, False) for name, values in _inputs(sizes)]
            + [(name, values, CAPS[1:], True) for name, values in _bounds_inputs(sizes)])


def _rank_group(sweep, sizes):
    modes = {}
    for name, values, caps, scaled in _cases(sizes):
        f = StepFunction(values)
        key = tuple(values.tolist())
        for lam_name, (weights, lam) in WEIGHTS.items():
            if scaled and lam_name in RANK_FREE:
                continue
            for p in (1.0, 1.5, 2.0):
                truth = _oracle_weighted(key, lam_name, p, 1)
                for cap in caps:
                    res = variation_weighted(f, weights, p, oracle_cap=cap)
                    mode = sweep.check(f"{name} {lam_name} p={p:g} cap={cap}", res, truth,
                                       _power_phis(lam, p), 1.0 / p)
                    modes[mode] = modes.get(mode, 0) + 1
        for fam_name, family, phis in FAMILIES:
            if scaled and family.kind != "scaled":
                continue
            truth = oracles.oracle_schramm(list(key), [phis(j) for j in range(1, len(key) + 1)])
            for cap in caps:
                res = variation_schramm(f, family, oracle_cap=cap)
                mode = sweep.check(f"{name} {fam_name} cap={cap}", res, truth, phis, 1.0)
                modes[mode] = modes.get(mode, 0) + 1
    return modes


def _gauge_group(sweep, sizes):
    modes = {}
    for name, values, caps, scaled in _cases(sizes):
        f = StepFunction(values)
        key = tuple(values.tolist())
        for lam_name, (weights, lam) in GAUGE_WEIGHTS.items():
            if scaled and lam_name in RANK_FREE:
                continue
            for gauge_name, gauge in GAUGES.items():
                rungs = [(q, max(1, math.ceil(f.m / d))) for q, d in gauge.levels(gauge.n_max)]
                # the gauged value is the largest of its levels' variations
                truth = max((_oracle_weighted(key, lam_name, q, min_len)
                             for q, min_len in rungs if min_len <= f.m), default=0.0)
                for cap in caps:
                    res = variation_gauged(f, weights, gauge, gauge.n_max, oracle_cap=cap)
                    q, min_len = rungs[res.level - 1] if res.level else (1.0, 1)
                    mode = sweep.check(f"{name} {lam_name} {gauge_name} cap={cap}", res, truth,
                                       _power_phis(lam, q), 1.0 / q, min_len)
                    modes[mode] = modes.get(mode, 0) + 1
    return modes


#: families of the norm group: the rank group's, and a homogeneous one
NORM_FAMILIES = [*FAMILIES, ("power:2/harmonic", SchrammFamily.power(
    2.0, WeightSequence("harmonic")), _power_phis(float, 2.0))]


def _norm_group(sweep, sizes):
    modes = {}
    for name, values in _inputs(sizes):
        if values.min() == values.max():
            continue
        f = StepFunction(values)
        for fam_name, family, phis in NORM_FAMILIES:
            for cap in CAPS:
                c = schramm_norm(f, family, oracle_cap=cap) - abs(float(values[0]))
                # the mode of the solve at c says which check holds
                mode = variation_schramm(StepFunction(values / c), family, oracle_cap=cap).mode
                v = oracles.oracle_schramm((values / c).tolist(),
                                           [phis(j) for j in range(1, len(values))])
                if not (v >= 1 - REL if mode == "bounds" else abs(v - 1) <= REL):
                    sweep.violations.append(f"  VIOLATION {name} {fam_name} norm cap={cap}: "
                                            f"V(f/c) = {v!r} at c = {c!r} ({mode})")
                modes[mode] = modes.get(mode, 0) + 1
    return modes


#: witnesses of the certify group, each of two levels with Gamma constant:
#: (kind, source, (ladder, q), delta list, bases of eps, sep and blow). The
#: source is a weight sequence of ``WEIGHTS`` at p = 1 (the lambda kind) or
#: a family of ``NORM_FAMILIES`` (the schramm kind), and level n has eps_n =
#: eps^n, sep_n = 4 sep^n and blow_n = blow^n
WITNESSES = [
    ("lambda", "harmonic", ("const", 1.0), [4, 8], (0.5, 0.5, 1.2)),
    ("lambda", "harmonic", ("const", 1.0), [4, 12], (0.75, 1.0, 1.5)),
    ("schramm", "power:2/harmonic", ("const", 2.0), [4, 8], (0.5, 1.0, 1.2)),
    ("schramm", "EXPLICIT_TERMS", ("const", 1.0), [4, 8], (0.5, 0.5, 1.5)),
    ("schramm", "power:2/harmonic", ("linear", 1.0), [4, 12], (0.75, 0.5, 1.1)),
    ("schramm", "EXPLICIT_TERMS", ("const", 2.0), [4, 12], (0.5, 1.0, 1.05)),
]


def _certify_group(sweep, sizes):
    modes = {}
    families = {name: (family, phis) for name, family, phis in NORM_FAMILIES}
    for kind, source, (ladder, q), deltas, (eps, sep, blow) in WITNESSES:
        n = len(deltas)
        gauge = GaugePair.build(ladder, "list", q=q, n_max=n, delta_list=deltas)
        constants = {"eps": [eps ** i for i in range(1, n + 1)],
                     "sep": [4.0 * sep ** i for i in range(1, n + 1)],
                     "blow": [blow ** i for i in range(1, n + 1)]}
        if kind == "lambda":
            weights, lam = WEIGHTS[source]
            spec = plan_construction(kind, gauge, n, w_lambda=weights,
                                     w_gamma=WeightSequence("constant"), **constants)
            phis = _power_phis(lam, 1.0)
        else:
            family, phis = families[source]
            spec = plan_construction(kind, gauge, n, family=family, **constants)
        f = build_witness(spec)
        if f.m not in sizes:
            continue
        case = f"{kind} {source} {ladder}:{q:g} list:{','.join(map(str, deltas))} m={f.m}"
        values = f.values.tolist()
        source_v = oracles.oracle_schramm(values, [phis(j) for j in range(1, f.m + 1)])
        target_v = oracles.oracle_gauged(values, [1.0] * f.m, [q_n for q_n, _ in gauge.levels(n)],
                                         deltas, n)
        membership, blowup = certify_membership(spec, f), certify_blowup(spec, f)
        bad = []
        if not source_v <= membership["total_bound"] * (1 + REL):
            bad.append(f"source {source_v!r} above total_bound {membership['total_bound']!r}")
        for row in blowup["levels"]:
            if not target_v >= row["L_n"] * (1 - REL):
                bad.append(f"gauged {target_v!r} below L_{row['n']} = {row['L_n']!r}")
        for name, report, truth in (("membership", membership, source_v),
                                    ("blowup", blowup, target_v)):
            engine = report["engine"]
            if engine is None:
                bad.append(f"{name} has no engine bracket at m={f.m}")
                continue
            if not engine["lower"] <= truth * (1 + REL) or not truth <= engine["upper"] * (1 + REL):
                bad.append(f"{name} engine [{engine['lower']!r}, {engine['upper']!r}] misses "
                           f"oracle {truth!r}")
            modes[engine["mode"]] = modes.get(engine["mode"], 0) + 1
        sweep.violations += [f"  VIOLATION {case}: {text}" for text in bad]
    return modes


#: the largest delta_n, and the horizon of theorem 1.5, of the criteria group
CRIT_TOP = 1 << 16
#: weights of the criteria group: the rank group's and an explicit list
CRIT_WEIGHTS = {**WEIGHTS, "explicit:1,2,4": (WeightSequence("explicit", terms=[1, 2, 4]),
                                              lambda j: float(1 << min(j - 1, 2)))}
#: q_n ladders of the criteria group, each on delta_n = 2^n: the arguments
#: of ``GaugePair.build`` and q_n from the tool's own formula
CRIT_LADDERS = {
    "const:1": ({"qn_kind": "const", "q": 1.0}, lambda n: 1.0),
    "const:2": ({"qn_kind": "const", "q": 2.0}, lambda n: 2.0),
    "linear": ({"qn_kind": "linear"}, float),
    "to:3": ({"qn_kind": "to", "q": 3.0}, lambda n: 3.0 - 2.0 / n),
}
#: theorem 1.4: (Lambda, Gamma, p, ladder), p <= q_1; Gamma = Lambda is flat at p = q
CRIT_14 = [("harmonic", "constant", 1.0, "const:1"), ("harmonic", "constant", 1.0, "linear"),
           ("log", "power:0.5", 1.0, "to:3"), ("power:0.5", "harmonic", 2.0, "const:2"),
           ("harmonic", "harmonic", 1.0, "const:1"), ("explicit:1,2,4", "constant", 1.0, "const:2")]
#: theorem 1.5: (Lambda, Gamma, p, q), p <= q, scanned to the horizon CRIT_TOP
CRIT_15 = [("harmonic", "constant", 1.0, 2.0), ("log", "harmonic", 1.5, 2.0),
           ("power:0.5", "power:0.5", 2.0, 2.0)]
#: theorem 1.7: (Lambda = Gamma, p, ladder), p below the ladder's limit
CRIT_17 = [("harmonic", 1.5, "linear"), ("log", 2.0, "to:3")]
#: theorem 1.9: (base, Lambda, ladder)
CRIT_19 = [("power:2", "harmonic", "const:2"), ("expm1", "log", "linear"),
           ("expm1", "harmonic", "to:3")]
#: relative tolerance of a criterion row against the tool's dense kernel
CRIT_REL = 1e-12


def _running_sums(terms):
    """The prefix sums of ``terms``, a Neumaier-compensated running sum: each
    within a few ulps of the exact sum."""
    out, total, carry = [], 0.0, 0.0
    for t in terms:
        new = total + t
        carry += (total - new) + t if abs(total) >= abs(t) else (t - new) + total
        total = new
        out.append(total + carry)
    return np.array(out)


def _explicit_roots(top):
    """``Phi_k^{-1}(1)`` of ``EXPLICIT_TERMS`` at k = 1..top, by bisection to
    adjacent floats: the least float x of the bisection with ``Phi_k(x) >=
    1``, where ``Phi_k(x) = sum_{j<=k} c_j x^e_j`` repeats the last pair.
    ``Phi_k(1) >= phi_1(1) = 1``, so each root lies in [0, 1]."""
    ks = np.arange(1, top + 1)
    last = len(EXPLICIT_TERMS)

    def phi(x):
        total = np.zeros(top)
        for j, (c, e) in enumerate(EXPLICIT_TERMS, 1):
            count = np.clip(ks - j + 1, 0, None if j == last else 1)
            total += count * (c * x ** e)
        return total

    lo, hi = np.zeros(top), np.ones(top)
    while True:
        mid = 0.5 * (lo + hi)
        moving = (lo < mid) & (mid < hi)
        if not moving.any():
            return hi
        above = phi(mid) >= 1.0
        hi = np.where(moving & above, mid, hi)
        lo = np.where(moving & ~above, mid, lo)


def _check_scan(sweep, case, report, levels, g, h):
    """Record every violation of the criterion ``report`` against the dense
    kernel ``g(k)^(1/q_n) h(k)`` over k <= delta_n, for ``levels``, its
    ``(q_n, delta_n)`` per row, and the tool's parts ``g`` and ``h`` at k =
    1, 2, ...: ``a_n <= dense max <= a_n_upper`` to ``CRIT_REL``, and on an
    exact scan ``a_n == a_n_upper`` and ``argmax_k`` the first k whose value
    is in the tie band ``[(1 - TIE_BAND) max, max]``, up to ``CRIT_REL`` at
    the band's edge."""
    bad = []
    if len(report.levels) != len(levels):
        bad.append(f"{len(report.levels)} rows for {len(levels)} levels")
    for row, (q, top) in zip(report.levels, levels):
        kernel = g[:top] ** (1.0 / q) * h[:top]
        dense = float(kernel.max())
        a, upper, k = row["a_n"], row["a_n_upper"], row["argmax_k"]
        where = f"row {row['n']} (q_n={q:g}, delta_n={top})"
        if not a <= dense * (1 + CRIT_REL) or not dense <= upper * (1 + CRIT_REL):
            bad.append(f"{where}: a_n {a!r} <= dense max {dense!r} <= a_n_upper {upper!r} fails")
        if report.inexact_scan:
            continue
        if a != upper:
            bad.append(f"{where}: exact scan with a_n {a!r} != a_n_upper {upper!r}")
        band = dense * (1.0 - TIE_BAND)
        if not (1 <= k <= top and kernel[k - 1] >= band * (1 - CRIT_REL)
                and not np.any(kernel[:k - 1] >= band * (1 + CRIT_REL))):
            first = int(np.argmax(kernel >= band)) + 1
            bad.append(f"{where}: argmax_k {k} is not the first k in the tie band, {first}")
    sweep.violations += [f"  VIOLATION {case}: {text}" for text in bad]
    return "bracketed" if report.inexact_scan else "exact"


def _criteria_group(sweep, sizes, top=CRIT_TOP):
    """Theorems 1.4, 1.5, 1.7, 1.8 and 1.9 on pow2 ladders of ``top.bit_length()
    - 1`` levels, delta_n = 2^n <= ``top``, against the tool's own dense
    kernel: lam_j from ``CRIT_WEIGHTS``' formulas, their running sums,
    ``Phi_k^{-1}(1)`` in closed form for a scaled family and by bisection
    for ``EXPLICIT_TERMS``."""
    modes = {}
    n_cap = top.bit_length() - 1
    ks = np.arange(1, top + 1, dtype=float)
    sums = {name: _running_sums([1.0 / lam(j) for j in range(1, top + 1)])
            for name, (_, lam) in CRIT_WEIGHTS.items()}

    def gauge(ladder):
        build, qn = CRIT_LADDERS[ladder]
        return (GaugePair.build(delta_kind="pow2", n_max=n_cap, **build),
                [(qn(n), 1 << n) for n in range(1, n_cap + 1)])

    def run(case, report, levels, g, h):
        mode = _check_scan(sweep, case, report, levels, g, h)
        modes[mode] = modes.get(mode, 0) + 1

    for lam, gam, p, ladder in CRIT_14:
        pair, levels = gauge(ladder)
        run(f"1.4 {lam}/{gam} p={p:g} {ladder}",
            criterion_lambda_gamma(CRIT_WEIGHTS[lam][0], CRIT_WEIGHTS[gam][0], p, pair, n_cap),
            levels, sums[gam], sums[lam] ** (-1.0 / p))
    for lam, gam, p, q in CRIT_15:
        w_lambda, w_gamma = (WeightSequence.from_config({**CRIT_WEIGHTS[w][0].to_config(),
                                                         "k_max": top}) for w in (lam, gam))
        tops = [1 << i for i in range(n_cap + 1)]  # the dyadic checkpoints up to the horizon
        run(f"1.5 {lam}/{gam} p={p:g} q={q:g} top={top}",
            criterion_corollary_q(w_lambda, w_gamma, p, q), [(q, t) for t in tops],
            sums[gam], sums[lam] ** (-1.0 / p))
    for lam, p, ladder in CRIT_17:
        pair, levels = gauge(ladder)
        run(f"1.7 {lam} p={p:g} {ladder}",
            criterion_union_p(CRIT_WEIGHTS[lam][0], p, pair, n_cap),
            levels, sums[lam], sums[lam] ** (-1.0 / p))
    # theorem 1.8 has gamma_j = 1, so Gamma(k) = k
    roots = {"power:2/harmonic": sums["harmonic"] ** -0.5,
             "EXPLICIT_TERMS": _explicit_roots(top),
             "expm1/harmonic": np.log1p(1.0 / sums["harmonic"])}
    for fam_name, family, _ in NORM_FAMILIES:
        for ladder in ("const:2", "linear", "to:3"):
            pair, levels = gauge(ladder)
            run(f"1.8 {fam_name} {ladder}", criterion_schramm(family, pair, n_cap),
                levels, ks, roots[fam_name])
    for base, lam, ladder in CRIT_19:
        pair, levels = gauge(ladder)
        shape = ConvexBase("power", p=2.0) if base == "power:2" else ConvexBase("expm1")
        # phi^{-1}(1 / Lambda(k)): Phi_k = phi Lambda(k)
        inverse = sums[lam] ** -0.5 if base == "power:2" else np.log1p(1.0 / sums[lam])
        run(f"1.9 {base}/{lam} {ladder}",
            criterion_phi_lambda(shape, CRIT_WEIGHTS[lam][0], pair, n_cap), levels, ks, inverse)
    return modes


GROUPS = {"dp": _dp_group, "rank": _rank_group, "gauge": _gauge_group, "norm": _norm_group,
          "certify": _certify_group, "criteria": _criteria_group}


def sweep(groups=tuple(GROUPS), sizes=range(3, 13), top=CRIT_TOP):
    """``{group: (modes, violations)}`` of the ``groups`` on the inputs and
    witnesses at m in ``sizes``, and the criteria on ladders up to delta_n =
    ``top``: the solves (scans) per mode, and one line per violation. The
    inputs are drawn at m in ``SIZES`` and at ``BOUNDS_M``, the witnesses
    are at m = 8 and 12."""
    out = {}
    for group in groups:
        checks = Sweep()
        args = (checks, sizes, top) if group == "criteria" else (checks, sizes)
        out[group] = GROUPS[group](*args), checks.violations
    return out


def main():
    status = 0
    print(f"{len(_inputs(SIZES))} inputs, {len(_bounds_inputs((BOUNDS_M,)))} more at "
          f"m = {BOUNDS_M}, {len(WITNESSES)} witnesses")
    for group, (modes, violations) in sweep().items():
        counts = ", ".join(f"{mode} {n}" for mode, n in sorted(modes.items()))
        print(f"{group}: {sum(modes.values())} solves ({counts}), "
              f"{len(violations)} violations")
        for line in violations:
            print(line)
        status |= bool(violations)
    return status


if __name__ == "__main__":
    sys.exit(main())
