"""Check the exact DP, the rank-dependent solves and the gauged variation
against brute force.

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
  ``L_n``, and each lies inside the ``engine`` bracket of its certificate.

Inputs come from seeded generators: walks, rounded sines, plateau trains,
integers, zigzags, a walk scaled by 1e150 and N(0,1) noise, at every m from
3 to 10. The noise has a generator of its own, so the other inputs do not
depend on it, and so do a walk, noise and a zigzag at m = 12. The
witnesses have m = 8 and 12. The engine is imported from the ``src``
directory next to this file, so the tool checks the checkout it lives in.
It prints one line per group and one line per violation, and exits 1 on
any violation. Run it from anywhere::

    python tools/oracle_sweep.py

It takes about 20 s on a 2-core x86_64 VM: 1.4 s in the certify group and
about 9 s in the inputs at m = 12.
:func:`sweep` runs given groups at given m in-process; tier-1 runs a slice
of every group at small m through it.
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
                 modulus_of_variation, plan_construction, schramm_norm, variation_gauged,
                 variation_schramm, variation_unweighted_q, variation_weighted)

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


GROUPS = {"dp": _dp_group, "rank": _rank_group, "gauge": _gauge_group, "norm": _norm_group,
          "certify": _certify_group}


def sweep(groups=tuple(GROUPS), sizes=range(3, 13)):
    """``{group: (modes, violations)}`` of the ``groups`` on the inputs and
    witnesses at m in ``sizes``: the solves per mode, and one line per
    violation. The inputs are drawn at m in ``SIZES`` and at ``BOUNDS_M``,
    the witnesses are at m = 8 and 12."""
    out = {}
    for group in groups:
        checks = Sweep()
        out[group] = GROUPS[group](checks, sizes), checks.violations
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
