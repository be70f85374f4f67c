"""The three workloads: seeded call lists over gbv's public API.

A workload is built once (set-up: weight sequences and families) and then
hands out *passes*. A pass is a fixed mix of calls whose inputs are drawn
from a ``numpy.random.Generator``; the runner seeds a fresh generator per
pass from the benchmark seed, so a long run averages over many inputs
while the mix of call types, sizes and solver paths stays the same.

Why each workload exists is written next to its class; sizes left out
are listed in README.md.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field

import numpy as np

import gbv.cli
import gbv.variation
from gbv import (GaugePair, SchrammFamily, StepFunction, WeightSequence)

#: Schramm family with no closed-form inverse (explicit coef/exponent pairs)
EXPLICIT_TERMS = [[1.0, 1.5], [0.8, 1.7], [0.6, 2.0], [0.5, 2.0]]


@dataclass
class Call:
    """One timed call into gbv plus what the gate needs to check it."""

    id: str                     # stable description, compared with the reference
    kind: str                   # variation | norm | cli
    func: object                # zero-argument callable resolved at call time
    obj: dict | None = None     # objective spec for gate.check_variation / check_norm
    values: np.ndarray | None = None
    aux: dict = field(default_factory=dict)
    fixed: bool = False         # inputs do not depend on the seed


# ---------------------------------------------------------------------------
# input shapes

def walk(rng, m):
    """Quantized random walk: steps in {-2..2}/4 (rough)."""
    steps = rng.integers(-2, 3, size=m)
    return np.concatenate([[0.0], np.cumsum(steps) / 4.0])


def sines(rng, m):
    """Sum of two slow sines rounded to 1/8 (smooth)."""
    t = np.linspace(0.0, 1.0, m + 1)
    fr = rng.uniform(0.5, 1.5, size=2)
    ph = rng.uniform(0.0, 2 * np.pi, size=2)
    v = np.sin(2 * np.pi * fr[0] * t + ph[0]) + 0.5 * np.sin(2 * np.pi * fr[1] * t + ph[1])
    return np.round(8.0 * v) / 8.0


def plateaus(rng, m):
    """Plateau train: a few flat blocks of random height on a zero floor."""
    v = np.zeros(m + 1)
    for _ in range(int(rng.integers(2, 6))):
        a = int(rng.integers(0, m))
        length = int(rng.integers(1, max(2, m // 4)))
        v[a:a + length] = rng.integers(1, 5) / 2.0
    return v


SHAPES = {"walk": walk, "sines": sines, "plateaus": plateaus}


def _spec(w):
    """Weight spec dict for the gate's own objective code."""
    return {"kind": w.kind, "alpha": w.alpha, "value": w.value}


def _variation(name, *args, **kwargs):
    # resolved at call time so that a traced run sees its rebound wrapper
    return lambda: getattr(gbv.variation, name)(*args, **kwargs)


# ---------------------------------------------------------------------------

class DpExact:
    """Rank-independent functionals: the exact DP does all the work.

    Capped calls (modulus, uq with a binding ``s_max``) and uncapped calls
    (uq, constant weights, gauged levels) are mixed so a faster uncapped
    path cannot hide a slower capped one. Gauged calls use a ``const``
    ladder (the per-level cache hits on the levels whose minimum length
    is 1) and a ``linear`` one (every level misses).
    """

    #: m = 8 puts every call type under the brute-force oracles of the gate.
    #: Capped calls, whose witness pass makes their cost depend most on the
    #: values, run on CAPPED_INPUTS inputs at m >= 128. A pass then makes 71
    #: calls: its median falls inside the m = 128 capped block and its 90th
    #: percentile among three ~90 ms calls, not between two cost clusters.
    SIZES = (8, 64, 128, 256)
    CAPPED_INPUTS = 2
    PROBE = ("dp",)  # speed.py kernels that resemble this workload's work
    #: exponents and caps are fixed (the seed draws only the inputs): the
    #: DP's cost depends on them, not on the sampled values, so each call
    #: type costs the same on every seed
    Q = (2.0, 3.0, 1.0)  # uq uncapped, capped by S_MAX, with min_len = 4
    S_MAX = 3
    P = 1.0              # constant-weight Waterman-Shiba exponent
    Q_LADDER = 1.5       # exponent of the const gauge ladder

    def __init__(self, tmpdir):
        self.w_const = WeightSequence("constant", value=2.0)

    def make_pass(self, rng):
        calls = []
        # a call's position fixes its input shape: the witness pass costs
        # more on some shapes, and a fixed mix keeps the percentiles steady
        shapes = itertools.cycle(SHAPES)
        for m in self.SIZES:
            def draw():
                shape = next(shapes)
                return shape, StepFunction(SHAPES[shape](rng, m))

            q_unc, q_cap, q_len = self.Q
            for _ in range(self.CAPPED_INPUTS if m >= 128 else 1):
                for n in range(2, 9):
                    shape, f = draw()
                    calls.append(Call(f"modulus n={n} m={m} {shape}", "variation",
                                      _variation("modulus_of_variation", f, n),
                                      {"kind": "modulus", "n": n}, f.values))
                shape, f = draw()
                calls.append(Call(f"uq q={q_cap} s_max={self.S_MAX} m={m} {shape}", "variation",
                                  _variation("variation_unweighted_q", f, q_cap,
                                             s_max=self.S_MAX),
                                  {"kind": "q", "q": q_cap, "s_max": self.S_MAX}, f.values))
            # at m = 8 every exponent runs uncapped, under the oracle
            for q in (self.Q if m == 8 else (q_unc,)):
                shape, f = draw()
                calls.append(Call(f"uq q={q} m={m} {shape}", "variation",
                                  _variation("variation_unweighted_q", f, q),
                                  {"kind": "q", "q": q}, f.values))
            shape, f = draw()
            calls.append(Call(f"uq q={q_len} min_len=4 m={m} {shape}", "variation",
                              _variation("variation_unweighted_q", f, q_len, min_len=4),
                              {"kind": "q", "q": q_len, "min_len": 4}, f.values))
            for p in ((self.P, 2.0) if m == 8 else (self.P,)):
                shape, f = draw()
                calls.append(Call(f"weighted constant p={p} m={m} {shape}", "variation",
                                  _variation("variation_weighted", f, self.w_const, p),
                                  {"kind": "weighted", "p": p,
                                   "weights": _spec(self.w_const)}, f.values))
            n_cap = int(np.log2(m)) + 1
            for ladder in ("const", "linear"):
                gauge = GaugePair.build(ladder, "pow2", n_max=n_cap, q=self.Q_LADDER)
                shape, f = draw()
                calls.append(Call(
                    f"gauged {ladder} n_cap={n_cap} m={m} {shape}", "variation",
                    _variation("variation_gauged", f, self.w_const, gauge, n_cap),
                    {"kind": "gauged", "weights": _spec(self.w_const),
                     "qn": [float(x) for x in gauge.qn],
                     "deltas": [float(x) for x in gauge.deltas], "n_cap": n_cap},
                    f.values))
        return calls


class RankSolve:
    """Rank-dependent functionals: branch-and-bound up to ``oracle_cap``
    cells, certified bounds beyond it, and the Schramm norm on both sides.

    Calls alternate rough (walk) and smooth (sines) inputs. Exact calls,
    whose cost swings by 10x between inputs, are kept to sizes where one
    of them cannot dominate a pass. The per-size call counts put the
    median call among the bounds-mode m = 64 calls and the 90th percentile
    among the m = 128 calls and bounds-mode norms, whose costs barely
    depend on the input, so both percentiles are steady across seeds.
    """

    #: grid size -> functionals per pass: a count of the six (a seeded
    #: subset below six, each one twice at twelve) or "light"
    SIZES = {8: 4, 12: 6, 16: "light", 32: 3, 64: 12, 128: "light"}
    PROBE = ("dp", "py")
    NORM = ((8, "walk"), (8, "sines"), (20, "walk"), (24, "walk"))

    def __init__(self, tmpdir):
        self.w = {"harmonic": WeightSequence("harmonic"),
                  "power": WeightSequence("power", alpha=0.5),
                  "log": WeightSequence("log")}
        self.fam_power = SchrammFamily.power(2.0, self.w["harmonic"])
        self.fam_explicit = SchrammFamily("explicit", terms=EXPLICIT_TERMS)
        w = self.w
        weighted = [("harmonic", 1.0), ("power", 2.0), ("log", 1.0), ("harmonic", 2.0)]
        self.functionals = [(f"weighted {k} p={p}", "variation_weighted", (w[k], p),
                             {"kind": "weighted", "p": p, "weights": _spec(w[k])})
                            for k, p in weighted]
        self.functionals.append(
            ("schramm power2", "variation_schramm", (self.fam_power,),
             {"kind": "schramm", "family": "power", "p": 2.0,
              "weights": _spec(w["harmonic"])}))
        self.functionals.append(
            ("schramm explicit", "variation_schramm", (self.fam_explicit,),
             {"kind": "schramm", "family": "explicit", "terms": EXPLICIT_TERMS}))
        #: the cheapest exact functional at m = 16 and a mix for m = 128
        self.light = {16: [self.functionals[1]],
                      128: [self.functionals[2], self.functionals[4], self.functionals[5]]}

    def _pick(self, rng, m):
        count = self.SIZES[m]
        if count == "light":
            return self.light[m]
        if count < len(self.functionals):
            chosen = rng.choice(len(self.functionals), count, replace=False)
            return [self.functionals[i] for i in sorted(chosen)]
        return self.functionals * (count // len(self.functionals))

    def make_pass(self, rng):
        calls = []
        shapes = itertools.cycle(["walk", "sines"])  # fixed by position, as in DpExact
        for m in self.SIZES:
            for label, name, extra, obj in self._pick(rng, m):
                shape = next(shapes)
                f = StepFunction(SHAPES[shape](rng, m))
                calls.append(Call(f"{label} m={m} {shape}", "variation",
                                  _variation(name, f, *extra), obj, f.values))
        obj = self.functionals[4][3]
        for m, shape in self.NORM:
            f = StepFunction(SHAPES[shape](rng, m))
            calls.append(Call(f"schramm_norm power2 m={m} {shape}", "norm",
                              _variation("schramm_norm", f, self.fam_power), obj, f.values,
                              aux={"f": f, "family": self.fam_power,
                                   "oracle_cap": gbv.variation.ORACLE_CAP_DEFAULT}))
        return calls


class CliScan:
    """A session of in-process ``gbv.cli.main`` calls at the default
    ``--kmax``: criterion scans, counterexample plan/build/certify,
    inequality suites, then small variation and norm calls on CSV files.
    Every call builds its weight sequences from scratch, as a user's does.
    """

    PROBE = ("py",)
    FAM_POWER = json.dumps({"kind": "power", "p": 2, "weights": {"kind": "harmonic"}})
    FAM_EXPLICIT = json.dumps({"kind": "explicit", "terms": EXPLICIT_TERMS})

    def __init__(self, tmpdir):
        self.tmpdir = tmpdir
        self.report = os.path.join(tmpdir, "report.json")
        self.passes = 0  # CSV names carry the pass number: passes are made ahead of use

    def _cli(self, cid, argv, fixed, expect=0, check=None, values=None, aux=None):
        argv = list(argv) + ["--output", self.report]
        return Call(cid, "cli", lambda: gbv.cli.main(argv), check, values,
                    aux={"argv": argv, "expect": expect, **(aux or {})}, fixed=fixed)

    def fixed_calls(self):
        crit = ["criterion", "--lambda", "harmonic", "--gamma", "constant", "--p", "1"]
        calls = [
            self._cli("criterion 1.4 ncap=16", crit + ["--theorem", "1.4", "--qn", "const:1", "--ncap", "16"], True),
            self._cli("criterion 1.4 ncap=20", crit + ["--theorem", "1.4", "--qn", "const:1", "--ncap", "20"], True),
            self._cli("criterion 1.4 ncap=20 second-part",
                      ["criterion", "--lambda", "harmonic", "--gamma", "constant", "--p", "2",
                       "--theorem", "1.4", "--qn", "linear", "--ncap", "20", "--second-part"], True),
            self._cli("criterion 1.5", crit + ["--theorem", "1.5", "--q", "2"], True),
            self._cli("criterion 1.7", ["criterion", "--theorem", "1.7", "--lambda", "harmonic",
                                        "--p", "1", "--qn", "linear", "--ncap", "20"], True),
            self._cli("criterion 1.8 scaled", ["criterion", "--theorem", "1.8", "--family", self.FAM_POWER,
                                               "--qn", "const:2", "--ncap", "16"], True),
            self._cli("criterion 1.8 explicit", ["criterion", "--theorem", "1.8", "--family",
                                                 self.FAM_EXPLICIT, "--qn", "const:2", "--ncap", "8"], True),
            self._cli("criterion 1.9", ["criterion", "--theorem", "1.9", "--phi", '{"power": 2}',
                                        "--lambda", "harmonic", "--qn", "const:2", "--ncap", "16"], True),
        ]
        ce = ["counterexample", "--qn", "const:1", "--build", "--certify"]
        calls += [
            self._cli("counterexample lambda m=1024", ce + [
                "--kind", "lambda", "--lambda", "harmonic", "--gamma", "constant", "--p", "1",
                "--delta", "list:64,1024", "--levels", "2", "--blow-base", "4"], True),
            # m = 8 witness: certification cross-checks against the exact engine
            self._cli("counterexample lambda m=8", ce + [
                "--kind", "lambda", "--lambda", "harmonic", "--gamma", "constant", "--p", "1",
                "--delta", "list:4,8", "--levels", "2", "--sep-base", "0.5",
                "--blow-base", "1.2"], True),
            self._cli("counterexample schramm m=1024", ce + [
                "--kind", "schramm", "--family", self.FAM_POWER,
                "--delta", "list:64,1024", "--levels", "2", "--blow-base", "4"], True),
            # designed to be infeasible: constant weights never separate
            self._cli("counterexample infeasible", [
                "counterexample", "--kind", "lambda", "--lambda", "constant",
                "--gamma", "constant", "--qn", "const:1", "--delta", "pow2",
                "--levels", "3", "--build", "--certify"], True, expect=2),
        ]
        return calls

    def _csv(self, name, values):
        path = os.path.join(self.tmpdir, name)
        with open(path, "w") as fh:
            fh.writelines(f"{float(v)!r}\n" for v in values)
        return path

    def make_pass(self, rng):
        self.passes += 1
        calls = self.fixed_calls()
        seed = str(int(rng.integers(0, 2**31)))
        for suite, samples in (("master", 40), ("wu", 40), ("holder", 100),
                               ("comparison", 100)):
            calls.append(self._cli(f"inequality {suite}", [
                "inequality", "--suite", suite, "--samples", str(samples),
                "--seed", seed], False))
        harmonic = {"kind": "harmonic", "alpha": None, "value": 1.0}
        var = [
            ("lambda harmonic p=1", 9, ["--functional", "lambda", "--weights", "harmonic"],
             {"kind": "weighted", "p": 1.0, "weights": harmonic}),
            ("lambda power:0.5 p=2", 13, ["--functional", "lambda", "--weights", "power:0.5", "--p", "2"],
             {"kind": "weighted", "p": 2.0, "weights": {"kind": "power", "alpha": 0.5}}),
            ("lambda harmonic oracle-cap=8", 17, ["--functional", "lambda", "--weights", "harmonic",
                                                  "--oracle-cap", "8"],
             {"kind": "weighted", "p": 1.0, "weights": harmonic}),
            ("schramm explicit", 11, ["--functional", "schramm", "--family", self.FAM_EXPLICIT],
             {"kind": "schramm", "family": "explicit", "terms": EXPLICIT_TERMS}),
            ("modulus n=3", 17, ["--functional", "modulus", "--n", "3"], {"kind": "modulus", "n": 3}),
            ("modulus n=2", 9, ["--functional", "modulus", "--n", "2"], {"kind": "modulus", "n": 2}),
            ("modulus n=6", 13, ["--functional", "modulus", "--n", "6"], {"kind": "modulus", "n": 6}),
            ("q=2 smax=3", 17, ["--functional", "q", "--q", "2", "--smax", "3"],
             {"kind": "q", "q": 2.0, "s_max": 3}),
            ("q=1", 9, ["--functional", "q", "--q", "1"], {"kind": "q", "q": 1.0}),
            ("q=2", 17, ["--functional", "q", "--q", "2"], {"kind": "q", "q": 2.0}),
            ("q=3 minlen=2", 13, ["--functional", "q", "--q", "3", "--minlen", "2"],
             {"kind": "q", "q": 3.0, "min_len": 2}),
            ("schramm explicit", 9, ["--functional", "schramm", "--family", self.FAM_EXPLICIT],
             {"kind": "schramm", "family": "explicit", "terms": EXPLICIT_TERMS}),
            ("gauged constant ncap=4", 17, ["--functional", "gauged", "--weights", "constant",
                                            "--qn", "linear", "--ncap", "4"],
             {"kind": "gauged", "weights": {"kind": "constant", "value": 1.0},
              "qn": [1.0, 2.0, 3.0, 4.0], "deltas": [2.0, 4.0, 8.0, 16.0], "n_cap": 4}),
        ]
        for i, (label, size, argv, obj) in enumerate(var):
            values = walk(rng, size - 1)
            path = self._csv(f"p{self.passes}-var{i}.csv", values)
            calls.append(self._cli(f"variation {label} samples={size}",
                                   ["variation", "--input", path] + argv, False,
                                   check=obj, values=values))
        power2 = {"kind": "schramm", "family": "power", "p": 2.0, "weights": harmonic}
        for i, (size, cap) in enumerate(((9, 16), (13, 8))):
            values = walk(rng, size - 1)
            path = self._csv(f"p{self.passes}-norm{i}.csv", values)
            calls.append(self._cli(f"norm power2 samples={size} oracle-cap={cap}",
                                   ["norm", "--input", path, "--family", self.FAM_POWER,
                                    "--oracle-cap", str(cap)], False,
                                   check=power2, values=values,
                                   aux={"oracle_cap": cap}))
        return calls


WORKLOADS = {"dp-exact": DpExact, "rank-solve": RankSolve, "cli-scan": CliScan}
