"""Run a fixed list of ``gbv`` CLI calls in-process and print two digests per call.

Each output line is ``<exit> <summary sha256> <files sha256> <argv>``. The
summary digest covers the exit code, stdout and stderr; the files digest
covers the names and bytes of every file the call wrote: the ``--output``
report, ``--csv`` plot data and a ``--witness-out`` witness. So a change
that moves only a printed summary shows in the first digest, and one that
moves a report shows in the second. A call that raises past ``main``
records the exception's type and message as its exit and stderr, and a
warning records its category and message, not the source line it came
from.

The inputs are written from a seeded generator into a fresh temporary
directory, which is the working directory of every call, so each argv and
report names only relative paths. The calls import ``gbv`` from the
``src`` directory next to this file, so two checkouts print the same lines
exactly where their CLIs behave the same. To see every changed call::

    python tools/cli_sweep.py > before.txt    # in one checkout
    python tools/cli_sweep.py > after.txt     # in the other
    diff before.txt after.txt

The list covers every subcommand: ``variation`` with each weight-spec form
(``kind``, ``kind:arg``, inline JSON, a config file, and arguments that a
kind does not read) on five inputs (one a plateau train whose skeleton gap
is 2, so that ``--minlen`` and gauged calls fill both a skeleton and a grid
table), families of each kind, criteria 1.4,
1.5, 1.7, 1.8 and 1.9, the four inequality suites, counterexample plans,
builds and certifications of both kinds, and ``norm``. It takes a few
seconds.
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gbv.cli import main  # noqa: E402

SEED = 2017


def _inputs():
    """The input files, by name, from the seeded generator."""
    rng = np.random.default_rng(SEED)
    walk = np.round(np.cumsum(rng.normal(size=13)), 2)
    sine = np.round(np.sin(np.linspace(0.0, 2.0 * np.pi, 17)) * 4.0)
    # skeleton 0, 3, 7, 9, 12: its gap is 2, so min_len 2 runs on it and 3 does not
    plateau = np.repeat([0.0, 2.0, 1.0, 3.0, 0.5], [3, 4, 2, 3, 4])
    return {
        "zigzag.csv": "0\n1\n0\n2\n0\n",
        "walk.csv": "".join(f"{v!r}\n" for v in walk.tolist()),
        "flat.csv": "1\n1\n1\n1\n",
        "sine.json": json.dumps({"m": 16, "values": sine.tolist()}),
        "plateau.csv": "".join(f"{v!r}\n" for v in plateau.tolist()),
        "list.json": "[0, 1, 0, 2]",
        "values-int.json": '{"m": 3, "values": 5}',
        "bad-m.json": '{"m": 7, "values": [0, 1]}',
        "values-bool.json": '{"values": [true, 1, 2]}',
        "values-object.json": '{"values": [{}, 1, 2]}',
        "step.csv": "0\n1\n",
        "blip.csv": "0\n0.001\n0\n",
        "w.json": json.dumps({"kind": "constant", "value": 3}),
    }


WEIGHTS = ["harmonic", "constant", "constant:2", "log", "power:0.5", "explicit:3",
           "explicit:1,2,4", '{"kind": "constant", "value": 2}',
           '{"kind": "explicit", "terms": [1, 2]}', "w.json"]
BAD_WEIGHTS = ["harmonic:3", "log:junk", "constant:", "constant:0", "power:", "power:2",
               "explicit:", "explicit:2,1", "cubic", "cubic:1", '{"kind": "log", "value": 2}',
               "power:abc", "explicit:1,,2"]
FAMILIES = [
    '{"kind": "power", "p": 2, "weights": {"kind": "harmonic"}}',
    '{"kind": "explicit", "terms": [[1, 1.5], [0.8, 1.7], [0.6, 2], [0.5, 2]]}',
    '{"kind": "scaled", "base": {"expm1": true}, "weights": {"kind": "explicit", "terms": [2]}}',
]
TINY_ROOT_FAMILY = '{"kind": "explicit", "terms": [[1e30, 2]]}'
HUGE_FAMILY = '{"kind": "explicit", "terms": [[1e300, 1], [1e300, 2]]}'
GAUGES = [("linear", "pow2"), ("const:2", "pow2"), ("to:3", "list:2,4,8,16,32,64"),
          ("list:1,2,3", "list:2,4,8")]
BAD_GAUGES = [("linear:7", "pow2"), ("linear", "pow2:9"), ("const", "pow2"), ("const:", "pow2"),
              ("to:", "pow2"), ("list:", "pow2"), ("linear", "list:"), ("square", "pow2"),
              ("square:2", "pow2"), ("linear", "pow3:1"), ("const:x", "pow2"),
              ("linear", "list:4,x")]


def _calls():
    """The argv of every call, in order."""
    calls = []
    for src in ("zigzag.csv", "walk.csv", "flat.csv", "sine.json", "plateau.csv"):
        var = ["variation", "--input", src, "--kmax", "4096"]
        if src.endswith(".json"):
            var += ["--format", "json"]
        calls += [var + ["--functional", "modulus", "--n", n] for n in ("1", "3")]
        calls += [var + ["--functional", "q", "--q", q] for q in ("1", "2.5")]
        calls.append(var + ["--functional", "q", "--q", "2", "--smax", "2", "--minlen", "2"])
        # q = 1 with min_len >= 2, uncapped: the block rule's blocks of min_len rows
        calls += [var + ["--functional", "q", "--q", "1", "--minlen", n] for n in ("2", "3")]
        for spec in WEIGHTS:
            calls += [var + ["--functional", "lambda", "--weights", spec, "--p", p]
                      for p in ("1", "2")]
        calls += [var + ["--functional", "schramm", "--family", fam] for fam in FAMILIES]
        calls += [var + ["--functional", "gauged", "--weights", spec, "--qn", qn,
                         "--delta", delta, "--ncap", "3"]
                  for spec in ("harmonic", "constant:2", "explicit:3") for qn, delta in GAUGES]
    var = ["variation", "--input", "zigzag.csv", "--functional"]
    calls += [var + ["lambda", "--weights", spec] for spec in BAD_WEIGHTS]
    calls += [var + ["lambda", "--p", p] for p in ("0.5", "nan", "inf", "-1")]
    calls += [var + ["gauged", "--qn", qn, "--delta", delta] for qn, delta in BAD_GAUGES]
    calls += [["variation", "--input", src, "--format", "json", "--functional", "modulus"]
              for src in ("list.json", "values-int.json", "bad-m.json", "absent.json",
                          "values-bool.json", "values-object.json")]

    crit = ["criterion", "--kmax", "2048", "--csv", "plot.csv"]
    for qn, delta in GAUGES:
        calls += [crit + ["--theorem", "1.4", "--lambda", lam, "--gamma", gam, "--p", "1",
                          "--qn", qn, "--delta", delta, "--ncap", "3"]
                  for lam, gam in (("harmonic", "constant"), ("log", "power:0.5"),
                                   ("explicit:1,2", "constant:1"))]
        calls.append(crit + ["--theorem", "1.7", "--lambda", "power:0.5", "--p", "1",
                             "--qn", qn, "--delta", delta, "--ncap", "3"])
        calls += [crit + ["--theorem", "1.8", "--family", fam, "--qn", qn, "--delta", delta,
                          "--ncap", "3"] for fam in FAMILIES]
        calls += [crit + ["--theorem", "1.9", "--phi", phi, "--lambda", "harmonic", "--qn", qn,
                          "--delta", delta, "--ncap", "3"]
                  for phi in ('{"power": 2}', '{"expm1": true}')]
    # Phi_k^{-1}(1) = (1e30 k)^{-1/2}: a flat kernel of 1e-15
    calls.append(crit + ["--theorem", "1.8", "--family", TINY_ROOT_FAMILY, "--qn", "const:2",
                         "--ncap", "6"])
    calls += [crit + ["--theorem", "1.4", "--p", "2", "--qn", "linear", "--ncap", "6"] + extra
              for extra in ([], ["--second-part"])]
    calls += [crit + ["--theorem", "1.4", "--p", p] for p in ("0.5", "nan", "inf")]
    calls += [crit + ["--theorem", "1.4", "--qn", qn, "--delta", delta]
              for qn, delta in BAD_GAUGES]
    calls += [crit + ["--theorem", "1.5", "--lambda", lam, "--gamma", "constant", "--p", p,
                      "--q", q]
              for lam in ("harmonic", "log") for p, q in (("1", "2"), ("2", "2"), ("2", "1"))]
    calls += [crit + ["--theorem", "1.7", "--p", p] for p in ("1", "nan")]
    calls.append(crit + ["--theorem", "1.9"])

    for suite in ("master", "wu", "holder", "comparison"):
        calls += [["inequality", "--suite", suite, "--samples", "40", "--seed", seed,
                   "--kmax", "4096"] for seed in ("0", "7")]
    calls.append(["inequality", "--suite", "wu", "--samples", "20", "--seed", "3",
                  "--family", FAMILIES[1]])
    calls.append(["inequality", "--suite", "holder", "--samples", "20", "--seed", "3",
                  "--lambda", "constant:2", "--gamma", "harmonic:3"])

    lam = ["counterexample", "--kind", "lambda", "--qn", "const:1", "--delta", "list:64,1024",
           "--levels", "2", "--blow-base", "4", "--kmax", "4096"]
    sch = ["counterexample", "--kind", "schramm", "--family", FAMILIES[0], "--qn", "const:2",
           "--delta", "list:512,32768", "--levels", "2", "--blow-base", "4"]
    for base in (lam, sch):
        calls += [base + flags for flags in (
            [], ["--build"], ["--certify"], ["--build", "--certify"],
            ["--witness-out", "w-out.json"], ["--build", "--witness-out", "w-out.json"],
            ["--certify", "--witness-out", "w-out.json"])]
    calls += [lam + [f"--{name}-base", v] for name in ("eps", "sep", "blow")
              for v in ("nan", "inf", "-1", "0", "0.25")]
    calls += [lam + ["--p", p] for p in ("2", "0.5", "nan", "inf", "-1")]
    calls += [lam + ["--gamma", "harmonic:3"], lam + ["--qn", "linear:7"],
              sch + ["--p", "2"], ["counterexample", "--kind", "schramm"]]
    calls += [["counterexample", "--kind", "lambda", "--levels", n] + extra
              for n in ("3", "256", "1022")
              for extra in ([], ["--blow-base", "2"], ["--blow-base", "1", "--sep-base", "2"])]

    norm = ["norm", "--input", "walk.csv"]
    calls += [norm + ["--family", fam] for fam in FAMILIES]
    calls += [norm + ["--family", FAMILIES[0], "--fa", v] for v in ("0", "nan")]
    # norms of 1e300 and 1e297, far above the input's scale of 1
    calls += [["norm", "--input", src, "--family", HUGE_FAMILY]
              for src in ("step.csv", "blip.csv")]
    return calls


def _run(argv):
    """``(exit, stdout, stderr)`` of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - a traceback is a result too
            code = "raised"
            err.write(f"{type(exc).__name__}: {exc}\n")
    for w in caught:
        err.write(f"{w.category.__name__}: {w.message}\n")
    return code, out.getvalue(), err.getvalue()


def main_sweep():
    os.environ["GBV_LOG"] = "WARNING"
    inputs = _inputs()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for name, text in inputs.items():
            Path(name).write_text(text)
        for argv in _calls():
            argv = argv + ["--output", "report.json"]
            code, out, err = _run(argv)
            summary = hashlib.sha256(repr((code, out, err)).encode())
            files = hashlib.sha256()
            for path in sorted(Path(".").iterdir()):
                if path.name not in inputs:
                    files.update(path.name.encode() + b"\0" + path.read_bytes())
                    path.unlink()
            print(f"{code} {summary.hexdigest()} {files.hexdigest()} {shlex.join(argv)}")


if __name__ == "__main__":
    main_sweep()
