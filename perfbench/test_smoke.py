"""Smoke tests of the benchmark itself; not part of the repository's tests.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs for one pass (``--seconds 1``) untraced and traced.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]

import gate  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
NAME = re.compile(r"[A-Za-z0-9_.-]+")
_RUNS = {}


def bench(workload, trace):
    """stdout lines of one short run, cached across tests."""
    key = (workload, trace)
    if key not in _RUNS:
        proc = subprocess.run(
            [sys.executable, *BENCH["command"][1:], "--workload", workload,
             "--seed", "7", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        _RUNS[key] = proc.stdout.strip().splitlines()
    return _RUNS[key]


WORKLOADS = [w["name"] for w in BENCH["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(workload, trace):
    result = json.loads(bench(workload, trace)[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert NAME.fullmatch(m["name"])
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_busy_within_wall(workload):
    lines = bench(workload, 1)
    head = next(line for line in lines if line.startswith("traced: wall="))
    wall = float(head.split("=")[1].split()[0])
    start = lines.index(head) + 1
    busy = {}
    for line in lines[start:]:
        parts = line.split()
        if len(parts) < 3 or parts[2] != "s" or "." in parts[0]:
            break
        busy[parts[0]] = float(parts[1])
    assert busy, "no per-layer busy lines printed"
    # each layer's spans, counted once where they nest, fit in the wall time
    for layer, seconds in busy.items():
        assert seconds <= wall, (layer, seconds, wall)
    metrics = json.loads(lines[-1])["metrics"]
    for name, m in metrics.items():
        if name.endswith((".busy_s", ".self_s")):
            assert 0 <= m["value"] <= wall, name
    # the variation path buckets partition the layer's top-level calls
    buckets = [m["value"] for name, m in metrics.items()
               if name.startswith("variation.") and name.endswith(".busy_s")]
    assert sum(buckets) <= wall


VALUES = [0.0, 1.0, 0.0, 2.0, 0.5, 1.5, 0.0, 1.0, 0.0]
MODULUS_2 = {"kind": "modulus", "n": 2}


def _result(pairs, mode="exact-dp", level=None):
    value = sum(abs(VALUES[b] - VALUES[a]) for a, b in pairs)
    return {"value": value, "mode": mode, "lower": value, "upper": value,
            "level": level, "witness": {"pairs": [list(p) for p in pairs]}}


def test_gate_passes_a_correct_answer():
    assert gate.oracle_value(MODULUS_2, VALUES) == 4.0
    assert gate.check_variation(MODULUS_2, VALUES, _result([(2, 3), (3, 6)])) == []


def test_gate_trips_on_shifted_witness():
    res = _result([(2, 3), (3, 6)])
    res["witness"]["pairs"] = [[3, 4], [4, 7]]
    assert any("witness re-evaluates" in p for p in gate.check_variation(MODULUS_2, VALUES, res))


def test_gate_trips_on_lower_above_upper():
    res = _result([(2, 3), (3, 6)], mode="bounds")
    res["upper"] = res["lower"] - 0.5
    assert any("order violated" in p for p in gate.check_variation(MODULUS_2, VALUES, res))


def test_gate_trips_on_overlap_and_short_gauged_interval():
    res = _result([(2, 4), (3, 6)])
    assert any("overlaps" in p for p in gate.check_variation(MODULUS_2, VALUES, res))
    gauged = {"kind": "gauged", "weights": {"kind": "constant", "value": 1.0},
              "qn": [1.0, 1.0], "deltas": [2.0, 4.0], "n_cap": 2}
    res = _result([(2, 3)], level=1)  # level 1 (delta 2) needs length >= 4
    assert any("shorter than min_len" in p for p in gate.check_variation(gauged, VALUES, res))


def test_reference_comparison_tolerances():
    ref = {"id": "x", "mode": "bounds", "value": 1.0, "lower": 1.0, "upper": 2.0}
    tighter = dict(ref, lower=1.2, upper=1.5, value=1.2)
    assert gate.compare_reference(tighter, ref) == []
    wrong = dict(ref, lower=2.5, upper=3.0, value=2.5)
    assert gate.compare_reference(wrong, ref)
    exact = {"id": "y", "mode": "exact-dp", "value": 1.0, "lower": 1.0, "upper": 1.0}
    assert gate.compare_reference(dict(exact, value=1.0 + 1e-12), exact) == []
    assert gate.compare_reference(dict(exact, value=1.0 + 1e-6), exact)
    crit = {"id": "c", "code": 0, "verdict": "diverging-trend", "a_n": [1.0, 2.0]}
    assert gate.compare_reference(dict(crit, a_n=[1.0, 2.0 * (1 + 1e-7)]), crit)
    assert gate.compare_reference(dict(crit, code=2), crit)
