"""What the benchmark under ``perfbench/`` reads of the library.

``perfbench/test_smoke.py`` runs the benchmark itself, but it sits outside
``testpaths`` and takes seconds. These checks are fast: the functions its
tracer wraps, and the keys of the results and reports its gate reads.
"""

import importlib.util
import json
from pathlib import Path

import pytest

import gbv
from gbv.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
HARMONIC = gbv.WeightSequence("harmonic")
F = gbv.StepFunction([0.0, 1.0, 0.2, 0.9, 0.0, 0.5])


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for owner, attribute, _, _ in tracing.targets():
        assert callable(getattr(owner, attribute, None)), (owner, attribute)


@pytest.mark.parametrize("cap, mode", [(16, "exact-oracle"), (3, "bounds")])
def test_variation_json_holds_what_the_gate_reads(cap, mode):
    doc = gbv.variation_weighted(F, HARMONIC, 1.0, oracle_cap=cap).to_json_dict()
    assert doc["mode"] == mode
    assert doc["value"] == doc["lower"] <= doc["upper"]
    assert "level" in doc and doc["witness"]["pairs"]


def test_norm_is_a_float():
    assert type(gbv.schramm_norm(F, gbv.SchrammFamily.power(2.0, HARMONIC))) is float


def _report(tmp_path, argv):
    path = tmp_path / "report.json"
    assert main(argv + ["--output", str(path)]) == 0
    return json.loads(path.read_text())["result"]


def test_reports_hold_what_the_gate_reads(tmp_path):
    crit = _report(tmp_path, ["criterion", "--theorem", "1.4", "--lambda", "harmonic",
                              "--gamma", "constant", "--p", "1", "--qn", "const:1",
                              "--ncap", "4"])
    assert isinstance(crit["verdict"], str)
    assert all(isinstance(lv["a_n"], float) for lv in crit["levels"])
    cert = _report(tmp_path, ["counterexample", "--qn", "const:1", "--build", "--certify",
                              "--kind", "lambda", "--lambda", "harmonic", "--gamma", "constant",
                              "--delta", "list:4,8", "--levels", "2", "--sep-base", "0.5",
                              "--blow-base", "1.2"])
    rows = cert["blowup"]["levels"]
    assert len(rows) == 2
    assert all(type(r["floor_ok"]) is bool and type(r["growth_ok"]) is bool for r in rows)
