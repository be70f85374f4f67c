import json
import math
import warnings

import pytest

import gbv.cli
from gbv import InternalConsistencyError, ingest
from gbv.cli import main, parse_family, parse_gauge, parse_weights
from gbv.sequences import WEIGHT_PARAMS


@pytest.fixture()
def zigzag_csv(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("0\n1\n0\n1\n0\n")
    return str(path)


def run(argv):
    return main(argv)


class TestParsing:
    def test_weight_specs(self):
        assert parse_weights("harmonic", 64).kind == "harmonic"
        w = parse_weights("constant:2.5", 64)
        assert w.kind == "constant" and w.weights(3)[2] == 2.5
        assert parse_weights("power:0.5", 64).alpha == 0.5
        w = parse_weights("explicit:1,2,3", 64)
        assert w.terms == (1.0, 2.0, 3.0)
        w = parse_weights('{"kind": "harmonic", "k_max": 32}')
        assert w.k_max == 32

    @pytest.mark.parametrize("kind, arg, value", [
        ("constant", "2", 2.0), ("power", "0.5", 0.5), ("explicit", "1,1.5,4", [1.0, 1.5, 4.0])])
    def test_weight_spec_spelling_round_trips(self, kind, arg, value):
        cfg = {"kind": kind, "k_max": 64, WEIGHT_PARAMS[kind]: value}
        assert parse_weights(f"{kind}:{arg}", 64).to_config() == cfg
        assert parse_weights(json.dumps(cfg)).to_config() == cfg

    def test_weight_spec_from_file(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"kind": "constant", "value": 3.0}))
        w = parse_weights(str(path), 16)
        assert w.weights(1)[0] == 3.0 and w.k_max == 16

    def test_gauge_specs(self):
        g = parse_gauge("linear", "pow2", 6)
        assert g.levels(2)[-1] == (2.0, 4.0)
        g = parse_gauge("const:1.5", "list:4,8,16", 3)
        assert g.levels(3)[-1] == (1.5, 16.0)
        g = parse_gauge("list:1,1.5,2", "pow2", 5)
        assert g.levels(3) == [(1.0, 2.0), (1.5, 4.0), (2.0, 8.0)] and g.q_limit == 2.0

    def test_family_spec_from_file(self, tmp_path):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps({"kind": "power", "p": 2,
                                    "weights": {"kind": "harmonic"}}))
        fam = parse_family(str(path), 16)
        assert fam.k_max == 16 and fam.degree == 2.0
        path.write_text(json.dumps({"kind": "explicit", "terms": [[1, 2]]}))
        assert parse_family(str(path), 16).k_max == 16


@pytest.mark.parametrize("argv", [
    ["variation", "--functional", "gauged", "--weights", "constant", "--ncap", "0"],
    ["criterion", "--theorem", "1.4", "--lambda", "harmonic", "--gamma", "constant",
     "--p", "1", "--qn", "const:1", "--ncap", "0"],
    ["criterion", "--theorem", "1.8", "--family", '{"kind": "power", "p": 2, '
     '"weights": {"kind": "harmonic"}}', "--qn", "const:2", "--ncap", "0"],
    ["counterexample", "--kind", "lambda", "--lambda", "harmonic", "--gamma", "constant",
     "--qn", "const:1", "--delta", "pow2", "--levels", "0"],
], ids=["variation", "criterion-1.4", "criterion-1.8", "counterexample"])
def test_zero_level_count_exits_one(argv, zigzag_csv, capsys):
    if argv[0] == "variation":
        argv = argv + ["--input", zigzag_csv]
    assert run(argv) == 1
    assert capsys.readouterr().err == "error: level count 0 outside 1..1\n"


class TestVariationCommand:
    def test_modulus(self, zigzag_csv, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = run(["variation", "--input", zigzag_csv, "--functional",
                    "modulus", "--n", "2", "--output", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["result"]["value"] == 2.0
        assert rep["tool"] == "gbv"

    def test_lambda_functional(self, zigzag_csv, tmp_path):
        out = tmp_path / "rep.json"
        code = run(["variation", "--input", zigzag_csv, "--functional",
                    "lambda", "--weights", "harmonic", "--p", "1",
                    "--kmax", "64", "--output", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["result"]["value"] == pytest.approx(25 / 12)
        assert rep["result"]["mode"] == "exact-oracle"

    def test_schramm_functional(self, zigzag_csv, tmp_path):
        out = tmp_path / "rep.json"
        fam = json.dumps({"kind": "explicit", "terms": [[1, 2]]})
        code = run(["variation", "--input", zigzag_csv, "--functional", "schramm",
                    "--family", fam, "--kmax", "64", "--output", str(out)])
        assert code == 0
        res = json.loads(out.read_text())["result"]
        assert (res["value"], res["mode"]) == (4.0, "exact-dp")

    def test_report_to_stdout(self, zigzag_csv, capsys):
        code = run(["variation", "--input", zigzag_csv, "--functional", "gauged",
                    "--weights", "constant", "--qn", "list:1,2", "--delta", "list:2,4",
                    "--ncap", "2"])
        assert code == 0
        *report, summary = capsys.readouterr().out.splitlines()
        assert summary == "variation gauged: lower=2.0 upper=2.0 mode=exact-dp"
        rep = json.loads("\n".join(report))
        assert rep["config"]["qn"] == "list:1,2" and "output" not in rep["config"]
        assert rep["result"]["level"] == 2

    @pytest.mark.parametrize("argv, message", [
        (["--functional", "q", "--q", "inf"], "q must be >= 1"),
        (["--functional", "q", "--q", "nan"], "q must be >= 1"),
        (["--functional", "lambda", "--p", "nan"], "p must be in [1, inf) (p=nan)"),
        (["--functional", "lambda", "--weights", "constant:inf"],
         "constant weight must be positive"),
        (["--functional", "schramm", "--family", '{"kind": "explicit", "terms": [[1e400, 2]]}'],
         "explicit terms need coef > 0, exponent >= 1"),
    ], ids=["q-inf", "q-nan", "p-nan", "weight-inf", "coef-inf"])
    def test_non_finite_parameter_exits_one(self, tmp_path, capsys, argv, message):
        path = tmp_path / "f.csv"
        path.write_text("0\n1\n0.5\n2\n1\n")
        out = tmp_path / "rep.json"
        assert run(["variation", "--input", str(path), *argv, "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_smax_below_one_exits_one(self, zigzag_csv, capsys):
        code = run(["variation", "--input", zigzag_csv, "--functional", "q",
                    "--q", "1", "--smax", "0"])
        assert code == 1
        assert capsys.readouterr().err == "error: s_max must be >= 1\n"

    def test_missing_input_exits_one(self, tmp_path):
        code = run(["variation", "--input", str(tmp_path / "absent.csv"),
                    "--functional", "modulus"])
        assert code == 1


class TestCriterionCommand:
    def test_theorem_14_with_csv(self, tmp_path):
        out = tmp_path / "rep.json"
        csv_out = tmp_path / "plot.csv"
        code = run(["criterion", "--theorem", "1.4", "--lambda", "harmonic",
                    "--gamma", "constant", "--p", "1", "--qn", "const:1",
                    "--delta", "pow2", "--ncap", "10", "--kmax", "2048",
                    "--output", str(out), "--csv", str(csv_out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["result"]["verdict"] == "diverging-trend"
        lines = csv_out.read_text().splitlines()
        assert lines[0] == "n,a_n,argmax_k" and len(lines) == 11

    def test_kernel_past_the_largest_float_keeps_the_verdict(self, tmp_path):
        # Gamma times 1e-307 reads inf from level 5 on: a level past the
        # largest float after a finite one is a rise, slope inf, not nan
        reports = []
        for gamma, lam in (("constant:1", "harmonic"), ("constant:1e-307", "harmonic"),
                           ("constant:1e-300", "constant:1e300")):
            out = tmp_path / "rep.json"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = run(["criterion", "--theorem", "1.4", "--lambda", lam, "--gamma", gamma,
                            "--p", "1", "--qn", "const:1", "--ncap", "12",
                            "--output", str(out)])
            assert code == 0
            reports.append(json.loads(out.read_text())["result"])
        finite, scaled, flat = reports
        assert finite["verdict"] == scaled["verdict"] == "diverging-trend"
        assert finite["slope"] == pytest.approx(0.5949, abs=1e-4)
        assert scaled["slope"] == math.inf and scaled["sup"] == math.inf
        # every level reads inf: no rise is seen
        assert (flat["sup"], flat["slope"], flat["verdict"]) == (
            math.inf, 0.0, "bounded-up-to-horizon")

    def test_theorem_15(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run(["criterion", "--theorem", "1.5", "--lambda", "harmonic",
                    "--gamma", "constant", "--p", "1", "--q", "2", "--kmax", "1024",
                    "--output", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())["result"]
        # n^(1/2) / H_n grows without bound; levels are dyadic checkpoints to 1024
        assert rep["verdict"] == "diverging-trend" and len(rep["levels"]) == 11

    def test_theorem_17(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run(["criterion", "--theorem", "1.7", "--lambda", "harmonic", "--p", "1",
                    "--qn", "linear", "--ncap", "10", "--kmax", "1024",
                    "--output", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())["result"]
        # Gamma = Lambda and p <= q_n: every kernel peaks at k = 1
        assert (rep["verdict"], rep["sup"]) == ("bounded-up-to-horizon", 1.0)

    def test_non_finite_p_exits_one(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = run(["criterion", "--theorem", "1.4", "--p", "nan", "--kmax", "1024",
                    "--output", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: p must be in [1, inf) (p=nan)\n"
        assert not out.exists()

    def test_hypothesis_error_exits_two(self, tmp_path):
        code = run(["criterion", "--theorem", "1.4", "--lambda", "harmonic",
                    "--gamma", "constant", "--p", "2", "--qn", "linear",
                    "--delta", "pow2", "--ncap", "8", "--kmax", "512",
                    "--output", str(tmp_path / "r.json")])
        assert code == 2

    def test_ratio_hypothesis_failure(self, tmp_path, capsys):
        code = run(["criterion", "--theorem", "1.4", "--lambda", "power:0.5",
                    "--gamma", "harmonic", "--p", "2", "--qn", "linear",
                    "--second-part", "--output", str(tmp_path / "r.json")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: Gamma(k)/Lambda(k) decreases at k=2\n")

    def test_theorem_18(self, tmp_path):
        out = tmp_path / "rep.json"
        fam = json.dumps({"kind": "power", "p": 2,
                          "weights": {"kind": "harmonic"}})
        code = run(["criterion", "--theorem", "1.8", "--family", fam,
                    "--qn", "const:2", "--delta", "pow2", "--ncap", "10",
                    "--kmax", "2048", "--output", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["result"]["verdict"] == \
            "diverging-trend"

    def test_kmax_bounds_explicit_family(self, tmp_path):
        out = tmp_path / "rep.json"
        fam = json.dumps({"kind": "explicit", "terms": [[1, 2]]})
        code = run(["criterion", "--theorem", "1.8", "--family", fam,
                    "--qn", "const:2", "--ncap", "4", "--kmax", "8",
                    "--output", str(out)])
        assert code == 0
        levels = json.loads(out.read_text())["result"]["levels"]
        assert len(levels) == 4
        assert all(lv["argmax_k"] <= 8 for lv in levels)

    def test_internal_error_exits_one(self, tmp_path, monkeypatch):
        def broken(*args):
            raise InternalConsistencyError("engine disagreement")

        monkeypatch.setattr(gbv.cli, "criterion_phi_lambda", broken)
        code = run(["criterion", "--theorem", "1.9", "--phi", '{"power": 2}',
                    "--lambda", "harmonic", "--qn", "const:2", "--ncap", "4",
                    "--output", str(tmp_path / "r.json")])
        assert code == 1


class TestCounterexampleCommand:
    ARGS = ["counterexample", "--kind", "lambda", "--lambda", "harmonic",
            "--gamma", "constant", "--p", "1", "--qn", "const:1",
            "--delta", "list:64,1024", "--levels", "2", "--blow-base", "4",
            "--kmax", "4096"]

    def test_plan_build_certify(self, tmp_path):
        out = tmp_path / "rep.json"
        witness = tmp_path / "w.json"
        code = run(self.ARGS + ["--build", "--certify", "--witness-out",
                                str(witness), "--output", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())["result"]
        assert rep["membership"]["total_bound"] < 2.0
        levels = rep["blowup"]["levels"]
        assert all(r["growth_ok"] and r["floor_ok"] for r in levels)
        # past 16 grid cells the engine's cross-check does not run; the
        # plan's t_n, s_n, r_n and heights are in the spec, not in the rows
        assert rep["m"] == 1024
        assert rep["membership"]["engine"] is None and rep["blowup"]["engine"] is None
        assert all(list(r) == ["n", "L_n", "chain_floor", "growth_ok", "floor_ok"]
                   for r in levels)
        doc = json.loads(witness.read_text())
        assert doc["m"] == rep["m"]

    def test_certify_without_build(self, tmp_path):
        # --certify builds the witness it checks, and --witness-out writes it
        out = tmp_path / "rep.json"
        witness = tmp_path / "w.json"
        code = run(self.ARGS + ["--certify", "--witness-out", str(witness),
                                "--output", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())["result"]
        assert rep["m"] == 1024
        assert list(rep) == ["spec", "m", "membership", "blowup"]
        assert ingest(str(witness), "json").m == rep["m"]

    def test_witness_out_alone_builds_the_witness(self, tmp_path):
        out = tmp_path / "rep.json"
        witness = tmp_path / "w.json"
        assert run(self.ARGS + ["--witness-out", str(witness), "--output", str(out)]) == 0
        rep = json.loads(out.read_text())["result"]
        assert list(rep) == ["spec", "m"]
        f = ingest(str(witness), "json")
        assert f.m == rep["m"] == 1024 and f.values.max() > 0

    def test_plan_only_summary(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        assert run(self.ARGS + ["--output", str(out)]) == 0
        assert list(json.loads(out.read_text())["result"]) == ["spec"]
        assert capsys.readouterr().out == "counterexample lambda: levels=2 m=1024\n"

    def test_plan_only_past_the_grid_cap_exits_zero(self, tmp_path, capsys):
        # lcm(4, 1048576, 5242880) = 5242880 > GRID_CAP: only a build needs
        # the grid, so the plan is reported and the summary says why no m
        argv = ["counterexample", "--kind", "lambda", "--lambda", "harmonic",
                "--gamma", "constant", "--p", "1", "--qn", "const:1",
                "--delta", "list:1048576,5242880", "--levels", "2",
                "--blow-base", "1.01", "--sep-base", "0.5", "--kmax", "8388608"]
        out = tmp_path / "rep.json"
        assert run(argv + ["--output", str(out)]) == 0
        assert len(json.loads(out.read_text())["result"]["spec"]["levels"]) == 2
        assert capsys.readouterr().out == (
            "counterexample lambda: levels=2 m=too large (grid lcm exceeds cap "
            "4194304 at level 2 (delta=5242880))\n")
        assert run(argv + ["--build", "--output", str(out)]) == 1
        assert "grid lcm exceeds cap" in capsys.readouterr().err

    def test_plateau_past_its_band_exits_two(self, tmp_path, capsys):
        # a pow2 ladder has one grid cell per band: level 2's plateau would
        # close at 1/2, on level 1's first plateau
        code = run(["counterexample", "--kind", "lambda", "--lambda", "harmonic",
                    "--gamma", "constant", "--p", "1", "--qn", "const:1",
                    "--delta", "pow2", "--levels", "10", "--blow-base", "1.2",
                    "--sep-base", "0.25", "--kmax", "65536", "--certify",
                    "--output", str(tmp_path / "r.json")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: level 2: plateau budget empty (s_n=1, s_fit=0)\n")

    @pytest.mark.parametrize("delta, extra", [
        ("list:64,1024", []), ("list:64,1024", ["--build"]),
        ("list:64,1024", ["--certify"]), ("list:4,8", ["--certify"])])
    def test_family_past_its_ordering_exits_two(self, tmp_path, capsys, delta, extra):
        # heights 50 and 25 pass ordered_to = 0.01, where the membership
        # bound no longer holds
        fam = json.dumps({"kind": "explicit", "terms": [[0.01, 1], [1, 2]]})
        code = run(["counterexample", "--kind", "schramm", "--family", fam,
                    "--qn", "const:1", "--delta", delta, "--levels", "2",
                    "--blow-base", "4", "--sep-base", "0.25", *extra,
                    "--output", str(tmp_path / "r.json")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: level 1: height 50 exceeds the family's ordering (ordered_to 0.01)\n")

    def test_infeasible_exits_two(self, tmp_path):
        code = run(["counterexample", "--kind", "lambda", "--lambda",
                    "constant", "--gamma", "constant", "--qn", "const:1",
                    "--delta", "pow2", "--levels", "3", "--kmax", "64",
                    "--output", str(tmp_path / "r.json")])
        assert code == 2


class TestInequalityCommand:
    def test_master_suite(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run(["inequality", "--suite", "master", "--samples", "100",
                    "--seed", "5", "--output", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["result"]["failures"] == 0

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["inequality", "--suite", "master", "--samples", "100",
                "--seed", "5"]
        assert run(argv + ["--output", str(a)]) == 0
        assert run(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_holder_suite(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run(["inequality", "--suite", "holder", "--samples", "100",
                    "--seed", "5", "--lambda", "harmonic", "--gamma",
                    "constant", "--p", "2", "--q", "1", "--kmax", "256",
                    "--output", str(out)])
        assert code == 0

    @pytest.mark.parametrize("suite, n_max", [("wu", 32), ("holder", 32),
                                              ("comparison", 64)])
    def test_suite_beyond_horizon_exits_one(self, tmp_path, capsys, suite, n_max):
        out = tmp_path / "rep.json"
        code = run(["inequality", "--suite", suite, "--samples", "10", "--seed",
                    "5", "--kmax", "16", "--output", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"n_max={n_max}" in err and "k_max=16" in err
        assert not out.exists()


COUNTEREXAMPLE = ["counterexample", "--kind", "lambda", "--qn", "const:1", "--delta",
                  "list:64,1024", "--levels", "2", "--blow-base", "4", "--build", "--certify"]
NORM = ["norm", "--family", '{"kind": "power", "p": 2, "weights": {"kind": "harmonic"}}']
BAD_INPUTS = {
    "eps-nan": (COUNTEREXAMPLE + ["--eps-base", "nan"], "eps_1=nan must be finite and > 0"),
    "eps-inf": (COUNTEREXAMPLE + ["--eps-base", "inf"], "eps_1=inf must be finite and > 0"),
    "eps-neg": (COUNTEREXAMPLE + ["--eps-base", "-1"], "eps_1=-1.0 must be finite and > 0"),
    "sep-nan": (COUNTEREXAMPLE + ["--sep-base", "nan"], "sep_1=nan must be finite and > 0"),
    "sep-neg": (COUNTEREXAMPLE + ["--sep-base", "-1"], "sep_1=-4.0 must be finite and > 0"),
    "blow-neg": (COUNTEREXAMPLE + ["--blow-base", "-1"], "blow_1=-1.0 must be finite and > 0"),
    "p-neg": (COUNTEREXAMPLE + ["--p", "-1"], "p must be in [1, inf) (p=-1.0)"),
    "p-inf": (COUNTEREXAMPLE + ["--p", "inf"], "p must be in [1, inf) (p=inf)"),
    "p-nan": (COUNTEREXAMPLE + ["--p", "nan"], "p must be in [1, inf) (p=nan)"),
    "holder-q-neg": (["inequality", "--suite", "holder", "--samples", "5", "--seed", "1",
                      "--q", "-1"], "this branch needs 1 <= q_n < p < inf (q_n=-1.0, p=2.0)"),
    "holder-p-inf": (["inequality", "--suite", "holder", "--samples", "5", "--seed", "1",
                      "--p", "inf"], "this branch needs 1 <= q_n < p < inf (q_n=1.0, p=inf)"),
    **{f"{suite}-samples{n}": (["inequality", "--suite", suite, "--samples", n, "--seed", "1"],
                               f"a suite needs samples >= 1 (samples={n})")
       for suite in ("master", "wu", "holder", "comparison") for n in ("0", "-3")},
    "inequality-seed-neg": (["inequality", "--suite", "master", "--samples", "3", "--seed",
                             "-1"], "a suite needs a whole-number seed >= 0 (seed=-1)"),
    "fa-nan": (NORM + ["--fa", "nan"], "f_a=nan must be finite"),
    "fa-inf": (NORM + ["--fa", "inf"], "f_a=inf must be finite"),
    "levels-past-float": (["counterexample", "--kind", "lambda", "--levels", "256"],
                          "blow_256: 1.0 * 16.0^256 is past the largest float"),
    "sep-past-float": (["counterexample", "--kind", "lambda", "--levels", "1022"],
                       "sep_1022: 4.0 * 2.0^1022 is past the largest float"),
    # an argument on a spec kind that reads none
    **{f"weights-{spec}": (["variation", "--functional", "lambda", "--weights", spec],
                           f"weight spec {spec!r}: a {spec.split(':')[0]} weight sequence "
                           f"takes no argument") for spec in ("harmonic:3", "log:junk")},
    "qn-linear-arg": (["criterion", "--theorem", "1.4", "--qn", "linear:7"],
                      "gauge spec 'linear:7': a linear ladder takes no argument"),
    "delta-pow2-arg": (["criterion", "--theorem", "1.4", "--delta", "pow2:9"],
                       "gauge spec 'pow2:9': a pow2 ladder takes no argument"),
    # an empty argument meets its owner's check
    "weights-power-empty": (["variation", "--functional", "lambda", "--weights", "power:"],
                            "power kind needs 0 < alpha <= 1"),
    "weights-explicit-empty": (["variation", "--functional", "lambda", "--weights",
                                "explicit:"], "explicit kind needs a nonempty list"),
    # JSON input of the wrong shape; the file's text follows the message
    "json-list": (["variation", "--format", "json", "--functional", "modulus"],
                  "JSON input {path} must be an object whose 'values' is a list", "[0, 1, 0, 2]"),
    "json-values-int": (["variation", "--format", "json", "--functional", "modulus"],
                        "JSON input {path} must be an object whose 'values' is a list",
                        '{"m": 3, "values": 5}'),
    # a value that is no JSON number
    **{f"json-value-{name}": (["variation", "--format", "json", "--functional", "modulus"],
                              f"JSON input {{path}}: values[{i}] is {read!r}, not a number",
                              json.dumps({"values": [1] * i + [read, 2]}))
       for name, i, read in (("bool", 0, True), ("object", 0, {}), ("string", 1, "3"),
                             ("null", 2, None), ("list", 1, [1]))},
    # a spec number that does not parse
    "weights-power-abc": (["variation", "--functional", "lambda", "--weights", "power:abc"],
                          "weight spec 'power:abc': 'abc' is not a number"),
    "weights-explicit-gap": (["variation", "--functional", "lambda", "--weights",
                              "explicit:1,,2"], "weight spec 'explicit:1,,2': '' is not a number"),
    "qn-const-x": (["criterion", "--theorem", "1.4", "--qn", "const:x"],
                   "gauge spec 'const:x': 'x' is not a number"),
    "delta-list-x": (["criterion", "--theorem", "1.4", "--delta", "list:4,x"],
                     "gauge spec 'list:4,x': 'x' is not a number"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_one(case, tmp_path, capsys):
    argv, message, *text = BAD_INPUTS[case]
    path = tmp_path / "f.csv"
    path.write_text(text[0] if text else "0\n1\n0.5\n2\n1\n")
    out = tmp_path / "rep.json"
    if argv[0] in ("norm", "variation"):
        argv = argv + ["--input", str(path)]
    assert run(argv + ["--output", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message.replace('{path}', str(path))}\n"
    assert not out.exists()


# Gamma(k) = k / 1e-307 passes the largest float at k = 18, where
# Lambda(k)^-1 underflows to 0: no kernel value there is a float
TINY_WEIGHTS = ["--lambda", "constant:1e-307", "--gamma", "constant:1e-307", "--qn", "const:1"]


@pytest.mark.parametrize("argv, message", [
    (["criterion", "--theorem", "1.4", *TINY_WEIGHTS, "--p", "1", "--ncap", "12"],
     "the criterion kernel at k=18 is inf * 0: Gamma(k) overflows and Phi_k^-1(1) underflows"),
    # the plan's budget Gamma(delta_n) bounds every Gamma(k) it reads
    (["counterexample", "--kind", "lambda", *TINY_WEIGHTS, "--delta", "list:64,1024",
      "--levels", "2", "--blow-base", "4"],
     "level 1: plateau budget eps_n * Gamma(delta_n) = 0.5 * inf is past the largest float"),
    (["counterexample", "--kind", "lambda", *TINY_WEIGHTS, "--delta", "list:8,16",
      "--levels", "2", "--blow-base", "0.5", "--eps-base", "1e10"],
     "level 1: plateau budget eps_n * Gamma(delta_n) = 1e+10 * 8e+307 is past the largest float"),
], ids=["criterion", "counterexample", "counterexample-eps"])
def test_kernel_inf_times_zero_exits_one(argv, message, tmp_path, capsys):
    out = tmp_path / "rep.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--output", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_tiny_weights_plan_below_the_lost_k(tmp_path, capsys):
    # the kernel is 1 > blow_1 = 0.5 at r_1 = 1, and Gamma(16) is a float
    out = tmp_path / "rep.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["counterexample", "--kind", "lambda", *TINY_WEIGHTS, "--delta", "list:8,16",
                    "--levels", "2", "--blow-base", "0.5", "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    levels = json.loads(out.read_text())["result"]["spec"]["levels"]
    assert [(lv["delta_n"], lv["r_n"], lv["t_n"]) for lv in levels] == [(8, 1, 1), (16, 1, 1)]


def test_given_constants_build_no_default(tmp_path, capsys):
    # the default blow_256 = 2^1024 is past the largest float, but the CLI
    # gives all three constants: the plan reads no default and fails on its
    # own terms, with one error line and no warning
    argv = ["counterexample", "--kind", "lambda", "--levels", "256", "--blow-base", "2",
            "--output", str(tmp_path / "rep.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 2
    assert capsys.readouterr().err == "error: level 1: separation budget 2 below sep_n=8\n"


FAM = '{"kind": "explicit", "terms": [[1, 1.5], [0.8, 1.7]]}'
CRITERION_18 = ["criterion", "--theorem", "1.8", "--qn", "const:2", "--ncap", "4"]
BAD_CONFIGS = {
    "variation-no-family": (["variation", "--functional", "schramm"], "needs --family"),
    "criterion-no-family": (CRITERION_18, "needs --family"),
    "counterexample-no-family": (["counterexample", "--kind", "schramm"], "needs --family"),
    "criterion-no-phi": (["criterion", "--theorem", "1.9"], "theorem 1.9 needs --phi"),
    "phi-list": (["criterion", "--theorem", "1.9", "--phi", "[1]"], "must be an object"),
    "explicit-no-terms": (CRITERION_18 + ["--family", '{"kind":"explicit"}'], "'terms'"),
    "scaled-no-base": (CRITERION_18 + ["--family", '{"kind":"scaled"}'], "'base'"),
    "power-no-p": (CRITERION_18 + ["--family",
                                   '{"kind":"power","weights":{"kind":"harmonic"}}'], "'p'"),
    "weights-no-kind": (["variation", "--functional", "lambda", "--weights", '{"k_max":5}'],
                        "'kind'"),
    "weights-extra-key": (["variation", "--functional", "lambda", "--weights",
                           '{"kind":"harmonic","x":1}'], "unexpected key 'x'"),
    "weights-not-object": (CRITERION_18 + ["--kmax", "8", "--family",
                                           '{"kind":"power","p":2,"weights":"harmonic"}'],
                           "must be an object"),
    "family-kmax-0": (CRITERION_18 + ["--family", FAM, "--kmax", "0"], "k_max must be positive"),
    "schramm-kmax-0": (["variation", "--functional", "schramm", "--family", FAM, "--kmax", "0"],
                       "k_max must be positive"),
    "delta-past-int64": (["counterexample", "--kind", "lambda", "--delta", "list:1e30",
                          "--levels", "1"], "exceeds the sequence horizon"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_exits_one(case, tmp_path, capsys):
    # each used to end in a traceback (AttributeError, TypeError, KeyError,
    # OverflowError or a math domain error)
    argv, message = BAD_CONFIGS[case]
    path = tmp_path / "f.csv"
    path.write_text("0\n1\n0.5\n2\n1\n")
    if argv[0] == "variation":
        argv = argv + ["--input", str(path)]
    out = tmp_path / "rep.json"
    assert run(argv + ["--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err
    assert not out.exists()


VARIATION_LAMBDA = ["variation", "--functional", "lambda", "--weights"]
VARIATION_SCHRAMM = ["variation", "--functional", "schramm", "--family"]
BAD_VALUES = {
    "k_max-string": (VARIATION_LAMBDA + ['{"kind":"harmonic","k_max":"x"}'],
                     "k_max must be a number, not 'x'"),
    "k_max-inf": (VARIATION_LAMBDA + ['{"kind":"harmonic","k_max":1e400}'],
                  "k_max must be a whole number, not inf"),
    "k_max-fraction": (VARIATION_LAMBDA + ['{"kind":"harmonic","k_max":2.5}'],
                       "k_max must be a whole number, not 2.5"),
    "k_max-bool": (VARIATION_LAMBDA + ['{"kind":"harmonic","k_max":true}'],
                   "k_max must be a number, not True"),
    "alpha-string": (VARIATION_LAMBDA + ['{"kind":"power","alpha":"x"}'],
                     "alpha must be a number, not 'x'"),
    "value-string": (VARIATION_LAMBDA + ['{"kind":"constant","value":"2"}'],
                     "value must be a number, not '2'"),
    "weights-terms-int": (VARIATION_LAMBDA + ['{"kind":"explicit","terms":5}'],
                          "explicit kind needs a nonempty list"),
    "weights-terms-string": (VARIATION_LAMBDA + ['{"kind":"explicit","terms":["a"]}'],
                             "a weight in terms must be a number, not 'a'"),
    "family-terms-flat": (VARIATION_SCHRAMM + ['{"kind":"explicit","terms":[1,2]}'],
                          "explicit terms must be (coef, exponent) pairs, not 1"),
    "family-terms-short": (VARIATION_SCHRAMM + ['{"kind":"explicit","terms":[[1]]}'],
                           "explicit terms must be (coef, exponent) pairs, not [1]"),
    "family-k_max-string": (VARIATION_SCHRAMM + ['{"kind":"explicit","terms":[[1,1.5]],'
                                                 '"k_max":"7"}'],
                            "k_max must be a number, not '7'"),
    "power-p-string": (VARIATION_SCHRAMM + ['{"kind":"power","p":"2","weights":'
                                            '{"kind":"harmonic"}}'],
                       "p must be a number, not '2'"),
    "scaled-base-string": (VARIATION_SCHRAMM + ['{"kind":"scaled","base":{"power":"x"},'
                                                '"weights":{"kind":"harmonic"}}'],
                           "p must be a number, not 'x'"),
    "phi-string": (["criterion", "--theorem", "1.9", "--qn", "const:2", "--ncap", "4",
                    "--phi", '{"power":"2"}'], "p must be a number, not '2'"),
    "pow2-past-1023": (["criterion", "--theorem", "1.4", "--qn", "const:1", "--ncap", "2000"],
                       "at most 1023 levels"),
    "weights-unused-value": (VARIATION_LAMBDA + ['{"kind":"harmonic","alpha":"x","value":"y"}'],
                             "a harmonic weight sequence takes no value"),
    "weights-unused-terms": (VARIATION_LAMBDA + ['{"kind":"harmonic","terms":[1,2]}'],
                             "a harmonic weight sequence takes no terms"),
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_bad_value_exits_one(case, tmp_path, capsys):
    # a value of the wrong type, or a horizon that is no whole number, used
    # to end in a traceback, run on a changed horizon, or exit without
    # naming the key; a pow2 ladder past 2^1023 overflowed
    argv, message = BAD_VALUES[case]
    path = tmp_path / "f.csv"
    path.write_text("0\n1\n0.5\n2\n1\n")
    if argv[0] == "variation":
        argv = argv + ["--input", str(path)]
    out = tmp_path / "rep.json"
    assert run(argv + ["--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err
    assert not out.exists()


class TestNormCommand:
    def test_single_jump(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("0\n3\n3\n")
        out = tmp_path / "rep.json"
        fam = json.dumps({"kind": "power", "p": 1,
                          "weights": {"kind": "constant", "value": 1.0}})
        code = run(["norm", "--input", str(path), "--family", fam,
                    "--kmax", "64", "--output", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["result"]["norm"] == \
            pytest.approx(3.0, rel=1e-8)


def test_version(capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestCachedParser:
    """One parser serves every call of a process."""

    def test_built_once(self):
        assert gbv.cli.build_parser() is gbv.cli.build_parser()

    def test_append_default_is_not_shared(self, tmp_path):
        fam = json.dumps({"kind": "power", "p": 2, "weights": {"kind": "harmonic"}})
        argv = ["inequality", "--suite", "wu", "--samples", "5", "--seed", "3",
                "--kmax", "64"]
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert run(argv + ["--family", fam, "--output", str(first)]) == 0
        assert run(argv + ["--output", str(second)]) == 0
        assert json.loads(first.read_text())["config"]["family"] == [fam]
        assert json.loads(second.read_text())["config"]["family"] == []

    def test_mixed_subcommands_give_identical_reports(self, zigzag_csv, tmp_path):
        calls = {
            "criterion": ["criterion", "--theorem", "1.4", "--lambda", "harmonic",
                          "--gamma", "constant", "--p", "2", "--qn", "linear",
                          "--ncap", "12", "--second-part"],
            "variation": ["variation", "--input", zigzag_csv, "--functional",
                          "lambda", "--weights", "power:0.5", "--p", "2"],
            "counterexample": TestCounterexampleCommand.ARGS,
            "norm": ["norm", "--input", zigzag_csv, "--family",
                     json.dumps({"kind": "power", "p": 2,
                                 "weights": {"kind": "harmonic"}})],
        }
        reports = {}
        for rnd, order in enumerate([list(calls), list(calls)[::-1]]):
            for name in order:
                out = tmp_path / f"{name}-{rnd}.json"
                assert run(calls[name] + ["--output", str(out)]) == 0
                reports.setdefault(name, []).append(out.read_bytes())
        for first, second in reports.values():
            assert first == second
