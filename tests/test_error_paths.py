"""Paths that no other test reaches: input checks, where each bad call
raises its error type with a message that names what is wrong, and a few
small readers and reports."""

import math
import re

import numpy as np
import pytest

from gbv import (ConvexBase, GaugePair, ResolutionError, SchrammFamily, StepFunction,
                 TripleSample, ValidationError, WeightSequence, build_witness,
                 certify_blowup, check_holder_branch, check_wu_estimate, criterion_corollary_q,
                 criterion_schramm, criterion_union_p, extremal_profile, generate_block, ingest,
                 modulus_of_variation, paper_constants, plan_construction, schramm_norm,
                 variation_gauged, variation_schramm, variation_unweighted_q, variation_weighted)
from gbv.counterexample import level_constants
from gbv.inequalities import (monotone_vector, run_comparison_suite, run_holder_suite,
                              run_master_suite, run_wu_suite)

GAUGE = GaugePair.build("const", "pow2", n_max=2, q=1.0)
HARMONIC = WeightSequence("harmonic", k_max=64)
POWER2 = SchrammFamily.power(2.0, HARMONIC)
ZIGZAG = StepFunction([0.0, 1.0, 0.0, 1.0, 0.0])


def _ingest(tmp_path, text, fmt):
    path = tmp_path / f"f.{fmt}"
    path.write_text(text)
    return ingest(str(path), fmt)


def _misaligned_blowup():
    spec = plan_construction("lambda", GaugePair.build("const", "list", n_max=1, q=1.0,
                                                       delta_list=[64]), 1,
                             w_lambda=HARMONIC, w_gamma=WeightSequence("constant", k_max=64),
                             blow=[4.0])
    f = build_witness(spec)
    return certify_blowup(spec, StepFunction(f.values[:-1]))


BAD_CALLS = {
    "ingest-bad-json": (lambda tmp: _ingest(tmp, "{", "json"), ValidationError, "cannot parse"),
    "ingest-json-no-values": (lambda tmp: _ingest(tmp, '{"m": 1}', "json"), ValidationError,
                              "needs a 'values' field"),
    "ingest-unknown-format": (lambda tmp: _ingest(tmp, "0\n1\n", "tsv"), ValidationError,
                              "unknown format 'tsv'"),
    "block-n-0": (lambda tmp: generate_block(0, 1.0, 1, 4, 8), ValidationError, "n must be >= 1"),
    "block-t_n-neg": (lambda tmp: generate_block(1, 1.0, -1, 4, 8), ValidationError,
                      "t_n must be >= 0"),
    "block-m-0": (lambda tmp: generate_block(1, 1.0, 1, 4, 0), ValidationError, "m must be >= 1"),
    "block-delta-1": (lambda tmp: generate_block(1, 1.0, 1, 1, 8), ValidationError,
                      "delta_n must be >= 2"),
    "gauge-mismatch": (lambda tmp: GaugePair([1.0, 2.0], [2.0]), ValidationError,
                       "ladders must match in length"),
    "gauge-unknown-qn": (lambda tmp: GaugePair.build("square", "pow2"), ValidationError,
                         "unknown qn ladder kind 'square'"),
    "gauge-unknown-delta": (lambda tmp: GaugePair.build("linear", "pow3"), ValidationError,
                            "unknown delta ladder kind 'pow3'"),
    "gauge-const-no-q": (lambda tmp: GaugePair.build("const", "pow2"), ValidationError,
                         "const qn ladder needs q"),
    "gauge-to-q-1": (lambda tmp: GaugePair.build("to", "pow2", q=1.0), ValidationError,
                     "'to' qn ladder needs q > 1"),
    "weights-unknown-kind": (lambda tmp: WeightSequence("cubic"), ValidationError,
                             "unknown weight sequence kind 'cubic'"),
    "weights-power-no-alpha": (lambda tmp: WeightSequence("power"), ValidationError,
                               "power kind needs 0 < alpha <= 1"),
    "weights-unused-keys": (lambda tmp: WeightSequence("power", alpha=0.5, value=7.0,
                                                       terms=[1, 2]),
                            ValidationError, "a power weight sequence takes no value"),
    "base-unknown-shape": (lambda tmp: ConvexBase("sinh"), ValidationError,
                           "unknown convex base shape 'sinh'"),
    "base-unknown-config": (lambda tmp: ConvexBase.from_config({}), ValidationError,
                            "unknown convex base config {}"),
    "family-unknown-kind": (lambda tmp: SchrammFamily("mixed"), ValidationError,
                            "unknown Schramm family kind 'mixed'"),
    "family-config-unknown-kind": (lambda tmp: SchrammFamily.from_config({"kind": "mixed"}),
                                   ValidationError, "unknown Schramm family kind 'mixed'"),
    "family-scaled-no-base": (lambda tmp: SchrammFamily("scaled", weights=HARMONIC),
                              ValidationError, "scaled kind needs base and weights"),
    "family-scaled-no-weights": (lambda tmp: SchrammFamily("scaled", base=ConvexBase("expm1")),
                                 ValidationError, "scaled kind needs base and weights"),
    "family-explicit-empty": (lambda tmp: SchrammFamily("explicit", terms=[]), ValidationError,
                              "explicit kind needs a nonempty list"),
    "uq-min-len-0": (lambda tmp: variation_unweighted_q(StepFunction([0.0, 1.0]), 2.0,
                                                        min_len=0),
                     ValidationError, "min_len must be >= 1"),
    "plan-no-weights": (lambda tmp: plan_construction("lambda", GAUGE, 2, w_lambda=HARMONIC),
                        ValidationError, "needs both weight sequences"),
    "plan-no-family": (lambda tmp: plan_construction("schramm", GAUGE, 2), ValidationError,
                       "schramm construction needs a family"),
    "blowup-misaligned": (lambda tmp: _misaligned_blowup(), ResolutionError,
                          "grid m=63 cannot represent level n=1 plateaus with delta=64"),
    "plan-default-past-float": (lambda tmp: plan_construction(
        "lambda", GaugePair.build("const", "pow2", n_max=256, q=1.0), 256, w_lambda=HARMONIC,
        w_gamma=HARMONIC, eps=[0.5] * 256, sep=[8.0] * 256), ValidationError,
        "blow_256: 1.0 * 16.0^256 is past the largest float"),
    "triple-empty": (lambda tmp: TripleSample([], [1.0], [1.0], 1.0), ValidationError,
                     "x must be a nonempty vector"),
    "holder-empty-x": (lambda tmp: check_holder_branch([], HARMONIC, HARMONIC, 2.0, 1.0),
                       ValidationError, "x must be nonempty"),
    "wu-rising-x": (lambda tmp: check_wu_estimate([1.0, 2.0], POWER2, 2.0), ValidationError,
                    "x must be nonnegative nonincreasing"),
    "wu-q-below-1": (lambda tmp: check_wu_estimate([2.0, 1.0], POWER2, 0.5), ValidationError,
                     "q must be >= 1"),
}


@pytest.mark.parametrize("case", sorted(BAD_CALLS))
def test_bad_call_raises(case, tmp_path):
    call, error, fragment = BAD_CALLS[case]
    with pytest.raises(error) as exc:
        call(tmp_path)
    assert fragment in str(exc.value)


#: per count argument: the name its error gives it, and a call that passes it
COUNT_CALLS = {
    "modulus": ("n", lambda n: modulus_of_variation(ZIGZAG, n)),
    "s_max": ("s_max", lambda n: variation_unweighted_q(ZIGZAG, 1.0, s_max=n)),
    "min_len": ("min_len", lambda n: variation_unweighted_q(ZIGZAG, 1.0, min_len=n)),
    "gauged": ("level count", lambda n: variation_gauged(ZIGZAG, HARMONIC, GAUGE, n)),
    "criterion": ("level count", lambda n: criterion_schramm(POWER2, GAUGE, n)),
    "plan": ("level count", lambda n: plan_construction("lambda", GAUGE, n, w_lambda=HARMONIC,
                                                        w_gamma=HARMONIC)),
    # no least value: the CLI reports --levels 0 as a level count outside 1..1
    "level_constants": ("n", lambda n: level_constants("eps", 0.5, n)),
}


@pytest.mark.parametrize("count, fragment", [
    (2.5, "must be a whole number, not 2.5"), (math.inf, "must be a whole number, not inf"),
    (True, "must be a number, not True"), ("3", "must be a number, not '3'")],
    ids=["fraction", "inf", "bool", "str"])
@pytest.mark.parametrize("case", sorted(COUNT_CALLS))
def test_count_that_is_no_whole_number_raises(case, count, fragment):
    name, call = COUNT_CALLS[case]
    with pytest.raises(ValidationError, match=f"^{name} {fragment}$"):
        call(count)
    if case != "plan":  # a whole float reads as its int (GAUGE plans no witness)
        assert call(2.0) == call(2)


#: the suites, each with its own arguments past ``seed`` and ``samples``
SUITES = {
    "master": lambda seed, samples, **kw: run_master_suite(seed, samples, q_list=(2.0,), **kw),
    "wu": lambda seed, samples, **kw: run_wu_suite(seed, samples, [POWER2], **kw),
    "holder": lambda seed, samples, **kw: run_holder_suite(seed, samples, HARMONIC, HARMONIC,
                                                           **kw),
    "comparison": lambda seed, samples, **kw: run_comparison_suite(seed, samples, HARMONIC,
                                                                   HARMONIC, **kw),
}

#: per count: the name its error gives it, the least value it takes, and a
#: call that passes it where every other argument is valid
LEAST_CALLS = {
    "modulus": ("n", 1, lambda n: modulus_of_variation(ZIGZAG, n)),
    "s_max": ("s_max", 1, lambda n: variation_unweighted_q(ZIGZAG, 1.0, s_max=n)),
    "min_len": ("min_len", 1, lambda n: variation_unweighted_q(ZIGZAG, 1.0, min_len=n)),
    "weights-k_max": ("k_max", 1, lambda n: WeightSequence("harmonic", k_max=n)),
    "family-k_max": ("k_max", 1, lambda n: SchrammFamily("explicit", terms=[(1.0, 2.0)],
                                                         k_max=n)),
    "gauge-n_max": ("n_max", 1, lambda n: GaugePair.build("linear", "pow2", n_max=n)),
    "block-n": ("n", 1, lambda n: generate_block(n, 1.0, 1, 4, 8)),
    "block-t_n": ("t_n", 0, lambda n: generate_block(1, 1.0, n, 4, 8)),
    # delta_n = 2.5 used to build the train of delta_n = 2
    "block-delta_n": ("delta_n", 2, lambda n: generate_block(1, 1.0, 1, n, 8)),
    "block-m": ("m", 1, lambda n: generate_block(1, 1.0, 1, 4, n)),
    "paper_constants": ("n_levels", 1, paper_constants),
    "monotone_vector": ("n", 1, lambda n: monotone_vector(np.random.default_rng(0), n)),
    "extremal-n": ("n", 1, lambda n: extremal_profile(n, [1.0], [1.0], 2.0)),
    "extremal-grid": ("grid", 1, lambda n: extremal_profile(1, [1.0], [1.0], 2.0, grid=n)),
    **{f"{suite}-seed": ("seed", 0, lambda n, run=run: run(n, 3))
       for suite, run in SUITES.items()},
    **{f"{suite}-samples": ("samples", 1, lambda n, run=run: run(0, n))
       for suite, run in SUITES.items()},
    **{f"{suite}-n_max": ("n_max", 1, lambda n, run=run: run(0, 3, n_max=n))
       for suite, run in SUITES.items()},
}


@pytest.mark.parametrize("bad", ["fraction", "bool", "str", "below"])
@pytest.mark.parametrize("case", sorted(LEAST_CALLS))
def test_count_takes_a_whole_number_of_at_least_its_least(case, bad):
    name, least, call = LEAST_CALLS[case]
    count, fragment = {"fraction": (2.5, "a whole number, not 2.5"),
                       "bool": (True, "a number, not True"), "str": ("3", "a number, not '3'"),
                       "below": (least - 1, f">= {least}")}[bad]
    with pytest.raises(ValidationError, match=f"^{re.escape(f'{name} must be {fragment}')}$"):
        call(count)


def test_suite_reports_its_seed_and_samples_as_ints():
    for run in SUITES.values():
        report = run(np.int64(3), np.int64(5))
        count = report.get("samples", report.get("samples_per_q"))
        assert type(report["seed"]) is int and type(count) is int
        assert report == run(3, 5)


#: per index read: a call that reads the index k, or the array of them, given
INDEX_READS = {
    "weights": lambda k: HARMONIC.weights(k),
    "prefix_sum": lambda k: HARMONIC.prefix_sum(k),
    "prefix_sums": lambda k: HARMONIC.prefix_sums(k),
    "prefix_sums_at": lambda k: HARMONIC.prefix_sums_at(k),
    "partial_sum": lambda k: POWER2.partial_sum(k, 0.5),
    "partial_inverse_many": lambda k: POWER2.partial_inverse_many(k, 1.0),
    "explicit-partial_sum": lambda k: SchrammFamily("explicit", terms=[(1.0, 2.0)],
                                                    k_max=64).partial_sum(k, 0.5),
    "explicit-partial_inverse_many": lambda k: SchrammFamily(
        "explicit", terms=[(1.0, 2.0)], k_max=64).partial_inverse_many(k, 1.0),
}


@pytest.mark.parametrize("k, fragment", [
    (2.5, "a whole number, not 2.5"), (math.inf, "a whole number, not inf"),
    (True, "a number, not True"), ("3", "a number, not '3'")],
    ids=["fraction", "inf", "bool", "str"])
@pytest.mark.parametrize("case", sorted(INDEX_READS))
def test_index_that_is_no_whole_number_raises(case, k, fragment):
    read = INDEX_READS[case]
    # a scalar, and an array after a valid index; numpy reads a bool among
    # ints as an int, so a bool array is all bools
    for ks in (k, [k, k] if k is True else [1, k]):
        if case in ("weights", "prefix_sums") and ks is not k:
            continue  # these read one k
        with pytest.raises(ValidationError, match=f"^index must be {re.escape(fragment)}$"):
            read(ks)


@pytest.mark.parametrize("case", ["prefix_sums_at", "partial_sum", "partial_inverse_many",
                                  "explicit-partial_sum", "explicit-partial_inverse_many"])
def test_whole_float_indices_read_as_ints(case):
    read = INDEX_READS[case]
    ks = np.array([[1, 5], [64, 2]])
    assert np.array_equal(read(ks.astype(float)), read(ks))
    assert np.array_equal(read(ks.astype(np.uint8)), read(ks))
    assert read(5.0) == read(5) == read(np.int64(5))


#: per real argument: the name its error gives it, and a call that passes it
REAL_CALLS = {
    "uq": ("q", lambda x: variation_unweighted_q(ZIGZAG, x)),
    "triple": ("q", lambda x: TripleSample([1.0], [1.0], [1.0], x)),
    "wu": ("q", lambda x: check_wu_estimate([2.0, 1.0], POWER2, x)),
    "norm": ("f_a", lambda x: schramm_norm(ZIGZAG, POWER2, f_a=x)),
    "gauge-const": ("q", lambda x: GaugePair.build("const", "pow2", n_max=2, q=x)),
    "gauge-to": ("q", lambda x: GaugePair.build("to", "pow2", n_max=2, q=x)),
    "gauge-qn": ("a q_n", lambda x: GaugePair([x, x], [2.0, 4.0])),
    "gauge-delta": ("a delta_n", lambda x: GaugePair([1.0, 1.0], [x, x])),
    "gauge-qn-list": ("a q_n", lambda x: GaugePair.build("list", "pow2", qn_list=[x])),
    "gauge-delta-list": ("a delta_n", lambda x: GaugePair.build("linear", "list", n_max=1,
                                                                delta_list=[x])),
    "corollary-p": ("p", lambda x: criterion_corollary_q(HARMONIC, HARMONIC, x, 2.0)),
    "corollary-q": ("q", lambda x: criterion_corollary_q(HARMONIC, HARMONIC, 1.0, x)),
    "union-p": ("p", lambda x: criterion_union_p(HARMONIC, x, GaugePair.build(n_max=2), 2)),
    "holder-p": ("p", lambda x: check_holder_branch([1.0], HARMONIC, HARMONIC, x, 1.0)),
    "holder-q_n": ("q_n", lambda x: check_holder_branch([1.0], HARMONIC, HARMONIC, 2.0, x)),
    # a bad entry among numbers, which numpy would turn into a number
    "gauge-qn-mixed": ("a q_n", lambda x: GaugePair([1.0, x], [2.0, 4.0])),
    "gauge-delta-mixed": ("a delta_n", lambda x: GaugePair([1.0, 1.0], (2.0, x))),
    "sample-mixed": ("a sample", lambda x: StepFunction([0.0, x])),
    **{f"plan-{name}": (f"a value in {name}",
                        lambda x, name=name: plan_construction(
                            "lambda", GAUGE, 2, w_lambda=HARMONIC, w_gamma=HARMONIC,
                            **{name: [4.0, x]}))
       for name in ("eps", "sep", "blow")},
}


@pytest.mark.parametrize("x", [True, "1"], ids=["bool", "str"])
@pytest.mark.parametrize("case", sorted(REAL_CALLS))
def test_real_that_is_no_number_raises(case, x):
    name, call = REAL_CALLS[case]
    with pytest.raises(ValidationError, match=re.escape(f"{name} must be a number, not {x!r}")):
        call(x)


#: every public function that takes ``oracle_cap``, on a rank-dependent and
#: a rank-free solve, and the norm of a constant input, which solves nothing
CAP_CALLS = [
    lambda cap: variation_weighted(ZIGZAG, HARMONIC, 1.0, oracle_cap=cap),
    lambda cap: variation_weighted(ZIGZAG, WeightSequence("constant"), 1.0, oracle_cap=cap),
    lambda cap: variation_schramm(ZIGZAG, POWER2, oracle_cap=cap),
    lambda cap: variation_gauged(ZIGZAG, HARMONIC, GAUGE, 2, oracle_cap=cap),
    lambda cap: schramm_norm(ZIGZAG, POWER2, oracle_cap=cap),
    lambda cap: schramm_norm(StepFunction([1.0, 1.0]), POWER2, oracle_cap=cap),
]


@pytest.mark.parametrize("cap, text", [
    (math.inf, "a whole number, not inf"), ("3", "a number, not '3'"),
    (True, "a number, not True"), (2.5, "a whole number, not 2.5"), (-1, ">= 0")],
    ids=["inf", "str", "bool", "fraction", "negative"])
def test_oracle_cap_is_a_whole_number(cap, text):
    # an inf cap would run the exhaustive label search at any m
    for call in CAP_CALLS:
        with pytest.raises(ValidationError, match=re.escape(f"oracle_cap must be {text}")):
            call(cap)


def test_blank_csv_rows_are_skipped(tmp_path):
    f = _ingest(tmp_path, "0\n\n1\n ,\n0.5\n", "csv")
    assert f.values.tolist() == [0.0, 1.0, 0.5]


def test_schramm_spec_reports_its_family():
    fam = SchrammFamily.power(2.0, WeightSequence("harmonic"))
    gauge = GaugePair.build("const", "list", q=2.0, n_max=2, delta_list=[512, 32768])
    spec = plan_construction("schramm", gauge, 2, family=fam, blow=[4.0, 16.0])
    doc = spec.to_json_dict()
    assert doc["kind"] == "schramm" and doc["family"] == fam.to_config()
    assert "lambda" not in doc and len(doc["levels"]) == 2


def test_gauge_repr():
    assert repr(GAUGE) == "GaugePair(n_max=2, q_limit=1.0, delta_1=2.0)"


def test_weight_value_defaults_to_one():
    # value defaults to 1.0 for every kind, so configs and reports keep it
    assert WeightSequence("harmonic").value == WeightSequence("constant").value == 1.0
    assert WeightSequence("log", k_max=8).to_config() == {"kind": "log", "k_max": 8}
    assert np.array_equal(WeightSequence("constant", k_max=8).weights(4), np.ones(4))
