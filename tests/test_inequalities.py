import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbv import (GaugePair, HypothesisError, SchrammFamily, TripleSample,
                 ValidationError, WeightSequence, check_holder_branch,
                 check_master_inequality, check_weighted_comparison,
                 check_wu_estimate, criterion_lambda_gamma, extremal_profile)
from gbv.inequalities import (SUITE_CHUNK, monotone_vector, run_comparison_suite,
                              run_holder_suite, run_master_suite,
                              run_wu_suite)

KM = 4096
HARMONIC = WeightSequence("harmonic", k_max=KM)
CONST1 = WeightSequence("constant", value=1.0, k_max=KM)


def vec(*xs):
    return np.array(xs, dtype=float)


class TestTripleSample:
    def test_rejects_increasing(self):
        with pytest.raises(ValidationError):
            TripleSample(vec(1.0, 2.0), vec(1.0, 1.0), vec(1.0, 1.0), 1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            TripleSample(vec(1.0, 0.0), vec(1.0, 1.0), vec(1.0, 1.0), 1.0)

    def test_rejects_small_q(self):
        with pytest.raises(ValidationError):
            TripleSample(vec(1.0), vec(1.0), vec(1.0), 0.5)


class TestMaster:
    def test_known_case(self):
        # x=(3,2,1), y=z=(1,1,1), q=2: lhs = sqrt(14), rhs = 6 at k=1
        s = TripleSample(vec(3, 2, 1), vec(1, 1, 1), vec(1, 1, 1), 2.0)
        res = check_master_inequality(s)
        assert res["lhs"] == pytest.approx(math.sqrt(14))
        assert res["rhs"] == pytest.approx(6.0)
        assert res["ok"]

    def test_equality_at_single_block(self):
        # constant x on the first block with y = z makes both sides touch
        s = TripleSample(vec(1, 1), vec(1, 1), vec(1, 1), 1.0)
        res = check_master_inequality(s)
        assert res["lhs"] == pytest.approx(res["rhs"])

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 30),
           st.sampled_from([1.0, 1.5, 2.0, 4.0]))
    def test_random_property(self, seed, n, q):
        rng = np.random.default_rng(seed)
        s = TripleSample(monotone_vector(rng, n), monotone_vector(rng, n),
                         monotone_vector(rng, n), q)
        assert check_master_inequality(s)["ok"]


class TestExtremalProfile:
    def test_uniform_case(self):
        # y = z = 1: closed form max_k k / k^q; for q = 2 the best is k = 1
        res = extremal_profile(3, vec(1, 1, 1), vec(1, 1, 1), 2.0)
        assert res["closed_form"] == pytest.approx(1.0)
        assert res["argmax_k"] == 1
        assert res["grid_max"] <= res["closed_form"] * (1 + 1e-12)

    def test_known_mixed_case(self):
        y = vec(1.0, 2.0)
        z = vec(2.0, 16.0)
        res = extremal_profile(2, y, z, 2.0, grid=60)
        # max(2/1, 18/9) = 2 at both k; grid should find 2 exactly
        assert res["closed_form"] == pytest.approx(2.0)
        assert res["grid_max"] == pytest.approx(2.0, rel=1e-9)

    def test_grid_converges_from_below(self):
        rng = np.random.default_rng(3)
        y = monotone_vector(rng, 4)
        z = monotone_vector(rng, 4)
        coarse = extremal_profile(4, y, z, 2.0, grid=10)
        fine = extremal_profile(4, y, z, 2.0, grid=40)
        assert coarse["grid_max"] <= fine["grid_max"] * (1 + 1e-12)
        assert fine["grid_max"] <= fine["closed_form"] * (1 + 1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            extremal_profile(3, vec(1, 1), vec(1, 1, 1), 2.0)


class TestComparison:
    def test_holds_with_valid_constant(self):
        a = vec(4, 3, 2, 1)
        n = len(a)
        C = float(np.max(CONST1.prefix_sums(n) / HARMONIC.prefix_sums(n)))
        res = check_weighted_comparison(a, HARMONIC, CONST1, C)
        assert res["ok"] and res["ok_master_route"]

    def test_prefix_hypothesis_failure_named(self):
        # Gamma = k grows linearly but C is too small
        with pytest.raises(HypothesisError) as exc:
            check_weighted_comparison(vec(2, 1), HARMONIC, CONST1, 0.5)
        assert exc.value.index is not None

    def test_rejects_increasing_a(self):
        with pytest.raises(ValidationError):
            check_weighted_comparison(vec(1, 2), HARMONIC, CONST1, 10.0)


class TestHolder:
    def test_basic_case(self):
        res = check_holder_branch(vec(2, 1, 0.5), HARMONIC, CONST1,
                                  p=2.0, q_n=1.0)
        assert res["ok"]

    def test_rejects_wrong_exponent_order(self):
        with pytest.raises(ValidationError):
            check_holder_branch(vec(1.0), HARMONIC, CONST1, p=1.0, q_n=2.0)

    def test_decreasing_ratio_rejected_with_index(self):
        with pytest.raises(HypothesisError) as exc:
            check_holder_branch(vec(2, 1), CONST1, HARMONIC, p=2.0, q_n=1.0)
        assert exc.value.index == 2

    def test_ratio_check_matches_criterion(self):
        # the Hoelder branch and theorem 1.4's second part share one check
        with pytest.raises(HypothesisError) as holder:
            check_holder_branch(vec(3, 2, 1), CONST1, HARMONIC, p=2.0, q_n=1.0)
        with pytest.raises(HypothesisError) as scan:
            criterion_lambda_gamma(CONST1, HARMONIC, 2.0,
                                   GaugePair.build("linear", "pow2", n_max=2), 2,
                                   second_part=True)
        assert str(holder.value) == str(scan.value) == "Gamma(k)/Lambda(k) decreases at k=2"
        assert holder.value.index == scan.value.index == 2


class TestWu:
    def test_single_term_tight(self):
        fam = SchrammFamily.power(1.0, CONST1)
        res = check_wu_estimate(vec(1.0), fam, 1.0)
        # V = 1, inverse is 1, so the ratio without 16 is exactly 1
        assert res["ratio"] == pytest.approx(1.0)
        assert res["ok"]

    def test_zero_vector(self):
        fam = SchrammFamily.power(2.0, HARMONIC)
        res = check_wu_estimate(vec(0.0, 0.0), fam, 2.0)
        assert res["ok"] and res["lhs"] == 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 24),
           st.sampled_from([1.0, 2.0]))
    def test_random_property(self, seed, n, q):
        fam = SchrammFamily.power(2.0, HARMONIC)
        rng = np.random.default_rng(seed)
        res = check_wu_estimate(monotone_vector(rng, n), fam, q)
        assert res["ok"]
        assert res["ratio"] <= 16.0


class TestSuites:
    def test_master_suite_clean(self):
        rep = run_master_suite(7, samples=200, q_list=(1.0, 2.0), n_max=16)
        assert rep["failures"] == 0
        assert rep["worst_margin"] >= 1.0 - 1e-9

    def test_wu_suite_clean(self):
        fams = [SchrammFamily.power(2.0, HARMONIC)]
        rep = run_wu_suite(7, 200, fams, q_list=(2.0,), n_max=16)
        assert rep["failures"] == 0
        assert rep["worst_ratio_without_16"] <= 16.0

    def test_holder_suite_clean(self):
        rep = run_holder_suite(7, 200, HARMONIC, CONST1, p=2.0, q_n=1.0)
        assert rep["failures"] == 0

    def test_comparison_suite_clean(self):
        rep = run_comparison_suite(7, 200, HARMONIC, CONST1)
        assert rep["failures"] == 0

    @pytest.mark.parametrize("suite", ["wu", "holder", "comparison"])
    def test_suite_checks_horizon_before_drawing(self, suite):
        short = WeightSequence("harmonic", k_max=16)
        run = {"wu": lambda: run_wu_suite(7, 10, [SchrammFamily.power(2.0, short)]),
               "holder": lambda: run_holder_suite(7, 10, short, CONST1),
               "comparison": lambda: run_comparison_suite(7, 10, HARMONIC, short)}
        n_max = 64 if suite == "comparison" else 32
        with pytest.raises(ValidationError, match=f"n_max={n_max}.*k_max=16"):
            run[suite]()

    def test_suite_determinism(self):
        a = run_master_suite(42, samples=50, q_list=(2.0,), n_max=8)
        b = run_master_suite(42, samples=50, q_list=(2.0,), n_max=8)
        assert a == b


def _draws(rng, samples, n_max, vectors=1):
    """A suite's draws, one sample at a time. Each chunk of up to
    ``SUITE_CHUNK`` samples draws its lengths, then one (vectors, rows,
    n_max) block of uniforms; a sample's vectors are the sorted
    exponentials, largest first, of the first n entries of its rows."""
    for start in range(0, samples, SUITE_CHUNK):
        rows = min(SUITE_CHUNK, samples - start)
        lengths = rng.integers(1, n_max + 1, size=rows)
        u = rng.uniform(-3.0, 2.0, size=(vectors, rows, n_max))
        for i, n in enumerate(lengths.tolist()):
            yield start + i, n, [-np.sort(-np.exp(u[v, i, :n])) for v in range(vectors)]


def _least_margin(cases):
    """Failures and the first least margin rhs/lhs over ``(case, result)``
    pairs, with its case."""
    failures, worst, where = 0, math.inf, None
    for case, res in cases:
        failures += not res["ok"]
        margin = res["rhs"] / res["lhs"] if res["lhs"] > 0 else math.inf
        if margin < worst:
            worst, where = margin, case
    return failures, worst, where


EXPLICIT = SchrammFamily("explicit", terms=[(1.0, 1.5), (0.8, 1.7), (0.6, 2.0), (0.5, 2.0)],
                         k_max=KM)
# (seed, samples, n_max): one sample, and one past a chunk at a small and a full n_max
FOLD_CASES = [*((seed, 1, 64) for seed in (0, 7, 2024)), (0, SUITE_CHUNK + 1, 5),
              (2024, SUITE_CHUNK + 1, 5), (7, SUITE_CHUNK + 1, 64)]


class TestSuiteIsFoldOfChecker:
    """Each suite's report equals the fold of its single-case checker over
    the same draws, bit for bit."""

    @pytest.mark.parametrize("seed, samples, n_max", FOLD_CASES)
    def test_master(self, seed, samples, n_max):
        q_list = (1.0, 1.5, 3.0)
        rng = np.random.default_rng(seed)
        cases = []
        for q in q_list:
            for i, n, (x, y, z) in _draws(rng, samples, n_max, 3):
                res = check_master_inequality(TripleSample(x, y, z, q))
                cases.append(({"q": q, "i": i, "n": n, "lhs": res["lhs"], "rhs": res["rhs"]}, res))
        failures, worst, case = _least_margin(cases)
        assert run_master_suite(seed, samples, q_list, n_max) == {
            "suite": "master", "seed": seed, "samples_per_q": samples, "q_list": list(q_list),
            "failures": failures, "worst_margin": worst, "worst_case": case}

    @pytest.mark.parametrize("seed, samples, n_max", FOLD_CASES)
    def test_holder(self, seed, samples, n_max):
        w_lambda, w_gamma = WeightSequence("power", alpha=0.5, k_max=KM), CONST1
        failures, worst, case = _least_margin(
            ({"i": i, "n": n}, check_holder_branch(x, w_lambda, w_gamma, 3.0, 1.5))
            for i, n, (x,) in _draws(np.random.default_rng(seed), samples, n_max))
        assert run_holder_suite(seed, samples, w_lambda, w_gamma, 3.0, 1.5, n_max) == {
            "suite": "holder", "seed": seed, "samples": samples, "p": 3.0, "q_n": 1.5,
            "failures": failures, "worst_margin": worst, "worst_case": case}

    @pytest.mark.parametrize("seed, samples, n_max", FOLD_CASES)
    def test_comparison(self, seed, samples, n_max):
        w_lambda, w_gamma = HARMONIC, WeightSequence("log", k_max=KM)
        failures = 0
        for _, n, (a,) in _draws(np.random.default_rng(seed), samples, n_max):
            C = float(np.max(w_gamma.prefix_sums(n) / w_lambda.prefix_sums(n)))
            res = check_weighted_comparison(a, w_lambda, w_gamma, C)
            failures += not (res["ok"] and res["ok_master_route"])
        assert run_comparison_suite(seed, samples, w_lambda, w_gamma, n_max) == {
            "suite": "comparison", "seed": seed, "samples": samples, "failures": failures}

    @pytest.mark.parametrize("seed, samples, n_max", FOLD_CASES)
    def test_wu(self, seed, samples, n_max):
        families, q_list = [SchrammFamily.power(2.0, HARMONIC), EXPLICIT], (1.0, 2.0)
        rng = np.random.default_rng(seed)
        failures, worst, where = 0, 0.0, None
        for f, family in enumerate(families):
            for q in q_list:
                for i, n, (x,) in _draws(rng, samples, n_max):
                    res = check_wu_estimate(x, family, q)
                    failures += not res["ok"]
                    if res["ratio"] > worst:
                        worst, where = res["ratio"], {"family": f, "q": q, "i": i, "n": n}
        assert run_wu_suite(seed, samples, families, q_list, n_max) == {
            "suite": "wu", "seed": seed, "samples": samples, "families": 2,
            "failures": failures, "worst_ratio_without_16": worst, "worst_case": where}


def test_suite_memory_is_flat_in_samples():
    def peak(samples):
        tracemalloc.start()
        try:
            run_master_suite(7, samples, q_list=(2.0,))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak(8 * SUITE_CHUNK) < 1.5 * peak(SUITE_CHUNK)


def test_master_suite_rejects_small_q():
    with pytest.raises(ValidationError, match="q must be >= 1"):
        run_master_suite(7, samples=3, q_list=(2.0, 0.5))


@pytest.mark.parametrize("seed", [None, 1.5])
def test_suite_rejects_a_seed_that_is_no_whole_number(seed):
    kind = "a number" if seed is None else "a whole number"
    with pytest.raises(ValidationError, match=f"^seed must be {kind}, not {seed!r}$"):
        run_holder_suite(seed, 3, HARMONIC, CONST1)
