import json
import logging
import math
import tracemalloc

import numpy as np
import pytest

import gbv.criteria
from gbv import (ConvexBase, CriterionReport, GaugePair, HorizonError,
                 HypothesisError, SchrammFamily, ValidationError,
                 WeightSequence, criterion_corollary_q, criterion_lambda_gamma,
                 criterion_phi_lambda, criterion_schramm, criterion_union_p)
from gbv.criteria import TIE_BAND, kernel_parts

KM = 1 << 14
HARMONIC = WeightSequence("harmonic", k_max=KM)
CONST1 = WeightSequence("constant", value=1.0, k_max=KM)

WEIGHTS = {
    "harmonic": lambda: WeightSequence("harmonic", k_max=KM),
    "power:0.5": lambda: WeightSequence("power", alpha=0.5, k_max=KM),
    "log": lambda: WeightSequence("log", k_max=KM),
    "constant:3": lambda: WeightSequence("constant", value=3.0, k_max=KM),
    "explicit": lambda: WeightSequence("explicit", terms=[1.0, 2.0, 2.0, 3.0, 5.0],
                                       k_max=KM),
}
#: the benchmark's explicit family: unordered past x = 3.05, far above the
#: Phi_k^{-1}(1) <= 1 a scan inverts at
EXPLICIT_TERMS = [[1.0, 1.5], [0.8, 1.7], [0.6, 2.0], [0.5, 2.0]]
FAMILIES = {
    "power/harmonic": lambda: SchrammFamily.power(2.0, WeightSequence("harmonic", k_max=KM)),
    "expm1/harmonic": lambda: SchrammFamily(
        "scaled", base=ConvexBase("expm1"), weights=WeightSequence("harmonic", k_max=KM)),
    "one-exponent explicit": lambda: SchrammFamily(
        "explicit", terms=[(1.0, 2.0), (0.5, 2.0)], k_max=KM),
    "EXPLICIT_TERMS": lambda: SchrammFamily("explicit", terms=EXPLICIT_TERMS, k_max=KM),
}
LADDERS = [("const", 1.0), ("linear", None), ("to", 2.0)]


def gauge_const_q(q, n_max=12):
    return GaugePair.build("const", "pow2", n_max=n_max, q=q)


def unit_weights(family):
    """gamma_j = 1 up to the horizon of ``family``: theorem 1.8's target."""
    return WeightSequence("constant", value=1.0, k_max=family.k_max)


def dense_levels(tops, exps, parts):
    """Per level ``(max, first k within TIE_BAND of it)`` of the kernel
    ``g^e h`` evaluated at every k up to the level's top."""
    g, h = parts(np.arange(1, max(tops) + 1))
    out = []
    for top, e in zip(tops, exps):
        kernel = g[:top] ** e * h[:top]
        a_n = float(kernel.max())
        out.append((a_n, int(np.argmax(kernel >= a_n * (1.0 - TIE_BAND))) + 1))
    return out


def assert_matches_dense(rep, tops, exps, parts, rel):
    assert not rep.inexact_scan
    for lv, (a_n, k) in zip(rep.levels, dense_levels(tops, exps, parts), strict=True):
        assert lv["a_n"] == pytest.approx(a_n, rel=rel)
        assert lv["a_n_upper"] == lv["a_n"]
        assert lv["argmax_k"] == k


def gauge_tops(gauge):
    return [int(d) for d in gauge.deltas], [1.0 / q for q in gauge.qn]


class TestLambdaGamma:
    def test_identity_weights_bounded_at_one(self):
        rep = criterion_lambda_gamma(CONST1, CONST1, 1.0, gauge_const_q(1.0), 12)
        assert rep.verdict == "bounded-up-to-horizon"
        assert rep.sup == pytest.approx(1.0)
        assert rep.slope == pytest.approx(0.0, abs=1e-12)

    def test_harmonic_vs_constant_diverges(self):
        rep = criterion_lambda_gamma(HARMONIC, CONST1, 1.0, gauge_const_q(1.0), 12)
        assert rep.verdict == "diverging-trend"
        assert rep.slope > 0.01
        # kernel k / Lambda(k) is increasing, so the argmax sits at delta_n
        assert rep.levels[-1]["argmax_k"] == 1 << 12

    def test_level_values_verified_directly(self):
        rep = criterion_lambda_gamma(HARMONIC, CONST1, 1.0, gauge_const_q(1.0), 6)
        for lv in rep.levels:
            delta = 1 << lv["n"]
            ks = np.arange(1, delta + 1)
            kernel = ks / HARMONIC.prefix_sums(delta)
            assert lv["a_n"] == pytest.approx(float(np.max(kernel)), rel=1e-12)

    def test_argmax_level_is_the_first_in_the_tie_band(self):
        # Gamma = Lambda, p = q_n = 2: every a_n is 1 up to round-off, and a
        # later level one ulp above the first must not be named
        rep = criterion_lambda_gamma(HARMONIC, HARMONIC, 2.0, gauge_const_q(2.0, 12), 12)
        assert all(lv["a_n"] == pytest.approx(1.0, rel=1e-15) for lv in rep.levels)
        assert rep.argmax_level == 1

    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("lam", ["harmonic", "power:0.5", "log"])
    def test_unit_gamma_is_theorem_1_8_on_the_power_family(self, lam, p):
        # Lambda BV^(p) is the Schramm class of x^p / lam_j and BV^(q_n) is
        # Gamma BV^(q_n) with gamma_j = 1: both theorems scan one kernel
        w_lambda, gauge = WEIGHTS[lam](), gauge_const_q(2.0, 12)
        family = SchrammFamily.power(p, w_lambda)
        rep = criterion_lambda_gamma(w_lambda, unit_weights(family), p, gauge, 12)
        assert rep == criterion_schramm(family, gauge, 12)

    def test_p_above_q1_needs_second_part(self):
        gauge = GaugePair.build("linear", "pow2", n_max=8)
        with pytest.raises(HypothesisError):
            criterion_lambda_gamma(HARMONIC, CONST1, 2.0, gauge, 8)
        rep = criterion_lambda_gamma(HARMONIC, CONST1, 2.0, gauge, 8,
                                     second_part=True)
        assert rep.verdict == "bounded-up-to-horizon"

    def test_second_part_rejects_decreasing_ratio(self):
        gauge = GaugePair.build("linear", "pow2", n_max=8)
        with pytest.raises(HypothesisError) as exc:
            criterion_lambda_gamma(CONST1, HARMONIC, 2.0, gauge, 8,
                                   second_part=True)
        assert exc.value.index == 2

    @pytest.mark.parametrize("same", [True, False])
    def test_ratio_proof_reads_no_prefix(self, same):
        # Gamma = Lambda (r_j = 1) and Gamma constant (r_j = lam_j / c) are
        # nondecreasing, so the hypothesis holds without a prefix read
        w_lambda = WeightSequence("harmonic")
        w_gamma = w_lambda if same else WeightSequence("constant", value=3.0)
        w_gamma.check_rising_ratio(w_lambda, 1 << 20)
        assert w_lambda._head is None and w_gamma._head is None

    def test_ratio_with_unordered_r_checked_densely(self):
        # r = (1, 2, 4/3, 4/3, ...) is not monotone, yet Gamma/Lambda is
        # (1, 4/3, 4/3, ...): the proof fails, and the dense route, which
        # reads the prefix sums, passes it
        w_lambda = WeightSequence("explicit", terms=[1.0, 2.0, 2.0], k_max=KM)
        w_gamma = WeightSequence("explicit", terms=[1.0, 1.0, 1.5], k_max=KM)
        w_gamma.check_rising_ratio(w_lambda, KM)
        assert w_lambda._head is not None
        gauge = GaugePair.build("linear", "pow2", n_max=8)
        criterion_lambda_gamma(w_lambda, w_gamma, 2.0, gauge, 8, second_part=True)

    @pytest.mark.parametrize("lam", sorted(WEIGHTS))
    @pytest.mark.parametrize("gamma", sorted(WEIGHTS))
    def test_ratio_proof_agrees_with_dense_check(self, lam, gamma):
        w_lambda, w_gamma = WEIGHTS[lam](), WEIGHTS[gamma]()
        ks = np.arange(1, KM + 1)
        ratio = w_gamma.prefix_sums_at(ks) / w_lambda.prefix_sums_at(ks)
        rises = bool(np.all(np.diff(ratio) >= -1e-12 * ratio[:-1]))
        # fresh sequences: a check that reads no prefix sum took the proof
        w_lambda, w_gamma = WEIGHTS[lam](), WEIGHTS[gamma]()
        if rises:
            w_gamma.check_rising_ratio(w_lambda, KM)
        else:
            with pytest.raises(HypothesisError, match="decreases at k="):
                w_gamma.check_rising_ratio(w_lambda, KM)
        if w_lambda._head is None and w_gamma._head is None:
            assert rises

    def test_ratio_failure_stops_at_its_block(self):
        # r_j = j^{-1/2} falls from the start, so the dense check runs and
        # fails at k = 2 after one block of k: far less memory than one
        # 8 MB array of the 2^20-entry horizon
        tracemalloc.start()
        try:
            w_lambda, w_gamma = WeightSequence("power", alpha=0.5), WeightSequence("harmonic")
            with pytest.raises(HypothesisError,
                               match=r"^Gamma\(k\)/Lambda\(k\) decreases at k=2$") as exc:
                w_gamma.check_rising_ratio(w_lambda, 1 << 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.index == 2
        assert peak < 8 << 20

    def test_constant_gamma_against_fsum(self):
        # Gamma(k) = k/3 is where a running sum drifts most: by 2^20 it is
        # 5.8e-12 relative off math.fsum of the terms, while the scan's a_n,
        # read from the closed form, stay within 1e-13 of it
        w_lambda, w_gamma = WeightSequence("harmonic"), WeightSequence("constant", value=3.0)
        rep = criterion_lambda_gamma(w_lambda, w_gamma, 1.0, gauge_const_q(1.0, 20), 20)
        inv = (1.0 / np.arange(1, (1 << 20) + 1)).tolist()
        for lv in rep.levels:
            k = lv["argmax_k"]
            exact = math.fsum([1.0 / 3.0] * k) / math.fsum(inv[:k])
            assert lv["a_n"] == pytest.approx(exact, rel=1e-13)
        assert k == 1 << 20
        running = np.cumsum(np.full(k, 1.0 / 3.0))[-1] / np.cumsum(inv)[-1]
        assert abs(running - exact) > 1e-12 * exact

    def test_horizon_guard(self):
        short = WeightSequence("harmonic", k_max=100)
        with pytest.raises(HorizonError):
            criterion_lambda_gamma(short, short, 1.0, gauge_const_q(1.0), 12)

    def test_report_serialization(self):
        rep = criterion_lambda_gamma(CONST1, CONST1, 1.0, gauge_const_q(1.0), 4)
        doc = rep.to_json_dict()
        json.dumps(doc)
        assert len(doc["levels"]) == 4
        # a flat kernel: the scan evaluates every k up to delta_4 = 16
        assert doc["evaluations"] == 16
        assert all(lv["a_n_upper"] == lv["a_n"] for lv in doc["levels"])
        csv_text = rep.to_csv()
        assert csv_text.splitlines()[0] == "n,a_n,argmax_k"
        assert len(csv_text.splitlines()) == 5


class TestCorollaryQ:
    def test_harmonic_diverges_for_q2(self):
        rep = criterion_corollary_q(HARMONIC, CONST1, 1.0, 2.0)
        assert rep.verdict == "diverging-trend"

    def test_constant_bounded(self):
        rep = criterion_corollary_q(CONST1, CONST1, 1.0, 2.0)
        assert rep.verdict == "bounded-up-to-horizon"
        assert rep.sup == pytest.approx(1.0)

    def test_running_sup_nondecreasing(self):
        rep = criterion_corollary_q(HARMONIC, CONST1, 1.0, 2.0)
        a = [lv["a_n"] for lv in rep.levels]
        assert all(x <= y + 1e-15 for x, y in zip(a, a[1:]))

    def test_flat_kernel_reports_first_k(self):
        # Gamma = Lambda and p = q: Gamma(k)^{1/2} Lambda(k)^{-1/2} = 1 for
        # every k up to round-off, which must not choose the argmax
        w = WeightSequence("constant", value=3.0)
        rep = criterion_corollary_q(w, w, 2.0, 2.0)
        assert len(rep.levels) == 21
        assert [lv["argmax_k"] for lv in rep.levels] == [1] * 21
        assert all(lv["a_n"] == pytest.approx(1.0, rel=1e-12) for lv in rep.levels)

    def test_exponent_order_enforced(self):
        with pytest.raises(ValidationError):
            criterion_corollary_q(HARMONIC, CONST1, 2.0, 1.0)
        with pytest.raises(ValidationError):
            criterion_corollary_q(HARMONIC, CONST1, 1.0, math.inf)


class TestSchramm:
    def test_quadratic_over_j_diverges(self):
        fam = SchrammFamily.power(2.0, HARMONIC)
        rep = criterion_schramm(fam, gauge_const_q(2.0), 12)
        assert rep.verdict == "diverging-trend"

    def test_constant_linear_family_bounded(self):
        fam = SchrammFamily.power(1.0, CONST1)
        gauge = GaugePair.build("linear", "pow2", n_max=12)
        rep = criterion_schramm(fam, gauge, 12)
        assert rep.verdict == "bounded-up-to-horizon"
        # Phi_k^{-1}(1) = 1/k exactly cancels k^{1/q_n} only at q_n = 1
        assert rep.sup == pytest.approx(1.0)

    def test_kernel_values_verified_directly(self):
        fam = SchrammFamily.power(2.0, HARMONIC)
        rep = criterion_schramm(fam, gauge_const_q(2.0), 6)
        for lv in rep.levels:
            delta = 1 << lv["n"]
            ks = np.arange(1, delta + 1)
            kernel = ks ** 0.5 * HARMONIC.prefix_sums(delta) ** -0.5
            assert lv["a_n"] == pytest.approx(float(np.max(kernel)), rel=1e-10)

    def test_non_analytic_family_scans_densely(self):
        # Phi_k(x) = k c x^3, so k^{1/2} Phi_k^{-1}(1) = k^{1/6} c^{-1/3}
        # increases and the max over k <= delta_n sits at delta_n
        c = 0.7
        fam = SchrammFamily("explicit", terms=[(c, 3.0)] * 5, k_max=KM)
        rep = criterion_schramm(fam, gauge_const_q(2.0, n_max=13), 13)
        assert not rep.inexact_scan
        for lv in rep.levels:
            delta = 1 << lv["n"]
            assert lv["a_n"] == pytest.approx(delta ** (1 / 6) * c ** (-1 / 3),
                                              rel=1e-9)

    def test_flat_kernel_reports_first_k(self):
        # Phi_k(x) = k x^2, so k^{1/2} Phi_k^{-1}(1) = 1 for every k; the
        # inverse's round-off must not choose the argmax
        fam = SchrammFamily("explicit", terms=[(1.0, 2.0)])
        rep = criterion_schramm(fam, gauge_const_q(2.0, n_max=4), 4)
        assert [lv["argmax_k"] for lv in rep.levels] == [1, 1, 1, 1]
        assert all(lv["a_n"] == pytest.approx(1.0, rel=1e-9) for lv in rep.levels)

    def test_flat_kernel_with_a_tiny_root_is_bounded(self):
        # Phi_k(x) = 1e30 k x^2, so k^{1/2} Phi_k^{-1}(1) = 1e-15 for every
        # k; an inverse that stops at an absolute width near 1e-12 reads a
        # rising kernel and a diverging trend
        fam = SchrammFamily("explicit", terms=[[1e30, 2.0]])
        rep = criterion_schramm(fam, gauge_const_q(2.0, n_max=6), 6)
        assert rep.verdict == "bounded-up-to-horizon"
        assert all(lv["a_n"] == pytest.approx(1e-15, rel=1e-15) for lv in rep.levels)

    def test_scan_past_the_budget_is_bracketed(self, monkeypatch):
        # k^{1/2} Phi_k^{-1}(1) = (2k / (k + 1))^{1/2} rises towards sqrt(2)
        # so slowly that no gap bound falls below the max found: the scan
        # stops at the budget with a certified bracket
        monkeypatch.setattr(gbv.criteria, "SCAN_BUDGET", 2000)
        fam = SchrammFamily("explicit", terms=[(1.0, 2.0), (0.5, 2.0)], k_max=KM)
        gauge = GaugePair.build("const", "list", n_max=1, q=2.0, delta_list=[KM])
        rep = criterion_schramm(fam, gauge, 1)
        assert rep.inexact_scan
        assert rep.evaluations <= 2000
        (lv,) = rep.levels
        assert lv["a_n"] < lv["a_n_upper"]
        ks = np.unique(np.random.default_rng(3).integers(1, KM + 1, size=500))
        g, h = kernel_parts(unit_weights(fam), fam)(ks)
        assert np.all(g ** 0.5 * h <= lv["a_n_upper"])
        assert lv["a_n"] == pytest.approx(math.sqrt(2 * KM / (KM + 1)), rel=1e-9)

    def test_scan_stops_before_a_round_past_the_budget(self, monkeypatch):
        # the next full round of splits would pass the budget, so the scan
        # stops before it and reports what it has: the max found and a
        # certified bound
        monkeypatch.setattr(gbv.criteria, "SCAN_BUDGET", 2000)
        km = 1 << 12
        fam = SchrammFamily("explicit", terms=[(1.0, 2.0), (0.5, 2.0)], k_max=km)
        gauge = GaugePair.build("const", "list", n_max=1, q=2.0, delta_list=[km])
        rep = criterion_schramm(fam, gauge, 1)
        assert rep.inexact_scan and rep.evaluations == 1253
        (lv,) = rep.levels
        # a_n is (2k / (k + 1))^{1/2} at k = 4096 to the last digit
        assert lv["a_n"] == 1.414040960485301
        assert lv["a_n_upper"] == 1.4161176580909107
        ks = np.unique(np.random.default_rng(5).integers(1, km + 1, size=500))
        g, h = kernel_parts(unit_weights(fam), fam)(ks)
        assert np.all(g ** 0.5 * h <= lv["a_n_upper"])

    def test_budget_split_across_levels(self, monkeypatch):
        # levels with different exponents share the budget and each keeps a
        # certified bracket
        monkeypatch.setattr(gbv.criteria, "SCAN_BUDGET", 3000)
        fam = SchrammFamily("explicit", terms=[(1.0, 2.0), (0.5, 2.0)], k_max=KM)
        gauge = GaugePair.build("list", "list", qn_list=[1.99, 1.995, 2.0],
                                delta_list=[KM // 4, KM // 2, KM])
        rep = criterion_schramm(fam, gauge, 3)
        assert rep.inexact_scan and rep.evaluations <= 3000
        ks = np.unique(np.random.default_rng(6).integers(1, KM + 1, size=500))
        g, h = kernel_parts(unit_weights(fam), fam)(ks)
        for lv, top, q in zip(rep.levels, gauge.deltas, gauge.qn):
            kernel = (g ** (1.0 / q) * h)[ks <= top]
            assert np.all(kernel <= lv["a_n_upper"]) and lv["a_n"] <= lv["a_n_upper"]

    def test_flat_kernel_is_exact_under_the_budget(self):
        # Phi_k(x) = k x^2 / 3, so k^{1/2} Phi_k^{-1}(1) = 3^{1/2} for every k:
        # no bound prunes, and a scan of SCAN_BUDGET k still closes
        big = gbv.criteria.SCAN_BUDGET
        fam = SchrammFamily.power(2.0, WeightSequence("constant", value=3.0, k_max=big))
        gauge = GaugePair.build("const", "list", n_max=1, q=2.0, delta_list=[big])
        rep = criterion_schramm(fam, gauge, 1)
        assert not rep.inexact_scan
        assert rep.evaluations == big
        assert rep.levels[0]["argmax_k"] == 1

    def test_flat_dense_round_past_the_budget_allocates_nothing(self, monkeypatch):
        # Gamma = Lambda constant at p = q_n = 1 is flat up to 2^40: the dense
        # round would ask for every k, so it is sized before it is built and
        # the scan stops at its budget instead
        monkeypatch.setattr(gbv.criteria, "SCAN_BUDGET", 4096)
        top = 1 << 40
        w = WeightSequence("constant", k_max=top)
        gauge = GaugePair.build("const", "list", n_max=1, q=1.0, delta_list=[top])
        tracemalloc.start()
        try:
            rep = criterion_lambda_gamma(w, w, 1.0, gauge, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.inexact_scan and rep.evaluations == 589
        assert rep.levels == ({"n": 1, "a_n": 1.0, "a_n_upper": 1.08, "argmax_k": 1},)
        assert peak < 4 << 20


class TestBracketScan:
    """The bracket scan against a dense evaluation of the same parts."""

    @pytest.mark.parametrize("lam", sorted(WEIGHTS))
    def test_lambda_gamma_matches_dense(self, lam):
        w_lambda = WEIGHTS[lam]()
        for gamma in (WEIGHTS["constant:3"](), w_lambda):
            for p in (1.0, 1.5, 2.0):
                for kind, q in LADDERS:
                    gauge = GaugePair.build(kind, "pow2", n_max=12, q=q)
                    # Gamma/Lambda is nondecreasing for both gammas, so the
                    # second-part route admits every p
                    rep = criterion_lambda_gamma(w_lambda, gamma, p, gauge, 12,
                                                 second_part=True)
                    assert_matches_dense(rep, *gauge_tops(gauge),
                                         kernel_parts(gamma, SchrammFamily.power(p, w_lambda)),
                                         rel=1e-12)

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_schramm_matches_dense(self, name):
        fam = FAMILIES[name]()
        for kind, q in [("const", 2.0), *LADDERS[1:]]:
            gauge = GaugePair.build(kind, "pow2", n_max=12, q=q)
            assert_matches_dense(criterion_schramm(fam, gauge, 12), *gauge_tops(gauge),
                                 kernel_parts(unit_weights(fam), fam), rel=1e-12)

    @pytest.mark.parametrize("lam", sorted(WEIGHTS))
    def test_corollary_matches_dense(self, lam):
        # the scan runs to the shorter horizon of the two, a level past 2^11
        horizon = 3000
        w_lambda = WeightSequence.from_config({**WEIGHTS[lam]().to_config(), "k_max": horizon})
        tops = [1 << i for i in range(12)] + [horizon]
        for gamma in ("constant:3", "harmonic", lam):
            gamma = WeightSequence.from_config({**WEIGHTS[gamma]().to_config(),
                                                "k_max": 2 * horizon})
            for p, q in ((1.0, 1.0), (1.0, 2.0), (1.5, 2.0), (2.0, 2.0)):
                rep = criterion_corollary_q(w_lambda, gamma, p, q)
                parts = kernel_parts(gamma, SchrammFamily.power(p, w_lambda))
                assert_matches_dense(rep, tops, [1.0 / q] * len(tops), parts, rel=1e-12)

    def test_first_k_in_the_tie_band_inside_a_gap(self):
        # past k = 50 both sums almost stop growing, and Gamma/Lambda creeps
        # up by 1.6e-8 over the last 4000 k: the tie band holds the last few
        # hundred k, and its first k lies inside a seed gap whose bound is
        # below the max
        w_lambda = WeightSequence("explicit", terms=[1.0] * 50 + [1e12], k_max=KM)
        w_gamma = WeightSequence("explicit", terms=[2.0] * 50 + [1e10], k_max=KM)
        gauge = GaugePair.build("const", "list", n_max=1, q=1.0, delta_list=[4096])
        rep = criterion_lambda_gamma(w_lambda, w_gamma, 1.0, gauge, 1)
        parts = kernel_parts(w_gamma, SchrammFamily.power(1.0, w_lambda))
        assert_matches_dense(rep, [4096], [1.0], parts, rel=0.0)
        assert 50 < rep.levels[0]["argmax_k"] < 4096

    def test_scan_memory_is_small(self):
        # fresh sequences: a scan of delta_n = 2^n up to 2^20 reads a few
        # hundred k, and no prefix table grows past the anchor
        for theorem in ("1.4", "1.7"):
            tracemalloc.start()
            try:
                w_lambda, w_gamma = WeightSequence("harmonic"), WeightSequence("constant")
                if theorem == "1.4":
                    rep = criterion_lambda_gamma(w_lambda, w_gamma, 1.0,
                                                 gauge_const_q(1.0, 20), 20)
                else:
                    w_gamma = w_lambda
                    rep = criterion_union_p(w_lambda, 1.5,
                                            GaugePair.build("linear", "pow2", n_max=20), 20)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert not rep.inexact_scan
            assert peak < 4 << 20
            for w in (w_lambda, w_gamma):
                assert len(w._head) == w.anchor < 1 << 20
            if theorem == "1.4":
                assert rep.levels[-1]["argmax_k"] == 1 << 20

    def test_scan_is_logged(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="gbv"):
            rep = criterion_lambda_gamma(CONST1, CONST1, 1.0, gauge_const_q(1.0), 4)
        assert [r.getMessage() for r in caplog.records] == [
            f"criterion scan: 4 levels to k=16, {rep.evaluations} evaluations, exact"]


class TestPhiLambda:
    def test_expm1_cross_check_passes(self):
        gauge = GaugePair.build("linear", "pow2", n_max=8)
        rep = criterion_phi_lambda(ConvexBase("expm1"), HARMONIC, gauge, 8)
        assert rep.verdict == "bounded-up-to-horizon"

    def test_expm1_base_matches_closed_form(self):
        # Phi_k(x) = (e^x - 1) H_k, so a_n = max_{k <= 2^n} k^{1/2} log1p(1/H_k)
        rep = criterion_phi_lambda(ConvexBase("expm1"), HARMONIC,
                                   gauge_const_q(2.0, n_max=10), 10)
        ks = np.arange(1, (1 << 10) + 1)
        kernel = ks ** 0.5 * np.log1p(1.0 / np.cumsum(1.0 / ks))
        for lv in rep.levels:
            expected = float(np.max(kernel[:1 << lv["n"]]))
            assert lv["a_n"] == pytest.approx(expected, rel=1e-12)


class TestUnionP:
    def test_admissible_p_bounded(self):
        gauge = GaugePair.build("to", "pow2", n_max=12, q=2.0)
        rep = criterion_union_p(HARMONIC, 1.5, gauge, 12)
        assert rep.verdict == "bounded-up-to-horizon"

    def test_p_at_limit_rejected(self):
        gauge = GaugePair.build("to", "pow2", n_max=12, q=2.0)
        with pytest.raises(ValidationError):
            criterion_union_p(HARMONIC, 2.0, gauge, 12)


@pytest.mark.parametrize("values, slope", [
    ([1.0, 2.0, math.inf, math.inf], math.inf),  # a rise past the largest float
    ([1.0, 1.0, 1.0, math.inf], math.inf),
    ([math.inf] * 4, 0.0),
    ([math.inf, math.inf, 4.0, 4.0], 0.0),  # a fall from inf is left out
    ([2.0, 2.0, 2.0, 2.0], 0.0),
])
def test_trend_is_never_nan(values, slope):
    assert gbv.criteria._trend(values) == pytest.approx(slope, abs=1e-12)


def test_reports_are_frozen():
    rep = criterion_lambda_gamma(CONST1, CONST1, 1.0, gauge_const_q(1.0), 3)
    assert isinstance(rep, CriterionReport)
    with pytest.raises(AttributeError):
        rep.sup = 0.0
