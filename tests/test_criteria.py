import json
import math

import numpy as np
import pytest

import gbv.criteria
from gbv import (ConvexBase, CriterionReport, GaugePair, HorizonError,
                 HypothesisError, SchrammFamily, ValidationError,
                 WeightSequence, criterion_corollary_q, criterion_lambda_gamma,
                 criterion_phi_lambda, criterion_schramm, criterion_union_p)

KM = 1 << 14
HARMONIC = WeightSequence("harmonic", k_max=KM)
CONST1 = WeightSequence("constant", value=1.0, k_max=KM)


def gauge_const_q(q, n_max=12):
    return GaugePair.build("const", "pow2", n_max=n_max, q=q)


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

    def test_horizon_guard(self):
        short = WeightSequence("harmonic", k_max=100)
        with pytest.raises(HorizonError):
            criterion_lambda_gamma(short, short, 1.0, gauge_const_q(1.0), 12)

    def test_report_serialization(self):
        rep = criterion_lambda_gamma(CONST1, CONST1, 1.0, gauge_const_q(1.0), 4)
        doc = rep.to_json_dict()
        json.dumps(doc)
        assert doc["horizon"] == 4
        csv_text = rep.to_csv()
        assert csv_text.splitlines()[0] == "n,a_n,argmax_k"
        assert len(csv_text.splitlines()) == 5


class TestCorollaryQ:
    def test_harmonic_diverges_for_q2(self):
        rep = criterion_corollary_q(HARMONIC, CONST1, 1.0, 2.0, horizon=KM)
        assert rep.verdict == "diverging-trend"

    def test_constant_bounded(self):
        rep = criterion_corollary_q(CONST1, CONST1, 1.0, 2.0, horizon=KM)
        assert rep.verdict == "bounded-up-to-horizon"
        assert rep.sup == pytest.approx(1.0)

    def test_running_sup_nondecreasing(self):
        rep = criterion_corollary_q(HARMONIC, CONST1, 1.0, 2.0, horizon=KM)
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
        # bisection's residual must not choose the argmax
        fam = SchrammFamily("explicit", terms=[(1.0, 2.0)])
        rep = criterion_schramm(fam, gauge_const_q(2.0, n_max=4), 4)
        assert [lv["argmax_k"] for lv in rep.levels] == [1, 1, 1, 1]
        assert all(lv["a_n"] == pytest.approx(1.0, rel=1e-9) for lv in rep.levels)

    def test_inexact_scan_flag_past_dense_cap(self):
        big = 1 << 21
        assert big > gbv.criteria.DENSE_SCAN_CAP
        fam = SchrammFamily("explicit", terms=[(1.0, 2.0), (0.5, 2.0)], k_max=big)
        gauge = GaugePair.build("const", "list", n_max=1, q=2.0,
                                delta_list=[big])
        rep = criterion_schramm(fam, gauge, 1)
        assert rep.inexact_scan
        assert rep.levels[0]["argmax_k"] <= big


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


def test_reports_are_frozen():
    rep = criterion_lambda_gamma(CONST1, CONST1, 1.0, gauge_const_q(1.0), 3)
    assert isinstance(rep, CriterionReport)
    with pytest.raises(AttributeError):
        rep.sup = 0.0
