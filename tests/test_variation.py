import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gbv import (SchrammFamily, StepFunction, ValidationError, WeightSequence,
                 GaugePair, modulus_of_variation, schramm_norm,
                 variation_gauged, variation_schramm, variation_unweighted_q,
                 variation_weighted)

KM = 4096
HARMONIC = WeightSequence("harmonic", k_max=KM)
CONST1 = WeightSequence("constant", value=1.0, k_max=KM)

ZIGZAG = StepFunction([0.0, 1.0, 0.0, 1.0, 0.0])


def random_values(rng, m):
    return rng.integers(-4, 5, size=m + 1) / 4.0


class TestModulus:
    def test_zigzag(self):
        assert modulus_of_variation(ZIGZAG, 1).value == 1.0
        assert modulus_of_variation(ZIGZAG, 2).value == 2.0
        # four unit jumps in total
        assert modulus_of_variation(ZIGZAG, 4).value == 4.0
        assert modulus_of_variation(ZIGZAG, 9).value == 4.0

    def test_constant_function(self):
        f = StepFunction([0.5, 0.5, 0.5])
        res = modulus_of_variation(f, 3)
        assert res.value == 0.0
        assert len(res.witness) == 0

    def test_witness_realizes_value(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            f = StepFunction(random_values(rng, 8))
            res = modulus_of_variation(f, 3)
            assert sum(res.witness.increments) == pytest.approx(res.value)
            assert len(res.witness) <= 3

    def test_monotone_in_n(self):
        rng = np.random.default_rng(6)
        f = StepFunction(random_values(rng, 10))
        vals = [modulus_of_variation(f, n).value for n in range(1, 8)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_invalid_n(self):
        with pytest.raises(ValidationError):
            modulus_of_variation(ZIGZAG, 0)


class TestUnweightedQ:
    def test_zigzag_q2(self):
        res = variation_unweighted_q(ZIGZAG, 2.0)
        assert res.value == pytest.approx(2.0)

    def test_min_len_excludes_short_jumps(self):
        res = variation_unweighted_q(ZIGZAG, 1.0, min_len=2)
        # only length-2 intervals allowed; each has increment 1 at best,
        # two disjoint ones fit
        assert res.value == pytest.approx(oracles.oracle_unweighted_q(
            list(ZIGZAG.values), 1.0, 4, min_len=2))
        assert res.witness.min_length >= 2

    def test_min_len_beyond_grid(self):
        res = variation_unweighted_q(ZIGZAG, 1.0, min_len=10)
        assert res.value == 0.0

    def test_s_max_cap(self):
        res = variation_unweighted_q(ZIGZAG, 1.0, s_max=1)
        assert res.value == 1.0


class TestWeighted:
    def test_harmonic_zigzag(self):
        # four unit jumps weighted 1, 1/2, 1/3, 1/4
        res = variation_weighted(ZIGZAG, HARMONIC, 1.0)
        assert res.mode == "exact-oracle"
        assert res.value == pytest.approx(25 / 12)

    def test_constant_weights_use_dp(self):
        res = variation_weighted(ZIGZAG, CONST1, 1.0)
        assert res.mode == "exact-dp"
        assert res.value == pytest.approx(4.0)

    def test_bounds_mode_brackets(self):
        rng = np.random.default_rng(11)
        f = StepFunction(random_values(rng, 14))
        res = variation_weighted(f, HARMONIC, 1.0, oracle_cap=6)
        assert res.mode == "bounds"
        assert res.lower <= res.value <= res.upper
        exact = variation_weighted(f, HARMONIC, 1.0, oracle_cap=14).value
        assert res.lower <= exact * (1 + 1e-12)
        assert exact <= res.upper * (1 + 1e-12)

    def test_p_below_one_rejected(self):
        with pytest.raises(ValidationError):
            variation_weighted(ZIGZAG, HARMONIC, 0.5)


class TestSchramm:
    def test_power_family(self):
        # four unit jumps, so the value is 1 + 1/2 + 1/3 + 1/4
        fam = SchrammFamily.power(2.0, HARMONIC)
        res = variation_schramm(ZIGZAG, fam)
        assert res.value == pytest.approx(25 / 12)

    def test_oracle_agreement_random(self):
        fam = SchrammFamily.power(2.0, HARMONIC)
        phis = [lambda x, j=j: x ** 2 / j for j in range(1, 12)]
        rng = np.random.default_rng(13)
        for _ in range(15):
            f = StepFunction(random_values(rng, 7))
            res = variation_schramm(f, fam)
            assert res.value == pytest.approx(
                oracles.oracle_schramm(list(f.values), phis), rel=1e-12, abs=1e-12)


class TestGauged:
    GAUGE = GaugePair.build("linear", "pow2", n_max=4)

    def test_zigzag_levels(self):
        res = variation_gauged(ZIGZAG, CONST1, self.GAUGE, 3)
        # level 1 (q=1, min_len=2) gives 2; level 2 (q=2, min_len=1)
        # gives sqrt(2) < 2; max is at level 1 for value 2 ... but the
        # oracle decides, not this comment
        expected = oracles.oracle_gauged(list(ZIGZAG.values), [1.0] * 8,
                                         [1, 2, 3], [2, 4, 8], 3)
        assert res.value == pytest.approx(expected)
        assert res.level is not None

    def test_level_reported_consistent(self):
        rng = np.random.default_rng(17)
        f = StepFunction(random_values(rng, 8))
        res = variation_gauged(f, CONST1, self.GAUGE, 4)
        q_n, delta_n = self.GAUGE.level(res.level)
        redo = variation_unweighted_q(f, q_n,
                                      min_len=max(1, math.ceil(f.m / delta_n)))
        assert res.value == pytest.approx(redo.value)

    def test_invalid_cap(self):
        with pytest.raises(ValidationError):
            variation_gauged(ZIGZAG, CONST1, self.GAUGE, 9)


class TestNorm:
    def test_constant_function(self):
        fam = SchrammFamily.power(1.0, CONST1)
        f = StepFunction([0.7, 0.7, 0.7])
        assert schramm_norm(f, fam) == pytest.approx(0.7)

    def test_single_jump(self):
        # V_phi(f/c) = phi_1(3/c) = 3/c <= 1 iff c >= 3
        fam = SchrammFamily.power(1.0, CONST1)
        f = StepFunction([0.0, 3.0, 3.0])
        assert schramm_norm(f, fam) == pytest.approx(3.0, rel=1e-8)

    def test_homogeneity(self):
        fam = SchrammFamily.power(2.0, HARMONIC)
        f = StepFunction([0.0, 1.0, 0.2, 0.9, 0.0])
        n1 = schramm_norm(f, fam)
        n2 = schramm_norm(f.scaled(3.0), fam)
        assert n2 == pytest.approx(3.0 * n1, rel=1e-7)

    def test_triangle_inequality_samples(self):
        fam = SchrammFamily.power(2.0, HARMONIC)
        rng = np.random.default_rng(19)
        for _ in range(5):
            f = StepFunction(random_values(rng, 6))
            g = StepFunction(random_values(rng, 6))
            lhs = schramm_norm(f + g, fam)
            rhs = schramm_norm(f, fam) + schramm_norm(g, fam)
            assert lhs <= rhs * (1 + 1e-7) + 1e-12


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=3, max_size=8),
       st.integers(1, 4))
def test_modulus_matches_oracle_property(vals, n):
    values = [v / 4.0 for v in vals]
    f = StepFunction(values)
    assert modulus_of_variation(f, n).value == pytest.approx(
        oracles.oracle_modulus(values, n), rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=3, max_size=7),
       st.sampled_from([1.0, 1.5, 2.0]))
def test_weighted_matches_oracle_property(vals, p):
    values = [v / 4.0 for v in vals]
    f = StepFunction(values)
    lam = [float(j) for j in range(1, len(values) + 1)]
    engine = variation_weighted(
        f, WeightSequence("explicit", terms=lam, k_max=KM), p).value
    assert engine == pytest.approx(
        oracles.oracle_weighted(values, lam, p), rel=1e-12, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=3, max_size=9),
       st.sampled_from([1.0, 2.0, 3.0]),
       st.sampled_from([0, 1, 2, 3, None]), st.sampled_from([1, 2, 3]))
def test_unweighted_q_matches_oracle_property(vals, q, s_max, min_len):
    values = [v / 4.0 for v in vals]
    f = StepFunction(values)
    res = variation_unweighted_q(f, q, s_max=s_max, min_len=min_len)
    cap = f.m if s_max is None else s_max
    assert res.value == pytest.approx(
        oracles.oracle_unweighted_q(values, q, cap, min_len), rel=1e-12, abs=1e-12)
    assert len(res.witness) <= cap
    assert all(b - a >= min_len for a, b in res.witness.pairs)
    redo = sum(x ** q for x in res.witness.increments) ** (1.0 / q)
    assert redo == pytest.approx(res.value, rel=1e-12, abs=1e-12)
    if s_max == 0:
        assert res.value == 0.0 and len(res.witness) == 0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=3, max_size=8),
       st.sampled_from([1.0, 1.5, 2.0]))
def test_constant_weights_match_oracle_property(vals, p):
    values = [v / 4.0 for v in vals]
    f = StepFunction(values)
    const2 = WeightSequence("constant", value=2.0, k_max=KM)
    lam = [2.0] * len(values)
    res = variation_weighted(f, const2, p)
    assert res.mode == "exact-dp"
    assert res.value == pytest.approx(
        oracles.oracle_weighted(values, lam, p), rel=1e-12, abs=1e-12)
    gauge = GaugePair.build("linear", "pow2", n_max=4)
    res = variation_gauged(f, const2, gauge, 3)
    assert res.value == pytest.approx(
        oracles.oracle_gauged(values, lam, [1, 2, 3], [2, 4, 8], 3),
        rel=1e-12, abs=1e-12)
