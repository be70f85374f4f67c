import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gbv.variation
import oracles
from gbv import (ConvexBase, HorizonError, InternalConsistencyError, SchrammFamily,
                 StepFunction, ValidationError, WeightSequence, GaugePair,
                 modulus_of_variation, schramm_norm, variation_gauged,
                 variation_schramm, variation_unweighted_q, variation_weighted)

KM = 4096
HARMONIC = WeightSequence("harmonic", k_max=KM)
CONST1 = WeightSequence("constant", value=1.0, k_max=KM)

ZIGZAG = StepFunction([0.0, 1.0, 0.0, 1.0, 0.0])

#: mixed exponents, so not homogeneous; ordered (phi_1 >= phi_2 >= ...)
#: for x <= 9, far above every increment the tests below produce
MIXED_TERMS = [(1.0, 1.5), (0.6, 1.5), (0.2, 2.0)]


def mixed_family(k_max=KM):
    return SchrammFamily("explicit", terms=MIXED_TERMS, k_max=k_max)


def expm1_family(k_max=KM):
    return SchrammFamily("scaled", base=ConvexBase("expm1"),
                         weights=WeightSequence("harmonic", k_max=k_max))


def mixed_phis(n):
    return [lambda x, c=c, e=e: c * x ** e
            for c, e in (MIXED_TERMS + [MIXED_TERMS[-1]] * n)[:n]]


def expm1_phis(n):
    return [lambda x, j=j: math.expm1(x) / j for j in range(1, n + 1)]


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

    def test_bounds_witness_comes_from_the_base(self):
        # the lower-bound DP of a scaled family runs on its base x^2; on the
        # linear increment it finds only 44.0 here
        f = StepFunction([2.0, 3.0, 0.0, 2.0, -3.0, 1.0, -1.0])
        fam = SchrammFamily.power(2.0, HARMONIC)
        res = variation_schramm(f, fam, oracle_cap=3)
        assert res.mode == "bounds"
        assert res.lower == pytest.approx(variation_schramm(f, fam).value, rel=1e-12)
        assert res.lower == pytest.approx(547 / 12, rel=1e-12)

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

    @pytest.mark.parametrize("family, phis", [(mixed_family, mixed_phis),
                                              (expm1_family, expm1_phis)])
    def test_bisection_matches_oracle(self, family, phis):
        # non-homogeneous families bisect; V(f/c) = 1 at the returned c
        fam = family()
        assert fam.degree is None
        rng = np.random.default_rng(29)
        for m in (2, 3, 5, 8):
            values = rng.integers(-4, 5, size=m + 1) / 8.0
            values[-1] = values[0] + 0.5  # never constant
            f = StepFunction(values)
            c = schramm_norm(f, fam) - abs(values[0])
            assert oracles.oracle_schramm(list(values / c), phis(m)) == \
                pytest.approx(1.0, abs=1e-8)
        # the bracket starts near ptp(f), so huge increments are found too
        values = np.array([0.0, 1e200, 0.0])
        c = schramm_norm(StepFunction(values), fam)
        assert oracles.oracle_schramm(list(values / c), phis(2)) == \
            pytest.approx(1.0, abs=1e-8)

    def test_norm_at_the_ends_of_the_float_range(self):
        # V(f/c) depends on f/c only, so a tiny input's norm is the norm of
        # [0, 1, 0] scaled down by the same factor
        fam = SchrammFamily("scaled", base=ConvexBase("expm1"),
                            weights=WeightSequence("constant", value=1e6, k_max=KM))
        unit = schramm_norm(StepFunction([0.0, 1.0, 0.0]), fam)
        assert schramm_norm(StepFunction([0.0, 1e-305, 0.0]), fam) == pytest.approx(
            1e-305 * unit, rel=1e-9)
        # a range past the largest float: V(f/c) = 1e-3 * 2e308 / c for the
        # one interval, so c = 2e305; with expm1 the norm c = 2e308 / ln 2
        # is past the largest float
        huge = StepFunction([-1e308, 1e308])
        fam = SchrammFamily("explicit", terms=[[1e-3, 1.0], [1e-4, 1.2]], k_max=KM)
        assert schramm_norm(huge, fam) == pytest.approx(1e308 + 2e305, rel=1e-9)
        assert schramm_norm(huge, expm1_family()) == math.inf

    @pytest.mark.parametrize("family, homogeneous", [
        (lambda: SchrammFamily.power(2.0, HARMONIC), True),
        (lambda: SchrammFamily("explicit", terms=[(1.0, 1.5), (0.5, 1.5)],
                               k_max=KM), True),
        (mixed_family, False),
        (expm1_family, False),
    ])
    def test_homogeneous_norm_is_one_variation_call(self, monkeypatch, family,
                                                    homogeneous):
        calls = []
        real = gbv.variation.variation_schramm

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(gbv.variation, "variation_schramm", counted)
        f = StepFunction([0.2, 1.0, 0.4, 0.9, 0.0])
        norm = schramm_norm(f, family())
        assert (len(calls) == 1) == homogeneous
        if homogeneous:
            d = family().degree
            assert norm == 0.2 + real(f, family()).value ** (1.0 / d)

    def test_bounds_mode_homogeneous_norm(self):
        # above oracle_cap the norm uses the certified lower bound of V, and
        # the true norm lies between the lower- and upper-bound norms
        fam = SchrammFamily.power(2.0, HARMONIC)
        rng = np.random.default_rng(31)
        f = StepFunction(np.cumsum(rng.normal(size=11)))
        f_a = abs(float(f.values[0]))
        var = variation_schramm(f, fam, oracle_cap=6)
        assert var.mode == "bounds"
        norm = schramm_norm(f, fam, oracle_cap=6)
        assert norm == f_a + var.lower ** 0.5
        exact = schramm_norm(f, fam)
        assert norm <= exact * (1 + 1e-12)
        assert exact <= (f_a + var.upper ** 0.5) * (1 + 1e-12)


def _rank_case(shape, k_max):
    """(engine call, oracle per-rank gains, root exponent) of one shape."""
    if shape in ("log", "power:0.5"):
        kind, kw = ("log", {}) if shape == "log" else ("power", {"alpha": 0.5})
        w = WeightSequence(kind, k_max=k_max, **kw)
        lam = [j / math.log(j + 1.0) if shape == "log" else j ** 0.5
               for j in range(1, 10)]
        phis = [lambda x, l=l: x ** 1.5 / l for l in lam]
        return (lambda f, cap: variation_weighted(f, w, 1.5, oracle_cap=cap)), phis, 1.5
    fam, phis = ((mixed_family(k_max), mixed_phis(9)) if shape == "explicit-short"
                 else (expm1_family(k_max), expm1_phis(9)))
    return (lambda f, cap: variation_schramm(f, fam, oracle_cap=cap)), phis, 1.0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=3, max_size=9),
       st.sampled_from(["explicit-short", "expm1", "log", "power:0.5"]))
def test_rank_layer_matches_oracle_property(vals, shape):
    values = [v / 4.0 for v in vals]
    f = StepFunction(values)
    solve, phis, p = _rank_case(shape, KM)

    def evaluate(incs):
        incs = sorted(incs, reverse=True)
        return sum(phis[j](x) for j, x in enumerate(incs)) ** (1.0 / p)

    truth = max(evaluate(oracles._incs(values, pairs))
                for pairs in oracles.all_collections(f.m))
    res = solve(f, gbv.variation.ORACLE_CAP_DEFAULT)
    assert res.mode == "exact-oracle"
    assert res.value == pytest.approx(truth, rel=1e-12, abs=1e-12)
    assert evaluate(res.witness.increments) == pytest.approx(res.value, rel=1e-12,
                                                             abs=1e-12)
    res = solve(f, 3)
    assert res.mode == ("bounds" if f.m > 3 else "exact-oracle")
    tol = 1e-12 * max(truth, 1.0)
    assert res.lower - tol <= truth <= res.upper + tol
    assert evaluate(res.witness.increments) == pytest.approx(res.lower, rel=1e-12,
                                                             abs=1e-12)
    if len(set(values)) > 1:
        # the error names the first rank past the horizon, as a scalar
        # read of the ranks in order does
        k_max = max(1, f.m - 2)
        short, _, _ = _rank_case(shape, k_max)
        for cap in (gbv.variation.ORACLE_CAP_DEFAULT, 1):
            with pytest.raises(HorizonError, match=f"index {k_max + 1} outside"):
                short(f, cap)


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


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=3, max_size=9),
       st.sampled_from(["harmonic", "log", "power:0.5", "explicit", "constant"]),
       st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_weighted_is_root_of_power_family_property(vals, kind, p):
    # Lambda BV^(p) is the Schramm class of phi_j(x) = x^p / lam_j
    f = StepFunction([v / 4.0 for v in vals])
    kw = {"explicit": {"terms": [1.0, 1.5, 1.5, 4.0]},
          "power:0.5": {"alpha": 0.5}}.get(kind, {})
    w = WeightSequence(kind.split(":")[0], k_max=KM, **kw)
    for cap in (gbv.variation.ORACLE_CAP_DEFAULT, 3):
        weighted = variation_weighted(f, w, p, oracle_cap=cap)
        schramm = variation_schramm(f, SchrammFamily.power(p, w), oracle_cap=cap)
        root = 1.0 / p
        assert weighted.value == schramm.value ** root
        assert weighted.lower == schramm.lower ** root
        assert weighted.upper == schramm.upper ** root
        assert weighted.mode == schramm.mode
        assert weighted.witness.pairs == schramm.witness.pairs


RANK_FREE = {
    "power:2/constant": (SchrammFamily.power(2.0, WeightSequence("constant", value=2.0)),
                         lambda x: x ** 2 / 2.0),
    "expm1/constant": (SchrammFamily("scaled", base=ConvexBase("expm1"),
                                     weights=WeightSequence("constant", value=0.5)),
                       lambda x: math.expm1(x) / 0.5),
    "explicit one term": (SchrammFamily("explicit", terms=[(1.5, 2.5)]),
                          lambda x: 1.5 * x ** 2.5),
    "explicit repeated pair": (SchrammFamily("explicit", terms=[(0.5, 2.0)] * 3),
                               lambda x: 0.5 * x ** 2),
    "power:1.5/explicit one value": (
        SchrammFamily.power(1.5, WeightSequence("explicit", terms=[3.0, 3.0])),
        lambda x: x ** 1.5 / 3.0),
}


@pytest.mark.parametrize("name", RANK_FREE)
def test_rank_free_family_is_exact_dp(name):
    # every phi_j is the same function, so the DP is exact at any m
    fam, phi = RANK_FREE[name]
    rng = np.random.default_rng(37)
    f = StepFunction(np.cumsum(rng.normal(size=41)) / 4.0)
    res = variation_schramm(f, fam)
    assert res.mode == "exact-dp" and res.lower == res.value == res.upper
    assert sum(phi(x) for x in res.witness.increments) == pytest.approx(res.value,
                                                                        rel=1e-12)
    for m in range(2, 9):
        values = list(random_values(rng, m))
        res = variation_schramm(StepFunction(values), fam, oracle_cap=1)
        assert res.mode == "exact-dp"
        assert res.value == pytest.approx(oracles.oracle_schramm(values, [phi] * m),
                                          rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("family", [
    SchrammFamily.power(2.0, WeightSequence("constant", value=2.0, k_max=3)),
    SchrammFamily.power(1.5, WeightSequence("explicit", terms=[3.0], k_max=3)),
    SchrammFamily("explicit", terms=[(1.5, 2.5)], k_max=3),
    SchrammFamily.power(2.0, WeightSequence("harmonic", k_max=3)),  # rank-dependent
])
def test_rank_free_family_keeps_the_horizon(family):
    # four intervals fit in four cells, so the exact DP could charge rank 4;
    # it raises as the branch-and-bound does, and a constant input charges none
    f = StepFunction([0.0, 1.0, 0.0, 1.0, 0.0])
    for cap in (gbv.variation.ORACLE_CAP_DEFAULT, 1):
        with pytest.raises(HorizonError, match="index 4 outside horizon 1..3"):
            variation_schramm(f, family, oracle_cap=cap)
        assert variation_schramm(StepFunction([0.5] * 5), family, oracle_cap=cap).value == 0.0
    assert variation_schramm(StepFunction([0.0, 1.0, 0.0, 1.0]), family).value > 0.0
    if family.weights is not None:
        with pytest.raises(HorizonError, match="index 4 outside horizon 1..3"):
            variation_weighted(f, family.weights, 2.0)


class TestOverflow:
    """A gain past the largest float is inf, as numpy's vector evaluation
    gives, in every solver path."""

    JUMP = StepFunction([0.0, 1000.0])  # e^1000 - 1 overflows

    @pytest.mark.parametrize("cap", [gbv.variation.ORACLE_CAP_DEFAULT, 1])
    def test_expm1_variation_is_inf(self, cap):
        for f in (self.JUMP, StepFunction([0.0, 1000.0, 0.0, 1000.0])):
            res = variation_schramm(f, expm1_family(), oracle_cap=cap)
            assert res.value == res.lower == res.upper == math.inf

    def test_expm1_norm_is_finite(self):
        # V(f/c) = e^(1000/c) - 1 = 1 at c = 1000 / ln 2; below c = 1.4,
        # V is inf
        assert schramm_norm(self.JUMP, expm1_family()) == pytest.approx(
            1000.0 / math.log(2.0), rel=1e-9)

    def test_power_gains_overflow_to_inf(self):
        f = StepFunction([0.0, 1e200, 0.0, 1e200])
        for cap in (gbv.variation.ORACLE_CAP_DEFAULT, 1):
            assert variation_weighted(f, HARMONIC, 2.0, oracle_cap=cap).value == math.inf
            fam = SchrammFamily("explicit", terms=[(1.0, 2.0), (0.5, 2.5)])
            assert variation_schramm(f, fam, oracle_cap=cap).value == math.inf

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_gains_raise_no_warning(self):
        # inf gains meet the zero increments of the plateau; no nan reaches
        # the DP's argmax, and the witness holds a jump whose gain is inf
        f = StepFunction([0.0, 1e200, 1e200, 0.0, 1e200])
        res = variation_weighted(f, WeightSequence("constant", value=2.0), 2.0)
        assert res.mode == "exact-dp" and res.value == math.inf
        assert 1e200 in res.witness.increments

    @pytest.mark.parametrize("bad", [5.0, math.nan])
    def test_witness_check_catches_a_non_finite_mismatch(self, bad):
        # a gain that is inf in the table but not when the witness is
        # re-evaluated: the check must fail, not compare nan > inf
        f = StepFunction([0.0, 1.0, 0.0, 1.0, 0.0])
        calls = []

        def gain(x):
            calls.append(len(x))
            return np.full(len(x), math.inf if len(calls) <= f.m else bad)

        with pytest.raises(InternalConsistencyError, match="re-evaluates"):
            gbv.variation._dp_solve(f, gain, 1)


class TestSkeleton:
    """The rank-dependent solves run on the local extrema of f."""

    skeleton = staticmethod(gbv.variation._skeleton)

    @pytest.mark.parametrize("values, idx", [
        ([0.0, 1.0, 2.0, 2.0, 5.0], [0, 4]),         # monotone
        ([3.0, 2.0, 2.0, -1.0], [0, 3]),             # monotone, falling
        ([0.5, 0.5, 0.5], [0, 2]),                   # constant keeps its ends
        ([0.0, 0.0, 1.0, 1.0], [0, 2]),              # one step
        ([1.0, 0.0, 0.0, 0.0, 2.0, 2.0], [0, 1, 4]),  # plateaus: first index
        ([0.0, 1.0, 0.0, 1.0, 0.0], [0, 1, 2, 3, 4]),
    ])
    def test_skeleton_points(self, values, idx):
        assert self.skeleton(np.array(values)).tolist() == idx

    def test_plateau_witness_starts_at_first_index(self):
        f = StepFunction([1.0, 0.0, 0.0, 0.0, 2.0, 2.0])
        for cap in (gbv.variation.ORACLE_CAP_DEFAULT, 2):
            res = variation_weighted(f, HARMONIC, 1.0, oracle_cap=cap)
            assert res.witness.pairs == ((0, 1), (1, 4))
            assert res.value == pytest.approx(2.0 + 1.0 / 2.0, rel=1e-12)

    @pytest.mark.parametrize("cap", [gbv.variation.ORACLE_CAP_DEFAULT, 1])
    def test_short_horizon_counts_input_cells(self, cap):
        # the skeleton has 2 points, but 5 intervals fit in the input grid
        f = StepFunction([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        assert len(self.skeleton(f.values)) <= 3
        with pytest.raises(HorizonError, match="index 4 outside horizon 1..3"):
            variation_weighted(f, WeightSequence("harmonic", k_max=3), 1.0, oracle_cap=cap)

    def test_solver_path_is_logged(self, caplog):
        f = StepFunction(np.round(np.sin(np.linspace(0.0, 6.0, 21)) * 4.0))
        idx = self.skeleton(f.values)
        with caplog.at_level(logging.DEBUG, logger="gbv"):
            variation_weighted(f, HARMONIC, 1.0)
            variation_weighted(f, HARMONIC, 1.0, oracle_cap=20)
            variation_weighted(f, CONST1, 1.0)
        assert [r.getMessage() for r in caplog.records] == [
            f"bounds: m=20 > oracle_cap=16, skeleton 21→{len(idx)}",
            f"exact-oracle: m=20 <= oracle_cap=20, skeleton 21→{len(idx)}",
            "exact-dp: rank-free family, m=20",
        ]


def _runs(draw_runs):
    """Samples from (step, repeat) runs: plateaus and long monotone runs."""
    values = [0.0]
    for step, repeat in draw_runs:
        values += [values[-1] + step / 4.0 * (k + 1) for k in range(repeat)]
    return values[:9]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 4)), min_size=1, max_size=6),
       st.sampled_from(["explicit-short", "expm1", "log", "power:0.5"]))
def test_skeleton_solve_matches_oracle_property(runs, shape):
    values = _runs(runs)
    f = StepFunction(values)
    solve, phis, p = _rank_case(shape, KM)

    def evaluate(incs):
        incs = sorted(incs, reverse=True)
        return sum(phis[j](x) for j, x in enumerate(incs)) ** (1.0 / p)

    truth = max(evaluate(oracles._incs(values, pairs))
                for pairs in oracles.all_collections(f.m))
    tol = 1e-12 * max(truth, 1.0)
    for cap, mode in ((gbv.variation.ORACLE_CAP_DEFAULT, "exact-oracle"), (2, "bounds")):
        res = solve(f, cap)
        assert res.mode == (mode if f.m > cap else "exact-oracle")
        assert res.lower - tol <= truth <= res.upper + tol
        assert evaluate(res.witness.increments) == pytest.approx(res.lower, rel=1e-12,
                                                                 abs=1e-12)
        if res.mode == "exact-oracle":
            assert res.value == pytest.approx(truth, rel=1e-12, abs=1e-12)
