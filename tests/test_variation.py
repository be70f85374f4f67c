import logging
import math
import timeit
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gbv.variation
import oracles
from gbv import (ConvexBase, HorizonError, IntervalCollection, InternalConsistencyError,
                 SchrammFamily, StepFunction, ValidationError, WeightSequence,
                 GaugePair, modulus_of_variation, schramm_norm, variation_gauged,
                 variation_schramm, variation_unweighted_q, variation_weighted)

KM = 4096
HARMONIC = WeightSequence("harmonic", k_max=KM)
CONST1 = WeightSequence("constant", value=1.0, k_max=KM)

ZIGZAG = StepFunction([0.0, 1.0, 0.0, 1.0, 0.0])

#: mixed exponents, so not homogeneous; ordered (phi_1 >= phi_2 >= ...)
#: for x <= 9, far above every increment the tests below produce
MIXED_TERMS = [(1.0, 1.5), (0.6, 1.5), (0.2, 2.0)]
#: ordered up to x = 2.609, where 0.6 x^2 passes 0.8 x^1.7
EXPLICIT_TERMS = [(1.0, 1.5), (0.8, 1.7), (0.6, 2.0), (0.5, 2.0)]


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
        assert modulus_of_variation(ZIGZAG, 1).lower == 1.0
        assert modulus_of_variation(ZIGZAG, 2).lower == 2.0
        # four unit jumps in total
        assert modulus_of_variation(ZIGZAG, 4).lower == 4.0
        assert modulus_of_variation(ZIGZAG, 9).lower == 4.0

    def test_constant_function(self):
        f = StepFunction([0.5, 0.5, 0.5])
        res = modulus_of_variation(f, 3)
        assert res.lower == 0.0
        assert len(res.witness) == 0

    def test_witness_realizes_value(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            f = StepFunction(random_values(rng, 8))
            res = modulus_of_variation(f, 3)
            assert sum(res.witness.increments) == pytest.approx(res.lower)
            assert len(res.witness) <= 3

    def test_monotone_in_n(self):
        rng = np.random.default_rng(6)
        f = StepFunction(random_values(rng, 10))
        vals = [modulus_of_variation(f, n).lower for n in range(1, 8)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_invalid_n(self):
        with pytest.raises(ValidationError):
            modulus_of_variation(ZIGZAG, 0)

    def test_concavity_check_is_relative(self):
        # round-off in a table of values near 1e4 exceeds an absolute 1e-12
        rng = np.random.default_rng(0)
        values = rng.standard_normal(106) * 1e3
        res = modulus_of_variation(StepFunction(values), 8)
        assert res.lower == pytest.approx(oracles.dp_modulus(values.tolist(), 8), rel=1e-12)

    def test_infinite_modulus_raises_no_warning(self):
        f = StepFunction([-1e308, 1e308, -1e308])
        res = modulus_of_variation(f, 2)
        assert res.lower == math.inf and res.witness.pairs == ((0, 1), (1, 2))

    def test_path_is_logged(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="gbv"):
            modulus_of_variation(ZIGZAG, 2)
            modulus_of_variation(ZIGZAG, 9)
        assert [r.getMessage() for r in caplog.records] == [
            "exact-dp: m=4, levels=1, cap=2, skeleton 5→5 (gap 1)",
            "exact-dp: m=4, levels=1, cap=4, skeleton 5→5 (gap 1)"]


class TestUnweightedQ:
    def test_zigzag_q2(self):
        res = variation_unweighted_q(ZIGZAG, 2.0)
        assert res.lower == pytest.approx(2.0)

    def test_min_len_excludes_short_jumps(self):
        res = variation_unweighted_q(ZIGZAG, 1.0, min_len=2)
        # only length-2 intervals allowed; each has increment 1 at best,
        # two disjoint ones fit
        assert res.lower == pytest.approx(oracles.oracle_unweighted_q(
            list(ZIGZAG.values), 1.0, 4, min_len=2))
        assert min(b - a for a, b in res.witness.pairs) >= 2

    def test_path_is_logged(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="gbv"):
            variation_unweighted_q(ZIGZAG, 2.0, s_max=1)
            variation_unweighted_q(ZIGZAG, 1.0, min_len=2)
        assert [r.getMessage() for r in caplog.records] == [
            "exact-dp: m=4, levels=1, cap=1, skeleton 5→5 (gap 1)",
            "exact-dp: m=4, levels=1, min_len=2, no skeleton (gap 1), blocks of 2"]

    def test_uncapped_q1_takes_the_block_rule(self, caplog):
        # without an s_max, q = 1 at min_len >= 2 passes no cap, at any
        # number of columns m // min_len
        with caplog.at_level(logging.DEBUG, logger="gbv"):
            for m in (32, 256):
                variation_unweighted_q(StepFunction(np.arange(m + 1.0) % 3), 1.0, min_len=2)
            # one interval fits: the column rule would read |1e-5 - 0| off
            # samples centred on 0.5, where 1e-5 - 0.5 is rounded
            res = variation_unweighted_q(StepFunction([1e-5, 0.0, 1.0, 0.0]), 1.0, min_len=3)
        assert res.lower == 1e-5 and res.witness.pairs == ((0, 3),)
        assert [r.getMessage() for r in caplog.records] == [
            f"exact-dp: m={m}, levels=1, min_len=2, no skeleton (gap 1), blocks of 2"
            for m in (32, 256)] + [
            "exact-dp: m=3, levels=1, min_len=3, no skeleton (gap 1), blocks of 3"]

    def test_min_len_beyond_grid(self):
        res = variation_unweighted_q(ZIGZAG, 1.0, min_len=10)
        assert res.lower == 0.0

    def test_s_max_cap(self):
        res = variation_unweighted_q(ZIGZAG, 1.0, s_max=1)
        assert res.lower == 1.0

    @pytest.mark.parametrize("s_max", [0, -3])
    def test_s_max_below_one_rejected(self, s_max):
        with pytest.raises(ValidationError, match="s_max must be >= 1"):
            variation_unweighted_q(ZIGZAG, 2.0, s_max=s_max)


class TestWeighted:
    def test_harmonic_zigzag(self):
        # four unit jumps weighted 1, 1/2, 1/3, 1/4
        res = variation_weighted(ZIGZAG, HARMONIC, 1.0)
        assert res.mode == "exact-oracle"
        assert res.lower == pytest.approx(25 / 12)

    def test_zigzag_at_the_oracle_cap(self):
        # every sample a turning point, so the skeleton keeps all 17; value
        # and witness as recorded from an exhaustive branch-and-bound
        f = StepFunction([(-1) ** i * (1 + 0.01 * i) for i in range(17)])
        res = variation_weighted(f, HARMONIC, 1.0)
        assert res.mode == "exact-oracle"
        assert res.lower == 7.557098554223553
        assert res.witness.pairs == tuple((i, i + 1) for i in range(16))
        # about 1.5 ms on a 2-core x86_64 VM, where the branch-and-bound took
        # 5.5 s; the best of three keeps a busy host's stalls out
        best = min(timeit.repeat(lambda: variation_weighted(f, HARMONIC, 1.0),
                                 number=1, repeat=3))
        assert best < 0.25

    def test_constant_weights_use_dp(self):
        res = variation_weighted(ZIGZAG, CONST1, 1.0)
        assert res.mode == "exact-dp"
        assert res.lower == pytest.approx(4.0)

    def test_bounds_mode_brackets(self):
        rng = np.random.default_rng(11)
        f = StepFunction(random_values(rng, 14))
        res = variation_weighted(f, HARMONIC, 1.0, oracle_cap=6)
        assert res.mode == "bounds"
        assert res.lower <= res.upper
        exact = variation_weighted(f, HARMONIC, 1.0, oracle_cap=14).lower
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
        assert res.lower == pytest.approx(25 / 12)

    def test_bounds_witness_comes_from_the_base(self):
        # the lower-bound DP of a scaled family runs on its base x^2; on the
        # linear increment it finds only 44.0 here
        f = StepFunction([2.0, 3.0, 0.0, 2.0, -3.0, 1.0, -1.0])
        fam = SchrammFamily.power(2.0, HARMONIC)
        res = variation_schramm(f, fam, oracle_cap=3)
        assert res.mode == "bounds"
        assert res.lower == pytest.approx(variation_schramm(f, fam).lower, rel=1e-12)
        assert res.lower == pytest.approx(547 / 12, rel=1e-12)

    def test_oracle_agreement_random(self):
        fam = SchrammFamily.power(2.0, HARMONIC)
        phis = [lambda x, j=j: x ** 2 / j for j in range(1, 12)]
        rng = np.random.default_rng(13)
        for _ in range(15):
            f = StepFunction(random_values(rng, 7))
            res = variation_schramm(f, fam)
            assert res.lower == pytest.approx(
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
        assert res.lower == pytest.approx(expected)
        assert res.level is not None

    def test_level_reported_consistent(self):
        rng = np.random.default_rng(17)
        f = StepFunction(random_values(rng, 8))
        res = variation_gauged(f, CONST1, self.GAUGE, 4)
        q_n, delta_n = self.GAUGE.levels(res.level)[-1]
        redo = variation_unweighted_q(f, q_n,
                                      min_len=max(1, math.ceil(f.m / delta_n)))
        assert res.lower == pytest.approx(redo.lower)

    def test_invalid_cap(self):
        with pytest.raises(ValidationError):
            variation_gauged(ZIGZAG, CONST1, self.GAUGE, 9)

    @staticmethod
    def per_level(f, weights, gauge, n_cap):
        """The gauged variation composed of one rank solve per level, and
        the result of each level."""
        best = gbv.variation.VariationResult("exact-dp", 0.0, 0.0,
                                             IntervalCollection.from_pairs(f, []))
        results = []
        for n, (q_n, delta_n) in enumerate(gauge.levels(n_cap), 1):
            level = (SchrammFamily.power(q_n, weights), max(1, math.ceil(f.m / delta_n)), q_n)
            [res] = gbv.variation._rank_solve(f, [level], gbv.variation.ORACLE_CAP_DEFAULT)
            results.append(res)
            if res.lower > best.lower:
                best = replace(res, level=n)
        return replace(best, upper=max(r.upper for r in results)), results

    @pytest.mark.parametrize("ladder", ["const", "linear", "to"])
    @pytest.mark.parametrize("deltas", ["pow2", "list"])
    def test_one_pass_matches_per_level_solves(self, ladder, deltas):
        # a constant ladder solves only its finest level, whose value is the
        # largest of the nested levels; its witness and level may differ
        # from the per-level composition's in ties, so the reported level
        # is checked against its own solve
        rng = np.random.default_rng(23)
        gauge = GaugePair.build(ladder, deltas, n_max=7, q=2.5,
                                delta_list=[2, 3, 3, 5, 8, 13, 40])
        for m in (5, 16, 33, 64):
            for scale in (1.0, 1.0, 1e200):
                f = StepFunction(np.cumsum(rng.normal(size=m + 1)) * scale)
                weights = [CONST1, WeightSequence("explicit", terms=[0.5] * 3)]
                if m <= 16:  # rank-dependent levels, solved by the exact label search
                    weights.append(HARMONIC)
                for w in weights:
                    res = variation_gauged(f, w, gauge, 7)
                    ref, each = self.per_level(f, w, gauge, 7)
                    if ladder != "const":  # distinct exponents: the same solves
                        assert res.to_json_dict() == ref.to_json_dict()
                        continue
                    assert res.mode == ref.mode
                    assert res.lower == pytest.approx(ref.lower, rel=1e-12)
                    assert res.upper == pytest.approx(ref.upper, rel=1e-12)
                    q_n, delta_n = gauge.levels(res.level)[-1]
                    assert each[res.level - 1].lower == pytest.approx(res.lower, rel=1e-12)
                    min_len = max(1, math.ceil(f.m / delta_n))
                    assert all(b - a >= min_len for a, b in res.witness.pairs)
                    incs = sorted(res.witness.increments, reverse=True)
                    redo = SchrammFamily.power(q_n, w).rank_sum(incs) ** (1.0 / q_n)
                    assert redo == pytest.approx(res.lower, rel=1e-12)

    @pytest.mark.parametrize("weights", [CONST1, WeightSequence("explicit", terms=[2.0, 2.0])])
    def test_to_ladder_matches_oracle(self, weights):
        rng = np.random.default_rng(29)
        gauge = GaugePair.build("to", "list", n_max=4, q=3.0, delta_list=[2, 3, 5, 8])
        lam = [weights.weights(1)[0]] * 8
        for m in range(1, 9):
            values = list(random_values(rng, m))
            res = variation_gauged(StepFunction(values), weights, gauge, 4)
            assert res.mode == "exact-dp"
            assert res.lower == pytest.approx(
                oracles.oracle_gauged(values, lam, gauge.qn, gauge.deltas, 4),
                rel=1e-12, abs=1e-12)

    def test_harmonic_gauge_bounds_match_oracle(self):
        # past oracle_cap = 2 every level is bracketed by the top-k dual, and
        # a level whose min_len passes the skeleton's gap runs on the input
        # grid at that min_len
        rng = np.random.default_rng(31)
        gauge = GaugePair.build("linear", "list", n_max=4, delta_list=[2, 3, 5, 8])
        lam = [float(j) for j in range(1, 10)]
        on_grid = 0
        for m in range(3, 10):
            for _ in range(3):
                values = list(random_values(rng, m))
                f = StepFunction(values)
                res = variation_gauged(f, HARMONIC, gauge, 4, oracle_cap=2)
                truth = oracles.oracle_gauged(values, lam, gauge.qn, gauge.deltas, 4)
                assert res.mode == "bounds"
                assert res.lower <= truth * (1 + 1e-12) and truth <= res.upper * (1 + 1e-12)
                for q, delta in gauge.levels(4):
                    min_len = max(1, math.ceil(m / delta))
                    on_grid += gbv.variation._Skeleton(f.values).grid(min_len) is None
                    [one] = gbv.variation._rank_solve(
                        f, [(SchrammFamily.power(q, HARMONIC), min_len, q)], 2)
                    level = oracles.oracle_weighted(values, lam, q, min_len)
                    assert one.lower <= level * (1 + 1e-12) and level <= one.upper * (1 + 1e-12)
                    assert all(b - a >= min_len for a, b in one.witness.pairs)
        assert on_grid > 20

    def test_witness_short_of_every_level_is_an_internal_error(self, monkeypatch):
        # level 1 needs intervals of 8 // 2 = 4 cells; a witness of one cell
        # is admissible at no level of the exponent
        real = gbv.variation._rank_solve

        def short(f, levels, oracle_cap):
            return [replace(r, witness=IntervalCollection.from_pairs(f, [(0, 1)]))
                    for r in real(f, levels, oracle_cap)]

        monkeypatch.setattr(gbv.variation, "_rank_solve", short)
        f = StepFunction(np.arange(9.0))
        with pytest.raises(InternalConsistencyError, match="interval of 1 < 4 cells"):
            variation_gauged(f, CONST1, self.GAUGE, 1)

    def test_horizon_raises_in_one_pass(self):
        # level 1 fits 8 // 4 = 2 intervals, level 2 fits 8 // 2 = 4 > k_max
        f = StepFunction(np.arange(9.0))
        short = WeightSequence("constant", value=1.0, k_max=3)
        assert variation_gauged(f, short, self.GAUGE, 1).level == 1
        with pytest.raises(HorizonError, match=r"^index 4 outside horizon 1\.\.3$"):
            variation_gauged(f, short, self.GAUGE, 2)
        # a zero value charges no rank
        assert variation_gauged(StepFunction(np.zeros(9)), short, self.GAUGE, 4).lower == 0.0


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
        n2 = schramm_norm(StepFunction(3.0 * f.values), fam)
        assert n2 == pytest.approx(3.0 * n1, rel=1e-7)

    def test_triangle_inequality_samples(self):
        fam = SchrammFamily.power(2.0, HARMONIC)
        rng = np.random.default_rng(19)
        for _ in range(5):
            f = StepFunction(random_values(rng, 6))
            g = StepFunction(random_values(rng, 6))
            lhs = schramm_norm(StepFunction(f.values + g.values), fam)
            rhs = schramm_norm(f, fam) + schramm_norm(g, fam)
            assert lhs <= rhs * (1 + 1e-7) + 1e-12

    @pytest.mark.parametrize("family, phis", [(mixed_family, mixed_phis),
                                              (expm1_family, expm1_phis)])
    def test_dinkelbach_norm_matches_oracle(self, family, phis):
        # non-homogeneous families take the root of their best collection,
        # to adjacent floats: V(f/c) = 1 to two ulps at the returned c
        fam = family()
        assert fam.degree is None
        rng = np.random.default_rng(29)
        for m in (2, 3, 5, 8):
            values = rng.integers(-4, 5, size=m + 1) / 8.0
            values[-1] = values[0] + 0.5  # never constant
            f = StepFunction(values)
            c = schramm_norm(f, fam) - abs(values[0])
            assert oracles.oracle_schramm(list(values / c), phis(m)) == \
                pytest.approx(1.0, abs=4.5e-16)
        # f is scaled into [-1, 1], so huge increments are found too
        values = np.array([0.0, 1e200, 0.0])
        c = schramm_norm(StepFunction(values), fam)
        assert oracles.oracle_schramm(list(values / c), phis(2)) == \
            pytest.approx(1.0, abs=4.5e-16)

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
        # a homogeneous family (degree 1) rescales its range the same way,
        # while the variation itself is inf, without an overflow warning
        fam = SchrammFamily("explicit", terms=[(1e-3, 1.0), (1e-4, 1.0)], k_max=KM)
        assert schramm_norm(huge, fam) == pytest.approx(1e308 + 2e305, rel=1e-9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert variation_schramm(huge, fam).lower == math.inf

    def test_norm_reaches_the_largest_float(self):
        # mixed exponents take a collection's root; V(f/c) = 1e300 * ptp / c
        # for one interval, so c = 1e300 * ptp
        fam = SchrammFamily("explicit", terms=[[1e300, 1.0], [1e300, 2.0]])
        assert schramm_norm(StepFunction([0.0, 1.0]), fam) == pytest.approx(1e300, rel=1e-10)
        assert schramm_norm(StepFunction([0.0, 1e-3, 0.0]), fam) == pytest.approx(
            1e297, rel=1e-10)
        # c = 1.7e308 * ptp: the norm 5.1e308 is past the largest float, and
        # 1.275e308 is a float, past 2^1023
        fam = SchrammFamily("explicit", terms=[[1.7e308, 1.0], [1.7e308, 2.0]])
        assert schramm_norm(StepFunction([0.0, 3.0]), fam) == math.inf
        assert schramm_norm(StepFunction([0.0, 0.75]), fam) == pytest.approx(
            1.275e308, rel=1e-10)
        assert schramm_norm(StepFunction([0.0, 1e-3, 0.0]), fam) == pytest.approx(
            1.7e305, rel=1e-10)
        # six increments of 1e-3 at exponents just above 1: c = 1.01995e306
        # (a 40-digit root), a float, while c for the input scaled up to
        # [0.5, 1) would pass the largest float
        fam = SchrammFamily("explicit", terms=[[1.7e308, 1.0], [1.7e308, 1.0],
                                               [1.7e308, 1.0000001]])
        a = 1e-3
        assert schramm_norm(StepFunction([0.0, a, 0.0, a, 0.0, a, 0.0]), fam) == \
            pytest.approx(1.0199516184599114e306, rel=1e-9)

    def test_norm_of_an_offset_f_with_tiny_coefficients(self):
        # c = 1e-300 * 1e-12: f/c passes the largest float, but its
        # increment does not, and the norm is |f(a)| + c = 1.0
        fam = SchrammFamily("explicit", terms=[[1e-300, 1.0], [1e-300, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert schramm_norm(StepFunction([1.0, 1.0 + 1e-12]), fam) == 1.0

    def test_norm_whose_f_over_c_is_no_float_raises(self):
        # c = 1e-320: the increment over c is past the largest float, so no
        # float c shows the sum at or below 1
        fam = SchrammFamily("explicit", terms=[[1e-320, 1.0], [1e-320, 2.0]])
        with pytest.raises(ValidationError, match="^f/c is past the largest float below "
                                                  "the norm's c$"):
            schramm_norm(StepFunction([0.0, 1.0]), fam)

    @pytest.mark.parametrize("family, homogeneous", [
        (lambda: SchrammFamily.power(2.0, HARMONIC), True),
        (lambda: SchrammFamily("explicit", terms=[(1.0, 1.5), (0.5, 1.5)],
                               k_max=KM), True),
        (mixed_family, False),
        (expm1_family, False),
    ])
    def test_homogeneous_norm_is_one_variation_call(self, monkeypatch, family,
                                                    homogeneous):
        # another family takes the root of one collection per call, and
        # stops after two or three
        calls = []
        real = gbv.variation.variation_schramm

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(gbv.variation, "variation_schramm", counted)
        f = StepFunction([0.2, 1.0, 0.4, 0.9, 0.0])
        norm = schramm_norm(f, family())
        assert (len(calls) == 1) == homogeneous
        assert len(calls) <= 3
        if homogeneous:
            d = family().degree
            assert norm == 0.2 + real(f, family()).lower ** (1.0 / d)

    @pytest.mark.parametrize("family, values, norm", [
        # V(f) = x^2 (1 + 1/2) past the largest float, V(f/c) is not
        (lambda: SchrammFamily.power(2.0, WeightSequence("harmonic")), [0.0, 1e200], 1e200),
        (lambda: SchrammFamily.power(2.0, WeightSequence("harmonic")), [0.0, 1e200, 0.0],
         1.5 ** 0.5 * 1e200),
        (lambda: SchrammFamily("explicit", terms=[(1.0, 1.5), (0.5, 1.5)]),
         [0.0, 1e250, 0.0], 1.5 ** (1 / 1.5) * 1e250),
        # and V(f) = 1.5e-400 below the smallest float
        (lambda: SchrammFamily.power(2.0, WeightSequence("harmonic")), [0.0, 1e-200, 0.0],
         1.5 ** 0.5 * 1e-200),
    ])
    def test_homogeneous_norm_rescales_its_input(self, family, values, norm):
        assert schramm_norm(StepFunction(values), family()) == pytest.approx(norm, rel=1e-12)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_homogeneous_norm_is_exact_under_powers_of_two(self, p):
        # the rescaled input is the same for f and 2^k f, so the norm is
        # too; a root of V(2^k f) itself would carry the rounding of 1/p
        # times log V, about 1e-14 at k = 400
        f = StepFunction([0.0, 0.75, 0.25, 1.0, -0.5])
        fam = SchrammFamily.power(p, HARMONIC)
        for k in (-400, 400):
            assert schramm_norm(StepFunction(2.0 ** k * f.values), fam) == math.ldexp(
                schramm_norm(f, fam), k)

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
    assert res.lower == pytest.approx(truth, rel=1e-12, abs=1e-12)
    assert evaluate(res.witness.increments) == pytest.approx(res.lower, rel=1e-12,
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


@st.composite
def rising_terms(draw):
    """Explicit terms: coefficients falling, exponents rising at least once."""
    n = draw(st.integers(2, 4))
    exps = sorted(draw(st.lists(st.sampled_from([1.0, 1.25, 1.5, 2.0, 3.0]),
                                min_size=n, max_size=n)))
    coefs = sorted(draw(st.lists(st.sampled_from([1.0, 0.8, 0.5, 0.2, 0.05]),
                                 min_size=n, max_size=n)), reverse=True)
    if exps[0] == exps[-1]:
        exps[-1] += 1.0
    return list(zip(coefs, exps))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-8, 8), min_size=3, max_size=9),
       st.one_of(st.just(EXPLICIT_TERMS), rising_terms()))
def test_explicit_family_past_its_ordering_matches_oracle_property(vals, terms):
    # past ordered_to, phi_{j+1} > phi_j on some increments: the skeleton
    # is unproved there, so the level is bracketed
    fam = SchrammFamily("explicit", terms=terms, k_max=KM)
    phis = [lambda x, c=c, e=e: c * x ** e for c, e in terms]
    phis += [phis[-1]] * (len(vals) - len(phis))
    truth = oracles.oracle_schramm(vals, phis)
    tol = 1e-12 * max(truth, 1.0)
    for cap in (gbv.variation.ORACLE_CAP_DEFAULT, 3):
        res = variation_schramm(StepFunction(vals), fam, oracle_cap=cap)
        if res.mode == "bounds":
            assert res.lower - tol <= truth <= res.upper + tol
        else:
            assert res.lower == pytest.approx(truth, rel=1e-12, abs=1e-12)
            assert max(vals) - min(vals) <= fam.ordered_to


def test_unordered_bounds_charge_every_input_rank():
    # a monotone input's skeleton is one cell, but splitting it wins past
    # the crossing: phi_1(100) + phi_2(100) = 3009.5 > phi_1(200) = 2828.4
    f = StepFunction([0.0, 100.0, 200.0])
    fam = SchrammFamily("explicit", terms=EXPLICIT_TERMS, k_max=KM)
    truth = 100.0 ** 1.5 + 0.8 * 100.0 ** 1.7
    res = variation_schramm(f, fam)
    assert res.mode == "bounds"
    assert res.lower <= truth <= res.upper


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=3, max_size=8),
       st.integers(1, 4))
def test_modulus_matches_oracle_property(vals, n):
    values = [v / 4.0 for v in vals]
    f = StepFunction(values)
    assert modulus_of_variation(f, n).lower == pytest.approx(
        oracles.oracle_modulus(values, n), rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=3, max_size=7),
       st.sampled_from([1.0, 1.5, 2.0]))
def test_weighted_matches_oracle_property(vals, p):
    values = [v / 4.0 for v in vals]
    f = StepFunction(values)
    lam = [float(j) for j in range(1, len(values) + 1)]
    engine = variation_weighted(
        f, WeightSequence("explicit", terms=lam, k_max=KM), p).lower
    assert engine == pytest.approx(
        oracles.oracle_weighted(values, lam, p), rel=1e-12, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=3, max_size=9),
       st.sampled_from([1.0, 2.0, 3.0]),
       st.sampled_from([1, 2, 3, None]), st.sampled_from([1, 2, 3]))
def test_unweighted_q_matches_oracle_property(vals, q, s_max, min_len):
    values = [v / 4.0 for v in vals]
    f = StepFunction(values)
    res = variation_unweighted_q(f, q, s_max=s_max, min_len=min_len)
    cap = f.m if s_max is None else s_max
    assert res.lower == pytest.approx(
        oracles.oracle_unweighted_q(values, q, cap, min_len), rel=1e-12, abs=1e-12)
    assert len(res.witness) <= cap
    assert all(b - a >= min_len for a, b in res.witness.pairs)
    redo = sum(x ** q for x in res.witness.increments) ** (1.0 / q)
    assert redo == pytest.approx(res.lower, rel=1e-12, abs=1e-12)


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
    assert res.lower == pytest.approx(
        oracles.oracle_weighted(values, lam, p), rel=1e-12, abs=1e-12)
    gauge = GaugePair.build("linear", "pow2", n_max=4)
    res = variation_gauged(f, const2, gauge, 3)
    assert res.lower == pytest.approx(
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
        assert weighted.lower == schramm.lower ** root
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
    assert res.mode == "exact-dp" and res.lower == res.upper
    assert sum(phi(x) for x in res.witness.increments) == pytest.approx(res.lower,
                                                                        rel=1e-12)
    for m in range(2, 9):
        values = list(random_values(rng, m))
        res = variation_schramm(StepFunction(values), fam, oracle_cap=1)
        assert res.mode == "exact-dp"
        assert res.lower == pytest.approx(oracles.oracle_schramm(values, [phi] * m),
                                          rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("family", [
    SchrammFamily.power(2.0, WeightSequence("constant", value=2.0, k_max=3)),
    SchrammFamily.power(1.5, WeightSequence("explicit", terms=[3.0], k_max=3)),
    SchrammFamily("explicit", terms=[(1.5, 2.5)], k_max=3),
    SchrammFamily.power(2.0, WeightSequence("harmonic", k_max=3)),  # rank-dependent
])
def test_rank_free_family_keeps_the_horizon(family):
    # four intervals fit in four cells, so the exact DP could charge rank 4;
    # it raises as the label search does, and a constant input charges none
    f = StepFunction([0.0, 1.0, 0.0, 1.0, 0.0])
    for cap in (gbv.variation.ORACLE_CAP_DEFAULT, 1):
        with pytest.raises(HorizonError, match="index 4 outside horizon 1..3"):
            variation_schramm(f, family, oracle_cap=cap)
        assert variation_schramm(StepFunction([0.5] * 5), family, oracle_cap=cap).lower == 0.0
    assert variation_schramm(StepFunction([0.0, 1.0, 0.0, 1.0]), family).lower > 0.0
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
            assert res.lower == res.upper == math.inf

    def test_expm1_norm_is_finite(self):
        # V(f/c) = e^(1000/c) - 1 = 1 at c = 1000 / ln 2; below c = 1.4,
        # V is inf
        assert schramm_norm(self.JUMP, expm1_family()) == pytest.approx(
            1000.0 / math.log(2.0), rel=1e-9)

    def test_power_gains_overflow_to_inf(self):
        f = StepFunction([0.0, 1e200, 0.0, 1e200])
        for cap in (gbv.variation.ORACLE_CAP_DEFAULT, 1):
            assert variation_weighted(f, HARMONIC, 2.0, oracle_cap=cap).lower == math.inf
            fam = SchrammFamily("explicit", terms=[(1.0, 2.0), (0.5, 2.5)])
            assert variation_schramm(f, fam, oracle_cap=cap).lower == math.inf

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_gains_raise_no_warning(self):
        # inf gains meet the zero increments of the plateau; no nan reaches
        # the DP's argmax, and the witness holds a jump whose gain is inf
        f = StepFunction([0.0, 1e200, 1e200, 0.0, 1e200])
        res = variation_weighted(f, WeightSequence("constant", value=2.0), 2.0)
        assert res.mode == "exact-dp" and res.lower == math.inf
        assert 1e200 in res.witness.increments

    @pytest.mark.parametrize("bad", [5.0, math.nan])
    def test_witness_check_catches_a_non_finite_mismatch(self, bad):
        # a gain that is inf in the table but not when the witness is
        # re-evaluated: the check must fail, not compare nan > inf
        f = StepFunction([0.0, 1.0, 0.0, 1.0, 0.0])

        def gain(x):
            # the table calls it on a chunk of starts, the check on one witness
            return np.full(np.shape(x), math.inf if np.ndim(x) == 2 else bad)

        with pytest.raises(InternalConsistencyError, match="re-evaluates"):
            gbv.variation._dp_solve(f, [(gain, 1)])


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
            assert res.lower == pytest.approx(2.0 + 1.0 / 2.0, rel=1e-12)

    @pytest.mark.parametrize("cap", [gbv.variation.ORACLE_CAP_DEFAULT, 1])
    def test_short_horizon_counts_input_cells(self, cap):
        # the skeleton has 2 points, but 5 intervals fit in the input grid
        f = StepFunction([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        assert len(self.skeleton(f.values)) <= 3
        with pytest.raises(HorizonError, match="index 4 outside horizon 1..3"):
            variation_weighted(f, WeightSequence("harmonic", k_max=3), 1.0, oracle_cap=cap)

    @pytest.mark.parametrize("cap", [gbv.variation.ORACLE_CAP_DEFAULT, 2])
    def test_horizon_counts_gains_that_round_to_zero(self, cap):
        # (1e-170)^2 rounds to 0, but no increment is zero: the bounds ask
        # for every rank, as the label search does
        f = StepFunction([0.0, 1e-170] * 3 + [0.0])
        with pytest.raises(HorizonError, match="index 4 outside horizon 1..3"):
            variation_weighted(f, WeightSequence("harmonic", k_max=3), 2.0, oracle_cap=cap)

    def test_solver_path_is_logged(self, caplog):
        f = StepFunction(np.round(np.sin(np.linspace(0.0, 6.0, 21)) * 4.0))
        idx = self.skeleton(f.values)
        walk = StepFunction(np.cumsum(np.random.default_rng(5).normal(size=21)))
        with caplog.at_level(logging.DEBUG, logger="gbv"):
            variation_weighted(f, HARMONIC, 1.0)
            res = variation_weighted(walk, HARMONIC, 2.0)
            variation_weighted(f, HARMONIC, 1.0, oracle_cap=20)
            variation_weighted(f, CONST1, 1.0)
        # the gap is that of the reported bracket, here past its 1/p root
        gap = 1.0 - res.lower / res.upper
        assert 0.0 < gap < 1.0
        # rounds counts the dual's tables: one closes the sine's bracket
        assert [r.getMessage() for r in caplog.records] == [
            f"bounds: m=20 > oracle_cap=16, skeleton 21→{len(idx)} (gap 4), upper dual, "
            "rounds 1, gap 0",
            f"bounds: m=20 > oracle_cap=16, skeleton 21→{len(self.skeleton(walk.values))} "
            f"(gap 2), upper dual, rounds 2, gap {gap:.3g}",
            f"exact-oracle: m=20 <= oracle_cap=20, skeleton 21→{len(idx)} (gap 4), labels 1",
            f"exact-dp: m=20, levels=1, skeleton 21→{len(idx)} (gap 4)",
        ]

    def test_unordered_range_is_logged(self, caplog):
        f = StepFunction([0.0, 3.25, 1.0, 2.0, 0.0, 1.0, 1.0, 2.0, 0.0, 1.0, 1.0, 2.0, 0.5])
        idx = self.skeleton(f.values)
        fam = SchrammFamily("explicit", terms=EXPLICIT_TERMS, k_max=KM)
        with caplog.at_level(logging.DEBUG, logger="gbv"):
            variation_schramm(f, fam)
            variation_schramm(f, fam, oracle_cap=8)
            variation_schramm(StepFunction(0.5 * f.values), fam)
        assert [r.getMessage() for r in caplog.records] == [
            f"bounds: m=12 <= oracle_cap=16, range 3.25 > ordered_to 2.61, skeleton 13→{len(idx)} "
            "(gap 1), upper nu, gap 0.448",
            f"bounds: m=12 > oracle_cap=8, range 3.25 > ordered_to 2.61, skeleton 13→{len(idx)} "
            "(gap 1), upper nu, gap 0.448",
            f"exact-oracle: m=12 <= oracle_cap=16, skeleton 13→{len(idx)} (gap 1), labels 2",
        ]

    def test_gauged_path_is_logged(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="gbv"):
            variation_gauged(ZIGZAG, CONST1, TestGauged.GAUGE, 4)
            variation_gauged(ZIGZAG, HARMONIC, TestGauged.GAUGE, 2)
        # levels 3 and 4 share min_len 1 but not q_n; a rank-dependent gauge
        # keeps one rank solve per exponent; the gauge's own line comes last
        assert [r.getMessage() for r in caplog.records] == [
            "exact-dp: m=4, levels=4, min_len=1..2, no skeleton (gap 1)",
            "gauged: levels=4, exponents=4, solved q=1 at min_len 2, q=2 at min_len 1, "
            "q=3 at min_len 1, q=4 at min_len 1, level 2",
            "exact-oracle: m=4 <= oracle_cap=16, min_len=2, no skeleton (gap 1), labels 1",
            "exact-oracle: m=4 <= oracle_cap=16, skeleton 5→5 (gap 1), labels 1",
            "gauged: levels=2, exponents=2, solved q=1 at min_len 2, q=2 at min_len 1, level 2",
        ]

    def test_constant_ladder_fills_one_skeleton_table(self, caplog):
        # nine levels of one exponent, min_len 128 down to 1, on a walk whose
        # skeleton gap is 1: only the min_len 1 level is solved, and it fits
        values = np.cumsum(np.random.default_rng(5).integers(-2, 3, size=257)) / 4.0
        f = StepFunction(values)
        assert gbv.variation._Skeleton(values).gap == 1
        gauge = GaugePair.build("const", "pow2", n_max=9, q=1.5)
        with caplog.at_level(logging.DEBUG, logger="gbv"):
            res = variation_gauged(f, CONST1, gauge, 9)
        dp = [r.getMessage() for r in caplog.records if r.getMessage().startswith("exact-dp")]
        assert len(dp) == 1 and "skeleton 257→" in dp[0] and "no skeleton" not in dp[0]
        assert caplog.records[-1].getMessage() == (
            f"gauged: levels=9, exponents=1, solved q=1.5 at min_len 1, level {res.level}")
        assert res.lower == pytest.approx(variation_unweighted_q(f, 1.5).lower, rel=1e-12)


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
            assert res.lower == pytest.approx(truth, rel=1e-12, abs=1e-12)


@st.composite
def repeated_samples(draw, max_m=8):
    """Half-integer heights each repeated 1 to 4 times with ``np.repeat``,
    so that skeleton gaps of 2 or more occur, or a rounded sine."""
    if draw(st.booleans()):
        heights = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=max_m + 1))
        runs = draw(st.lists(st.integers(1, 4), min_size=len(heights),
                             max_size=len(heights)))
        return np.repeat(np.array(heights) / 2.0, runs)[:max_m + 1]
    m, turns = draw(st.integers(2, max_m)), draw(st.sampled_from([0.5, 1.0, 1.5]))
    return np.round(np.sin(np.linspace(0.0, turns * 2.0 * np.pi, m + 1)) * 3.0) / 2.0


@settings(max_examples=120, deadline=None)
@given(repeated_samples(), st.integers(1, 8), st.sampled_from([1.0, 1.5, 3.0]),
       st.sampled_from([None, 1, 2]))
def test_gap_rule_matches_oracle_property(values, min_len, q, s_max):
    # a level runs on the skeleton when its min_len fits the skeleton's gap
    f = StepFunction(values)
    min_len = (min_len - 1) % f.m + 1
    res = variation_unweighted_q(f, q, s_max=s_max, min_len=min_len)
    truth = oracles.oracle_unweighted_q(values.tolist(), q, s_max or f.m, min_len)
    assert res.lower == pytest.approx(truth, rel=1e-12, abs=1e-12)
    assert all(b - a >= min_len for a, b in res.witness.pairs)
    assert len(res.witness) <= (s_max or f.m)


@settings(max_examples=80, deadline=None)
@given(repeated_samples(), st.lists(st.integers(2, 9), min_size=1, max_size=4),
       st.sampled_from([(CONST1, 1.0), (HARMONIC, None)]))
def test_gauged_gap_rule_matches_oracle_property(values, deltas, weights):
    # gauges whose levels mix min_len below and above the skeleton's gap
    f = StepFunction(values)
    weights, lam = weights
    deltas = sorted(deltas)
    qn = [1.0, 1.5, 2.0, 3.0][:len(deltas)]
    res = variation_gauged(f, weights, GaugePair(qn, deltas), len(deltas))
    lams = [lam or j for j in range(1, f.m + 1)]
    truth = oracles.oracle_gauged(values.tolist(), lams, qn, deltas, len(deltas))
    assert res.lower == pytest.approx(truth, rel=1e-12, abs=1e-12)
    if res.level is not None:
        min_len = math.ceil(f.m / deltas[res.level - 1])
        assert all(b - a >= min_len for a, b in res.witness.pairs)


@settings(max_examples=80, deadline=None)
@given(repeated_samples(), st.lists(st.tuples(st.sampled_from([1.0, 1.5, 2.0]),
                                              st.integers(2, 9)), min_size=1, max_size=6),
       st.sampled_from([(CONST1, 1.0), (WeightSequence("explicit", terms=[2.0] * 3), 2.0),
                        (HARMONIC, None)]))
def test_repeated_exponents_match_oracle_property(values, rungs, weights):
    # `list` ladders whose exponents repeat: one level per exponent is solved
    f = StepFunction(values)
    weights, lam = weights
    qn = sorted(q for q, _ in rungs)
    deltas = sorted(d for _, d in rungs)
    gauge = GaugePair.build("list", "list", qn_list=qn, delta_list=deltas)
    res = variation_gauged(f, weights, gauge, len(qn))
    lams = [lam or j for j in range(1, f.m + 1)]
    truth = oracles.oracle_gauged(values.tolist(), lams, qn, deltas, len(qn))
    assert res.lower == pytest.approx(truth, rel=1e-12, abs=1e-12)
    assert res.mode == ("exact-dp" if lam else "exact-oracle") or res.lower == 0.0
    if res.level is not None:
        q_n, min_len = qn[res.level - 1], max(1, math.ceil(f.m / deltas[res.level - 1]))
        assert all(b - a >= min_len for a, b in res.witness.pairs)
        incs = sorted(res.witness.increments, reverse=True)
        redo = sum(x ** q_n / lams[j] for j, x in enumerate(incs)) ** (1.0 / q_n)
        assert redo == pytest.approx(res.lower, rel=1e-12)


def test_min_len_past_the_gap_stays_on_the_grid(caplog):
    # the skeleton [0, 2, 4, 6] has gap 2: its three unit steps span 2
    # cells each, and at min_len 3 none of them is admissible
    f = StepFunction([0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0])
    with caplog.at_level(logging.DEBUG, logger="gbv"):
        on = variation_unweighted_q(f, 2.0, min_len=2)
        off = variation_unweighted_q(f, 2.0, min_len=3)
    assert on.witness.pairs == ((0, 2), (2, 4), (4, 6))
    assert off.lower == 1.0 == oracles.oracle_unweighted_q(f.values.tolist(), 2.0, 6, 3)
    assert off.witness.pairs == ((0, 3),)
    assert [r.getMessage() for r in caplog.records] == [
        "exact-dp: m=6, levels=1, skeleton 7→4 (gap 2)",
        "exact-dp: m=6, levels=1, min_len=3, no skeleton (gap 2), blocks of 3"]


def test_block_text_names_the_rows_of_one_argmax(caplog):
    # a chunk holds _GAIN_CHUNK // ends increments per start, at least 16
    # starts, so a block of min_len rows is cut to the chunk: 16 rows at
    # m = 1,024 (961 ends), 42 at m = 256 (193 ends)
    noise = StepFunction(np.random.default_rng(2).standard_normal(1025))
    sine = StepFunction(np.round(4.0 * np.sin(np.linspace(0.0, 2.0 * np.pi, 257))))
    with caplog.at_level(logging.DEBUG, logger="gbv"):
        variation_unweighted_q(noise, 1.5, min_len=64)
        variation_gauged(sine, CONST1, GaugePair.build("linear", "pow2", n_max=9), 9)
    assert [r.getMessage() for r in caplog.records][:3] == [
        "exact-dp: m=1024, levels=1, min_len=64, no skeleton (gap 1), blocks of 16",
        "exact-dp: m=256, levels=7, skeleton 257→4 (gap 44)",
        "exact-dp: m=256, levels=2, min_len=64..128, no skeleton (gap 44), blocks of 42"]


@st.composite
def dyadic_samples(draw, max_m=64):
    """Quarter-step walks and half-step plateau trains, on 0 or 1e15: every
    sum the DPs form is exact."""
    offset = draw(st.sampled_from([0.0, 1e15]))
    if draw(st.booleans()):
        steps = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=max_m))
        return offset + np.concatenate([[0.0], np.cumsum(steps) / 4.0])
    runs = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(1, 12)),
                         min_size=2, max_size=12))
    values = np.repeat([h / 2.0 for h, _ in runs], [r for _, r in runs])
    return offset + values[:max_m + 1]


_DP = gbv.variation._dp


def per_position_dp(values, levels, count=None):
    """``_dp`` forced onto its per-position rule, whatever the gains."""
    return _DP(values, [(lambda x, fn=fn: fn(x), min_len) for fn, min_len in levels], count)


@st.composite
def distinct_samples(draw, max_m=64):
    """Inputs with no two equal neighbours whose sums are all exact:
    :func:`dyadic_samples` reduced to their turning-point skeleton, or
    N(0,1) samples rounded to multiples of 2^-30."""
    if draw(st.booleans()):
        values = draw(dyadic_samples(max_m))
        return values[gbv.variation._skeleton(values)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.round(rng.standard_normal(draw(st.integers(2, max_m + 1))) * 2.0**30) / 2.0**30


@settings(max_examples=80, deadline=None)
@given(st.one_of(dyadic_samples(), distinct_samples()), st.integers(1, 3), st.integers(1, 9))
def test_linear_column_rule_matches_per_position_property(values, min_len, n):
    best, walk = _DP(values, [(gbv.variation._linear, min_len)], n)
    ref, ref_walk = per_position_dp(values, [(gbv.variation._linear, min_len)], n)
    assert np.array_equal(best, ref)
    for col in range(best.shape[1]):
        assert walk(col) == ref_walk(col)


@st.composite
def level_samples(draw, max_m=48):
    """Quarter-step walks, whole or reduced to their turning-point skeleton
    (no two equal neighbours), plateau trains (zero increments) or N(0,1)
    samples, some scaled by 1e200 so that gains overflow to inf."""
    shape = draw(st.sampled_from(["walk", "skeleton", "plateaus", "normal"]))
    size = draw(st.integers(2, max_m + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape in ("walk", "skeleton"):
        values = np.cumsum(rng.integers(-2, 3, size=size)) / 4.0
        if shape == "skeleton":
            values = values[gbv.variation._skeleton(values)]
    elif shape == "plateaus":
        values = np.repeat(rng.integers(0, 5, size=size) / 2.0,
                           rng.integers(1, 6, size=size))[:size]
    else:
        values = rng.standard_normal(size)
    return values * draw(st.sampled_from([1.0, 1e200]))


@settings(max_examples=80, deadline=None)
@given(level_samples(), st.lists(st.tuples(st.sampled_from([1.0, 1.5, 2.0, 3.0, 7.0]),
                                           st.integers(1, 48)), min_size=1, max_size=6),
       st.integers(1, 8))
def test_level_columns_match_one_level_dp_property(values, levels, lowest):
    # levels that share q_n share one gain function, as in variation_gauged;
    # a table whose levels all have min_len >= 2 fills blocks of rows
    m = len(values) - 1
    gains = {q: SchrammFamily.power(q, CONST1).rank_free for q, _ in levels}
    levels = [(gains[q], min(m, max(lowest, (min_len - 1) % m + 1))) for q, min_len in levels]
    best, walk = _DP(values, levels)
    for c, level in enumerate(levels):
        ref, ref_walk = _DP(values, [level])
        assert np.array_equal(best[:, c], ref[:, 0])
        assert walk(c) == ref_walk(0)


def scalar_dp(values, levels, count=None):
    """The per-position rule in plain Python loops: the table ``best[i][c]``
    and the witness pairs of each column. Tie rule: take when the take ties
    skipping, pick the smallest end among equal takes, never take a zero
    increment, and respect each level's ``min_len``. With a ``count`` cap
    (one level) column k reads column k - 1; without, each level's column
    reads itself."""
    values = [float(v) for v in values]
    m = len(values) - 1
    if count is None:
        shift, cols = 0, [(gain, min_len, c) for c, (gain, min_len) in enumerate(levels)]
    else:
        [(gain, min_len)] = levels
        shift = 1
        cols = [(gain, min_len, k - 1) for k in range(1, max(0, min(count, m // min_len)) + 1)]
    width = len(cols) + shift
    best = [[0.0] * width for _ in range(m + 2)]
    end = [[0] * width for _ in range(m + 2)]
    for i in range(m - 1, -1, -1):
        for c, (gain, min_len, prev) in enumerate(cols, shift):
            take, arg = -math.inf, 0
            for b in range(i + min_len, m + 1):
                inc = abs(values[b] - values[i])
                if inc > 0 and gain(inc) + best[b][prev] > take:
                    take, arg = gain(inc) + best[b][prev], b
            skip = best[i + 1][c]
            best[i][c], end[i][c] = (take, arg) if take >= skip else (skip, 0)
    walks = []
    for c in range(width):
        pairs, i = [], 0
        while best[i][c] > 0:
            while end[i][c] == 0:
                i += 1
            pairs.append((i, end[i][c]))
            i, c = end[i][c], c - shift
        walks.append(pairs)
    return best, walks


#: gains whose numpy and Python float evaluations agree bit for bit (one
#: rounding per operation), and overflow to inf at 1e200
SCALAR_GAINS = [lambda x: x, lambda x: x * x, lambda x: 0.5 * x * x, lambda x: x * x * x]


#: inputs with no two equal neighbours, on which levels of min_len 1 all
#: take the mask-free rows: N(0,1), and a quarter-step walk's skeleton
NOISE = np.random.default_rng(5).standard_normal(40)
WALK_SKELETON = np.cumsum(np.random.default_rng(6).integers(-2, 3, size=60)) / 4.0
WALK_SKELETON = WALK_SKELETON[gbv.variation._skeleton(WALK_SKELETON)]
ONE_LEVEL, LEVELS, CAPPED = [(1, 1)], [(0, 1), (1, 1), (3, 1), (1, 1)], [(2, 1)]


@settings(max_examples=80, deadline=None)
@given(level_samples(max_m=80),
       st.lists(st.tuples(st.integers(0, len(SCALAR_GAINS) - 1), st.integers(1, 48)),
                min_size=1, max_size=6),
       st.one_of(st.none(), st.integers(1, 50)), st.booleans())
@example(NOISE, ONE_LEVEL, None, False)
@example(NOISE, LEVELS, None, False)
@example(NOISE, CAPPED, 7, False)
@example(WALK_SKELETON, ONE_LEVEL, None, False)
@example(WALK_SKELETON, LEVELS, None, False)
@example(WALK_SKELETON, CAPPED, 7, False)
@example(WALK_SKELETON * 1e200, ONE_LEVEL, None, False)
@example(WALK_SKELETON * 1e200, LEVELS, None, False)
@example(WALK_SKELETON * 1e200, CAPPED, 7, False)
def test_dp_matches_scalar_reference_property(values, levels, count, ones):
    # levels that share a gain share one function, as in variation_gauged;
    # min_len 1 throughout takes the mask-free rows when no two neighbours
    # are equal
    levels = [(SCALAR_GAINS[g], 1 if ones else min_len) for g, min_len in levels]
    if count is not None:
        levels = levels[:1]
    best, walk = _DP(values, levels, count)
    ref, ref_walks = scalar_dp(values, levels, count)
    assert np.array_equal(best, np.array(ref))
    assert [walk(c) for c in range(best.shape[1])] == ref_walks


def test_each_gain_is_called_once_per_chunk_of_16_starts_or_more():
    # nine gauged levels at m = 256, min_len 256 down to 1: a chunk of
    # starts shares one call of each gain, and chunks hold at least 16
    calls = {}

    def counted(q):
        def gain(x):
            calls[q] = calls.get(q, 0) + 1
            return x ** q
        return gain

    values = np.cumsum(np.random.default_rng(3).integers(-2, 3, size=257)) / 4.0
    levels = [(counted(q), 512 >> q) for q in range(1, 10)]
    best, _ = _DP(values, levels)
    assert best.shape == (258, 9)
    assert sorted(calls) == list(range(1, 10))
    assert max(calls.values()) <= 16


@st.composite
def float_samples(draw, max_m=64):
    """Floats of any scale up to 1e3, or quarter steps on 1e15."""
    if draw(st.booleans()):
        ks = draw(st.lists(st.integers(-40, 40), min_size=2, max_size=max_m + 1))
        return [1e15 + k / 4.0 for k in ks]
    return draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
                         min_size=2, max_size=max_m + 1))


@settings(max_examples=80, deadline=None)
@given(float_samples(), st.integers(1, 3), st.integers(1, 9))
def test_linear_column_rule_matches_dp_oracle_property(values, min_len, n):
    f = StepFunction(values)
    truth = oracles.dp_modulus(values, n, min_len)
    res = variation_unweighted_q(f, 1.0, s_max=n, min_len=min_len)
    assert res.lower == pytest.approx(truth, rel=1e-12, abs=0.0)
    if min_len == 1:
        res = modulus_of_variation(f, n)
        assert res.lower == pytest.approx(truth, rel=1e-12, abs=0.0)


#: the scaled families of the top-k dual, phi_j = w_j g with g the base
#: (x^p, or expm1): (family at p, w_j)
SCALED_FAMILIES = {
    "harmonic": (lambda p: SchrammFamily.power(p, HARMONIC), lambda j: 1.0 / j),
    "log": (lambda p: SchrammFamily.power(p, WeightSequence("log", k_max=KM)),
            lambda j: math.log(j + 1.0) / j),
    "power:0.5": (lambda p: SchrammFamily.power(
        p, WeightSequence("power", alpha=0.5, k_max=KM)), lambda j: j ** -0.5),
    "expm1": (lambda p: expm1_family(), lambda j: 1.0 / j),
}


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=3, max_size=10),
       st.sampled_from(sorted(SCALED_FAMILIES)), st.sampled_from([1.0, 1.5, 2.0]))
def test_dual_upper_bound_property(vals, name, p):
    values = [v / 4.0 for v in vals]
    f = StepFunction(values)
    make, weight = SCALED_FAMILIES[name]
    g = math.expm1 if name == "expm1" else (lambda x: x ** p)
    phis = [lambda x, w=weight(j): w * g(x) for j in range(1, f.m + 1)]
    res = variation_schramm(f, make(p), oracle_cap=1)
    assert res.mode == "bounds"
    truth = oracles.oracle_schramm(values, phis)
    assert res.lower <= truth * (1 + 1e-12) and truth <= res.upper * (1 + 1e-12)
    redo = sum(phi(x) for phi, x in zip(phis, sorted(res.witness.increments, reverse=True)))
    assert redo == pytest.approx(res.lower, rel=1e-12, abs=1e-12)
    # a bracket closed to the loop's tolerance holds the optimum
    if res.upper - res.lower <= 1e-12 * res.upper:
        assert res.lower == pytest.approx(truth, rel=1e-12, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=3, max_size=10), st.sampled_from([1.0, 4.0]))
def test_nu_upper_bound_property(vals, scale):
    # at scale 4 most ranges pass ordered_to, and the upper charges every
    # rank of the input grid
    values = [scale * v / 4.0 for v in vals]
    f = StepFunction(values)
    family = SchrammFamily("explicit", terms=EXPLICIT_TERMS, k_max=KM)
    phis = [lambda x, c=c, e=e: c * x ** e
            for c, e in (EXPLICIT_TERMS + [EXPLICIT_TERMS[-1]] * f.m)[:f.m]]
    res = variation_schramm(f, family, oracle_cap=1)
    assert res.mode == "bounds"
    truth = oracles.oracle_schramm(values, phis)
    assert res.lower <= truth * (1 + 1e-12) and truth <= res.upper * (1 + 1e-12)
    # never above the nu bound: the j-th largest increment of any
    # collection is at most nu(j)/j, charged at every rank of the input grid
    nu = [oracles.dp_modulus(values, j) for j in range(1, f.m + 1)]
    assert res.upper <= sum(phi(x / j) for j, (phi, x) in enumerate(zip(phis, nu), 1)) * (
        1 + 1e-12)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_dual_upper_with_flat_weights_and_inf_gains(p):
    # the weights step by zero twice; at p = 2 every gain of the zigzag is
    # inf, so a zero weight step meets an inf t_k, which must add nothing
    weights = WeightSequence("explicit", terms=[1, 1, 2, 2, 4])
    f = StepFunction([(-1.0) ** i * (1 + 0.01 * i) * 1e200 for i in range(6)])
    res = variation_weighted(f, weights, p, oracle_cap=4)
    assert res.mode == "bounds"
    assert res.upper == math.inf or res.upper >= res.lower
    assert not math.isnan(res.upper)


def test_dual_fills_no_column_from_an_inf_gain():
    # every gain of the tiling is past the largest float; a rank sum that
    # reads it finite, as rounding at the edge of the floats could, must
    # not seed a column with inf thresholds: the upper end stays inf
    family = SchrammFamily.power(2.0, HARMONIC)
    edge = SimpleNamespace(surrogate=family.surrogate,
                           rank_sum=lambda xs: min(family.rank_sum(xs), 1e308))
    values = np.array([0.0, 1e200, 0.0, 2e200])
    lower, upper, _, rule = gbv.variation._dual_bounds(values, edge, family.rank_weights(3), 1)
    assert (lower, upper, rule) == (1e308, math.inf, "dual, rounds 0")


@pytest.mark.parametrize("family", [
    SchrammFamily.power(2.0, HARMONIC), expm1_family(),
    SchrammFamily("explicit", terms=EXPLICIT_TERMS, k_max=KM)])
def test_rank_bounds_fill_one_table_per_level(monkeypatch, family):
    # a scaled family's dual fills one uncapped one-column table a round;
    # an explicit level fills one capped table
    tables, calls = [], {"_rank_bounds": 0}
    real_dp, real_bounds = gbv.variation._dp, gbv.variation._rank_bounds

    def dp(values, levels, count=None):
        tables.append((len(levels), count))
        return real_dp(values, levels, count)

    def bounds(*args):
        calls["_rank_bounds"] += 1
        return real_bounds(*args)

    monkeypatch.setattr(gbv.variation, "_dp", dp)
    monkeypatch.setattr(gbv.variation, "_rank_bounds", bounds)
    rng = np.random.default_rng(11)
    for m in (12, 40):
        f = StepFunction(np.cumsum(rng.normal(size=m + 1)))
        variation_schramm(f, family, oracle_cap=4)
        # past ordered_to for the explicit family
        variation_schramm(StepFunction(4.0 * f.values), family, oracle_cap=4)
    assert calls["_rank_bounds"] == 4
    if family.kind == "scaled":
        assert len(tables) >= 4 and set(tables) == {(1, None)}
    else:
        assert len(tables) == 4 and None not in [count for _, count in tables]
    # a gauge's rank-dependent levels are bounded one by one, min_len > 1 too
    tables.clear()
    variation_gauged(f, HARMONIC, TestGauged.GAUGE, 4, oracle_cap=4)
    assert calls["_rank_bounds"] == 8
    assert len(tables) >= 4 and set(tables) == {(1, None)}


def reference_walk(best, end, shift, col):
    """The pointer walk one grid position at a time."""
    pairs, i = [], 0
    while best[i, col] > 0:
        b = int(end[i, col])
        if b:
            pairs.append((i, b))
            i, col = b, col - shift
        else:
            i += 1
    return pairs


def tables(values, levels, count):
    """``_dp``'s (table, walk, end pointers, shift) on the per-position rule."""
    seen = []
    walk_of = gbv.variation._walk

    def spy(best, end, shift):
        seen.append((end, shift))
        return walk_of(best, end, shift)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gbv.variation, "_walk", spy)
        best, walk = per_position_dp(values, levels, count)
    [(end, shift)] = seen
    return best, walk, end, shift


@settings(max_examples=100, deadline=None)
@given(st.one_of(level_samples(), dyadic_samples(max_m=48)),
       st.lists(st.tuples(st.sampled_from([1.0, 1.5, 2.0, 7.0]), st.integers(1, 48)),
                min_size=1, max_size=5),
       st.integers(1, 9))
def test_walk_matches_reference_walk_property(values, levels, n):
    m = len(values) - 1
    levels = [(SchrammFamily.power(q, CONST1).rank_free, (min_len - 1) % m + 1)
              for q, min_len in levels]
    # capped at n and at m intervals (the rank bounds' table), one level;
    # uncapped, one level and several
    for lv, count in ((levels[:1], n), (levels[:1], m), (levels[:1], None), (levels, None)):
        best, walk, end, shift = tables(values, lv, count)
        for col in range(best.shape[1]):
            assert walk(col) == reference_walk(best, end, shift, col)


C2 = WeightSequence("constant", value=2.0)


def _skeleton_dp_cases():
    """The exact DPs whose levels all have min_len 1, so that they run on the
    skeleton: name -> (engine call, gain, count cap, root p, strictly
    convex gain, brute-force oracle of the value)."""
    cases = {}
    for n in (1, 3):
        cases[f"modulus n={n}"] = (lambda f, n=n: modulus_of_variation(f, n),
                                   gbv.variation._linear, n, 1.0, False,
                                   lambda v, n=n: oracles.oracle_modulus(v, n))
    for q in (1.0, 1.5, 2.0, 3.0):
        for s in (None, 2):
            cases[f"uq q={q} s_max={s}"] = (
                lambda f, q=q, s=s: variation_unweighted_q(f, q, s_max=s),
                gbv.variation._linear if q == 1 else (lambda x, q=q: x ** q), s, q, q > 1,
                lambda v, q=q, s=s: oracles.oracle_unweighted_q(v, q, s or len(v)))
    for p in (1.0, 2.0):
        fam = SchrammFamily.power(p, C2)
        cases[f"constant p={p}"] = (lambda f, p=p: variation_weighted(f, C2, p),
                                    fam.rank_free, None, p, p > 1,
                                    lambda v, p=p: oracles.oracle_weighted(v, [2.0] * len(v), p))
    for name, fam, phi in (
            ("one pair", SchrammFamily("explicit", terms=[(0.5, 2.0)]), lambda x: 0.5 * x ** 2),
            ("expm1/constant", SchrammFamily("scaled", base=ConvexBase("expm1"), weights=C2),
             lambda x: math.expm1(x) / 2.0)):
        cases[name] = (lambda f, fam=fam: variation_schramm(f, fam), fam.rank_free, None,
                       1.0, True, lambda v, phi=phi: oracles.oracle_schramm(v, [phi] * len(v)))
    return cases


SKELETON_DP = _skeleton_dp_cases()


@settings(max_examples=150, deadline=None)
@given(st.one_of(level_samples(max_m=40), dyadic_samples(max_m=40)),
       st.sampled_from(sorted(SKELETON_DP)))
def test_skeleton_dp_matches_full_grid_property(values, name):
    call, gain, count, p, strict, oracle = SKELETON_DP[name]
    f = StepFunction(values)
    res = call(f)
    assert res.mode == "exact-dp"
    # the same DP on every grid point of the input
    best, walk = _DP(f.values, [(gain, 1)], count)
    col = best.shape[1] - 1
    assert res.lower == pytest.approx(float(best[0, col]) ** (1.0 / p), rel=1e-12, abs=0.0)
    with np.errstate(over="ignore"):
        check = float(np.sum(gain(np.array(res.witness.increments)))) ** (1.0 / p)
    assert check == pytest.approx(res.lower, rel=1e-12, abs=0.0)
    if strict and res.lower < math.inf:
        # a strictly convex gain ties no merge with its split, so the
        # skeleton reports the full grid's witness
        assert res.witness.pairs == tuple(walk(col))
    if f.m <= 8 and np.all(np.abs(f.values) < 1e100):
        assert res.lower == pytest.approx(oracle(f.values.tolist()), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("call, value", [
    (lambda f: variation_unweighted_q(f, 1.0), 5.0),
    (lambda f: modulus_of_variation(f, 3), 5.0),
    (lambda f: variation_weighted(f, C2, 1.0), 2.5),
], ids=["uq", "modulus", "constant"])
def test_linear_gain_reports_merged_intervals(call, value):
    # a linear gain ties the rising run 0..4 with its pieces, which the
    # full grid reports, e.g. (0, 1), (1, 2), (2, 4); the skeleton
    # [0, 4, 5] holds only (0, 4)
    res = call(StepFunction([0.0, 1.0, 2.0, 2.0, 3.0, 1.0]))
    assert res.witness.pairs == ((0, 4), (4, 5))
    assert res.lower == value


def test_sine_dp_runs_on_its_skeleton():
    # 4,097 samples but a skeleton of 4 points: about 0.2 ms on a 2-core
    # x86_64 VM, where the full grid took about 110 ms; the best of five
    # keeps a busy host's stalls out
    f = StepFunction(np.round(np.sin(np.linspace(0.0, 6.0, 4097)) * 4.0))
    best = min(timeit.repeat(lambda: variation_unweighted_q(f, 2.0), number=1, repeat=5))
    assert best < 5e-3


def test_rank_solve_makes_one_skeleton(monkeypatch):
    # levels 2, 3 and 4 of the gauge have min_len 1 on a 4-cell grid
    made = []
    skeleton = gbv.variation._skeleton
    monkeypatch.setattr(gbv.variation, "_skeleton", lambda v: made.append(len(v)) or skeleton(v))
    variation_gauged(ZIGZAG, HARMONIC, TestGauged.GAUGE, 4)
    assert made == [5]


def test_label_search_drops_dominated_labels_of_inf_value():
    # every gain of the zigzag at 1e150 is inf under expm1, so every label
    # that takes an interval is worth inf; ordering those by their
    # increments keeps one label a point, where a stable sort by value kept
    # 5,184 at m = 14
    f = StepFunction([(-1.0) ** i * (1 + 0.01 * i) * 1e150 for i in range(15)])
    value, pairs, held = gbv.variation._label_search(f.values, expm1_family())
    assert value == math.inf and held <= 4
    res = variation_schramm(f, expm1_family())
    assert res.mode == "exact-oracle" and res.lower == math.inf
    assert res.witness.pairs == tuple(pairs)
