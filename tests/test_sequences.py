import math
import tracemalloc

import numpy as np
import pytest

from gbv import (ConvexBase, GaugePair, HorizonError, RangeError,
                 SchrammFamily, ValidationError, WeightSequence)
from gbv.sequences import BISECT_X_TOL, INVERSE_TOL

KM = 4096
KINDS = [
    ("harmonic", {}),
    ("constant", {"value": 2.0}),
    ("power", {"alpha": 0.5}),
    ("log", {}),
    ("explicit", {"terms": [1.0, 1.5, 4.0]}),
]


@pytest.fixture(scope="module")
def harmonic():
    return WeightSequence("harmonic", k_max=KM)


class TestWeightSequence:
    def test_harmonic_first_prefix(self, harmonic):
        assert harmonic.prefix_sum(1) == 1.0

    def test_constant_prefix(self):
        w = WeightSequence("constant", value=1.0, k_max=KM)
        assert w.prefix_sum(7) == 7.0

    def test_harmonic_prefix_4(self, harmonic):
        # direct summation 1 + 1/2 + 1/3 + 1/4
        assert harmonic.prefix_sum(4) == pytest.approx(25 / 12, rel=1e-15)

    @pytest.mark.parametrize("kind,kw", KINDS)
    def test_prefix_increments_match_weights(self, kind, kw):
        w = WeightSequence(kind, k_max=256, **kw)
        pref = w.prefix_sums(256)
        for k in range(1, 256):
            assert pref[k] - pref[k - 1] == pytest.approx(
                1.0 / w.weight(k + 1), rel=1e-12)

    def test_prefix_strictly_increasing(self, harmonic):
        pref = harmonic.prefix_sums(KM)
        assert np.all(np.diff(pref) > 0)

    def test_horizon_error(self, harmonic):
        for accessor in (harmonic.weight, harmonic.weights, harmonic.prefix_sum,
                         harmonic.prefix_sums):
            for k in (0, KM + 1):
                with pytest.raises(HorizonError):
                    accessor(k)

    @pytest.mark.parametrize("kind,kw", KINDS)
    @pytest.mark.parametrize("order", [1, -1])
    def test_on_demand_tables_match_eager_formula(self, kind, kw, order):
        j = np.arange(1, KM + 1, dtype=float)
        lam = {"harmonic": j, "constant": np.full(KM, 2.0), "power": j ** 0.5,
               "log": j / np.log(j + 1.0),
               "explicit": np.concatenate([[1.0, 1.5], np.full(KM - 2, 4.0)])}[kind]
        pref = np.cumsum(1.0 / lam)
        w = WeightSequence(kind, **kw)
        for k in [1, 7, 1000, KM][::order]:
            assert np.array_equal(w.weights(k), lam[:k])
            assert np.array_equal(w.prefix_sums(k), pref[:k])
            assert w.weight(k) == lam[k - 1] and w.prefix_sum(k) == pref[k - 1]

    def test_construction_builds_no_table(self):
        tracemalloc.start()
        try:
            WeightSequence("log")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_explicit_extension_and_flag(self):
        w = WeightSequence("explicit", terms=[1.0, 2.0], k_max=10)
        assert w.weight(10) == 2.0
        assert w.divergence == "asserted-by-user"

    def test_decreasing_explicit_rejected(self):
        with pytest.raises(ValidationError):
            WeightSequence("explicit", terms=[2.0, 1.0], k_max=10)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValidationError):
            WeightSequence("constant", value=0.0, k_max=10)

    def test_config_round_trip(self):
        w = WeightSequence("power", alpha=0.5, k_max=64)
        w2 = WeightSequence.from_config(w.to_config())
        assert w2.prefix_sum(64) == w.prefix_sum(64)


class TestSchrammFamily:
    def test_inverse_of_zero(self, harmonic):
        fam = SchrammFamily.power(2.0, harmonic)
        assert fam.partial_inverse(3, 0.0) == 0.0

    def test_quadratic_inverse_closed_form(self, harmonic):
        # Phi_4(x) = x^2 * (1 + 1/2 + 1/3 + 1/4), so the inverse of 1 is
        # (25/12)^(-1/2); the analytic path must agree with bisection
        fam = SchrammFamily.power(2.0, harmonic)
        expected = (25 / 12) ** -0.5
        assert fam.partial_inverse(4, 1.0) == pytest.approx(expected, rel=1e-12)
        assert fam.partial_inverse(4, 1.0, method="bisect") == pytest.approx(
            expected, rel=1e-8)

    def test_linear_inverse(self, harmonic):
        fam = SchrammFamily.power(1.0, harmonic)
        # Phi_2(x) = 1.5 x
        assert fam.partial_inverse(2, 3.0) == pytest.approx(2.0, rel=1e-12)

    def test_round_trip_identity(self, harmonic):
        fam = SchrammFamily.power(2.0, harmonic)
        for k in (1, 3, 9):
            for x in np.linspace(0.0, 10.0, 7):
                y = float(fam.partial_sum(k, x))
                assert fam.partial_inverse(k, y) == pytest.approx(x, abs=1e-9)
                assert fam.partial_inverse(k, y, method="bisect") == pytest.approx(
                    x, abs=1e-7)

    def test_inverse_nonincreasing_in_k(self, harmonic):
        fam = SchrammFamily.power(2.0, harmonic)
        vals = [fam.partial_inverse(k, 1.0) for k in range(1, 40)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_inverse_concave_on_triples(self, harmonic):
        fam = SchrammFamily.power(2.0, harmonic)
        for k in (1, 2, 5, 17):
            for y1, y2 in [(0.1, 2.0), (1.0, 9.0), (0.5, 0.6)]:
                mid = fam.partial_inverse(k, (y1 + y2) / 2)
                avg = (fam.partial_inverse(k, y1) + fam.partial_inverse(k, y2)) / 2
                assert mid >= avg - 1e-9

    def test_explicit_family_bisection(self):
        fam = SchrammFamily("explicit", terms=[(1.0, 2.0), (0.5, 2.0)], k_max=16)
        y = float(fam.partial_sum(3, 1.5))
        assert fam.partial_inverse(3, y) == pytest.approx(1.5, abs=1e-7)

    def test_validate_rejects_bad_ordering(self):
        # equal exponents with a rising coefficient: phi_2 > phi_1 for x > 0
        with pytest.raises(ValidationError, match="terms 1 and 2: phi_2 > phi_1 for every x"):
            SchrammFamily("explicit", terms=[(1.0, 2.0), (2.0, 2.0)], k_max=4)

    def test_falling_exponent_rejected(self):
        # 0.1 x^1.5 > x^2 for x < 0.01
        with pytest.raises(ValidationError, match="terms 2 and 3: phi_3 > phi_2 near 0"):
            SchrammFamily("explicit", terms=[(1.0, 2.0), (1.0, 2.0), (0.1, 1.5)])
        with pytest.raises(ValidationError):
            SchrammFamily.from_config({"kind": "explicit", "terms": [[1, 2], [0.5, 1]]})
        # a rising exponent is ordered up to a crossing and still accepted
        SchrammFamily("explicit", terms=[(1.0, 1.5), (0.8, 1.7), (0.6, 2.0), (0.5, 2.0)])

    def test_negative_target_rejected(self, harmonic):
        fam = SchrammFamily.power(2.0, harmonic)
        with pytest.raises(ValidationError):
            fam.partial_inverse(2, -1.0)

    @pytest.mark.parametrize("kind", ["scaled", "explicit"])
    def test_array_targets_match_scalar_rules(self, harmonic, kind):
        fam = (SchrammFamily.power(2.0, harmonic) if kind == "scaled" else
               SchrammFamily("explicit", terms=[(1.0, 2.0)], k_max=KM))
        with pytest.raises(ValidationError):
            fam.partial_inverse_many([1, 2, 3], -1.0)
        assert fam.partial_inverse_many([1, 2, 3], 0.0).tolist() == [0.0] * 3

    @pytest.mark.parametrize("y", [0.3, 1.0, 7.5])
    def test_vectorized_bisection(self, y):
        terms = [(1.0, 1.5), (0.8, 1.7), (0.6, 2.0), (0.5, 2.0)]
        fam = SchrammFamily("explicit", terms=terms, k_max=KM)
        # below, at and past the end of the term list
        ks = np.array([1, 2, 3, 4, 5, 9, 100, KM])
        xs = fam.partial_inverse_many(ks, y)
        for k, x in zip(ks, xs):
            k = int(k)
            w = BISECT_X_TOL * max(1.0, x)
            assert (abs(fam.partial_sum(k, x) - y) <= INVERSE_TOL * max(1.0, y)
                    or fam.partial_sum(k, x - w) <= y <= fam.partial_sum(k, x + w))
            assert fam.partial_inverse(k, y) == x
        assert np.all(np.diff(xs) <= 0)
        assert np.array_equal(fam.partial_sum(ks, xs),
                              [fam.partial_sum(int(k), x) for k, x in zip(ks, xs)])

    @pytest.mark.parametrize("y", [0.3, 1.0, 7.5])
    def test_bisection_matches_analytic_over_array(self, harmonic, y):
        fam = SchrammFamily.power(2.0, harmonic)
        ks = np.arange(1, KM + 1, 37)
        np.testing.assert_allclose(fam.partial_inverse_many(ks, y, method="bisect"),
                                   fam.partial_inverse_many(ks, y), rtol=1e-8)

    def test_expm1_base(self):
        w = WeightSequence("constant", value=1.0, k_max=64)
        fam = SchrammFamily("scaled", base=ConvexBase("expm1"), weights=w)
        # Phi_k(x) = k (e^x - 1)
        assert fam.partial_inverse(4, 4.0) == pytest.approx(math.log(2), rel=1e-10)

    @pytest.mark.parametrize("fam, degree", [
        (SchrammFamily.power(1.5, WeightSequence("harmonic", k_max=64)), 1.5),
        (SchrammFamily("scaled", base=ConvexBase("expm1"),
                       weights=WeightSequence("harmonic", k_max=64)), None),
        (SchrammFamily("explicit", terms=[(1.0, 2.0), (0.5, 2.0)], k_max=64), 2.0),
        (SchrammFamily("explicit", terms=[(1.0, 1.5), (0.5, 2.0)], k_max=64), None),
    ])
    def test_degree(self, fam, degree):
        assert fam.degree == degree
        if degree is not None:
            # phi_j(c x) = c^d phi_j(x), so the rank sum scales by c^d
            xs = [0.7, 0.5, 0.4, 0.2, 0.1]
            assert fam.rank_sum([3.0 * x for x in xs]) == pytest.approx(
                3.0 ** degree * fam.rank_sum(xs), rel=1e-12)

    def test_phi_horizon_names_first_index_past_it(self):
        for fam in (SchrammFamily("explicit", terms=[(1.0, 2.0)], k_max=4),
                    SchrammFamily.power(2.0, WeightSequence("harmonic", k_max=4))):
            assert fam.rank_sum([1.0]) == 1.0
            with pytest.raises(HorizonError, match="index 5 outside horizon 1..4"):
                fam.rank_sum([1.0] * 8)

    @pytest.mark.parametrize("k", [0, 5])
    @pytest.mark.parametrize("method", ["partial_sum", "partial_inverse_many"])
    def test_horizon_errors_name_the_index(self, k, method):
        fam = SchrammFamily("explicit", terms=[(1.0, 2.0)], k_max=4)
        with pytest.raises(HorizonError, match=f"^index {k} outside horizon 1..4$"):
            getattr(fam, method)(np.array([1, k, 2]), 1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fam, x", [
        (SchrammFamily.power(2.0, WeightSequence("harmonic", k_max=64)), 1e200),
        (SchrammFamily("scaled", base=ConvexBase("expm1"),
                       weights=WeightSequence("harmonic", k_max=64)), 1e200),
        (SchrammFamily("explicit", terms=[(1.0, 1.5), (0.5, 2.0)], k_max=64), 1e300),
    ])
    def test_rank_sum_past_the_largest_float_is_inf(self, fam, x):
        assert fam.rank_sum([x]) == math.inf
        assert fam.rank_sum([x, 1.0]) == math.inf


class TestGaugePair:
    def test_pow2_ladder(self):
        g = GaugePair.build("linear", "pow2", n_max=8)
        assert g.level(3) == (3.0, 8.0)
        assert g.q_limit == math.inf

    def test_to_ladder_limit(self):
        g = GaugePair.build("to", "pow2", n_max=8, q=2.0)
        qn = [g.level(n)[0] for n in range(1, 9)]
        assert qn[0] == 1.0
        assert all(a <= b for a, b in zip(qn, qn[1:]))
        assert g.q_limit == 2.0

    def test_monotonicity_enforced(self):
        with pytest.raises(ValidationError):
            GaugePair([2.0, 1.0], [2.0, 4.0])
        with pytest.raises(ValidationError):
            GaugePair([1.0, 2.0], [4.0, 2.0])
        with pytest.raises(ValidationError):
            GaugePair([1.0], [1.5])

    def test_level_out_of_range(self):
        g = GaugePair.build("linear", "pow2", n_max=4)
        with pytest.raises(HorizonError):
            g.level(5)
