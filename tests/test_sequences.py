import math
import re
import struct
import sys
import tracemalloc

import numpy as np
import pytest

from gbv import (ConvexBase, GaugePair, HorizonError, SchrammFamily, StepFunction,
                 ValidationError, WeightSequence,
                 criterion_lambda_gamma, criterion_phi_lambda, criterion_schramm,
                 criterion_union_p, plan_construction, variation_gauged,
                 variation_schramm, variation_unweighted_q, variation_weighted)
from gbv.sequences import PREFIX_ANCHOR, WEIGHT_KINDS, WEIGHT_PARAMS

KM = 4096
HARMONIC = WeightSequence("harmonic", k_max=KM)
KINDS = [
    ("harmonic", {}),
    ("constant", {"value": 2.0}),
    ("power", {"alpha": 0.5}),
    ("log", {}),
    ("explicit", {"terms": [1.0, 1.5, 4.0]}),
]

EXPLICIT_TERMS = [(1.0, 1.5), (0.8, 1.7), (0.6, 2.0), (0.5, 2.0)]
INVERSE_FAMILIES = {
    "power": SchrammFamily.power(2.0, HARMONIC),
    "expm1": SchrammFamily("scaled", base=ConvexBase("expm1"),
                           weights=WeightSequence("log", k_max=KM)),
    "explicit": SchrammFamily("explicit", terms=EXPLICIT_TERMS, k_max=KM),
}


def _float_at(bits):
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def reference_inverse(terms, k, y):
    """The least float x with ``Phi_k(x) >= y`` (inf when there is none),
    by bisection over the bit patterns of the floats in [0, inf] down to
    one float. ``Phi_k`` is the ``math.fsum`` of ``phi_j(x) = (c^(1/e) x)^e``
    for j <= k, the last pair counted for every j past the list, which
    keeps ``c^(1/e) x`` in range wherever ``phi_j(x)`` is."""
    def phi(x):
        last = len(terms) - 1
        try:
            return math.fsum((c ** (1.0 / e) * x) ** e * (k - last if j == last else 1)
                             for j, (c, e) in enumerate(terms[:k]))
        except OverflowError:
            return math.inf

    lo, hi = 0, 0x7FF0000000000000  # the bits of 0.0 and of inf
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if phi(_float_at(mid)) >= y:
            hi = mid
        else:
            lo = mid
    return _float_at(hi)


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
                1.0 / w.weights(k + 1)[k], rel=1e-12)

    def test_prefix_strictly_increasing(self, harmonic):
        pref = harmonic.prefix_sums(KM)
        assert np.all(np.diff(pref) > 0)

    def test_horizon_error(self, harmonic):
        for accessor in (harmonic.weights, harmonic.prefix_sum, harmonic.prefix_sums):
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
            assert w.prefix_sum(k) == pref[k - 1]

    def test_construction_builds_no_table(self):
        tracemalloc.start()
        try:
            WeightSequence("log")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_explicit_extension(self):
        w = WeightSequence("explicit", terms=[1.0, 2.0], k_max=10)
        assert w.weights(10)[9] == 2.0

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


class TestPrefixSums:
    """A running sum up to the anchor, the kind's closed form past it."""

    @pytest.mark.parametrize("kind,kw", KINDS)
    def test_closed_form_against_fsum(self, kind, kw):
        w = WeightSequence(kind, **kw)
        inv = (1.0 / w.weights(1 << 20)).tolist()
        for k in (PREFIX_ANCHOR + 1, 1 << 16, 1 << 20):
            exact = math.fsum(inv[:k])
            assert abs(w.prefix_sum(k) - exact) <= 1e-13 * exact

    @pytest.mark.parametrize("kind,kw", KINDS)
    def test_dense_scalar_and_array_reads_agree(self, kind, kw):
        w = WeightSequence(kind, k_max=1 << 16, **kw)
        dense = w.prefix_sums(1 << 16)
        ks = np.array([1, 2, PREFIX_ANCHOR - 1, PREFIX_ANCHOR, PREFIX_ANCHOR + 1,
                       PREFIX_ANCHOR + 2, 9999, 40000, 1 << 16])
        at = w.prefix_sums_at(ks)
        assert np.array_equal(at, dense[ks - 1])
        assert [w.prefix_sum(int(k)) for k in ks] == at.tolist()
        # reads of one k, of a 2-d array and of the k out of order agree too
        assert np.array_equal(w.prefix_sums_at(ks[::-1].reshape(3, 3)),
                              at[::-1].reshape(3, 3))
        assert np.array_equal(w.prefix_sums_at(ks[4]), at[4])

    @pytest.mark.parametrize("kind,kw", KINDS)
    def test_strictly_increasing_across_the_anchor(self, kind, kw):
        w = WeightSequence(kind, **kw)
        pref = w.prefix_sums(PREFIX_ANCHOR + 64)
        assert np.all(np.diff(pref) > 0)
        # each step past the anchor is 1 / lam_k
        steps = np.diff(pref[PREFIX_ANCHOR - 1:])
        np.testing.assert_allclose(
            steps, 1.0 / w.weights(PREFIX_ANCHOR + 64)[PREFIX_ANCHOR:], rtol=1e-8)

    @pytest.mark.parametrize("kind,kw", KINDS)
    def test_growth_matches_the_weights(self, kind, kw):
        # the ratio proof reads lam_j = c j^a / log(j + 1)^b past the anchor
        w = WeightSequence(kind, **kw)
        a, b = w._growth()
        j = np.arange(PREFIX_ANCHOR + 1, (1 << 20) + 1, 997)
        c = w.weights(1 << 20)[j - 1] * j ** -a * np.log(j + 1.0) ** b
        np.testing.assert_allclose(c, c[0], rtol=1e-12)

    @pytest.mark.parametrize("kind,kw", KINDS)
    def test_array_read_horizon(self, kind, kw):
        w = WeightSequence(kind, k_max=5000, **kw)
        for k in (0, 5001):
            with pytest.raises(HorizonError, match=f"^index {k} outside horizon 1..5000$"):
                w.prefix_sums_at(np.array([3, k, 7]))

    @pytest.mark.parametrize("kind,kw", KINDS)
    def test_no_table_past_the_anchor(self, kind, kw):
        w = WeightSequence(kind, **kw)
        w.prefix_sums_at(np.array([1, 1 << 19, 1 << 20]))
        w.prefix_sum(1 << 20)
        w.prefix_sums(1 << 20)
        assert len(w._head) == w.anchor == PREFIX_ANCHOR

    def test_long_explicit_list_is_summed_exactly(self):
        terms = np.linspace(1.0, 2.0, 5000).tolist()
        w = WeightSequence("explicit", terms=terms, k_max=8000)
        assert w.anchor == 5000
        pref = w.prefix_sums(8000)
        assert pref[4999] == np.cumsum(1.0 / np.array(terms))[-1]
        assert pref[-1] == pref[4999] + 3000 / 2.0


class TestConstantIsOneTermExplicit:
    """A constant sequence reads its weights as the one-term explicit list."""

    KS = np.array([1, 2, PREFIX_ANCHOR - 1, PREFIX_ANCHOR, PREFIX_ANCHOR + 1, 9999, 1 << 16])

    @pytest.mark.parametrize("v", [1, 3, 0.7, 2.5e-3])
    def test_weights_and_prefix_sums_are_bit_identical(self, v):
        const = WeightSequence("constant", value=v, k_max=1 << 16)
        expl = WeightSequence("explicit", terms=[v], k_max=1 << 16)
        assert const.anchor == expl.anchor == PREFIX_ANCHOR
        for k in (1, PREFIX_ANCHOR, PREFIX_ANCHOR + 1, 1 << 16):
            assert np.array_equal(const.weights(k), expl.weights(k))
            assert np.array_equal(const.prefix_sums(k), expl.prefix_sums(k))
        assert np.array_equal(const.prefix_sums_at(self.KS), expl.prefix_sums_at(self.KS))
        assert [const.prefix_sum(int(k)) for k in self.KS] == \
            [expl.prefix_sum(int(k)) for k in self.KS]

    @pytest.mark.parametrize("v", [1, 3, 0.7])
    def test_rank_free_variations_agree(self, v):
        const = WeightSequence("constant", value=v, k_max=KM)
        expl = WeightSequence("explicit", terms=[v], k_max=KM)
        for w in (const, expl):
            assert SchrammFamily.power(2.0, w).rank_free is not None
        f = StepFunction([0.0, 1.0, 0.25, 2.0, -1.0, 0.5, 0.5, 3.0, 0.0])
        gauge = GaugePair.build("linear", "pow2", n_max=4)
        for p in (1.0, 1.5, 2.0):
            assert (variation_weighted(f, const, p).to_json_dict()
                    == variation_weighted(f, expl, p).to_json_dict())
        assert (variation_gauged(f, const, gauge, 4).to_json_dict()
                == variation_gauged(f, expl, gauge, 4).to_json_dict())


@pytest.mark.parametrize("kind, arg", [("constant", 2), ("power", 0.5),
                                       ("explicit", [1.0, 1.5, 4.0])])
def test_each_weight_param_round_trips(kind, arg):
    key = WEIGHT_PARAMS[kind]
    cfg = {"kind": kind, "k_max": 64, key: arg}
    w = WeightSequence.from_config(cfg)
    assert w.to_config() == cfg and list(w.to_config()) == list(cfg)
    assert WeightSequence.from_config(w.to_config()).to_config() == cfg
    for other in WEIGHT_KINDS:
        if other != kind:
            with pytest.raises(ValidationError, match=f"^a {other} weight sequence takes no {key}$"):
                WeightSequence.from_config({**cfg, "kind": other})


class TestSchrammFamily:
    def test_inverse_of_zero(self, harmonic):
        fam = SchrammFamily.power(2.0, harmonic)
        assert fam.partial_inverse_many([3], 0.0)[0] == 0.0

    def test_quadratic_inverse_closed_form(self, harmonic):
        # Phi_4(x) = x^2 * (1 + 1/2 + 1/3 + 1/4), so the inverse of 1 is
        # (25/12)^(-1/2); the analytic path and the Newton inverse of an
        # explicit twin with the same phi_j = x^2 / j must agree with it
        fam = SchrammFamily.power(2.0, harmonic)
        twin = SchrammFamily("explicit", terms=[(1.0 / j, 2.0) for j in range(1, 5)])
        expected = (25 / 12) ** -0.5
        assert fam.partial_inverse_many([4], 1.0)[0] == pytest.approx(expected, rel=1e-15)
        assert twin.partial_inverse_many([4], 1.0)[0] == pytest.approx(expected, rel=1e-15)

    def test_linear_inverse(self, harmonic):
        fam = SchrammFamily.power(1.0, harmonic)
        # Phi_2(x) = 1.5 x
        assert fam.partial_inverse_many([2], 3.0)[0] == pytest.approx(2.0, rel=1e-12)

    def test_round_trip_identity(self, harmonic):
        fam = SchrammFamily.power(2.0, harmonic)
        # the same phi_j = x^2 / j for j <= 9 as explicit terms
        twin = SchrammFamily("explicit", terms=[(1.0 / j, 2.0) for j in range(1, 10)])
        for k in (1, 3, 9):
            for x in np.linspace(0.0, 10.0, 7):
                y = float(fam.partial_sum(k, x))
                assert fam.partial_inverse_many([k], y)[0] == pytest.approx(x, abs=1e-9)
                assert twin.partial_inverse_many([k], y)[0] == pytest.approx(x, rel=1e-15)

    def test_inverse_nonincreasing_in_k(self, harmonic):
        fam = SchrammFamily.power(2.0, harmonic)
        vals = [fam.partial_inverse_many([k], 1.0)[0] for k in range(1, 40)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_inverse_concave_on_triples(self, harmonic):
        fam = SchrammFamily.power(2.0, harmonic)
        for k in (1, 2, 5, 17):
            for y1, y2 in [(0.1, 2.0), (1.0, 9.0), (0.5, 0.6)]:
                mid = fam.partial_inverse_many([k], (y1 + y2) / 2)[0]
                avg = (fam.partial_inverse_many([k], y1)[0]
                       + fam.partial_inverse_many([k], y2)[0]) / 2
                assert mid >= avg - 1e-9

    def test_explicit_family_bisection(self):
        # Newton's inverse against the reference bisection and the round trip
        terms = [(1.0, 2.0), (0.5, 2.0)]
        fam = SchrammFamily("explicit", terms=terms, k_max=16)
        y = float(fam.partial_sum(3, 1.5))
        assert fam.partial_inverse_many([3], y)[0] == pytest.approx(1.5, rel=1e-15)
        assert fam.partial_inverse_many([3], y)[0] == pytest.approx(
            reference_inverse(terms, 3, y), rel=1e-15)

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

    @pytest.mark.parametrize("terms, ordered_to", [
        # terms 2 -> 3 cross first: (0.8/0.6)^(1/0.3), before (1/0.8)^(1/0.2) = 3.05
        ([(1.0, 1.5), (0.8, 1.7), (0.6, 2.0), (0.5, 2.0)], (0.8 / 0.6) ** (1 / 0.3)),
        ([(1.0, 2.0), (0.5, 2.0)], math.inf),             # one exponent
        ([(1.0, 1.0), (2.0, 2.0)], 0.5),                  # crossing below 1
        ([(1e10, 1.0), (1.0, 1.00001)], math.inf),        # crossing past the floats
    ])
    def test_ordered_to_is_the_first_crossing(self, terms, ordered_to):
        fam = SchrammFamily("explicit", terms=terms)
        assert fam.ordered_to == pytest.approx(ordered_to, rel=1e-15)
        assert SchrammFamily.power(2.0, WeightSequence("harmonic")).ordered_to == math.inf

    def test_scaled_family_takes_k_max_from_its_weights(self):
        weights = WeightSequence("constant", k_max=3)
        assert SchrammFamily.power(2.0, weights).k_max == 3
        # a larger k_max would let the rank-free DP charge ranks past the
        # weights' horizon
        with pytest.raises(ValidationError, match="takes k_max from its weights"):
            SchrammFamily("scaled", base=ConvexBase("power", p=2.0), weights=weights,
                          k_max=100)
        with pytest.raises(HorizonError, match="index 4 outside horizon 1..3"):
            variation_schramm(StepFunction([0.0, 1.0] * 4 + [0.0]),
                              SchrammFamily.power(2.0, weights))

    @pytest.mark.parametrize("make", [
        lambda: SchrammFamily("explicit", terms=[(1.0, 2.0)], k_max=0),
        lambda: SchrammFamily.from_config({"kind": "explicit", "terms": [[1, 2]], "k_max": -3}),
        lambda: WeightSequence("harmonic", k_max=0)], ids=["explicit", "config", "weights"])
    def test_k_max_below_one_rejected(self, make):
        # one check for every horizon: an explicit family with k_max 0 used to
        # fail later, with a math domain error or an empty horizon
        with pytest.raises(ValidationError, match="^k_max must be positive$"):
            make()

    def test_rank_cache_at_least_doubles(self, monkeypatch):
        # the family keeps the one list of lam_j and grows it by doubling, so
        # a 16-cell exact solve reads the weights at k = 1, 2, 4, 8, 16
        reads = []
        weights = WeightSequence.weights
        monkeypatch.setattr(WeightSequence, "weights",
                            lambda self, k: reads.append(k) or weights(self, k))
        res = variation_weighted(StepFunction([0.0, 1.0] * 8 + [0.0]),
                                 WeightSequence("harmonic"), 1.0)
        assert res.mode.startswith("exact")
        assert len(reads) <= 5

    def test_negative_target_rejected(self, harmonic):
        fam = SchrammFamily.power(2.0, harmonic)
        with pytest.raises(ValidationError):
            fam.partial_inverse_many([2], -1.0)

    @pytest.mark.parametrize("kind", ["scaled", "explicit"])
    def test_array_targets_match_scalar_rules(self, harmonic, kind):
        fam = (SchrammFamily.power(2.0, harmonic) if kind == "scaled" else
               SchrammFamily("explicit", terms=[(1.0, 2.0)], k_max=KM))
        for y in (-1.0, math.nan, [1.0, math.nan, 2.0]):
            with pytest.raises(ValidationError, match="^inverse target must be nonnegative$"):
                fam.partial_inverse_many([1, 2, 3], y)
        assert fam.partial_inverse_many([1, 2, 3], 0.0).tolist() == [0.0] * 3

    @pytest.mark.parametrize("kind", sorted(INVERSE_FAMILIES))
    def test_array_targets_equal_scalar_calls(self, kind):
        fam = INVERSE_FAMILIES[kind]
        rng = np.random.default_rng(11)
        ks = rng.integers(1, KM + 1, size=50)
        ys = np.concatenate([[0.0], rng.uniform(0.0, 10.0, size=49)])
        got = fam.partial_inverse_many(ks, ys)
        want = [fam.partial_inverse_many([k], y)[0] for k, y in zip(ks, ys.tolist())]
        assert got.tobytes() == np.array(want).tobytes()
        # a column of targets against a row of k: one row per target
        grid = fam.partial_inverse_many(ks[:7], ys[:5, None])
        rows = [fam.partial_inverse_many(ks[:7], y) for y in ys[:5].tolist()]
        assert grid.shape == (5, 7) and grid.tobytes() == np.array(rows).tobytes()

    @pytest.mark.parametrize("kind, one, seven_and_a_half", [
        ("power", ["0x1.0000000000000p+0", "0x1.a20bd700c2c3ep-1", "0x1.52d52b1dd5f45p-1",
                   "0x1.c1998708ce9d4p-2", "0x1.57570c60e9c88p-2"],
         ["0x1.02e48b145ef8dp+1", "0x1.b36492718f3b8p+0"]),
        ("expm1", ["0x1.c944a8cf09c9bp-1", "0x1.2e53bbd92167bp-1", "0x1.5ca96cf69baeep-2",
                   "0x1.4d249b9a81b98p-4", "0x1.c3a5f04a1dbb7p-6"],
         ["0x1.afb7a776109aep+0", "0x1.3b85b138543bdp+0"]),
        ("explicit", ["0x1.0000000000000p+0", "0x1.6187473efb43cp-1", "0x1.00082887f01f2p-1",
                      "0x1.18a4c924dca6cp-3", "0x1.694d9f3a9e804p-6"],
         ["0x1.f36c5e79681c0p+0", "0x1.5629fe5517a7bp+0"]),
    ])
    def test_scalar_target_values_pinned(self, kind, one, seven_and_a_half):
        # the scalar-target reads of the criteria and the counterexample
        # planner: the scaled ones as computed before array targets existed,
        # the explicit ones as Newton's method computes them
        fam = INVERSE_FAMILIES[kind]
        assert [v.hex() for v in fam.partial_inverse_many([1, 2, 5, 100, KM], 1.0)] == one
        assert [v.hex() for v in fam.partial_inverse_many([3, 7], 7.5)] == seven_and_a_half

    @pytest.mark.parametrize("y", [0.3, 1.0, 7.5])
    def test_vectorized_bisection(self, y):
        # the inverse over an array of k against the reference bisection
        fam = INVERSE_FAMILIES["explicit"]
        # below, at and past the end of the term list
        ks = np.array([1, 2, 3, 4, 5, 9, 100, KM])
        xs = fam.partial_inverse_many(ks, y)
        for k, x in zip(ks.tolist(), xs.tolist()):
            assert x == pytest.approx(reference_inverse(EXPLICIT_TERMS, k, y), rel=1e-15)
            assert fam.partial_inverse_many([k], y)[0] == x
        assert np.all(np.diff(xs) <= 0)
        assert np.array_equal(fam.partial_sum(ks, xs),
                              [fam.partial_sum(int(k), x) for k, x in zip(ks, xs)])

    @pytest.mark.parametrize("y", [0.3, 1.0, 7.5])
    def test_bisection_matches_analytic_over_array(self, y):
        # phi_j = x^2 / lam_j with lam = 1, 2, 3, 4, 4, ...: a scaled family,
        # its explicit twin, which extends by its last pair, and the
        # reference bisection on the twin's terms
        fam = SchrammFamily.power(2.0, WeightSequence("explicit", terms=[1, 2, 3, 4], k_max=KM))
        terms = [(1.0 / j, 2.0) for j in range(1, 5)]
        twin = SchrammFamily("explicit", terms=terms, k_max=KM)
        ks = np.arange(1, KM + 1, 37)
        analytic = fam.partial_inverse_many(ks, y)
        np.testing.assert_allclose(twin.partial_inverse_many(ks, y), analytic, rtol=1e-15)
        np.testing.assert_allclose([reference_inverse(terms, k, y) for k in ks.tolist()],
                                   analytic, rtol=1e-15)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("terms", [
        [(1e300, 1.0)], [(1e-300, 1.0)], [(1e300, 1000.0)], [(1e-300, 1000.0)],
        [(1e300, 1.0), (1e-300, 1000.0)], [(1e-300, 1.0), (1e300, 1000.0)],
        # 59 terms, exponents rising from 1 to 1000, coefficients 1e300 -> 1e-300 and back
        [(10.0 ** (300 - 600 * j / 58), 1.0 + 999.0 * j / 58) for j in range(59)],
        [(10.0 ** (600 * j / 58 - 300), 1.0 + 999.0 * j / 58) for j in range(59)],
    ], ids=["1e300x", "1e-300x", "1e300x^1000", "1e-300x^1000", "mixed", "mixed-rev",
            "59-falling", "59-rising"])
    def test_newton_on_extreme_families(self, terms):
        fam = SchrammFamily("explicit", terms=terms)
        ks = [1, 2, 59, 1 << 20]
        ys = [1e-300, 1e-100, 1e-10, 1.0, 1e10, 1e100, 1e300]
        got = fam.partial_inverse_many(np.array(ks)[:, None], np.array(ys))
        for k, row in zip(ks, got.tolist()):
            for y, x in zip(ys, row):
                want = reference_inverse(terms, k, y)
                if want < sys.float_info.min:  # the root underflows
                    assert x < sys.float_info.min
                else:  # a root past the largest float reads inf
                    assert x == pytest.approx(want, rel=1e-13), (k, y)

    def test_expm1_base(self):
        w = WeightSequence("constant", value=1.0, k_max=64)
        fam = SchrammFamily("scaled", base=ConvexBase("expm1"), weights=w)
        # Phi_k(x) = k (e^x - 1)
        assert fam.partial_inverse_many([4], 4.0)[0] == pytest.approx(math.log(2), rel=1e-10)

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

    @pytest.mark.parametrize("fam, config", [
        (SchrammFamily.power(1.5, WeightSequence("power", alpha=0.5, k_max=64)),
         {"kind": "scaled", "base": {"power": 1.5},
          "weights": {"kind": "power", "k_max": 64, "alpha": 0.5}}),
        (SchrammFamily("scaled", base=ConvexBase("expm1"),
                       weights=WeightSequence("constant", value=2.0, k_max=64)),
         {"kind": "scaled", "base": {"expm1": True},
          "weights": {"kind": "constant", "k_max": 64, "value": 2.0}}),
        (SchrammFamily("explicit", terms=[(1.0, 1.5), (0.5, 2.0)], k_max=64),
         {"kind": "explicit", "terms": [[1.0, 1.5], [0.5, 2.0]], "k_max": 64}),
    ], ids=["power", "expm1", "explicit"])
    def test_config_round_trip(self, fam, config):
        assert fam.to_config() == config
        again = SchrammFamily.from_config(config)
        assert again.to_config() == config
        if "base" in config:
            assert ConvexBase.from_config(config["base"]).to_config() == config["base"]
        xs = [2.0, 1.5, 0.5, 0.25]
        assert again.rank_sum(xs) == fam.rank_sum(xs)
        assert again.partial_sum(3, 0.75) == fam.partial_sum(3, 0.75)


class TestGaugePair:
    def test_pow2_ladder(self):
        g = GaugePair.build("linear", "pow2", n_max=8)
        assert g.levels(3)[-1] == (3.0, 8.0)
        assert g.q_limit == math.inf

    def test_to_ladder_limit(self):
        g = GaugePair.build("to", "pow2", n_max=8, q=2.0)
        qn = [q for q, _ in g.levels(8)]
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

    @pytest.mark.parametrize("consumer", [
        lambda g, n: criterion_lambda_gamma(HARMONIC, HARMONIC, 1.0, g, n),
        lambda g, n: criterion_schramm(SchrammFamily.power(2.0, HARMONIC), g, n),
        lambda g, n: criterion_phi_lambda(ConvexBase("power", p=2.0), HARMONIC, g, n),
        lambda g, n: criterion_union_p(HARMONIC, 1.0, g, n),
        lambda g, n: variation_gauged(StepFunction([0.0, 1.0, 0.0]), HARMONIC, g, n),
        lambda g, n: plan_construction("lambda", g, n, w_lambda=HARMONIC, w_gamma=HARMONIC),
    ], ids=["lambda_gamma", "schramm", "phi_lambda", "union_p", "gauged", "plan"])
    def test_level_count_consumers_share_one_check(self, consumer):
        g = GaugePair.build("linear", "pow2", n_max=4)
        for n in (0, 5):
            with pytest.raises(ValidationError, match=f"^level count {n} outside 1..4$"):
                consumer(g, n)

    def test_pow2_ladder_stops_before_overflow(self):
        # 2^1024 is past the largest float; the check runs before any array
        for n_max in (1024, 2000):
            with pytest.raises(ValidationError, match="^a pow2 delta ladder has at most 1023"):
                GaugePair.build("const", "pow2", n_max=n_max, q=1.0)
        assert GaugePair.build("const", "pow2", n_max=1023, q=1.0).deltas[-1] == 2.0 ** 1023
        with pytest.raises(ValidationError, match="^delta ladder shorter than qn ladder$"):
            GaugePair.build("linear", "list", n_max=3, delta_list=[2.0, 4.0])

    def test_level_out_of_range(self):
        g = GaugePair.build("linear", "pow2", n_max=4)
        for n in (0, 5):
            with pytest.raises(ValidationError, match=f"^level count {n} outside 1..4$"):
                g.levels(n)


ZIGZAG5 = StepFunction([0.0, 1.0, 0.5, 2.0, 1.0])


@pytest.mark.parametrize("call, message", [
    (lambda: variation_unweighted_q(ZIGZAG5, math.inf), "q must be >= 1"),
    (lambda: variation_unweighted_q(ZIGZAG5, math.nan), "q must be >= 1"),
    (lambda: variation_weighted(ZIGZAG5, HARMONIC, math.nan), "p must be in [1, inf) (p=nan)"),
    (lambda: variation_weighted(ZIGZAG5, HARMONIC, math.inf), "p must be in [1, inf) (p=inf)"),
    (lambda: criterion_lambda_gamma(HARMONIC, WeightSequence("constant", k_max=KM), math.nan,
                                    GaugePair.build("linear", "pow2", n_max=4), 4),
     "p must be in [1, inf) (p=nan)"),
    (lambda: ConvexBase("power", p=math.nan), "p must be in [1, inf) (p=nan)"),
    (lambda: ConvexBase("power", p=math.inf), "p must be in [1, inf) (p=inf)"),
    (lambda: SchrammFamily("explicit", terms=[(math.inf, 2.0)]), "explicit terms need"),
    (lambda: SchrammFamily("explicit", terms=[(1.0, math.nan)]), "explicit terms need"),
    (lambda: SchrammFamily("explicit", terms=[(1.0, 2.0), (1.0, math.inf)]),
     "explicit terms need"),
    (lambda: WeightSequence("constant", value=math.inf), "constant weight must be positive"),
    (lambda: WeightSequence("constant", value=math.nan), "constant weight must be positive"),
    (lambda: WeightSequence("explicit", terms=[1.0, math.inf]), "weights must be positive"),
    (lambda: GaugePair([1.0, math.nan], [2.0, 4.0]), "need 1 <= q_n nondecreasing"),
    (lambda: GaugePair([1.0, math.inf], [2.0, 4.0]), "need 1 <= q_n nondecreasing"),
    (lambda: GaugePair([1.0, 2.0], [2.0, math.nan]), "need 2 <= delta_n nondecreasing"),
    (lambda: GaugePair.build("const", "pow2", q=math.nan), "need 1 <= q_n nondecreasing"),
    (lambda: GaugePair.build("list", "pow2"), "list qn ladder needs qn_list"),
    (lambda: GaugePair.build("linear", "list"), "list delta ladder needs delta_list"),
], ids=["q-inf", "q-nan", "p-nan", "p-inf", "criterion-p-nan", "base-nan", "base-inf",
        "coef-inf", "exponent-nan", "second-exponent-inf", "constant-inf", "constant-nan",
        "explicit-inf", "qn-nan", "qn-inf", "delta-nan", "const-nan", "qn-list-missing",
        "delta-list-missing"])
def test_non_finite_parameters_are_rejected(call, message):
    # a NaN passes every ``x < 1`` test, and an inf exponent or weight gives
    # confident wrong values
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
        call()
