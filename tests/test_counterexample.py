import json
import logging
import math
import timeit
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gbv.counterexample
from gbv import (ConvexBase, GaugePair, HorizonError, HypothesisError,
                 InfeasibleError, LevelPlan, ResolutionError, SchrammFamily, ValidationError,
                 WeightSequence, build_witness, certify_blowup,
                 certify_membership, paper_constants, plan_construction,
                 variation_weighted, witness_resolution)

KM = 1 << 18

HARMONIC = WeightSequence("harmonic", k_max=KM)
CONST1 = WeightSequence("constant", value=1.0, k_max=KM)


def toy_spec():
    """Tiny two-level lambda construction that fits inside the exact engine."""
    gauge = GaugePair.build("const", "list", q=1.0, n_max=2,
                            delta_list=[4, 8])
    return plan_construction(
        "lambda", gauge, 2,
        w_lambda=WeightSequence("constant", value=100.0, k_max=KM),
        w_gamma=WeightSequence("constant", value=0.01, k_max=KM),
        p=1.0, eps=[0.5, 0.25], sep=[8.0, 16.0], blow=[4.0, 16.0])


def main_spec(n_levels=4):
    gauge = GaugePair.build("const", "list", q=1.0, n_max=4,
                            delta_list=[64, 1024, 8192, 131072])
    eps, sep, blow = paper_constants(4)
    return plan_construction(
        "lambda", gauge, n_levels, w_lambda=HARMONIC, w_gamma=CONST1,
        p=1.0, eps=eps, sep=sep, blow=[4.0 ** n for n in range(1, 5)])


class TestPaperConstants:
    def test_values(self):
        eps, sep, blow = paper_constants(3)
        assert list(eps) == [0.5, 0.25, 0.125]
        assert list(sep) == [8.0, 16.0, 32.0]
        assert list(blow) == [16.0, 256.0, 4096.0]


class TestPlan:
    def test_toy_plan(self):
        spec = toy_spec()
        assert len(spec.levels) == 2
        lv1, lv2 = spec.levels
        # budget b_n = Gamma(delta_n) = 100 * delta_n
        assert lv1.b_n == pytest.approx(400.0)
        assert lv2.b_n == pytest.approx(800.0)
        assert lv1.t_n >= 1 and lv2.t_n >= 1
        # height = eps_n / Lambda(r_n) with Lambda(k) = k/100
        assert lv1.height == pytest.approx(lv1.eps * 100.0 / lv1.r_n)

    def test_main_plan_violating_indices(self):
        spec = main_spec()
        rs = [lv.r_n for lv in spec.levels]
        # r_n is the first k with k / Lambda_harmonic(k) > 4^n; verify
        # minimality directly
        for lv in spec.levels:
            assert lv.r_n / HARMONIC.prefix_sum(lv.r_n) > lv.blow
            if lv.r_n > 1:
                assert (lv.r_n - 1) / HARMONIC.prefix_sum(lv.r_n - 1) <= lv.blow
        assert rs == sorted(rs)

    def test_infeasible_when_criterion_holds(self):
        # Lambda = Gamma makes the kernel identically 1, so no index ever
        # violates any blow-up above 1
        gauge = GaugePair.build("const", "pow2", q=1.0, n_max=4)
        with pytest.raises(InfeasibleError) as exc:
            plan_construction("lambda", gauge, 4, w_lambda=CONST1,
                              w_gamma=CONST1, p=1.0)
        assert exc.value.level == 1

    def test_infeasible_separation_budget(self):
        gauge = GaugePair.build("const", "list", q=1.0, n_max=1,
                                delta_list=[4])
        with pytest.raises(InfeasibleError):
            plan_construction("lambda", gauge, 1, w_lambda=HARMONIC,
                              w_gamma=CONST1, p=1.0,
                              eps=[0.5], sep=[100.0], blow=[1.5])

    def test_schramm_plan(self):
        fam = SchrammFamily.power(2.0, HARMONIC)
        gauge = GaugePair.build("const", "list", q=2.0, n_max=2,
                                delta_list=[512, 32768])
        spec = plan_construction("schramm", gauge, 2, family=fam,
                                 blow=[4.0, 16.0])
        for lv in spec.levels:
            # kernel k^{1/2} Phi_k^{-1}(1) first exceeds blow at r_n
            kern = lv.r_n ** 0.5 * fam.partial_inverse_many([lv.r_n], 1.0)[0]
            assert kern > lv.blow

    def test_round_trip_spec(self):
        spec = toy_spec()
        doc = json.loads(json.dumps(spec.to_json_dict()))
        assert list(doc) == ["kind", "p", "levels", "lambda", "gamma"]
        assert (doc["kind"], doc["p"]) == ("lambda", 1.0)
        assert tuple(LevelPlan(**lv) for lv in doc["levels"]) == spec.levels
        assert doc["lambda"] == spec.w_lambda.to_config()
        assert doc["gamma"] == spec.w_gamma.to_config()

    def test_unknown_kind(self):
        gauge = GaugePair.build("const", "pow2", q=1.0, n_max=2)
        with pytest.raises(ValidationError):
            plan_construction("wiener", gauge, 2)

    @pytest.mark.parametrize("delta_2, error, message", [
        (1024, HorizonError, r"^delta_2=1024 exceeds the sequence horizon 512$"),
        (100.5, ValidationError, r"^delta_2 must be a whole number, not 100\.5$")])
    def test_second_level_checks(self, delta_2, error, message):
        # level 1 plans; level 2 passes the horizon, or is no grid size
        gauge = GaugePair.build("const", "list", q=1.0, n_max=2, delta_list=[64, delta_2])
        with pytest.raises(error, match=message):
            plan_construction("lambda", gauge, 2, w_lambda=WeightSequence("harmonic", k_max=512),
                              w_gamma=CONST1, p=1.0, sep=[1.0, 1.0], blow=[4.0, 16.0])

    @pytest.mark.parametrize("kind", ["lambda", "schramm"])
    def test_delta_past_the_horizon_names_it(self, kind):
        # the horizon is checked before Gamma(delta_n) is read, for both kinds
        # alike; a delta_n past the int64 range used to overflow there
        gauge = GaugePair.build("const", "list", q=1.0, n_max=1, delta_list=[1e30])
        with pytest.raises(HorizonError, match=rf"^delta_1={int(1e30)} exceeds the "
                           rf"sequence horizon {KM}$"):
            plan_construction(kind, gauge, 1, w_lambda=HARMONIC, w_gamma=CONST1,
                              family=SchrammFamily.power(2.0, HARMONIC))

    def test_schramm_plan_takes_no_p(self):
        # its source is Phi BV itself, whose variation the cross-check takes
        # with no 1/p root
        gauge = GaugePair.build("const", "pow2", q=1.0, n_max=2)
        with pytest.raises(ValidationError, match=r"^schramm construction takes no p \(p=2\)$"):
            plan_construction("schramm", gauge, 2, family=SchrammFamily.power(2.0, HARMONIC), p=2)

    @pytest.mark.parametrize("short", ["eps", "sep", "blow"])
    def test_short_constant_list_names_it(self, short):
        gauge = GaugePair.build("const", "pow2", q=1.0, n_max=3)
        consts = {"eps": [0.5] * 3, "sep": [0.01] * 3, "blow": [1.1] * 3}
        consts[short] = consts[short][:1]
        with pytest.raises(ValidationError, match=f"^{short} needs one value"):
            plan_construction("lambda", gauge, 3, w_lambda=HARMONIC,
                              w_gamma=CONST1, p=1.0, **consts)

    @staticmethod
    def many_level_plan():
        """20 levels at delta_n = 2^(n+1): two grid cells per dyadic band,
        so every level holds one plateau."""
        gauge = GaugePair.build("const", "list", q=1.0, n_max=20,
                                delta_list=[2 ** (n + 1) for n in range(1, 21)])
        return plan_construction(
            "lambda", gauge, 20, w_lambda=WeightSequence("harmonic", k_max=1 << 21),
            w_gamma=WeightSequence("constant", value=1.0, k_max=1 << 21), p=1.0,
            sep=[1.0] * 20, blow=[1.2 ** n for n in range(1, 21)])

    def test_many_level_plan_reads_a_short_prefix(self):
        # every r_n is below 256 while delta_20 = 2^21: the kernel is read
        # up to the first violation, not to the largest delta_n
        tracemalloc.start()
        try:
            spec = self.many_level_plan()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spec.levels[-1].r_n < 256
        assert peak < 1 << 20
        # about 1.5 ms on a 2-core x86_64 VM, where reading every k to 2^21
        # would take about 200 ms; the best of five keeps a busy host's
        # stalls out
        best = min(timeit.repeat(self.many_level_plan, number=1, repeat=5))
        assert best < 5e-3

    def test_plan_is_logged(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="gbv"):
            spec = self.many_level_plan()
        # a level whose r_n lies past the prefix reads it up to
        # min(1024, delta_n): r_12 = 38 passes the 32 k read for r_4, and
        # the read to 1024 holds every later r_n (r_20 = 231)
        assert [lv.r_n for lv in spec.levels][3::8] == [5, 38, 231]
        assert [r.getMessage() for r in caplog.records] == [
            "counterexample plan: levels=20, kernel read to k=1024"]

    @pytest.mark.parametrize("ladder", [("pow2", None, 1), ("list", [4, 8], 2),
                                        ("list", [4, 12], 2), ("list", [6, 24, 72], 3),
                                        ("list", [64, 1024, 1024, 8192], 4)])
    @pytest.mark.parametrize("eps_base, sep_base", [(0.5, 0.25), (0.5, 0.5), (0.75, 0.25)])
    def test_small_plans_build_and_certify(self, ladder, eps_base, sep_base):
        # [4, 12] at eps_2 = 1/4: 2s - 1 <= eps_2 delta_2 = 3 allows two
        # plateaus, the second closing at 1/2, where level 1 starts
        delta, delta_list, n_levels = ladder
        gauge = GaugePair.build("const", delta, q=1.0, n_max=n_levels, delta_list=delta_list)
        spec = plan_construction(
            "lambda", gauge, n_levels, w_lambda=HARMONIC, w_gamma=CONST1, p=1.0,
            eps=[eps_base ** n for n in range(1, n_levels + 1)],
            sep=[4.0 * sep_base ** n for n in range(1, n_levels + 1)],
            blow=[1.2 ** n for n in range(1, n_levels + 1)])
        f = build_witness(spec)
        rep = certify_blowup(spec, f)  # raises if an increment misses its height
        assert len(rep["levels"]) == n_levels
        for lv in spec.levels:
            # the last plateau closes inside the level's band [2^-n, 2^-(n-1)),
            # or at 1 for level 1
            closing = (f.m >> lv.n) + (2 * lv.t_n - 1) * (f.m // lv.delta_n)
            assert closing < f.m >> (lv.n - 1) or closing == f.m


WEIGHT_KINDS = {
    "constant": lambda k: WeightSequence("constant", value=1.0, k_max=k),
    "harmonic": lambda k: WeightSequence("harmonic", k_max=k),
    "power": lambda k: WeightSequence("power", alpha=0.5, k_max=k),
    "log": lambda k: WeightSequence("log", k_max=k),
    "explicit": lambda k: WeightSequence("explicit", terms=[1, 2, 3, 5, 8], k_max=k),
}


def dense_kernel(kind, top, q, w_lambda=None, w_gamma=None, p=1.0, family=None):
    """``g(k)^{1/q} h(k)`` at every k = 1..top."""
    ks = np.arange(1, top + 1)
    if kind == "lambda":
        g = w_gamma.prefix_sums_at(ks)
        h = SchrammFamily.power(p, w_lambda).partial_inverse_many(ks, 1.0)
    else:
        g, h = ks, family.partial_inverse_many(ks, 1.0)
    return g ** (1.0 / q) * h


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["lambda", "schramm"]),
       lam=st.sampled_from(sorted(WEIGHT_KINDS)), gam=st.sampled_from(sorted(WEIGHT_KINDS)),
       p=st.sampled_from([1.0, 1.5, 2.0]),
       base=st.sampled_from(["power 1", "power 2", "expm1", "explicit"]),
       ladder=st.sampled_from([("const", 2.0), ("linear", None), ("to", 3.0)]),
       deltas=st.lists(st.integers(2, 3000), min_size=1, max_size=6).map(
           lambda ds: [max(d, 2 ** n + 1) for n, d in enumerate(sorted(ds), 1)]),
       blow_base=st.floats(1.01, 3.0), infeasible=st.integers(0, 6))
def test_violation_index_matches_dense_kernel_property(kind, lam, gam, p, base, ladder,
                                                       deltas, blow_base, infeasible):
    """r_n is the first k <= delta_n whose kernel, computed densely here,
    exceeds blow_n; a level with no such k raises at that level, and the
    planner stops there. ``infeasible`` (when 1..len(deltas)) sets that
    level's blow_n to its kernel max, so no k exceeds it. Every delta_n
    exceeds 2^n, so each level's band holds a plateau."""
    n_levels, horizon = len(deltas), 4096
    gauge = GaugePair.build(ladder[0], "list", q=ladder[1], n_max=n_levels,
                            delta_list=deltas)
    if kind == "lambda":
        kw = dict(w_lambda=WEIGHT_KINDS[lam](horizon), w_gamma=WEIGHT_KINDS[gam](horizon), p=p)
    elif base == "explicit":
        kw = dict(family=SchrammFamily("explicit", terms=[[2.0, 1.0], [1.0, 1.5], [0.5, 2.0]],
                                       k_max=horizon))
    else:
        shape = ConvexBase("expm1") if base == "expm1" else ConvexBase("power", p=float(base[-1]))
        kw = dict(family=SchrammFamily("scaled", base=shape, weights=WEIGHT_KINDS[lam](horizon)))
    kernels = [dense_kernel(kind, d, q_n, **kw)
               for (q_n, _), d in zip(gauge.levels(n_levels), deltas)]
    blow = [blow_base ** n for n in range(1, n_levels + 1)]
    if 1 <= infeasible <= n_levels:
        blow[infeasible - 1] = float(kernels[infeasible - 1].max())
    expected = []
    for n, kernel in enumerate(kernels, 1):
        above = np.flatnonzero(kernel > blow[n - 1])
        if len(above) == 0:
            break
        expected.append(int(above[0]) + 1)
    # the least positive separation: no budget falls below it
    args = dict(eps=[1.0] * n_levels, sep=[math.ulp(0.0)] * n_levels, blow=blow, **kw)
    if len(expected) < n_levels:
        with pytest.raises(InfeasibleError, match="no index r") as exc:
            plan_construction(kind, gauge, n_levels, **args)
        assert exc.value.level == len(expected) + 1
        # the levels before it plan alone to the same r_n
        if expected:
            spec = plan_construction(kind, gauge, len(expected), **args)
            assert [lv.r_n for lv in spec.levels] == expected
    else:
        spec = plan_construction(kind, gauge, n_levels, **args)
        assert [lv.r_n for lv in spec.levels] == expected


class TestWitness:
    def test_toy_witness_values(self):
        spec = toy_spec()
        assert witness_resolution(spec) == 8
        f = build_witness(spec)
        # level 1: one plateau of height 50 on [1/2, 3/4);
        # level 2: one plateau of height 25 on [1/4, 3/8)
        assert list(f.values) == [0, 0, 25.0, 0, 50.0, 50.0, 0, 0, 0]

    def test_main_witness_resolution(self):
        spec = main_spec()
        m = witness_resolution(spec)
        assert m == 131072
        f = build_witness(spec)
        assert f.m == m

    def test_resolution_cap(self, monkeypatch):
        monkeypatch.setattr(gbv.counterexample, "GRID_CAP", 1024)
        with pytest.raises(ResolutionError, match="grid lcm exceeds cap 1024 at level 3"):
            witness_resolution(main_spec())

    def test_supports_disjoint(self):
        spec = main_spec()
        f = build_witness(spec)
        # dyadic bands [2^-n, 2^-(n-1)) never overlap, so per-level sums
        # survive addition unchanged
        m = f.m
        for lv in spec.levels:
            band = f.values[m >> lv.n: m >> (lv.n - 1)]
            assert np.max(band) == pytest.approx(lv.height)


class TestCertify:
    def test_toy_membership_exact_matches_bound(self):
        spec = toy_spec()
        f = build_witness(spec)
        rep = certify_membership(spec, f)
        assert rep["total_bound"] == pytest.approx(1.5)
        assert rep["engine"] is not None
        assert rep["engine"]["lower"] <= rep["total_bound"] * (1 + 1e-9)
        direct = variation_weighted(f, spec.w_lambda, spec.p).lower
        assert rep["engine"]["lower"] == pytest.approx(direct)

    def test_toy_blowup_cross_checked(self):
        spec = toy_spec()
        f = build_witness(spec)
        rep = certify_blowup(spec, f)
        assert rep["engine"] is not None
        assert all(r["growth_ok"] and r["floor_ok"] for r in rep["levels"])
        # the designated intervals alone give Gamma-weighted sums far above
        # the Lambda-variation bound of 1.5
        assert rep["max_L"] > 100.0

    def test_main_membership_below_two(self):
        spec = main_spec()
        f = build_witness(spec)
        rep = certify_membership(spec, f)
        assert rep["total_bound"] == pytest.approx(sum(
            2.0 * lv.eps for lv in spec.levels))
        assert rep["total_bound"] < 2.0

    def test_main_blowup_growth(self):
        spec = main_spec()
        f = build_witness(spec)
        rep = certify_blowup(spec, f)
        L = [r["L_n"] for r in rep["levels"]]
        assert all(a < b for a, b in zip(L, L[1:]))
        assert L[3] / L[0] >= 4.0
        assert all(r["growth_ok"] and r["floor_ok"] for r in rep["levels"])

    def test_heights_past_the_ordering_raise(self):
        # phi_2 = x^2 passes phi_1 = 0.01 x past 0.01: the membership bound
        # would not hold on a witness of height 50
        fam = SchrammFamily("explicit", terms=[[0.01, 1.0], [1.0, 2.0]])
        gauge = GaugePair.build("const", "list", q=1.0, n_max=2, delta_list=[64, 1024])
        with pytest.raises(HypothesisError, match=r"^level 1: height 50 exceeds the "
                           r"family's ordering \(ordered_to 0.01\)$"):
            plan_construction("schramm", gauge, 2, family=fam, eps=[0.5, 0.25],
                              sep=[1.0, 0.25], blow=[4.0, 16.0])

    def test_family_ordered_past_its_heights_certifies(self):
        fam = SchrammFamily("explicit", terms=[[1.0, 1.5], [0.8, 1.7], [0.6, 2.0], [0.5, 2.0]])
        gauge = GaugePair.build("const", "list", q=1.0, n_max=2, delta_list=[4, 8])
        spec = plan_construction("schramm", gauge, 2, family=fam, eps=[0.5, 0.25],
                                 sep=[1.0, 0.25], blow=[1.5, 2.25])
        assert max(lv.height for lv in spec.levels) <= fam.ordered_to
        f = build_witness(spec)
        rep = certify_membership(spec, f)  # the exact cross-check runs at m = 8
        assert rep["engine"] is not None and rep["engine"]["lower"] <= rep["total_bound"]
        assert certify_blowup(spec, f)["engine"] is not None

    def test_schramm_membership(self):
        fam = SchrammFamily.power(2.0, HARMONIC)
        gauge = GaugePair.build("const", "list", q=2.0, n_max=2,
                                delta_list=[512, 32768])
        spec = plan_construction("schramm", gauge, 2, family=fam,
                                 blow=[4.0, 16.0])
        f = build_witness(spec)
        rep = certify_membership(spec, f)
        # each level bound is 2 Phi_{r_n}(eps_n Phi_{r_n}^{-1}(1)) and
        # convexity caps it by 2 eps_n
        for row, lv in zip(rep["levels"], spec.levels):
            assert row["bound"] <= 2.0 * lv.eps * (1 + 1e-9)
        blow_rep = certify_blowup(spec, f)
        assert all(r["growth_ok"] and r["floor_ok"]
                   for r in blow_rep["levels"])
