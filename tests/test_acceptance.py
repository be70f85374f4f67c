"""End-to-end acceptance checks, one test per criterion.

Each test prints a single machine-greppable PASS/FAIL line of the form
``[acceptance NN] PASS detail`` so the whole gate can be audited from the
captured output of one pytest run.
"""

import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import oracles
from gbv import (GaugePair, HypothesisError, InfeasibleError, SchrammFamily,
                 StepFunction, WeightSequence, build_witness, certify_blowup,
                 certify_membership, check_holder_branch, criterion_schramm,
                 criterion_union_p, criterion_lambda_gamma, extremal_profile,
                 modulus_of_variation, paper_constants, plan_construction,
                 variation_gauged, variation_schramm, variation_unweighted_q,
                 variation_weighted)
from gbv.inequalities import (monotone_vector, run_holder_suite,
                              run_master_suite, run_wu_suite)

SEED = 20260823
KM = 1 << 13

HARMONIC = WeightSequence("harmonic", k_max=KM)
CONST1 = WeightSequence("constant", value=1.0, k_max=KM)


def report(num, ok, detail):
    line = f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def seeded_functions(count, m_max, seed=SEED):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        m = int(rng.integers(3, m_max + 1))
        out.append(StepFunction(rng.integers(-4, 5, size=m + 1) / 4.0))
    return out


def test_01_master_inequality_suite():
    t0 = time.monotonic()
    rep = run_master_suite(SEED, samples=10000,
                           q_list=(1.0, 1.5, 2.0, 3.0, 10.0), n_max=64)
    elapsed = time.monotonic() - t0
    ok = rep["failures"] == 0 and elapsed < 30.0
    report(1, ok, f"50000 triples, failures={rep['failures']}, "
                  f"worst_margin={rep['worst_margin']:.12f}, "
                  f"elapsed={elapsed:.1f}s")


def test_02_extremal_structure():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    worst_rel = 0.0
    tighten_ok = True
    for _ in range(20):
        n = int(rng.integers(1, 6))
        y = monotone_vector(rng, n)
        z = monotone_vector(rng, n)
        for q in (1.0, 2.0):
            coarse = extremal_profile(n, y, z, q, grid=24)
            fine = extremal_profile(n, y, z, q, grid=48)
            gap_c = coarse["closed_form"] - coarse["grid_max"]
            gap_f = fine["closed_form"] - fine["grid_max"]
            worst_rel = max(worst_rel, gap_c / coarse["closed_form"])
            tighten_ok &= gap_f <= gap_c + 1e-12
    elapsed = time.monotonic() - t0
    ok = worst_rel <= 0.02 and tighten_ok and elapsed < 120.0
    report(2, ok, f"20 families x q in (1,2), worst_rel_gap={worst_rel:.3g}, "
                  f"refinement_tightens={tighten_ok}, elapsed={elapsed:.1f}s")


def test_03_oracle_equivalence():
    t0 = time.monotonic()
    lam12 = [float(j) for j in range(1, 13)]
    fam = SchrammFamily.power(2.0, HARMONIC)
    phis = [lambda x, j=j: x ** 2 / j for j in range(1, 13)]
    qn, deltas = [1.0, 2.0, 3.0], [2, 4, 8]
    gauge = GaugePair(qn, deltas)
    rng = np.random.default_rng(SEED)
    worst = 0.0

    def gap(engine, oracle):
        return abs(engine - oracle) / max(1.0, abs(oracle))

    for f in seeded_functions(200, 10):
        v = list(f.values)
        m = f.m
        n = int(rng.integers(1, m + 1))
        worst = max(worst, gap(modulus_of_variation(f, n).lower,
                               oracles.oracle_modulus(v, n)))
        q = float(rng.choice([1.0, 1.5, 2.0]))
        worst = max(worst, gap(variation_unweighted_q(f, q).lower,
                               oracles.oracle_unweighted_q(v, q, m)))
        worst = max(worst, gap(variation_weighted(f, HARMONIC, 1.0).lower,
                               oracles.oracle_weighted(v, lam12, 1.0)))
        worst = max(worst, gap(variation_schramm(f, fam).lower,
                               oracles.oracle_schramm(v, phis)))
        worst = max(worst, gap(variation_gauged(f, HARMONIC, gauge, 3).lower,
                               oracles.oracle_gauged(v, lam12, qn, deltas, 3)))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and elapsed < 300.0
    report(3, ok, f"200 functions x 5 functionals, worst_rel_gap={worst:.3g}, "
                  f"elapsed={elapsed:.1f}s")


def test_04_rearrangement_optimality():
    rng = np.random.default_rng(SEED)
    gain_families = [
        [lambda x, j=j: x * Fraction(1, j) for j in range(1, 7)],
        [lambda x, j=j: x * x * Fraction(1, j) for j in range(1, 7)],
    ]
    beaten = 0
    for _ in range(100):
        k = int(rng.integers(1, 7))
        xs = sorted((Fraction(int(v), 4)
                     for v in rng.integers(0, 9, size=k)), reverse=True)
        for gains in gain_families:
            descending = sum(gains[j](xs[j]) for j in range(k))
            best = oracles.best_rank_assignment(xs, gains)
            if best != descending:
                beaten += 1
    report(4, beaten == 0,
           f"100 collections x 2 gain families, exhaustive over <= 720 "
           f"permutations in exact rational arithmetic, beaten={beaten}")


def test_05_corollary_2_2():
    worst = 0.0
    for f in seeded_functions(200, 10):
        for lam in (HARMONIC, CONST1):
            V = variation_weighted(f, lam, 1.0).lower
            for n in range(1, f.m + 1):
                nu = modulus_of_variation(f, n).lower
                bound = V * n / lam.prefix_sum(n)
                if bound > 0:
                    worst = max(worst, nu / bound)
                else:
                    assert nu == 0.0
    ok = worst <= 1.0 + 1e-9
    report(5, ok, f"200 functions, harmonic and constant Lambda, all n <= m, "
                  f"worst nu/bound={worst:.12f}")


def test_06_theorem_1_4_sufficiency():
    configs = [
        ("harmonic/harmonic p=1 q=1", HARMONIC, HARMONIC, 1.0,
         GaugePair.build("const", "pow2", q=1.0, n_max=12)),
        ("constant/harmonic p=2 q=2", CONST1, HARMONIC, 2.0,
         GaugePair.build("const", "pow2", q=2.0, n_max=12)),
        ("harmonic/constant p=1 q=(1,2,2,...)", HARMONIC, CONST1, 1.0,
         GaugePair.build("list", "pow2", qn_list=[1.0] + [2.0] * 11)),
    ]
    details = []
    ok = True
    for idx, (name, lam, gam, p, gauge) in enumerate(configs):
        c_star = criterion_lambda_gamma(lam, gam, p, gauge, 12).sup
        worst = 0.0
        for f in seeded_functions(100, 12, seed=SEED + idx):
            vg = variation_gauged(f, gam, gauge, 12).lower
            vw = variation_weighted(f, lam, p).lower
            if vw == 0.0:
                ok &= vg == 0.0
                continue
            worst = max(worst, vg / vw)
        ok &= worst <= c_star * (1 + 1e-9)
        details.append(f"{name}: C*={c_star:.4f} worst={worst:.4f}")
    report(6, ok, "; ".join(details))


def _toy_lambda_spec():
    gauge = GaugePair.build("const", "list", q=1.0, n_max=2, delta_list=[4, 8])
    return plan_construction(
        "lambda", gauge, 2,
        w_lambda=WeightSequence("constant", value=100.0, k_max=KM),
        w_gamma=WeightSequence("constant", value=0.01, k_max=KM),
        p=1.0, eps=[0.5, 0.25], sep=[8.0, 16.0], blow=[4.0, 16.0])


def test_07_necessity_construction_lambda():
    big = WeightSequence("harmonic", k_max=1 << 18)
    big_c = WeightSequence("constant", value=1.0, k_max=1 << 18)
    gauge = GaugePair.build("const", "list", q=1.0, n_max=4,
                            delta_list=[64, 1024, 8192, 131072])
    eps, sep, _ = paper_constants(4)
    spec = plan_construction("lambda", gauge, 4, w_lambda=big, w_gamma=big_c,
                             p=1.0, eps=eps, sep=sep,
                             blow=[4.0 ** n for n in range(1, 5)])
    f = build_witness(spec)
    membership = certify_membership(spec, f)
    blowup = certify_blowup(spec, f)
    L = [r["L_n"] for r in blowup["levels"]]
    bound = membership["total_bound"]

    toy = _toy_lambda_spec()
    tf = build_witness(toy)
    toy_membership = certify_membership(toy, tf)
    toy_blowup = certify_blowup(toy, tf)

    ok = (bound == pytest.approx(sum(2.0 * e for e in eps))
          and bound < 2.0
          and all(a < b for a, b in zip(L, L[1:]))
          and L[3] / L[0] >= 4.0
          and all(r["growth_ok"] and r["floor_ok"] for r in blowup["levels"])
          and toy_membership["engine"] is not None
          and toy_blowup["engine"] is not None)
    report(7, ok, f"N=1..4 membership bound={bound:.4f} < 2, "
                  f"L={['%.2f' % x for x in L]}, L4/L1={L[3] / L[0]:.2f}, "
                  f"oracle cross-check at m={tf.m}: "
                  f"engine lower={toy_membership['engine']['lower']:.4f} <= "
                  f"{toy_membership['total_bound']:.4f}")


def test_08_theorem_1_8_both_directions():
    t0 = time.monotonic()
    diverging_fam = SchrammFamily.power(2.0, HARMONIC)
    rep_div = criterion_schramm(diverging_fam,
                                GaugePair.build("const", "pow2", q=2.0,
                                                n_max=12), 12)
    gauge = GaugePair.build("const", "list", q=2.0, n_max=2,
                            delta_list=[512, 32768])
    big_fam = SchrammFamily.power(
        2.0, WeightSequence("harmonic", k_max=1 << 16))
    spec = plan_construction("schramm", gauge, 2, family=big_fam,
                             blow=[4.0, 16.0])
    f = build_witness(spec)
    blowup = certify_blowup(spec, f)
    feasible_ok = all(r["growth_ok"] and r["floor_ok"]
                      for r in blowup["levels"])

    bounded_fam = SchrammFamily.power(1.0, CONST1)
    rep_bnd = criterion_schramm(bounded_fam,
                                GaugePair.build("linear", "pow2", n_max=12), 12)
    try:
        plan_construction("schramm",
                          GaugePair.build("linear", "pow2", n_max=12), 12,
                          family=bounded_fam)
        infeasible_ok = False
    except InfeasibleError:
        infeasible_ok = True
    elapsed = time.monotonic() - t0
    ok = (rep_div.verdict == "diverging-trend" and feasible_ok
          and rep_bnd.verdict == "bounded-up-to-horizon" and infeasible_ok
          and elapsed < 120.0)
    report(8, ok, f"x^2/j: {rep_div.verdict} + feasible construction "
                  f"(m={f.m}); x constant family: {rep_bnd.verdict} + "
                  f"InfeasibleError, elapsed={elapsed:.1f}s")


def test_09_wu_estimate():
    families = [
        SchrammFamily.power(2.0, HARMONIC),
        SchrammFamily.power(1.0, HARMONIC),
        SchrammFamily.power(2.0, WeightSequence("power", alpha=0.5, k_max=KM)),
    ]
    rep = run_wu_suite(SEED, 1667, families, q_list=(1.0, 2.0), n_max=32)
    cases = 1667 * 2 * 3
    ok = rep["failures"] == 0 and cases >= 10000
    report(9, ok, f"{cases} cases over 3 families, failures={rep['failures']}, "
                  f"worst ratio without the constant 16: "
                  f"{rep['worst_ratio_without_16']:.6f}")


def test_10_holder_branch():
    rep = run_holder_suite(SEED, 10000, HARMONIC, CONST1, p=2.0, q_n=1.0,
                           n_max=32)
    try:
        check_holder_branch(np.array([2.0, 1.0]), CONST1, HARMONIC,
                            p=2.0, q_n=1.0)
        rejected = None
    except HypothesisError as exc:
        rejected = exc.index
    ok = rep["failures"] == 0 and rejected == 2
    report(10, ok, f"10000 cases, failures={rep['failures']}, "
                   f"worst_margin={rep['worst_margin']:.6f}; decreasing "
                   f"Gamma/Lambda rejected at index {rejected}")


def test_11_corollary_1_7():
    big_h = WeightSequence("harmonic", k_max=1 << 20)
    big_c = WeightSequence("constant", value=1.0, k_max=1 << 20)
    cases = []
    ok = True
    for lam in (big_h, big_c):
        for p, gauge in [
            (1.0, GaugePair.build("to", "pow2", q=2.0, n_max=20)),
            (1.5, GaugePair.build("to", "pow2", q=2.0, n_max=20)),
            (2.0, GaugePair.build("linear", "pow2", n_max=20)),
        ]:
            rep = criterion_union_p(lam, p, gauge, 20)
            ok &= rep.verdict == "bounded-up-to-horizon"
            cases.append(f"({lam.kind}, p={p}, q={gauge.q_limit}): sup="
                         f"{rep.sup:.4f}")
    report(11, ok, "; ".join(cases))


def test_12_determinism():
    def dumps(doc):
        return json.dumps(doc, sort_keys=True)

    pairs = []
    for _ in range(2):
        master = run_master_suite(SEED, samples=300, q_list=(2.0,), n_max=16)
        wu = run_wu_suite(SEED, 300, [SchrammFamily.power(2.0, HARMONIC)])
        crit = criterion_lambda_gamma(
            HARMONIC, CONST1, 1.0,
            GaugePair.build("const", "pow2", q=1.0, n_max=10), 10)
        toy = _toy_lambda_spec()
        cert = certify_blowup(toy, build_witness(toy))
        pairs.append((dumps(master), dumps(wu), dumps(crit.to_json_dict()),
                      dumps(cert)))
    ok = pairs[0] == pairs[1]
    report(12, ok, "master, wu, criterion and counterexample reports are "
                   "byte-identical across reruns")
