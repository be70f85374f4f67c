"""Correctness gate: every answer the benchmark times is checked here.

The checks use the benchmark's own objective code, evaluated from the
sampled values and the reported witness, and never the engine's. Results
on grids with m <= ORACLE_M are also compared with the brute-force
oracles in ``tests/oracles.py``, which share no code with the engine.
Nothing here runs inside a timed call.

A check returns a list of problems; an empty list means the answer passed.
"""

from __future__ import annotations

import math

import oracles

#: witness re-evaluation must match ``lower`` within this relative tolerance
WITNESS_RTOL = 1e-9
#: exact values must match the reference within this relative tolerance
EXACT_RTOL = 1e-9
#: criterion a_n values must match the reference within this tolerance
CRITERION_RTOL = 1e-8
#: norm agreement with V(f/c) = c^-p V(f) for scaled power families
NORM_RTOL = 1e-8
#: largest grid checked against the brute-force oracles
ORACLE_M = 8
_ORDER_SLACK = 1e-12


def close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# the benchmark's own objective code

def weight(spec, j):
    """lam_j (1-based) for a weight spec dict: kind plus alpha/value."""
    kind = spec["kind"]
    if kind == "constant":
        return float(spec.get("value", 1.0))
    if kind == "harmonic":
        return float(j)
    if kind == "power":
        return float(j) ** spec["alpha"]
    if kind == "log":
        return j / math.log(j + 1.0)
    raise ValueError(f"no weight formula for kind {kind!r}")


def phi(obj, j, x):
    """phi_j(x) of a Schramm family spec (scaled power or explicit)."""
    if obj["family"] == "power":
        return x ** obj["p"] / weight(obj["weights"], j)
    terms = obj["terms"]
    c, e = terms[min(j, len(terms)) - 1]
    return c * x ** e


def objective(obj, incs, level=None):
    """Value of the functional described by ``obj`` on a witness whose
    increments are ``incs``; ranks go to increments in descending order."""
    xs = sorted(incs, reverse=True)
    kind = obj["kind"]
    if kind == "modulus":
        return math.fsum(xs)
    if kind == "q":
        return math.fsum(x ** obj["q"] for x in xs) ** (1.0 / obj["q"])
    if kind == "weighted":
        p = obj["p"]
        return math.fsum(x ** p / weight(obj["weights"], j)
                         for j, x in enumerate(xs, 1)) ** (1.0 / p)
    if kind == "schramm":
        return math.fsum(phi(obj, j, x) for j, x in enumerate(xs, 1))
    if kind == "gauged":
        q = obj["qn"][level - 1]
        return math.fsum(x ** q / weight(obj["weights"], j)
                         for j, x in enumerate(xs, 1)) ** (1.0 / q)
    raise ValueError(f"unknown objective kind {kind!r}")


def oracle_value(obj, values):
    """Brute-force value from tests/oracles.py for a grid with m <= ORACLE_M."""
    vals = [float(v) for v in values]
    m = len(vals) - 1
    kind = obj["kind"]
    lam = [weight(obj.get("weights", {"kind": "constant"}), j)
           for j in range(1, m + 2)]
    if kind == "modulus":
        return oracles.oracle_modulus(vals, obj["n"])
    if kind == "q":
        s_max = obj.get("s_max") or m
        return oracles.oracle_unweighted_q(vals, obj["q"], s_max,
                                           obj.get("min_len", 1))
    if kind == "weighted":
        return oracles.oracle_weighted(vals, lam, obj["p"])
    if kind == "schramm":
        phis = [lambda x, j=j: phi(obj, j, x) for j in range(1, m + 2)]
        return oracles.oracle_schramm(vals, phis)
    if kind == "gauged":
        return oracles.oracle_gauged(vals, lam, obj["qn"], obj["deltas"],
                                     obj["n_cap"])
    raise ValueError(f"unknown objective kind {kind!r}")


# ---------------------------------------------------------------------------
# per-answer checks

def check_variation(obj, values, res):
    """``res`` is a VariationResult as its JSON dict (value, mode, lower,
    upper, level, witness.pairs)."""
    problems = []
    m = len(values) - 1
    value, lower, upper = res["value"], res["lower"], res["upper"]
    slack = _ORDER_SLACK * max(abs(upper), 1.0)
    if not (lower <= value + slack and value <= upper + slack):
        problems.append(f"order violated: lower={lower!r} value={value!r} "
                        f"upper={upper!r}")
    if res["mode"] != "bounds" and lower != upper:
        problems.append(f"exact result with lower {lower!r} != upper {upper!r}")
    pairs = [tuple(p) for p in res["witness"]["pairs"]]
    prev_end = 0
    for a, b in pairs:
        if not 0 <= a < b <= m:
            problems.append(f"interval ({a}, {b}) outside grid 0..{m}")
        if a < prev_end:
            problems.append(f"interval ({a}, {b}) overlaps the previous one")
        prev_end = b
    if problems:
        return problems
    cap = obj.get("n") if obj["kind"] == "modulus" else obj.get("s_max")
    if cap is not None and len(pairs) > cap:
        problems.append(f"{len(pairs)} intervals exceed the count cap {cap}")
    min_len = obj.get("min_len", 1)
    level = res.get("level")
    if obj["kind"] == "gauged" and pairs:
        if level is None:
            problems.append("gauged result with a witness but no level")
            return problems
        min_len = max(1, math.ceil(m / obj["deltas"][level - 1]))
    short = [(a, b) for a, b in pairs if b - a < min_len]
    if short:
        problems.append(f"intervals {short} shorter than min_len {min_len}")
    incs = [abs(float(values[b]) - float(values[a])) for a, b in pairs]
    witness_value = objective(obj, incs, level) if pairs else 0.0
    if not close(witness_value, lower, WITNESS_RTOL):
        problems.append(f"witness re-evaluates to {witness_value!r}, "
                        f"lower is {lower!r}")
    if m <= ORACLE_M:
        truth = oracle_value(obj, values)
        if res["mode"] == "bounds":
            tol = WITNESS_RTOL * max(abs(truth), 1.0)
            if not lower - tol <= truth <= upper + tol:
                problems.append(f"oracle {truth!r} outside [{lower!r}, {upper!r}]")
        elif not close(value, truth, EXACT_RTOL):
            problems.append(f"value {value!r} differs from oracle {truth!r}")
    return problems


def check_norm(obj, values, norm, var):
    """Scaled power family: V(f/c) = c^-p V(f), so an exact norm must equal
    |f(a)| + V(f)^(1/p) (``var`` is the VariationResult JSON dict of f at
    the same ``oracle_cap``, already gated). A bounds-mode norm bisects on
    a lower bound that is not exactly scale-equivariant, so only the
    certified ceiling |f(a)| + upper^(1/p) is checked for it."""
    p = obj["p"]
    f_a = abs(float(values[0]))
    problems = []
    if var["mode"] == "bounds":
        ceiling = f_a + var["upper"] ** (1.0 / p)
        if not f_a <= norm <= ceiling * (1 + NORM_RTOL):
            problems.append(f"norm {norm!r} outside [|f(a)|, |f(a)| + upper^(1/p)] "
                            f"= [{f_a!r}, {ceiling!r}]")
        return problems
    expected = f_a + var["value"] ** (1.0 / p)
    if not close(norm, expected, NORM_RTOL):
        problems.append(f"norm {norm!r} != |f(a)| + V^(1/p) = {expected!r}")
    if len(values) - 1 <= ORACLE_M:
        c = norm - abs(float(values[0]))
        scaled = [float(v) / c for v in values]
        truth = oracle_value({**obj, "kind": "schramm"}, scaled)
        if not close(truth, 1.0, NORM_RTOL):
            problems.append(f"oracle V(f/c) = {truth!r} at the norm, not 1")
    return problems


# ---------------------------------------------------------------------------
# comparison with results recorded at the commit that defined the benchmark

def compare_reference(got, ref):
    """Compare one summarised answer with its recorded reference."""
    if got.get("id") != ref.get("id"):
        return [f"call {got.get('id')!r} does not match reference {ref.get('id')!r}"]
    problems = []
    if got.get("code") != ref.get("code"):
        problems.append(f"exit code {got.get('code')} != reference {ref.get('code')}")
    if "mode" in ref:
        if ref["mode"] != "bounds" and got.get("mode") != "bounds":
            if not close(got["value"], ref["value"], EXACT_RTOL):
                problems.append(f"exact value {got['value']!r} != reference "
                                f"{ref['value']!r}")
        else:
            # a later commit may tighten certified bounds, but a bracket that
            # misses the recorded one is wrong
            tol = EXACT_RTOL * max(abs(ref["upper"]), 1.0)
            if got["lower"] > ref["upper"] + tol or got["upper"] < ref["lower"] - tol:
                problems.append(f"interval [{got['lower']!r}, {got['upper']!r}] "
                                f"misses reference [{ref['lower']!r}, {ref['upper']!r}]")
    if "norm" in ref and ref.get("norm_exact") and got.get("norm_exact"):
        if not close(got["norm"], ref["norm"], EXACT_RTOL):
            problems.append(f"norm {got['norm']!r} != reference {ref['norm']!r}")
    if "a_n" in ref:
        if got.get("verdict") != ref["verdict"]:
            problems.append(f"verdict {got.get('verdict')!r} != {ref['verdict']!r}")
        a, b = got.get("a_n", []), ref["a_n"]
        if len(a) != len(b) or not all(close(x, y, CRITERION_RTOL)
                                       for x, y in zip(a, b)):
            problems.append("criterion a_n differ from reference")
    for key in ("floor_ok", "growth_ok"):
        if key in ref and got.get(key) != ref[key]:
            problems.append(f"{key} {got.get(key)} != reference {ref[key]}")
    if "failures" in ref and got.get("failures") != 0:
        problems.append(f"inequality suite reported {got.get('failures')} failures")
    return problems
