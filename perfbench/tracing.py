"""Spans around gbv's public functions, recorded from the benchmark's side.

``Tracer.install`` wraps each public function of a layer and rebinds the
wrapper wherever a gbv module holds the original, so calls the benchmark
makes and calls one gbv module makes into another (``gbv.cli`` into the
library, ``schramm_norm`` into ``variation_schramm``, the 1.9 cross-check
into ``criterion_schramm``, certification into the variation functionals)
all open a span. Nothing inside gbv changes, and an untraced run never
installs the wrappers. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

import numpy as np

import gbv
import gbv.cli
import gbv.counterexample
import gbv.criteria
import gbv.inequalities
import gbv.sequences
import gbv.stepfn
import gbv.variation

MODULES = (gbv, gbv.variation, gbv.criteria, gbv.counterexample, gbv.stepfn,
           gbv.inequalities, gbv.sequences, gbv.cli)

CRITERIA = ("criterion_lambda_gamma", "criterion_corollary_q", "criterion_union_p",
            "criterion_schramm", "criterion_phi_lambda")
SUITES = ("run_master_suite", "run_wu_suite", "run_holder_suite",
          "run_comparison_suite")
CERTIFY = ("plan_construction", "build_witness", "certify_membership",
           "certify_blowup")
PATHS = ("dp_uncapped", "dp_capped", "gauged", "bnb_exact", "rank_bounds", "norm")


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _path(name, args, kwargs, result):
    """Solver path of a variation call, classified from its inputs and mode."""
    if name == "modulus_of_variation":
        return "dp_capped"
    if name == "variation_unweighted_q":
        f = args[0]
        min_len = _arg(args, kwargs, 3, "min_len", 1)
        s_max = _arg(args, kwargs, 2, "s_max")
        binds = s_max is not None and s_max < f.m // min_len
        return "dp_capped" if binds else "dp_uncapped"
    if name == "variation_gauged":
        return "gauged"
    if name == "schramm_norm":
        return "norm"
    if name == "variation_weighted" and args[1].kind == "constant":
        return "dp_uncapped"
    return "rank_bounds" if result.mode == "bounds" else "bnb_exact"


def _variation_info(name):
    def info(args, kwargs, result):
        out = {"path": _path(name, args, kwargs, result)}
        if out["path"] == "rank_bounds" and result.upper > 0:
            out["gap"] = (result.upper - result.lower) / result.upper
        return out
    return info


def _suite_cases(name):
    params = inspect.signature(getattr(gbv.inequalities, name)).parameters

    def info(args, kwargs, result):
        cases = int(_arg(args, kwargs, 1, "samples", params["samples"].default))
        if name == "run_master_suite":
            cases *= len(result["q_list"])
        elif name == "run_wu_suite":
            q_list = _arg(args, kwargs, 3, "q_list", params["q_list"].default)
            cases *= result["families"] * len(q_list)
        return {"cases": cases}
    return info


def targets():
    """(owner, attribute, span name, info hook) for every traced function."""
    out = []
    for name in ("modulus_of_variation", "variation_unweighted_q", "variation_weighted",
                 "variation_schramm", "variation_gauged", "schramm_norm"):
        out.append((gbv.variation, name, f"variation.{name}", _variation_info(name)))
    for name in CRITERIA:
        out.append((gbv.criteria, name, f"criteria.{name}",
                    lambda a, k, r: {"levels": len(r.levels)}))
    for name in CERTIFY:
        hook = (lambda a, k, r: {"m": r.m}) if name == "build_witness" else None
        out.append((gbv.counterexample, name, f"counterexample.{name}", hook))
    for name in ("ingest", "generate_block"):
        out.append((gbv.stepfn, name, f"stepfn.{name}", None))
    for name in SUITES:
        out.append((gbv.inequalities, name, f"inequalities.{name}", _suite_cases(name)))
    out.append((gbv.sequences.WeightSequence, "__init__", "sequences.WeightSequence", None))
    out.append((gbv.sequences.SchrammFamily, "partial_inverse_many",
                "sequences.partial_inverse_many",
                lambda a, k, r: {"ks": int(np.size(a[1]))}))
    for name in ("main", "parse_weights", "parse_family"):
        out.append((gbv.cli, name, f"cli.{name}", None))
    return out


class Tracer:
    """Records spans ``[name, parent, start, end, info]`` while active."""

    def __init__(self):
        self.spans = []
        self.active = False
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, stack[-1] if stack else None, time.perf_counter(), None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result
        return wrapper

    def install(self):
        for owner, attr, name, info in targets():
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig, info)
            holders = [owner] + [m for m in MODULES
                                 if m is not owner and getattr(m, attr, None) is orig]
            for holder in holders:
                self._restore.append((holder, attr, orig))
                setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, orig in reversed(self._restore):
            setattr(holder, attr, orig)
        self._restore.clear()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump([{"id": i, "name": s[0], "parent": s[1], "start": s[2],
                        "end": s[3], "info": s[4]} for i, s in enumerate(self.spans)], fh)


def summarize(spans):
    """Per-layer metrics from a span list, plus each layer's busy time
    counted once (spans with no ancestor in the same layer)."""
    n = len(spans)
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * n
    ancestors = [frozenset()] * n
    for i, (name, parent, *_rest) in enumerate(spans):
        if parent is not None:
            child[parent] += dur[i]
            ancestors[i] = ancestors[parent] | {spans[parent][0]}

    def layer(name):
        return name.split(".")[0]

    metrics = {}

    def fn_metrics(name, prefix, want=("calls", "busy_s", "self_s")):
        top = [i for i in range(n) if spans[i][0] == name and name not in ancestors[i]]
        values = {"calls": float(len(top)), "busy_s": sum(dur[i] for i in top),
                  "self_s": sum(dur[i] - child[i] for i in range(n) if spans[i][0] == name)}
        for key in want:
            metrics[f"{prefix}.{key}"] = values[key]
        return top

    # variation: each top-level call lands in exactly one path bucket
    buckets = {p: [] for p in PATHS + ("cli",)}
    for i in range(n):
        name = spans[i][0]
        if layer(name) != "variation" or any(layer(a) == "variation" for a in ancestors[i]):
            continue
        key = "cli" if "cli.main" in ancestors[i] else spans[i][4]["path"]
        buckets[key].append(i)
    for key in PATHS:
        metrics[f"variation.{key}.calls"] = float(len(buckets[key]))
        metrics[f"variation.{key}.busy_s"] = sum(dur[i] for i in buckets[key])
    gaps = [spans[i][4]["gap"] for i in buckets["rank_bounds"] if "gap" in spans[i][4]]
    metrics["variation.rank_bounds.gap_rel"] = float(np.mean(gaps)) if gaps else 0.0
    norms = set(buckets["norm"])
    inner = sum(1 for s in spans if s[0] == "variation.variation_schramm" and s[1] in norms)
    metrics["variation.norm.inner_calls"] = inner / len(norms) if norms else 0.0
    metrics["variation.cli.busy_s"] = sum(dur[i] for i in buckets["cli"])

    fn_metrics("sequences.WeightSequence", "sequences.WeightSequence", ("calls", "busy_s"))
    top = fn_metrics("sequences.partial_inverse_many", "sequences.partial_inverse_many",
                     ("calls", "busy_s"))
    metrics["sequences.partial_inverse_many.ks"] = float(sum(spans[i][4]["ks"] for i in top))

    levels = 0
    for name in CRITERIA:
        for i in fn_metrics(f"criteria.{name}", f"criteria.{name}"):
            if not any(layer(a) == "criteria" for a in ancestors[i]):
                levels += spans[i][4]["levels"]
    metrics["criteria.levels"] = float(levels)

    for name in CERTIFY:
        fn_metrics(f"counterexample.{name}", f"counterexample.{name}", ("busy_s",))
    ms = [s[4]["m"] for s in spans if s[0] == "counterexample.build_witness"]
    metrics["counterexample.witness_m"] = float(np.mean(ms)) if ms else 0.0

    for name in ("ingest", "generate_block"):
        fn_metrics(f"stepfn.{name}", f"stepfn.{name}", ("busy_s",))

    cases = 0
    for name in SUITES:
        cases += sum(spans[i][4]["cases"]
                     for i in fn_metrics(f"inequalities.{name}", f"inequalities.{name}",
                                         ("busy_s",)))
    metrics["inequalities.cases"] = float(cases)

    fn_metrics("cli.main", "cli.main")
    fn_metrics("cli.parse_weights", "cli.parse_weights", ("busy_s",))
    fn_metrics("cli.parse_family", "cli.parse_family", ("busy_s",))

    layer_busy = {}
    for i in range(n):
        lay = layer(spans[i][0])
        if not any(layer(a) == lay for a in ancestors[i]):
            layer_busy[lay] = layer_busy.get(lay, 0.0) + dur[i]
    return metrics, layer_busy
