"""One workload in one process: set-up, reference pass, timed passes, gate.

Started by run.py; prints one JSON object on its last stdout line. Roles:

* ``setup``  -- import gbv, build the workload and its first pass, report
  the set-up time and exit (run.py starts several to take a median);
* ``run``    -- set up, replay the reference pass, then run timed passes
  for ``--seconds`` (with ``--trace 1``: half untraced, half traced);
* ``record`` -- replay the reference pass and write its answers to
  reference.json (run once at the commit that defines the benchmark).

The generator is closed-loop: one thread issues the next call when the
previous one returns. Thread pools of BLAS/OpenMP are pinned to one thread
before numpy is imported.
"""

import os
import sys
import time

T0 = time.perf_counter()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402

import gate  # noqa: E402

#: seed of the reference pass; its answers are recorded in reference.json
REFERENCE_SEED = 20170112
REFERENCE_FILE = os.path.join(HERE, "reference.json")
OUT_DIR = os.path.join(ROOT, ".perfbench")


def pass_rng(seed, index):
    import numpy as np
    return np.random.default_rng([seed % (1 << 63), index])


class Runner:
    """Times calls, then gates and summarises each answer outside the timing."""

    def __init__(self, workload, probe):
        self.workload = workload
        self.probe = probe
        self.tracer = None
        self.problems = []      # (call id, message) for every failed call
        self.exact = 0          # variation/norm answers whose mode is exact
        self.graded = 0         # variation/norm answers seen
        self.gaps = []          # (upper - lower)/upper of bounds-mode answers
        self.failed = 0         # calls with at least one problem
        self.fixed_reference = {}

    def time_call(self, call):
        out = err = None
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            if call.kind == "cli":
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    out = call.func()
            else:
                out = call.func()
        except Exception as exc:  # a failed call is counted, the run goes on
            err = exc
        dt = time.perf_counter() - start
        return (start + dt / 2, dt), out, err

    def run_pass(self, calls, reference=None):
        """Run one pass; return ((midpoint, seconds) per call, summaries).
        ``reference`` maps call ids to answers this pass must reproduce."""
        times, summaries = [], []
        for call in calls:
            if call.kind == "cli" and os.path.exists(self.workload.report):
                os.remove(self.workload.report)
            if self.probe.due():
                self.probe.sample()
            timing, out, err = self.time_call(call)
            times.append(timing)
            if call.kind == "cli":
                # each real CLI call is a fresh process; collecting the cycles
                # a call leaves (exception tracebacks hold its 8 MB weight
                # arrays) keeps that memory out of the next call
                gc.collect()
            if self.tracer is not None:
                self.tracer.active = False
            summary, problems = self.evaluate(call, out, err)
            ref = (reference or {}).get(call.id)
            if ref is not None:
                problems += gate.compare_reference(summary, ref)
            if self.tracer is not None:
                self.tracer.active = True
            self.problems += [(call.id, p) for p in problems]
            self.failed += bool(problems)
            summaries.append(summary)
        return times, summaries

    def _grade(self, exact, lower=None, upper=None):
        self.graded += 1
        self.exact += bool(exact)
        if not exact and upper:
            self.gaps.append((upper - lower) / upper)

    def _variation(self, call, res, summary):
        summary.update({k: res[k] for k in ("mode", "value", "lower", "upper")})
        self._grade(res["mode"] != "bounds", res["lower"], res["upper"])
        return gate.check_variation(call.obj, call.values, res)

    def _norm(self, call, norm, summary, f, family, cap):
        import gbv.variation
        var = gbv.variation.variation_schramm(f, family, oracle_cap=cap).to_json_dict()
        exact = f.m <= cap
        summary.update({"norm": norm, "norm_exact": exact})
        self._grade(exact)
        return (gate.check_variation(call.obj, call.values, var)
                + gate.check_norm(call.obj, call.values, norm, var))

    def evaluate(self, call, out, err):
        summary = {"id": call.id}
        if err is not None:
            return summary, [f"raised {type(err).__name__}: {err}"]
        if call.kind == "variation":
            return summary, self._variation(call, out.to_json_dict(), summary)
        if call.kind == "norm":
            return summary, self._norm(call, out, summary, call.aux["f"],
                                       call.aux["family"], call.aux["oracle_cap"])
        summary["code"] = out
        if out != call.aux["expect"]:
            return summary, [f"exit code {out}, expected {call.aux['expect']}"]
        if out != 0:
            return summary, []
        with open(self.workload.report) as fh:
            result = json.load(fh)["result"]
        command = call.aux["argv"][0]
        if command == "variation":
            return summary, self._variation(call, result, summary)
        if command == "norm":
            import gbv
            f = gbv.StepFunction(call.values)
            family = gbv.SchrammFamily.from_config(json.loads(self.workload.FAM_POWER))
            return summary, self._norm(call, result["norm"], summary, f, family,
                                       call.aux["oracle_cap"])
        if command == "criterion":
            summary.update({"verdict": result["verdict"],
                            "a_n": [lv["a_n"] for lv in result["levels"]]})
        elif command == "counterexample":
            rows = result["blowup"]["levels"]
            summary.update({"floor_ok": [r["floor_ok"] for r in rows],
                            "growth_ok": [r["growth_ok"] for r in rows]})
        elif command == "inequality":
            summary["failures"] = result["failures"]
            if result["failures"]:
                return summary, [f"{result['failures']} inequality failures"]
        return summary, []


def timed_passes(runner, workload, seed, first_index, seconds, first_calls=None):
    """Closed loop over whole passes until ``seconds`` of wall time passed.
    Returns scaled call seconds, per-pass call rates, the next pass index
    and the wall time."""
    passes = []
    index = first_index
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        calls = first_calls if first_calls is not None else workload.make_pass(
            pass_rng(seed, index))
        first_calls = None
        passes.append(runner.run_pass(calls, runner.fixed_reference)[0])
        index += 1
    wall = time.perf_counter() - start
    runner.probe.sample()
    scaled = [runner.probe.scale(timings) for timings in passes]
    rates = [len(times) / sum(times) for times in scaled]
    return [t for times in scaled for t in times], rates, index, wall


def load_reference(name):
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)[name]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "run", "record"), default="run")
    args = ap.parse_args(argv)

    import numpy
    import gbv  # noqa: F401  (the set-up cost users pay)
    import workloads
    import_s = time.perf_counter() - T0
    import speed

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}")
    tmpdir = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(tmpdir, exist_ok=True)
    try:
        t = time.perf_counter()
        workload = workloads.WORKLOADS[args.workload](tmpdir)
        first = workload.make_pass(pass_rng(args.seed, 1))
        inputs_s = time.perf_counter() - t
        probe = speed.SpeedProbe(workload.PROBE)
        slowness = probe.sample(repeats=3)
        setup = {"import_s": import_s / slowness, "inputs_s": inputs_s / slowness,
                 "setup_s": (import_s + inputs_s) / slowness}
        if args.role == "setup":
            print(json.dumps({"setup": setup}))
            return 0

        runner = Runner(workload, probe)
        ref_calls = workload.make_pass(pass_rng(REFERENCE_SEED, 0))
        _, summaries = runner.run_pass(ref_calls)
        if args.role == "record":
            doc = {}
            if os.path.exists(REFERENCE_FILE):
                with open(REFERENCE_FILE) as fh:
                    doc = json.load(fh)
            doc[args.workload] = summaries
            with open(REFERENCE_FILE, "w") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(json.dumps({"recorded": len(summaries), "problems": runner.problems}))
            return 0 if not runner.problems else 1
        reference = load_reference(args.workload)
        if len(reference) != len(summaries):
            runner.problems.append(("reference", "reference pass has a different call list"))
        for got, ref in zip(summaries, reference):
            runner.problems += [(got["id"], "reference: " + p)
                                for p in gate.compare_reference(got, ref)]
        fixed_ids = {c.id for c in ref_calls if c.fixed}
        runner.fixed_reference = {r["id"]: r for r in reference if r["id"] in fixed_ids}
        runner.failed = 0

        seconds = args.seconds / 2 if args.trace else args.seconds
        times, rates, index, _ = timed_passes(runner, workload, args.seed, 1,
                                                 seconds, first)
        result = {"setup": setup, "numpy": numpy.__version__,
                  "python": sys.version.split()[0]}
        per_layer, attempted = None, len(times)
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            runner.tracer = tracer
            tracer.install()
            tracer.active = True
            try:
                t_times, t_rates, _, t_wall = timed_passes(runner, workload, args.seed,
                                                           index, seconds)
            finally:
                tracer.active = False
                tracer.uninstall()
            per_layer, layer_busy = tracing.summarize(tracer.spans)
            per_layer["trace.overhead_rel"] = (statistics.median(rates)
                                               / statistics.median(t_rates) - 1.0)
            result.update({"layer_busy": layer_busy, "traced_wall_s": t_wall,
                           "traced_calls": len(t_times)})
            attempted += len(t_times)
            tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json"))

        ms = sorted(t * 1000.0 for t in times)
        q = statistics.quantiles(ms, n=100, method="inclusive")
        result.update({
            "attempted": attempted,
            "failed": runner.failed,
            "correct": not runner.problems,
            "problems": [f"{cid}: {msg}" for cid, msg in runner.problems[:20]],
            "passes": len(rates),
            "metrics": {
                "calls_per_s": statistics.median(rates),
                "call_p50_ms": q[49],
                "call_p90_ms": q[89],
                "exact_share": runner.exact / runner.graded if runner.graded else 1.0,
                "bound_gap_rel": sum(runner.gaps) / len(runner.gaps) if runner.gaps else 0.0,
                "failed_share": runner.failed / attempted,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            },
            "per_layer": per_layer,
        })
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
