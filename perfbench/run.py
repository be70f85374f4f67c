"""gbv benchmark: one workload, seeded, closed-loop, with a correctness gate.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload dp-exact --seed 1 --seconds 20 --trace 0

Workloads: dp-exact, rank-solve, cli-scan (see perfbench/README.md). The
workload runs in its own process (worker.py), so set-up time and peak RSS
belong to it; set-up is also measured in SETUP_PROBES further fresh
processes and reported as the median. Prints machine information and a
table of every metric with its unit, then, as the last line, one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones from a traced run. Exits non-zero without a result when
the program cannot be run.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dp-exact", "rank-solve", "cli-scan")
SETUP_PROBES = 4
#: whole-run limit, below the 180 s a run may take
RUN_TIMEOUT_S = 170
THREAD_ENV = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                   "VECLIB_MAXIMUM_THREADS")}

#: end-to-end metrics of the untraced run: (unit, better). The last three
#: are printed but not in BENCHMARK.json: exact_share reads the same on
#: every run by design, and bound_gap_rel/failed_share are 0 on most
#: workloads; the JSON line carries them as `failed`/`attempted` and the
#: traced run as per-layer metrics.
END_TO_END = {
    "setup_s": ("s", "lower"), "calls_per_s": ("1/s", "higher"),
    "call_p50_ms": ("ms", "lower"), "call_p90_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "exact_share": ("ratio", "higher"), "bound_gap_rel": ("ratio", "lower"),
    "failed_share": ("ratio", "lower"),
}
IN_JSON = ("setup_s", "calls_per_s", "call_p50_ms", "call_p90_ms", "peak_rss_mb")


def per_layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_rel", "_share")):
        return "ratio"
    return "count"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def worker(args, role, timeout):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role]
    proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **THREAD_ENV},
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker ({role}) exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description="gbv benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    for need in (os.path.join("src", "gbv", "__init__.py"), os.path.join("tests", "oracles.py")):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise SystemExit(f"{need} not found under {ROOT}: nothing to benchmark")

    start = time.monotonic()
    probes = [worker(args, "setup", RUN_TIMEOUT_S)["setup"] for _ in range(SETUP_PROBES)]
    res = worker(args, "run", max(10, RUN_TIMEOUT_S - (time.monotonic() - start)))
    probes.append(res["setup"])
    setup = {k: statistics.median(p[k] for p in probes) for k in probes[0]}
    metrics = dict(res["metrics"], setup_s=setup["setup_s"])

    print(f"machine: nproc={os.cpu_count()} cpu={cpu_model()!r} "
          f"python={res['python']} numpy={res['numpy']}")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} passes={res['passes']} timed_calls={res['attempted']} "
          f"setup_samples={len(probes)}")
    for name, (unit, better) in END_TO_END.items():
        print(f"  {name:<14} {metrics[name]:>14.6g} {unit:<6} ({better} is better)")
    for problem in res["problems"]:
        print(f"  GATE FAILED {problem}")

    if args.trace:
        out = dict(res["per_layer"])
        out["setup.import_s"] = setup["import_s"]
        out["setup.inputs_s"] = setup["inputs_s"]
        out["variation.exact_share"] = metrics["exact_share"]
        out["variation.bound_gap_rel"] = metrics["bound_gap_rel"]
        out["gate.failed_share"] = metrics["failed_share"]
        wall = res["traced_wall_s"]
        print(f"traced: wall={wall:.3f} s calls={res['traced_calls']}; "
              "busy time per layer (outermost spans):")
        for layer, busy in sorted(res["layer_busy"].items()):
            print(f"  {layer:<16} {busy:10.4f} s  {100 * busy / wall:5.1f}% of traced wall")
        for name in sorted(out):
            print(f"  {name:<44} {out[name]:>14.6g} {per_layer_unit(name)}")
    else:
        out = {name: metrics[name] for name in IN_JSON}
    print(json.dumps({
        "correct": bool(res["correct"]), "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": per_layer_unit(k) if args.trace
                        else END_TO_END[k][0]} for k, v in out.items()},
    }))


if __name__ == "__main__":
    main()
