#!/usr/bin/env python3
"""fuchskit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/
directory.  NAME is one of apparency, structure, monodromy, cli, or all.
Every op's output is checked.  End-to-end times are corrected for the
host's speed at the moment (hostspeed.py).  Each workload prints a JSON
record (the environment, seed, held-out seed, tail percentile with its
sample count, fail_rate, exact_digest, the uncorrected figures) and one
line per metric.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: with --trace 0 the end-to-end metrics, with --trace 1 the
per-layer metrics of a separate traced run.  See perfbench/README.md.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from tracer import COUNTER_NAMES, SPAN_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("apparency", "structure", "monodromy", "cli")
# Quoted for a claim's confirmation run only; never tuned against.
HELD_OUT_SEED = 703230
SETUP_SAMPLES = 5  # fresh interpreters set up per run; setup_s is their median
WORKER_TIMEOUT_S = 150

END_TO_END = {"throughput_ops_s": "1/s", "latency_p50_ms": "ms",
              "latency_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    **{f"{name}.{kind}": unit for name in SPAN_NAMES
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **{name: "ratio" if name.endswith("_rel_max") else "count"
       for name in COUNTER_NAMES},
    "cli.import_s": "s", "cli.import_scipy_s": "s",
    "bench.trace_overhead": "ratio",
}

# The tail percentile per workload: the highest of p50/p75/p90/p95/p99 with
# at least ten samples beyond it in a baseline run, fixed so that a faster
# change does not switch percentiles.  cli runs too few ops for any
# percentile above p50; its tail is p90, which lies inside the sixth of its
# ops that run the slowest command (monodromy).
TAIL_PCT = {"apparency": 90, "structure": 90, "monodromy": 75, "cli": 90}


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(workload, seed, seconds, mode):
    """Start one worker; returns (monotonic start time, its JSON document)."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           str(seconds), mode]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} worker ({mode}) exited {proc.returncode}")
    return started, json.loads(proc.stdout.splitlines()[-1])


def percentile(values, pct):
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def environment(seed) -> dict:
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"python": platform.python_version(), **versions,
            "cpu_count": os.cpu_count(), "seed": seed,
            "held_out_seed": HELD_OUT_SEED}


def measure(workload, seed, seconds, trace):
    """One run of one workload: (record line, result line)."""
    record = {"workload": workload, "trace": trace, **environment(seed)}
    if trace:
        _, doc = run_worker(workload, seed, seconds, "traced")
        metrics = {name: {"value": doc["per_layer"].get(name, 0), "unit": unit}
                   for name, unit in PER_LAYER.items()}
        record["traced_ops"] = len(doc["latencies"])
    else:
        # set-up is timed from the launch of a worker to its first op and
        # corrected by cold-start probes here before the launch and in the
        # worker at its first op
        walls, setups = [], []
        for k in range(SETUP_SAMPLES):
            mode = "timed" if k == SETUP_SAMPLES - 1 else "setup"
            before = hostspeed.cold_slowness()
            started, doc = run_worker(workload, seed, seconds, mode)
            walls.append(doc["ready"] - started)
            setups += hostspeed.corrected(walls[-1:], [before, doc["setup_probe"]])
        raw, lat = doc["latencies"], doc["corrected"]
        pct = TAIL_PCT[workload]
        completed = len(lat) - doc["failed"]
        values = {"throughput_ops_s": completed / sum(lat),
                  "latency_p50_ms": 1e3 * statistics.median(lat),
                  "latency_tail_ms": 1e3 * percentile(lat, pct),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": doc["peak_rss_kb"] / 1024}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        record.update(samples=len(lat), tail_percentile=f"p{pct}",
                      beyond_tail=sum(x > percentile(lat, pct) for x in lat),
                      setup_samples_s=setups, timed_s=sum(lat),
                      slowness=statistics.median(doc["probes"]),
                      wall={"throughput_ops_s": completed / sum(raw),
                            "latency_p50_ms": 1e3 * statistics.median(raw),
                            "latency_tail_ms": 1e3 * percentile(raw, pct),
                            "setup_s": statistics.median(walls)})
    attempted = len(doc["latencies"])
    record.update(fail_rate=doc["failed"] / attempted,
                  exact_digest=doc["digest"], failures=doc["failures"],
                  problems=doc["problems"])
    result = {"correct": doc["failed"] == 0 and not doc["problems"],
              "attempted": attempted, "failed": doc["failed"],
              "metrics": metrics}
    return record, result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "fuchskit" / "algebra.py").is_file():
        print(f"no fuchskit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # workers, their children and the probes share one CPU, so that a probe
    # measures the CPU the ops run on; the two CPUs of the reference machine
    # change speed independently
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        record, result = measure(name, args.seed, args.seconds, args.trace)
        print(json.dumps(record))
        for metric, m in result["metrics"].items():
            print(f"{name:10s} {metric:40s} {m['value']:.6g} {m['unit']}")
        print(f"{name:10s} {'fail_rate':40s} {record['fail_rate']:.6g} ratio")
        results.append((name, result))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {"correct": all(r["correct"] for _, r in results),
                 "attempted": sum(r["attempted"] for _, r in results),
                 "failed": sum(r["failed"] for _, r in results),
                 "metrics": {f"{n}.{k}": v for n, r in results
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
