#!/usr/bin/env python3
"""Smoke run of the benchmark at tiny size.

    python3 perfbench/smoke.py

From the root of a checkout: runs every workload of BENCHMARK.json for one
second (one cycle of inputs) with --trace 0 and --trace 1, checks that the
result line names every end-to-end and per-layer metric of BENCHMARK.json
with its unit and that every op passed, then traces one fixed small op and
compares its span counts with values worked out by hand.  Exits 1 on any
mismatch.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# apparent_check, frobenius_oracle and special_apparent_check on the
# annihilator of {1, z^2}, i.e. w'' = w'/z, at its apparent point 0, where
# the indicial polynomial is s^2 - 2s (exponents 2 and 0, the special
# ladder for m = 2, spread 2):
#   local_expansion depths: apparent_check 1 and spread+2 = 4; oracle 1 and
#     spread+4 = 6; special test m+2 = 4 -- five calls, depth sum 16;
#   each expansion makes one RationalFunction (one gcd) and one series per
#     k = 1, 2, and one root search of s^2 - 2s, which splits off the root 0
#     and is left linear, so it needs no gcd;
#   the determinant ladder needs one 2x2 resonance matrix (nu = 2).
HAND_COUNTS = {
    "frobenius.apparent_check.calls": 1,
    "frobenius.frobenius_oracle.calls": 1,
    "frobenius.local_expansion.calls": 5,
    "frobenius.local_expansion.depth_sum": 16,
    "frobenius.f_matrices.calls": 1,
    "frobenius.f_matrices.nu_max": 2,
    "algebra.det_poly.calls": 1,
    "algebra.rf_make.calls": 10,
    "algebra.poly_gcd.calls": 10,
    "algebra.series_of_rational.calls": 10,
    "algebra.poly_root_search.calls": 5,
    "algebra.poly_root_search.incomplete": 0,
}


def bench_run(spec, workload, trace):
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    if proc.returncode != 0:
        return [f"{workload} trace {trace}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{workload} trace {trace}: keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{workload} trace {trace}: {proc.stdout.splitlines()[0]}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    if sorted(result["metrics"]) != sorted(m["name"] for m in wanted):
        errors.append(f"{workload} trace {trace}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or not isinstance(
                got["value"], (int, float)):
            errors.append(f"{workload} trace {trace}: {m['name']} is {got}")
    return errors


def hand_checked_counts():
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import fuchskit.algebra
    from fuchskit.frobenius import annihilator_from_solutions
    from tracer import Tracer
    from workloads import apparency

    wl = apparency()
    inp = ("annihilator", annihilator_from_solutions([[1], [0, 0, 1]]), (2, 0))
    original = fuchskit.algebra.poly_gcd
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        wl.check(inp, wl.run(inp))
    finally:
        tracer.active = False
        tracer.restore()
    errors = []
    if fuchskit.algebra.poly_gcd is not original:
        errors.append("tracer left a wrapped poly_gcd behind")
    summary = tracer.summary()
    for key, want in HAND_COUNTS.items():
        if summary[key] != want:
            errors.append(f"traced {key} = {summary[key]}, worked out {want}")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = hand_checked_counts()
    for w in spec["workloads"]:
        for trace in (0, 1):
            errors += bench_run(spec, w["name"], trace)
    for e in errors:
        print("FAIL", e)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
