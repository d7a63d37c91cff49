"""One benchmark process for one workload, started by run.py in a fresh
interpreter.  Prints one JSON line on standard output.

    worker.py WORKLOAD SEED SECONDS MODE

MODE is one of
  setup   import the workload's modules, make the first input, report the
          monotonic time at which the first op would start and the host's
          cold-start slowness probed then, and exit;
  timed   the same set-up, then a closed loop of ops -- one client, the next
          op sent when the previous one has returned -- over whole cycles
          until SECONDS have passed and the traced set is covered, with the
          host's slowness probed before the first op and after each op;
  traced  each op of the traced set under the span tracer and then once
          more untraced, for the per-layer figures and the tracing overhead.

Only the op itself is timed: making the next input and checking the last
output happen between ops.
"""

import contextlib
import hashlib
import json
import random
import resource
import sys
import time
from pathlib import Path

import hostspeed
from tracer import Tracer, merge
from workloads import WORKLOADS, CheckFailed, child_summary, traced_op_count

SRC = Path(__file__).resolve().parents[1] / "src"


class Outcomes:
    """Latencies, failures, labels and the digest of a sequence of ops."""

    def __init__(self, digest_ops: int):
        self.latencies = []
        self.failures = []
        self.labels = set()
        self.digest_ops = digest_ops
        self.digest = hashlib.sha256()
        self.digested = 0

    def record(self, wl, index, inp, seconds, out, error):
        self.latencies.append(seconds)
        doc = None
        if error is None:
            try:
                doc, label = wl.check(inp, out)
                self.labels.add(label)
            except CheckFailed as exc:
                error = exc
        if error is not None:
            self.failures.append(f"op {index} {inp[0]}: {type(error).__name__}: {error}")
            doc = {"error": type(error).__name__}
        if index < self.digest_ops and doc is not None:
            self.digest.update(json.dumps(doc, sort_keys=True).encode())
            self.digested += 1

    def report(self, wl) -> dict:
        missing = sorted(map(str, wl.labels - self.labels))
        return {"latencies": self.latencies,
                "failed": len(self.failures),
                "failures": self.failures[:5],
                "problems": [f"outcome {m} never occurred" for m in missing],
                "digest": self.digest.hexdigest() if self.digested else None}


def timed_op(wl, inp, traced=False):
    """Run one op; returns (seconds, output, exception)."""
    start = time.perf_counter()
    try:
        out, error = wl.run(inp, traced), None
    except Exception as exc:  # a raising op is a failed op, not a crash
        out, error = None, exc
    return time.perf_counter() - start, out, error


def peak_rss_kb(wl) -> int:
    who = resource.RUSAGE_CHILDREN if wl.in_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def run_timed(wl, rng, seconds, n_digest):
    """The closed loop.  The host's slowness is probed before the first op
    and after every op, so that each latency can be corrected (hostspeed.py);
    a cold probe first, at the end of set-up, serves the set-up time."""
    outcomes = Outcomes(n_digest)
    probes = []
    i = 0
    inp = wl.make(rng, wl.cycle[0], 0)
    ready = time.monotonic()
    setup_probe = hostspeed.cold_slowness()
    with contextlib.ExitStack() as stack:
        if wl.in_children:
            slowness = hostspeed.cold_slowness
            slowness()  # warm the probe once
        else:
            slowness = stack.enter_context(hostspeed.KernelProbe())
        deadline = time.monotonic() + seconds
        probes.append(slowness())
        while True:
            result = timed_op(wl, inp)
            probes.append(slowness())
            outcomes.record(wl, i, inp, *result)
            i += 1
            if (i % len(wl.cycle) == 0 and i >= n_digest
                    and time.monotonic() >= deadline):
                break
            inp = wl.make(rng, wl.cycle[i % len(wl.cycle)], i)
    doc = outcomes.report(wl)
    doc.update(ready=ready, setup_probe=setup_probe, probes=probes,
               corrected=hostspeed.corrected(doc["latencies"], probes),
               peak_rss_kb=peak_rss_kb(wl))
    return doc


def run_traced(wl, rng, n_ops):
    """Each op runs traced, then again untraced right after it, so that a
    drift in machine speed cancels out of the overhead ratio.  Counts come
    from the traced run, which sees each input first."""
    outcomes = Outcomes(n_ops)
    tracer = Tracer()
    layers = {}
    untraced = []
    for i in range(n_ops):
        inp = wl.make(rng, wl.cycle[i % len(wl.cycle)], i)
        if not wl.in_children:
            tracer.install()
            tracer.active = True
        try:
            seconds, out, error = timed_op(wl, inp, traced=True)
        finally:
            tracer.active = False
            tracer.restore()
        outcomes.record(wl, i, inp, seconds, out, error)
        if wl.in_children and out is not None:
            merge(layers, child_summary(out.stderr))
        untraced.append(timed_op(wl, inp)[0])
    if not wl.in_children:
        layers = tracer.summary()
    layers["bench.trace_overhead"] = sum(outcomes.latencies) / sum(untraced)
    doc = outcomes.report(wl)
    doc.update(per_layer=layers)
    return doc


def main(argv) -> int:
    name, seed, seconds, mode = argv[1], int(argv[2]), float(argv[3]), argv[4]
    wl = WORKLOADS[name]()
    import fuchskit.algebra
    if not Path(fuchskit.algebra.__file__).resolve().is_relative_to(SRC):
        print(f"fuchskit imported from {fuchskit.algebra.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    rng = random.Random(f"{name}:{seed}")
    n_traced = traced_op_count(wl, seconds)
    if mode == "setup":
        wl.make(rng, wl.cycle[0], 0)
        doc = {"ready": time.monotonic(),
               "setup_probe": hostspeed.cold_slowness()}
    elif mode == "timed":
        doc = run_timed(wl, rng, seconds, n_traced)
    else:
        doc = run_traced(wl, rng, n_traced)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
