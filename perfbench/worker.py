"""Run one workload in this process and print its result as one JSON line.

Started by run.py with BLAS/OpenMP threads pinned to 1 and ringchain
imported from the checkout's src/.  With --probe it only imports ringchain
and runs the workload's warm-up op, which is what one cold start costs.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# ringchain first: a cold start counts its import but not the benchmark's own
import ringchain  # noqa: E402
from ringchain.errors import RingChainError  # noqa: E402

_t0 = time.process_time()
import numpy as np  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, OpFailed  # noqa: E402

#: CPU seconds spent importing the benchmark's modules (mpmath among them)
BENCH_IMPORT_S = time.process_time() - _t0

RESULTS = ROOT / "perfbench" / "results"
_FAILURES = (RingChainError, ValueError, OpFailed)
#: op CPU seconds between two reference samples (about 15% of a run)
REF_EVERY_S = 0.06


def _run_loop(wl, api, ops, seconds: float, tracer):
    """Whole rounds of ops until `seconds` have passed; per-op latencies,
    the first round's outputs, failure counts, any round-to-round drift and,
    untraced, reference samples taken every REF_EVERY_S of op time.

    Untraced, an op of several parts times each part on its own, and a
    latency is a list with one CPU time per part."""
    latencies = [[] for _ in ops]
    first: list = [None] * len(ops)
    keys: list = [None] * len(ops)
    raised = [0] * len(ops)
    drift = set()
    ref = []
    owed = 0.0
    rounds = 0
    if tracer is not None:
        steps = (tracer.wrap("op", wl.run),)
    else:
        steps = wl.parts or (wl.run,)
    t_start = time.perf_counter()
    c_start = time.process_time()
    while True:
        for i, op in enumerate(ops):
            outs, times = [], []
            try:
                for step in steps:
                    t0 = time.process_time()
                    outs.append(step(api, *op.args))
                    times.append(time.process_time() - t0)
                out = outs[0] if len(steps) == 1 else tuple(outs)
            except _FAILURES as exc:
                out = exc
                times.append(time.process_time() - t0)
            if tracer is None:
                owed += sum(times)
                while owed >= REF_EVERY_S:
                    owed -= REF_EVERY_S
                    ref.append(reference.sample())
            if isinstance(out, Exception):
                raised[i] += 1
                first[i] = out
                continue
            latencies[i].append(times)
            key = repr(out)
            if rounds == 0:
                first[i], keys[i] = out, key
            elif key != keys[i]:
                drift.add(i)
        rounds += 1
        if time.perf_counter() - t_start >= seconds:
            break
    wall = time.perf_counter() - t_start
    cpu = time.process_time() - c_start
    return latencies, first, raised, drift, ref, rounds, wall, cpu


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true")
    args = p.parse_args(argv)

    where = Path(ringchain.__file__).resolve().parent
    if where != (ROOT / "src" / "ringchain").resolve():
        print(f"ringchain imported from {where}, not from this checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    api = tracing.plain_api()
    if args.probe:
        wl.run(api, *wl.warmup.args)
        # CPU time since the process started: interpreter, import of
        # ringchain, first op
        print(json.dumps({"setup_cpu": time.process_time() - BENCH_IMPORT_S}))
        return 0

    ops = wl.make_round(args.seed)
    context = wl.context(api, ops) if wl.context else None
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        api = tracing.traced_api(tracer)
    wl.run(api, *wl.warmup.args)
    if tracer is not None:
        tracer.clear()

    latencies, first, raised, drift, ref, rounds, wall, cpu = _run_loop(
        wl, api, ops, args.seconds, tracer
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = 0
    problems = []
    for i, op in enumerate(ops):
        if raised[i]:
            failed += raised[i]
            if not op.known_fault:
                print(f"unexpected failure: op {op.args[:2]} raised {first[i]!r}", file=sys.stderr)
            continue
        probs = wl.check(op, first[i], context)
        if i in drift:
            probs.append("output differs between rounds")
        if probs and op.known_fault:
            failed += len(latencies[i])
            latencies[i] = []
        elif probs:
            problems.append(f"op {op.args[:2]}: {probs[:3]}")
    for line in problems[:10]:
        print(f"check failed: {line}", file=sys.stderr)

    attempted = rounds * len(ops)
    done = sum(len(lat) for lat in latencies)
    # each op at the fastest repeat of each of its parts: host contention
    # only ever adds time
    best = [sum(map(min, zip(*lat))) for lat in latencies if lat]
    speed = reference.speed(ref, rounds) if ref else 1.0
    ref_ms = np.percentile(ref, [0, 5, 10, 25, 50]) * 1e3 if ref else []
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {rounds} rounds of "
        f"{len(ops)} ops in {wall:.2f} s wall, {cpu:.2f} s cpu; {done} completed; "
        f"raw: {len(best) / sum(best):.3f} ops/s and p50 {statistics.median(best) * 1e3:.3f} ms "
        f"at each op's best; {len(ref)} reference samples, speed {speed:.3f}; "
        f"reference ms at p0/p5/p10/p25/p50: {' '.join(f'{q:.3f}' for q in ref_ms)}",
        file=sys.stderr,
    )
    best = [t * speed for t in best]
    if tracer is not None:
        metrics = tracer.metrics()
        RESULTS.mkdir(exist_ok=True)
        tracer.save(RESULTS / f"trace-{args.workload}-seed{args.seed}.npz")
    else:
        metrics = {
            "ops_per_s": {"value": len(best) / sum(best), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(best) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "speed": speed,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
