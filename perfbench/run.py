"""ringchain benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload band-survey --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; ringchain is imported from its src/.
With --trace 0 the result holds the end-to-end metrics: ops_per_s,
op_p50_ms and peak_rss_mb from a worker process that runs the workload
alone, and setup_s, the median of several cold starts (fresh interpreter,
import ringchain, first op).  Times are CPU times scaled by the host's
speed that the worker measures (see reference.py).  With --trace 1 it
holds the per-layer metrics of a traced worker, and the spans go to
perfbench/results/.
The last line of standard output is the JSON result; progress and check
failures go to standard error.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
WORKLOADS = ("band-survey", "wide-window", "oracle-crosscheck", "negative-sweep")

#: cold starts per run; setup_s is their median
SETUP_STARTS = 6
#: every run, its set-up included, ends within this many seconds
DEADLINE_S = 170.0

#: one thread per BLAS/OpenMP pool; set before numpy loads in the children
_PINNED = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}


def _child(argv: list[str], env: dict, deadline: float, capture: bool):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise subprocess.TimeoutExpired(argv, 0)
    return subprocess.run(
        [sys.executable, str(WORKER), *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
        text=True,
        timeout=remaining,
    )


def _stop(signum, frame):
    # subprocess.run kills and waits for its child when an exception leaves it
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _stop)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "ringchain" / "__init__.py").is_file():
        print(f"no ringchain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(_PINNED)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    def cold_starts(n: int) -> list[float]:
        times = []
        for _ in range(n):
            proc = _child([*common, "--probe"], env, deadline, capture=True)
            if proc.returncode != 0:
                raise RuntimeError(f"cold start exited {proc.returncode}")
            times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_cpu"])
        return times

    try:
        # half the cold starts before the timed run and half after, so that
        # they fall in different spells of the host's speed
        setup = [] if args.trace else cold_starts(SETUP_STARTS // 2)
        proc = _child(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env,
            deadline,
            capture=True,
        )
        if proc.returncode == 0 and not args.trace:
            setup += cold_starts(SETUP_STARTS - SETUP_STARTS // 2)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print(f"run exceeded {DEADLINE_S:.0f} s", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print(f"worker exited {proc.returncode}", file=sys.stderr)
        return proc.returncode
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    speed = result.pop("speed")
    if setup:
        # scaled like the op times, by the speed measured between the two halves
        value = statistics.median(setup) * speed
        result["metrics"]["setup_s"] = {"value": value, "unit": "s"}
        print(f"cold starts: {', '.join(f'{t:.3f}' for t in setup)} cpu s", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
