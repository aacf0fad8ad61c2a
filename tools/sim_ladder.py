"""Simulation time and peak memory on the ROADMAP ladder, for one or more
checkouts, written as one JSON report.

Usage, with two checkouts side by side:

    python3 change/tools/sim_ladder.py --src parent/src --src change/src --out ladder.json

Each point (users, segments, extra, store) of POINTS draws
`random_instance(users, segments, extra, 3, 1)`, a quasi-tree with edges
of at most 3 users and `extra` redundant edges, plans it with
`dbqt_schedule`, or with `dbqt_general` when `extra` is not 0, and times
one `run_schedule` of the plan, with the uncoded completion for
`dbqt_general` (`completion=True`, as `run --strategy dbqt-general`): at
the coefficient level, or with the store `materialize_payloads(topology,
0)` (drawn before the clock starts) when `store` is true, the payload
check of `run --payload-check`.  Every run
is a fresh process with the BLAS and OpenMP pools at one thread, as in
perfbench/run.py, so its peak RSS (`ru_maxrss`) is that of one
simulation plus the interpreter and numpy.  A second, untimed
`run_schedule` of the same plan then runs under tracemalloc, whose peak
follows only the simulation's live data.  Each point runs REPEAT times
per source, the sources alternating which goes first.  The report keeps
every run and, per source and point, the median time and the largest
peaks.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

POINTS = (
    (12, 64, 0, False), (20, 128, 0, False), (30, 256, 0, False), (40, 512, 0, False),
    (60, 1024, 0, False), (250, 1000, 0, False), (12, 64, 0, True), (40, 512, 0, True),
    (12, 64, 2, False), (12, 64, 2, True), (18, 32, 2, False), (12, 1024, 0, False),
    (60, 1024, 2, True), (12, 2048, 0, True),
)
REPEAT = 3
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

CHILD = """
import json, resource, sys, time, tracemalloc
sys.path.insert(0, sys.argv[1])
from hypercast.dbqt import dbqt_schedule
from hypercast.general import dbqt_general
from hypercast.generators import random_instance
from hypercast.sim import materialize_payloads, run_schedule
users, segments, extra, store = int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4]), sys.argv[5] == "True"
topology = random_instance(users, segments, extra, 3, 1)
schedule = dbqt_general(topology) if extra else list(dbqt_schedule(topology).schedule)
store = materialize_payloads(topology, 0) if store else None
start = time.perf_counter()
transcript = run_schedule(topology, schedule, store, completion=bool(extra))
seconds = time.perf_counter() - start
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
tracemalloc.start()
run_schedule(topology, schedule, store, completion=bool(extra))
traced = tracemalloc.get_traced_memory()[1] / 2**20
tracemalloc.stop()
print(json.dumps({"simulate_s": seconds, "slots": transcript.num_broadcasts, "complete": transcript.complete,
                  "peak_rss_mb": rss, "traced_peak_mb": traced}))
"""


def run_point(src: str, users: int, segments: int, extra: int, store: bool) -> dict:
    """One timed run of a point in a fresh process, from the checkout `src`."""
    env = {**os.environ, **dict.fromkeys(THREAD_VARIABLES, "1")}
    proc = subprocess.run([sys.executable, "-c", CHILD, src, *map(str, (users, segments, extra, store))],
                          stdout=subprocess.PIPE, text=True, check=True, env=env)
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", required=True,
                        help="a checkout's src directory; give it once per checkout")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    import numpy

    runs = []
    for users, segments, extra, store in POINTS:
        for r in range(REPEAT):
            order = args.src if r % 2 == 0 else args.src[::-1]
            for src in order:
                row = {"src": src, "users": users, "segments": segments, "extra": extra, "store": store,
                       **run_point(src, users, segments, extra, store)}
                print(json.dumps(row), flush=True)
                runs.append(row)
    summary = {}
    for src in args.src:
        summary[src] = {}
        for point in POINTS:
            users, segments, extra, store = point
            mine = [r for r in runs
                    if r["src"] == src and (r["users"], r["segments"], r["extra"], r["store"]) == point]
            name = f"{users}x{segments}" + (f"+{extra}edges" if extra else "") + ("+store" if store else "")
            summary[src][name] = {
                "simulate_s_median": round(statistics.median(r["simulate_s"] for r in mine), 3),
                "peak_rss_mb_max": round(max(r["peak_rss_mb"] for r in mine), 1),
                "traced_peak_mb_max": round(max(r["traced_peak_mb"] for r in mine), 1),
                "slots": mine[0]["slots"],
                "complete": all(r["complete"] for r in mine),
            }
    report = {
        "command": " ".join(["python3", *sys.argv]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "summary": summary,
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
