"""Simulation time and peak memory on the ROADMAP ladder, for one or more
checkouts, written as one JSON report.

Usage, with two checkouts side by side:

    python3 change/tools/sim_ladder.py --src parent/src --src change/src --out ladder.json

Each point (users, segments, store) of POINTS draws
`random_instance(users, segments, 0, 3, 1)`, a quasi-tree with edges of
at most 3 users, plans it with `dbqt_schedule` and times one
`run_schedule` of the plan: at the coefficient level, or with the store
`materialize_payloads(topology, 0)` (drawn before the clock starts) when
`store` is true, the payload check of `run --payload-check`.  Every run
is a fresh process, so its peak RSS (`ru_maxrss`) is that of one
simulation plus the interpreter and numpy; each point runs REPEAT times
per source, the sources alternating which goes first.  The report keeps
every run and, per source and point, the median time and the largest
peak.
"""
from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

POINTS = (
    (12, 64, False), (20, 128, False), (30, 256, False), (40, 512, False), (60, 1024, False),
    (250, 1000, False), (12, 64, True), (40, 512, True),
)
REPEAT = 3

CHILD = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from hypercast.dbqt import dbqt_schedule
from hypercast.generators import random_instance
from hypercast.sim import materialize_payloads, run_schedule
users, segments, store = int(sys.argv[2]), int(sys.argv[3]), sys.argv[4] == "True"
topology = random_instance(users, segments, 0, 3, 1)
schedule = list(dbqt_schedule(topology).schedule)
store = materialize_payloads(topology, 0) if store else None
start = time.perf_counter()
transcript = run_schedule(topology, schedule, store)
seconds = time.perf_counter() - start
print(json.dumps({"simulate_s": seconds, "slots": len(schedule), "complete": transcript.complete,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def run_point(src: str, users: int, segments: int, store: bool) -> dict:
    proc = subprocess.run([sys.executable, "-c", CHILD, src, str(users), str(segments), str(store)],
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", required=True,
                        help="a checkout's src directory; give it once per checkout")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    import numpy

    runs = []
    for users, segments, store in POINTS:
        for r in range(REPEAT):
            order = args.src if r % 2 == 0 else args.src[::-1]
            for src in order:
                row = {"src": src, "users": users, "segments": segments, "store": store,
                       **run_point(src, users, segments, store)}
                print(json.dumps(row), flush=True)
                runs.append(row)
    summary = {}
    for src in args.src:
        summary[src] = {}
        for point in POINTS:
            users, segments, store = point
            mine = [r for r in runs if r["src"] == src and (r["users"], r["segments"], r["store"]) == point]
            summary[src][f"{users}x{segments}" + ("+store" if store else "")] = {
                "simulate_s_median": round(statistics.median(r["simulate_s"] for r in mine), 3),
                "peak_rss_mb_max": round(max(r["peak_rss_mb"] for r in mine), 1),
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
