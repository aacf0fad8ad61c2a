"""One-shot ladder report: per-layer seconds at the ROADMAP's fixed sizes.

Usage, from the root of a checkout (takes about ten minutes):

    python3 perfbench/ladder.py [--out .perfbench_out/ladder.json]

Points are (users, segments) = (12,64), (20,128), (30,256), (40,512) and
(60,1024), instance seed 1, edges of at most 3 users, each as a
quasi-tree and as a variant with 2 redundant edges.  Instances come from
the benchmark's builder.  Each point is one call of `hypercast run
--payload-check`, with --strategy dbqt on quasi-trees (dbqt-general
stops at 24 users even there) and the ROADMAP's dbqt-general on the
variant, in its own process with the tracer of layers.py installed, so
the per-layer seconds are those of run.py's traced run.  A point that
runs longer than TIMEOUT_S is stopped and recorded as a timeout, with
the spans that were still open and the layer totals up to that moment,
so no point is left out.  The timeout is fixed so that reports of two commits compare.
The report also records the line count of src/ and the Python and numpy
versions.  The repeated benchmark (run.py) does not run this.
"""
from __future__ import annotations

import os

os.environ.update({v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})

import argparse
import contextlib
import io
import json
import platform
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import builder
from layers import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
POINTS = ((12, 64), (20, 128), (30, 256), (40, 512), (60, 1024))
SEED = 1
TIMEOUT_S = 120


class PointTimeout(BaseException):
    """Raised in the child when TIMEOUT_S has gone by; a BaseException so
    that the CLI's error handling does not catch it."""


def child(argv: list[str]):
    """Run the CLI once with `argv` under the tracer and print one JSON
    line with the outcome and the layer totals."""
    sys.path.insert(0, str(SRC))
    from hypercast import cli

    tracer = Tracer()
    tracer.install()
    open_at_timeout: list[str] = []

    def on_alarm(signum, frame):
        open_at_timeout.extend(tracer.open_names())
        raise PointTimeout

    out, err = io.StringIO(), io.StringIO()
    signal.signal(signal.SIGALRM, on_alarm)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, TIMEOUT_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        outcome = "ok" if code == 0 else f"exit {code}: {err.getvalue().strip()}"
    except PointTimeout:
        outcome = "timeout"
    except Exception as exc:  # recorded in the report; the ladder goes on
        outcome = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    seconds = time.perf_counter() - start
    doc = json.loads(out.getvalue()) if outcome == "ok" else {}
    layers = {name: row for name, row in tracer.totals().items() if row["calls"]}
    print(json.dumps({
        "outcome": outcome,
        "end_to_end_s": seconds,
        "num_broadcasts": doc.get("num_broadcasts"),
        "lower_bound": doc.get("lower_bound"),
        "open_at_timeout": open_at_timeout,
        "layers": layers,
    }))


def run_point(users: int, segments: int, extra: int) -> dict:
    name = f"ladder:{users}:{segments}:{extra}:{SEED}"
    inst = builder.build(name, name, users, segments, extra)
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    strategy = "dbqt-general" if extra else "dbqt"
    cli_args = ["run", "--strategy", strategy, "--payload-check"]
    point = {"users": users, "segments": segments, "extra_edges": extra,
             "cli_args": cli_args, "timeout_s": TIMEOUT_S}
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        path = Path(tmp) / "instance.json"
        inst.write(path)
        cmd = [sys.executable, __file__, "--child", *cli_args, "--in", str(path)]
        try:
            # the child stops itself at TIMEOUT_S; this only guards against a hang
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S + 60)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            return {**point, "outcome": "killed"}
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return {**point, "outcome": f"child exited with {proc.returncode}"}
    return {**point, **json.loads(lines[-1])}


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / ".perfbench_out" / "ladder.json"))
    parser.add_argument("--child", nargs=argparse.REMAINDER, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.child)
        return 0
    if not (SRC / "hypercast" / "__init__.py").is_file():
        print(f"error: no hypercast sources under {SRC}", file=sys.stderr)
        return 2
    import numpy

    points = []
    for users, segments in POINTS:
        for extra in (0, 2):
            point = run_point(users, segments, extra)
            print(json.dumps(point), flush=True)
            points.append(point)
    report = {
        "src_lines": src_lines(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": SEED,
        "max_edge_size": 3,
        "points": points,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"ladder written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
