"""Benchmark of hypercast's user path: `hypercast run` on generated instances.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload qt_sim --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all          # every workload, each in its own process

Each instance is one in-process call of `hypercast.cli.main(["run", ...])`
with stdout captured.  One client sends the next instance only after the
previous one returned (a closed loop), in one process and one thread,
with the numpy/BLAS thread pools set to 1.  The instances are written by
the benchmark's own builder (builder.py) from --seed; the program only
reads the files.  Every instance is checked; the last line of stdout is
one JSON object with the result.

Times are normalized to the machine's speed at the moment (speed.py):
the reference kernel runs between calls, and each time is scaled by
how slow the kernel ran around it.  The raw times are printed too.

The loop times whole passes over a fixed pool of instances: it starts
no pass after --seconds have gone by, so a run may last up to one pass
longer.  With --trace 0 the end-to-end metrics are measured without
tracing.  With --trace 1 untraced passes run for half of --seconds and
traced passes repeat the same instances, so the per-layer numbers (see
layers.py) come with the tracing overhead: traced minus untraced time.
A summary of the trace is written to .perfbench_out/.
"""
from __future__ import annotations

import os

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import builder
from layers import Tracer
from speed import normalized, normalized_series, reference_seconds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 1
SETUP_REPEATS = 9


@dataclass(frozen=True)
class Workload:
    name: str
    strategy_args: tuple[str, ...]
    writes_files: bool
    # The loop times whole passes over the pool, in order, and at least
    # min_passes of them, so every run times each instance equally often
    # whatever the machine's speed.  A pass takes well under --seconds;
    # the digest and broadcasts_per_bound cover the first pass.
    pool_size: int
    min_passes: int

    def shape(self, i: int) -> tuple[int, int, int]:
        """(users, segments, redundant edges) of pool instance i."""
        if self.name == "qt_sim":
            return 20, 128, 0
        if self.name == "payload":
            return 12, 64, 2
        return 8 + i % 11, 16 + i % 17, 1 + i % 2


WORKLOADS = {
    w.name: w
    for w in (
        # Quasi-trees at V=20, W=128: simulation (run_schedule) is almost all
        # of the time, min cut takes the edge-scan path, and the plan and
        # transcript files (with per-slot remaining_edges) exercise the
        # write side of formats.
        Workload("qt_sim", ("--strategy", "dbqt"), True, 6, 2),
        # A quasi-tree plus 2 redundant edges at V=12, W=64 through the
        # ROADMAP's end-to-end path: payload verification dominates and
        # the schedule is simulated twice.
        Workload("payload", ("--strategy", "dbqt-general", "--payload-check"), False, 4, 2),
        # Many small cyclic instances, V cycling 8..18 and W 16..32: the
        # exhaustive min cut (called twice per instance) dominates and the
        # V=18 instances make the tail; per-call glue shows too.  A pass of
        # 55 holds every V 5 times, and two passes or more leave at least 11
        # samples beyond p90.
        Workload("general_sweep", ("--strategy", "dbqt-general"), False, 55, 2),
    )
}

# sha256 over stdout, plan and transcript bytes of the first pass over the
# pool, for --seed 1.  A commit that changes any output byte changes it.
PINNED_DIGESTS = {
    "qt_sim": "aec3ce12de9c3220a5de2cfc6941233593f3fe395b97750b31dde002df960a36",
    "payload": "3396ddc73747a933b85fc8037f6548d322cf14c3c2338199456a4a1e2baeeb85",
    "general_sweep": "4a17ac52607d54a99c5bb1e3255ee23fb9de4b713e29659adf2dfdad8850fc27",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "instance_s_p50": "s",
    "instance_s_p90": "s",
    "peak_rss_mb": "MB",
    "broadcasts_per_bound": "ratio",
}


class Runner:
    """Writes one workload's instances and runs them through the CLI."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.pool: list[builder.Instance] = []
        self.paths: list[Path] = []
        self.cli = None

    def write_instances(self):
        wl = self.workload
        self.pool = [
            builder.build(f"{wl.name}:{i}", f"{wl.name}:{self.seed}:{i}", *wl.shape(i))
            for i in range(wl.pool_size)
        ]
        self.paths = [self.workdir / f"instance-{i:04d}.json" for i in range(wl.pool_size)]
        for inst, path in zip(self.pool, self.paths):
            inst.write(path)

    def setup_once(self) -> tuple[float, float]:
        """Seconds to import hypercast in a fresh interpreter and write the
        instances, as (raw, normalized)."""
        before = reference_seconds()
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import hypercast.cli", str(SRC)],
            check=True,
        )
        self.write_instances()
        raw = time.perf_counter() - start
        return raw, normalized(raw, (before + reference_seconds()) / 2)

    def import_cli(self):
        sys.path.insert(0, str(SRC))
        from hypercast import cli

        if Path(cli.__file__).resolve().parent.parent != SRC:
            raise RuntimeError(f"imported hypercast from {cli.__file__}, not from {SRC}")
        self.cli = cli

    def call(self, inst: builder.Instance, path: Path):
        """Run one instance; returns (seconds, problems, document, output bytes)."""
        wl = self.workload
        argv = ["run", "--in", str(path), *wl.strategy_args]
        plan = self.workdir / "plan.json"
        transcript = self.workdir / "transcript.json"
        if wl.writes_files:
            plan.unlink(missing_ok=True)
            transcript.unlink(missing_ok=True)
            argv += ["--plan", str(plan), "--transcript", str(transcript)]
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception:
            seconds = time.perf_counter() - start
            return seconds, [f"raised:\n{traceback.format_exc()}"], None, []
        seconds = time.perf_counter() - start
        stdout = out.getvalue().encode()
        outputs = [stdout]
        if code != 0:
            return seconds, [f"exit code {code}: {err.getvalue().strip()}"], None, outputs
        try:
            doc = json.loads(stdout)
            if wl.writes_files:
                outputs += [plan.read_bytes(), transcript.read_bytes()]
        except (ValueError, OSError) as exc:
            return seconds, [f"unreadable output: {exc}"], None, outputs
        return seconds, check(wl, inst, doc), doc, outputs


def check(wl: Workload, inst: builder.Instance, doc: dict) -> list[str]:
    problems = []
    W = inst.num_segments
    nb = doc.get("num_broadcasts")
    lb = doc.get("lower_bound")
    if doc.get("complete") is not True:
        problems.append("complete is not true")
    if not isinstance(nb, int) or not isinstance(lb, int) or not lb <= nb <= W:
        problems.append(f"need lower_bound <= num_broadcasts <= W, got {lb}, {nb}, {W}")
    if inst.quasi_tree and nb != W - inst.delta:
        problems.append(f"quasi-tree needs W - delta = {W - inst.delta} broadcasts, got {nb}")
    if "--payload-check" in wl.strategy_args and doc.get("payload_check") is not True:
        problems.append("payload_check is not true")
    return problems


@dataclass
class LoopResult:
    seconds: list[float]  # normalized, per instance
    raw_seconds: list[float]
    kernel_seconds: list[float]
    attempted: int
    passes: int
    failed: int
    broadcasts: int  # over the first pass
    lower_bounds: int  # over the first pass
    bytes_written: int
    digest: str


def run_loop(runner: Runner, seconds: float = 0.0, passes: int | None = None) -> LoopResult:
    """Closed loop of whole passes over the pool: exactly `passes` of
    them, or else until `seconds` have gone by and min_passes are done.
    The reference kernel runs before the first instance and after each
    one."""
    wl = runner.workload
    raw: list[float] = []
    kernel = [reference_seconds()]
    failed = broadcasts = lower_bounds = bytes_written = 0
    digest = hashlib.sha256()
    deadline = time.perf_counter() + seconds
    done = 0

    def more() -> bool:
        if passes is not None:
            return done < passes
        return done < wl.min_passes or time.perf_counter() < deadline

    while more():
        for inst, path in zip(runner.pool, runner.paths):
            dt, problems, doc, outputs = runner.call(inst, path)
            kernel.append(reference_seconds())
            raw.append(dt)
            bytes_written += sum(len(b) for b in outputs)
            if problems:
                failed += 1
                print(f"FAIL {inst.name}: {'; '.join(problems)}", file=sys.stderr)
            if done == 0:
                for blob in outputs:
                    digest.update(len(blob).to_bytes(8, "big"))
                    digest.update(blob)
                if not problems:
                    broadcasts += doc["num_broadcasts"]
                    lower_bounds += doc["lower_bound"]
        done += 1
    return LoopResult(
        normalized_series(raw, kernel), raw, kernel, len(raw), done, failed, broadcasts,
        lower_bounds, bytes_written, digest.hexdigest(),
    )


def digest_ok(wl: Workload, seed: int, digest: str) -> bool:
    print(f"output sha256 ({wl.name}, seed {seed}, first {wl.pool_size} instances): {digest}")
    if seed != DEFAULT_SEED:
        return True
    pinned = PINNED_DIGESTS.get(wl.name)
    if digest != pinned:
        print(f"digest differs from the pinned {pinned}", file=sys.stderr)
        return False
    return True


def warm_up(runner: Runner):
    """One untimed call on a small instance, so lazy set-up is not timed."""
    wl = runner.workload
    inst = builder.build(f"{wl.name}:warm-up", f"{wl.name}:warm-up", 6, 12, wl.shape(0)[2])
    path = runner.workdir / "warm-up.json"
    inst.write(path)
    _, problems, _, _ = runner.call(inst, path)
    if problems:
        raise RuntimeError(f"warm-up instance failed: {problems}")


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, LoopResult, bool]:
    setups = [runner.setup_once() for _ in range(SETUP_REPEATS)]
    runner.import_cli()
    warm_up(runner)
    loop = run_loop(runner, seconds)
    completed = loop.attempted - loop.failed
    values = {
        "setup_s": statistics.median(s for _, s in setups),
        "instances_per_s": completed / sum(loop.seconds),
        "instance_s_p50": statistics.median(loop.seconds),
        "instance_s_p90": statistics.quantiles(loop.seconds, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "broadcasts_per_bound": loop.broadcasts / loop.lower_bounds if loop.lower_bounds else 0.0,
    }
    print(f"samples: {len(loop.seconds)} instances in {loop.passes} passes, {SETUP_REPEATS} set-ups")
    print(
        f"raw: setup_s {statistics.median(r for r, _ in setups):.6g}, "
        f"instances_per_s {completed / sum(loop.raw_seconds):.6g}, "
        f"instance_s_p50 {statistics.median(loop.raw_seconds):.6g}, "
        f"instance_s_p90 {statistics.quantiles(loop.raw_seconds, n=10, method='inclusive')[8]:.6g}; "
        f"reference kernel median {statistics.median(loop.kernel_seconds):.6g} s"
    )
    print(f"fail_ratio {loop.failed / loop.attempted:.6g} ({loop.failed}/{loop.attempted})")
    gap = (loop.broadcasts - loop.lower_bounds) / runner.workload.pool_size
    print(f"bound_gap_mean {gap:.6g} broadcasts over the first pass")
    ok = digest_ok(runner.workload, runner.seed, loop.digest)
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, loop, ok


def per_layer(runner: Runner, seconds: float) -> tuple[dict, list[LoopResult], bool]:
    runner.setup_once()
    runner.import_cli()
    warm_up(runner)
    plain = run_loop(runner, seconds / 2)
    n = plain.attempted
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_loop(runner, passes=plain.passes)
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    c = tracer.counters
    # per-layer seconds are scaled like the instance times of the traced pass
    scale = sum(traced.seconds) / sum(traced.raw_seconds)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def secs(name, key="s"):
        return totals.get(name, {}).get(key, 0.0) * scale

    main_s = secs("cli.main") or 1.0
    first_pass_gap = (traced.broadcasts - traced.lower_bounds) / runner.workload.pool_size
    values = {
        "cli.main.s": (secs("cli.main") / n, "s/instance"),
        "cli.main.self_s": (secs("cli.main", "self_s") / n, "s/instance"),
        "cli.bound_gap_mean": (first_pass_gap, "1/instance"),
        "formats.read_instance.s": (secs("formats.read_instance") / n, "s/instance"),
        "formats.dumps_document.s": (secs("formats.dumps_document") / n, "s/instance"),
        "formats.bytes_written": (traced.bytes_written / n, "B/instance"),
        "topology.to_hypergraph.calls": (calls("topology.StorageTopology.to_hypergraph") / n, "1/instance"),
        "topology.to_hypergraph.s": (secs("topology.StorageTopology.to_hypergraph") / n, "s/instance"),
        "hypergraph.is_connected.calls": (calls("hypergraph.Hypergraph.is_connected") / n, "1/instance"),
        "hypergraph.is_quasi_tree.calls": (calls("hypergraph.Hypergraph.is_quasi_tree") / n, "1/instance"),
        "hypergraph.is_quasi_tree.s": (secs("hypergraph.Hypergraph.is_quasi_tree") / n, "s/instance"),
        "hypergraph.min_cut.calls": (calls("hypergraph.Hypergraph.min_cut") / n, "1/instance"),
        "hypergraph.min_cut.s": (secs("hypergraph.Hypergraph.min_cut") / n, "s/instance"),
        "hypergraph.min_cut.share": (secs("hypergraph.Hypergraph.min_cut") / main_s, "ratio"),
        "general.dbqt_general.s": (secs("general.dbqt_general") / n, "s/instance"),
        "general.dbqt_general.self_s": (secs("general.dbqt_general", "self_s") / n, "s/instance"),
        "general.spanning_quasi_tree.s": (secs("general.spanning_quasi_tree") / n, "s/instance"),
        "general.removed_edges": (c["general.removed_edges"] / n, "1/instance"),
        "general.completion_broadcasts": (c["general.completion_broadcasts"] / n, "1/instance"),
        "dbqt.dbqt_schedule.s": (secs("dbqt.dbqt_schedule") / n, "s/instance"),
        "dbqt.plan_phases.s": (secs("dbqt.plan_phases") / n, "s/instance"),
        "dbqt.phase_schedule.s": (secs("dbqt.phase_schedule") / n, "s/instance"),
        "dbqt.phases": (c["dbqt.phases"] / n, "1/instance"),
        "dbqt.block_max": (c["dbqt.block_max_sum"] / max(calls("dbqt.plan_phases"), 1), "count"),
        "sim.run_schedule.calls": (calls("sim.run_schedule") / n, "1/instance"),
        "sim.run_schedule.s": (secs("sim.run_schedule") / n, "s/instance"),
        "sim.run_schedule.share": (secs("sim.run_schedule") / main_s, "ratio"),
        "sim.slots": (c["sim.slots"] / n, "1/instance"),
        "sim.coeff_nonzero_mean": (c["sim.coeff_nonzero"] / max(c["sim.slots"], 1), "count"),
        "sim.verify_payload_run.s": (secs("sim.verify_payload_run") / n, "s/instance"),
        "sim.verify_payload_run.share": (secs("sim.verify_payload_run") / main_s, "ratio"),
        "sim.materialize_payloads.s": (secs("sim.materialize_payloads") / n, "s/instance"),
        "field.ColumnBasis.insert.calls": (calls("field.ColumnBasis.insert") / n, "1/instance"),
        "field.ColumnBasis.insert.s": (secs("field.ColumnBasis.insert") / n, "s/instance"),
        "field.insert_rank_gain_ratio": (
            c["field.insert_rank_gain"] / max(calls("field.ColumnBasis.insert"), 1), "ratio"),
        "field.ColumnBasis.solve.calls": (calls("field.ColumnBasis.solve") / n, "1/instance"),
        "field.ColumnBasis.solve.s": (secs("field.ColumnBasis.solve") / n, "s/instance"),
        "field.rank_mod.s": (secs("field.rank_mod") / n, "s/instance"),
        "trace.overhead_s": ((sum(traced.seconds) - sum(plain.seconds)) / n, "s/instance"),
        "trace.overhead_ratio": (sum(traced.seconds) / sum(plain.seconds) - 1, "ratio"),
    }
    print(f"samples: {n} instances untraced, then the same {n} traced")
    if tracer.absent:
        print(f"absent (reported as 0): {', '.join(tracer.absent)}")
    ok = digest_ok(runner.workload, runner.seed, plain.digest)
    if traced.digest != plain.digest:
        print("traced outputs differ from untraced outputs", file=sys.stderr)
        ok = False
    OUT.mkdir(exist_ok=True)
    # spans of the first traced instance: up to the second root span
    parents = tracer.span_parent
    end = 1
    while end < len(parents) and parents[end] != -1:
        end += 1
    summary = {
        "workload": runner.workload.name,
        "seed": runner.seed,
        "instances": n,
        "absent": tracer.absent,
        "totals": totals,
        "counters": dict(c),
        "first_instance_spans": tracer.spans(0, min(end, len(parents))),
    }
    out = OUT / f"trace-{runner.workload.name}-seed{runner.seed}.json"
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"trace summary written to {out.relative_to(ROOT)}")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    return metrics, [plain, traced], ok


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    workdir = WORK / f"{name}-seed{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = Runner(workload, seed, workdir)
        if trace:
            metrics, loops, ok = per_layer(runner, seconds)
        else:
            metrics, loop, ok = end_to_end(runner, seconds)
            loops = [loop]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    for key, m in metrics.items():
        print(f"{name} {key} {m['value']:.6g} {m['unit']}")
    return {
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_all(args) -> dict:
    """Every workload in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hypercast" / "__init__.py").is_file():
        print(f"error: no hypercast sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
