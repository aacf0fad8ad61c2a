"""Command line front end: gen, analyze, run, experiment.

Exit codes: 0 success, 1 usage error, 2 infeasible input or validation
failure.  All randomness flows from --seed, so identical invocations
produce byte-identical output.
"""
from __future__ import annotations

import argparse
import functools
import sys

from .dbqt import NotQuasiTreeError, dbqt_schedule, ordered_representatives
from .formats import (
    dumps_document,
    dumps_instance,
    experiment_csv,
    instance_digest,
    plan_document,
    read_instance,
    transcript_document,
)
from .general import (
    ExperimentConfig,
    dbqt_general,
    min_degree_bound,
    run_experiment,
)
from .generators import RNG_ALGORITHM, random_instance
from .sim import (
    check_payload_rows,
    check_sim_cells,
    materialize_payloads,
    naive_schedule,
    run_schedule,
)

__all__ = ["main", "main_script"]


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; this tool reserves 2
    # for infeasible inputs and uses 1 for usage problems
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache  # built on the first call, shared by every later one
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hypercast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", parents=[], help="generate a random instance")
    gen.add_argument("--users", type=int, required=True)
    gen.add_argument("--segments", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--extra-edges", type=int, default=0)
    gen.add_argument("--max-edge-size", type=int, default=3)
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=cmd_gen)

    analyze = sub.add_parser("analyze", help="report structure and bounds")
    analyze.add_argument("--in", dest="infile", required=True)
    analyze.set_defaults(func=cmd_analyze)

    run = sub.add_parser("run", help="plan, simulate, and verify a schedule")
    run.add_argument("--in", dest="infile", required=True)
    run.add_argument(
        "--strategy", choices=["dbqt", "dbqt-general", "naive"], default="dbqt"
    )
    run.add_argument("--payload-check", action="store_true")
    run.add_argument("--transcript", default=None)
    run.add_argument("--plan", default=None)
    run.set_defaults(func=cmd_run)

    exp = sub.add_parser("experiment", help="seeded grid of general-planner runs")
    exp.add_argument("--users-list", required=True)
    exp.add_argument("--segments-list", required=True)
    exp.add_argument("--trials", type=int, required=True)
    exp.add_argument("--extra-edges", type=int, required=True)
    exp.add_argument("--seed", type=int, required=True)
    exp.add_argument("--max-edge-size", type=int, default=3)
    exp.add_argument("--out", default=None)
    exp.set_defaults(func=cmd_experiment)

    return parser


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_gen(args) -> int:
    topology = random_instance(
        args.users, args.segments, args.extra_edges, args.max_edge_size, args.seed
    )
    metadata = {
        "generator": "quasi-tree-grower-v2",
        "rng": RNG_ALGORITHM,
        "seed": args.seed,
        "extra_edges": args.extra_edges,
        "max_edge_size": args.max_edge_size,
    }
    _emit(dumps_instance(topology, metadata), args.out)
    return 0


def cmd_analyze(args) -> int:
    topology, _metadata = read_instance(args.infile)
    h, _placement, leftovers = topology.to_hypergraph()
    quasi_tree = h.is_quasi_tree()
    cut = bound = agreement = reps = None
    if h.num_vertices >= 2:
        cut = h.min_cut().capacity
        bound = h.total_weight - cut
        if quasi_tree:
            agreement = min(e.weight for e in h.edges) == cut
    if quasi_tree:
        reps = list(ordered_representatives(h))
    doc = {
        "instance_digest": instance_digest(topology),
        "num_users": topology.num_users,
        "num_segments": topology.num_segments,
        "leftover_segments": sorted(leftovers),
        "connected": h.is_connected(),
        "quasi_tree": quasi_tree,
        "min_cut": cut,
        "min_cut_single_scan_agrees": agreement,
        "broadcast_lower_bound": bound,
        "min_degree_lower_bound": min_degree_bound(h) if h.edges else None,
        "representatives": reps,
    }
    _emit(dumps_document(doc), None)
    return 0


def cmd_run(args) -> int:
    if args.plan and args.strategy != "dbqt":
        raise ValueError(
            f"--plan writes a phase plan, which only --strategy dbqt makes "
            f"(got --strategy {args.strategy})"
        )
    topology, _metadata = read_instance(args.infile)
    check_sim_cells(topology)
    if args.payload_check:
        check_payload_rows(topology)
    h, _placement, _leftovers = topology.to_hypergraph()
    has_cut = h.num_vertices >= 2 and bool(h.edges)
    plan_doc = None
    if args.strategy == "dbqt":
        try:
            plan = dbqt_schedule(topology)
        except NotQuasiTreeError as exc:
            raise ValueError(
                f"{exc}; rerun with --strategy dbqt-general to reduce it first"
            ) from exc
        schedule = list(plan.schedule)
        plan_doc = plan_document(plan)
    elif args.strategy == "naive":
        schedule = naive_schedule(topology)
    store = materialize_payloads(topology, seed=0) if args.payload_check else None
    general = args.strategy == "dbqt-general"
    if general:
        schedule = dbqt_general(topology)
    transcript = run_schedule(topology, schedule, store, completion=general)
    if not transcript.complete:
        raise ValueError("schedule did not complete decoding for every user")
    total = transcript.num_broadcasts
    extra: dict = {}
    if general:
        extra["dbqt_broadcasts"] = len(schedule)
        extra["completion_broadcasts"] = total - len(schedule)
    if has_cut:
        cut = h.min_cut().capacity
        # naive sends W, DBQT W - delta, and no complete schedule fewer than w(E) - c
        assert h.total_weight - cut <= total <= topology.num_segments
        extra["min_cut"] = cut
        extra["lower_bound"] = h.total_weight - cut
        extra["min_degree_lower_bound"] = min_degree_bound(h)
    doc = {
        "instance_digest": instance_digest(topology),
        "strategy": args.strategy,
        "connected": h.is_connected(),
        "quasi_tree": h.is_quasi_tree(),
        "num_users": topology.num_users,
        "num_segments": topology.num_segments,
        "num_broadcasts": total,
        "complete": transcript.complete,
        "payload_check": args.payload_check or None,
        **extra,
    }
    if args.transcript:
        with open(args.transcript, "w") as fh:
            fh.write(dumps_document(transcript_document(transcript)))
    if args.plan:
        with open(args.plan, "w") as fh:
            fh.write(dumps_document(plan_doc))
    _emit(dumps_document(doc), None)
    return 0


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ValueError(f"{flag} must be a comma-separated integer list: {exc}") from exc
    if not values:
        raise ValueError(f"{flag} must contain at least one value")
    return values


def cmd_experiment(args) -> int:
    config = ExperimentConfig(
        users_list=_parse_int_list(args.users_list, "--users-list"),
        segments_list=_parse_int_list(args.segments_list, "--segments-list"),
        trials=args.trials,
        extra_edges=args.extra_edges,
        seed=args.seed,
        max_edge_size=args.max_edge_size,
    )
    rows = run_experiment(config)
    _emit(experiment_csv(rows), args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_script():
    sys.exit(main())


if __name__ == "__main__":
    main_script()
