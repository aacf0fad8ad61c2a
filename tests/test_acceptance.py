"""Acceptance gate: nine criteria, one test and one report line each.

Each test prints "[criterion N] PASS/FAIL ..." (visible with -s, and on
any failure); pytest -v adds the per-test verdict line.  Budgets are
wall-clock seconds measured around the checked work, zero tolerance on
all exact comparisons.
"""
from __future__ import annotations

import time
from itertools import combinations

import pytest

from hypercast import Hypergraph, StorageTopology
from hypercast.cli import main
from hypercast.dbqt import dbqt_schedule, decodable_with, ordered_representatives
from hypercast.general import (
    ExperimentConfig,
    iter_experiment_instances,
    min_degree_bound,
    run_experiment,
)
from hypercast.generators import random_instance
from hypercast.sim import materialize_payloads, run_schedule, verify_payload_run
from conftest import (
    CYCLIC_HOLDINGS,
    TREE_HOLDINGS,
    brute_min_cut_weight,
    generated_model,
    random_subset,
)
import random


def report(n: int, ok: bool, detail: str):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {n}: {detail}"


@pytest.fixture(scope="module")
def quasi_tree_corpus():
    """200 seeded quasi-tree instances, 3..12 users, <= 12 edges, <= 64 segments."""
    out = []
    for i in range(200):
        users = 3 + (i % 10)
        size_cap = 2 + (i // 10) % min(3, users - 2)
        segments = min(64, max(users, 5 + (i * 13) % 60))
        topo, h, placement = generated_model(users, segments, 0, size_cap, 9000 + i)
        assert 3 <= h.num_vertices <= 12
        assert len(h.edges) <= 12
        assert topo.num_segments <= 64
        out.append((topo, h, placement))
    return out


EXPERIMENT_CONFIGS = [
    ExperimentConfig(
        users_list=(6, 8),
        segments_list=(16, 24),
        trials=100,
        extra_edges=k,
        seed=500 + k,
    )
    for k in (1, 2)
]


def test_criterion_1_fixture_exactness():
    start = time.perf_counter()
    cyclic = StorageTopology(5, CYCLIC_HOLDINGS)
    tree = StorageTopology(4, TREE_HOLDINGS)
    h, _, _ = cyclic.to_hypergraph()
    hp, _, _ = tree.to_hypergraph()
    checks = {
        "degree(v1)": h.degree(1) == (2, 2),
        "induced weights": sorted(e.weight for e in h.induced({2, 3, 6}).edges) == [1, 2],
        "cut {4,5,6}": h.cut({4, 5, 6}).weight == 2,
        "min-cut": brute_min_cut_weight(h) == 1,
        "cyclic not quasi-tree": not h.is_quasi_tree(),
        "reduced is quasi-tree": hp.is_quasi_tree(),
        "representatives": ordered_representatives(hp) == (3, 5, 4),
    }
    elapsed = time.perf_counter() - start
    checks["under 1s"] = elapsed < 1.0
    bad = [k for k, v in checks.items() if not v]
    report(1, not bad, f"fixture values exact in {elapsed:.3f}s" + (f"; failed: {bad}" if bad else ""))


def test_criterion_2_quasi_tree_schedules_exact_and_complete(quasi_tree_corpus):
    start = time.perf_counter()
    failures = []
    for topo, h, _placement in quasi_tree_corpus:
        delta = min(e.weight for e in h.edges)
        plan = dbqt_schedule(topo)
        if plan.num_broadcasts != topo.num_segments - delta:
            failures.append((topo, "length"))
            continue
        t = run_schedule(topo, list(plan.schedule))
        if not t.complete:
            failures.append((topo, "incomplete"))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    report(
        2,
        ok,
        f"{len(quasi_tree_corpus)} instances, schedule length = segments - min "
        f"edge weight and 100% complete, {elapsed:.1f}s"
        + (f"; {len(failures)} failures" if failures else ""),
    )


def test_criterion_3_min_cut_routes_agree_and_bound_is_tight(quasi_tree_corpus):
    mismatches = 0
    loose = 0
    for topo, h, _placement in quasi_tree_corpus:
        brute = brute_min_cut_weight(h)
        scan = min(e.weight for e in h.edges)
        if brute != scan:
            mismatches += 1
            continue
        plan = dbqt_schedule(topo)
        if plan.num_broadcasts != topo.num_segments - brute:
            loose += 1
    ok = mismatches == 0 and loose == 0
    report(
        3,
        ok,
        f"brute-force and single-scan min-cut agree on all {len(quasi_tree_corpus)} "
        f"quasi-trees and the schedule meets the lower bound "
        f"({mismatches} disagreements, {loose} non-tight)",
    )


def test_criterion_4_block_decodability_exhaustive():
    start = time.perf_counter()
    cases = 0
    failures = 0
    for n in range(1, 11):
        for delta in range(0, n + 1):
            for held in combinations(range(1, n + 1), delta):
                cases += 1
                if not decodable_with(n, delta, held):
                    failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 60.0
    report(
        4,
        ok,
        f"all {cases} (block size <= 10, every held pattern) matrices invertible, "
        f"{elapsed:.1f}s; {failures} failures",
    )


def test_criterion_5_cut_partitions_edges():
    rng = random.Random(71)
    bad = 0
    for _ in range(100):
        n = rng.randint(2, 9)
        edges = [
            (random_subset(rng, range(1, n + 1), 2, min(4, n)), rng.randint(1, 5))
            for _ in range(rng.randint(1, 8))
        ]
        h = Hypergraph(range(1, n + 1), edges)
        x = random_subset(rng, h.vertices, 1, n - 1)
        crossing, inside, outside = h.partition_by_cut(x)
        parts = [set(e.vertices for e in p) for p in (crossing, inside, outside)]
        disjoint = not (parts[0] & parts[1] or parts[0] & parts[2] or parts[1] & parts[2])
        covers = parts[0] | parts[1] | parts[2] == set(h.edge_sets)
        weight_ok = (
            sum(e.weight for p in (crossing, inside, outside) for e in p) == h.total_weight
        )
        if not (disjoint and covers and weight_ok):
            bad += 1
    report(5, bad == 0, f"100 random (hypergraph, X) pairs partition cleanly; {bad} bad")


def test_criterion_6_experiment_band():
    start = time.perf_counter()
    gaps = []
    violations = 0
    rows_seen = 0
    for config in EXPERIMENT_CONFIGS:
        rows = run_experiment(config)
        rows_seen += len(rows)
        for row in rows:
            violations += row.violations
            gaps.append(row.mean_broadcasts - row.mean_lower_bound)
    elapsed = time.perf_counter() - start
    mean_gap = sum(gaps) / len(gaps)
    ok = violations == 0 and rows_seen == 8 and elapsed < 300.0
    report(
        6,
        ok,
        f"800 runs across 4-point grid x extra edges in {{1,2}}: 0 violations, "
        f"mean broadcasts minus lower bound = {mean_gap:.3f} "
        f"(per-row gaps {', '.join(f'{g:.2f}' for g in gaps)}), {elapsed:.1f}s",
    )


def test_criterion_7_min_cut_bound_dominates_degree_bound(quasi_tree_corpus):
    bad = 0
    total = 0
    for _topo, h, _placement in quasi_tree_corpus:
        total += 1
        delta = min(e.weight for e in h.edges)
        if h.total_weight - delta < min_degree_bound(h):
            bad += 1
    for config in EXPERIMENT_CONFIGS:
        for _v, _w, _t, topo in iter_experiment_instances(config):
            total += 1
            h, _placement, _leftovers = topo.to_hypergraph()
            delta = brute_min_cut_weight(h)
            if h.total_weight - delta < min_degree_bound(h):
                bad += 1
    report(
        7,
        bad == 0,
        f"min-cut lower bound >= degree lower bound on all {total} corpus instances; "
        f"{bad} violations",
    )


def test_criterion_8_payload_and_coefficient_levels_agree():
    failures = 0
    for i in range(20):
        users = 4 + i % 6
        topo = random_instance(
            users, max(users, 6 + (i * 5) % 20), 0, 2 + i % min(3, users - 2), 7700 + i
        )
        plan = dbqt_schedule(topo)
        store = materialize_payloads(topo, seed=i)
        assert store.length == topo.num_segments + 1
        if not verify_payload_run(store, list(plan.schedule)):
            failures += 1
    report(
        8,
        failures == 0,
        f"20 coded runs with payload length = segments + 1 reconstruct bit-exact "
        f"at every slot; {failures} failures",
    )


def test_criterion_9_cli_outputs_are_byte_identical(tmp_path):
    gen_args = ["gen", "--users", "8", "--segments", "18", "--seed", "77",
                "--extra-edges", "2"]
    exp_args = ["experiment", "--users-list", "5,6", "--segments-list", "9",
                "--trials", "4", "--extra-edges", "1", "--seed", "13"]
    outputs = []
    for name, args in (("gen", gen_args), ("exp", exp_args)):
        pair = []
        for run in (1, 2):
            path = tmp_path / f"{name}{run}.out"
            code = main(args + ["--out", str(path)])
            assert code == 0
            pair.append(path.read_bytes())
        outputs.append(pair)
    gen_same = outputs[0][0] == outputs[0][1]
    exp_same = outputs[1][0] == outputs[1][1]
    report(
        9,
        gen_same and exp_same,
        f"generator bytes identical: {gen_same}; experiment bytes identical: {exp_same}",
    )
