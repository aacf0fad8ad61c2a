"""Command-line surface tests, driven in-process through main()."""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
import types

import pytest

import hypercast.cli
import hypercast.formats
import hypercast.general
import hypercast.generators
import hypercast.sim
from hypercast import StorageTopology
from hypercast.cli import main
from hypercast.formats import loads_instance
from hypercast.hypergraph import Hypergraph
from conftest import FIXTURES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_usage_errors_exit_1(capsys):
    code, _, err = run_cli(capsys, "gen", "--users", "6")
    assert code == 1 and "error" in err
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 1
    code, _, _ = run_cli(capsys)
    assert code == 1
    code, _, _ = run_cli(capsys, "run", "--in", "x.json", "--strategy", "bogus")
    assert code == 1


def test_gen_writes_parseable_instance(capsys, tmp_path):
    out = tmp_path / "inst.json"
    code, stdout, _ = run_cli(
        capsys, "gen", "--users", "6", "--segments", "5", "--seed", "7",
        "--out", str(out),
    )
    assert code == 0 and stdout == ""
    topo, meta = loads_instance(out.read_text())
    assert topo.num_users == 6 and topo.num_segments == 5
    assert meta["seed"] == 7 and meta["extra_edges"] == 0
    assert meta["generator"] == "quasi-tree-grower-v2"
    # stdout mode emits the same bytes
    code, stdout, _ = run_cli(
        capsys, "gen", "--users", "6", "--segments", "5", "--seed", "7"
    )
    assert code == 0 and stdout == out.read_text()


def test_gen_infeasible_exits_2(capsys):
    code, _, err = run_cli(capsys, "gen", "--users", "2", "--segments", "5", "--seed", "1")
    assert code == 2 and "error" in err
    code, _, _ = run_cli(capsys, "gen", "--users", "6", "--segments", "1", "--seed", "1",
                         "--extra-edges", "3")
    assert code == 2


def test_gen_refuses_more_extra_edges_than_segments_allow(capsys):
    code, out, err = run_cli(capsys, "gen", "--users", "5", "--segments", "3",
                             "--extra-edges", "4", "--seed", "1")
    assert code == 2 and out == ""
    assert "segments=3 cannot host 4 extra edges" in err


@pytest.mark.parametrize(
    "flags, message",
    [
        # a negative count is refused before any tree is grown
        (("--segments", "10", "--extra-edges", "-1"), "extra edge count must be >= 0, got -1"),
        (("--segments", "0"), "need at least 1 segment, got 0"),
        (("--segments", "0", "--extra-edges", "2"), "need at least 1 segment, got 0"),
        (("--segments", "2", "--extra-edges", "2"), "segments=2 cannot host 2 extra edges"),
    ],
)
def test_gen_refusals_name_the_first_bad_flag(capsys, monkeypatch, flags, message):
    def grow(*args):
        raise AssertionError("a tree was grown for refused flags")

    monkeypatch.setattr(hypercast.generators, "_grow_skeleton", grow)
    code, out, err = run_cli(capsys, "gen", "--users", "5", "--seed", "1", *flags)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_experiment_refuses_zero_segments(capsys):
    code, out, err = run_cli(
        capsys, "experiment", "--users-list", "5", "--segments-list", "0",
        "--trials", "1", "--extra-edges", "0", "--seed", "1",
    )
    assert code == 2 and out == ""
    assert err == "error: need at least 1 segment, got 0\n"


def test_experiment_refuses_a_bad_grid_point_before_any_trial(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "experiment", "--users-list", "60", "--segments-list", "400,0",
        "--trials", "20", "--extra-edges", "2", "--seed", "1",
    )
    assert code == 2 and out == ""
    assert err == "error: need at least 1 segment, got 0\n"
    # the W = 400 trials before it take seconds; the refusal takes milliseconds
    assert time.perf_counter() - start < 1.0


def test_experiment_and_gen_refuse_negative_extra_edges_alike(capsys):
    experiment = run_cli(
        capsys, "experiment", "--users-list", "6", "--segments-list", "12",
        "--trials", "2", "--extra-edges", "-1", "--seed", "1",
    )
    gen = run_cli(
        capsys, "gen", "--users", "6", "--segments", "12", "--seed", "1", "--extra-edges", "-1"
    )
    assert experiment == gen == (2, "", "error: extra edge count must be >= 0, got -1\n")


def test_one_parser_serves_every_call_as_a_fresh_one_would(capsys):
    calls = [
        ("gen", "--users", "6", "--segments", "9", "--seed", "3"),
        ("gen", "--users", "6"),  # a usage error: exit 1, usage on stderr
        ("run", "--in", str(FIXTURES / "tree-instance.json")),
    ]
    hypercast.cli.build_parser.cache_clear()
    shared = [run_cli(capsys, *argv) for argv in calls]
    assert hypercast.cli.build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        hypercast.cli.build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 1, 0]
    assert shared[1][2].startswith("usage: hypercast gen")


def test_gen_and_analyze_at_200_users(capsys, tmp_path):
    path = tmp_path / "big.json"
    gen = ("gen", "--users", "200", "--segments", "800", "--seed", "1", "--out", str(path))
    assert run_cli(capsys, *gen)[0] == 0
    code, out, _ = run_cli(capsys, "analyze", "--in", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["num_users"] == 200 and doc["num_segments"] == 800
    assert doc["quasi_tree"] is True


def test_gen_extra_edges_respect_max_edge_size(capsys):
    code, out, _ = run_cli(
        capsys, "gen", "--users", "8", "--segments", "20", "--seed", "1",
        "--extra-edges", "3", "--max-edge-size", "2",
    )
    assert code == 0
    topo, meta = loads_instance(out)
    assert meta["max_edge_size"] == 2
    h, _placement, _leftovers = topo.to_hypergraph()
    assert len(h.edges) >= 10 and max(len(e.vertices) for e in h.edges) == 2


def test_gen_deterministic_bytes(capsys):
    args = ("gen", "--users", "8", "--segments", "14", "--seed", "42", "--extra-edges", "2")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second != ""


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("gen", "--users", "8", "--segments", "18", "--seed", "7", "--extra-edges", "2"),
         "da509a631cb016bcd2e2e574b731fda6e8a6c7d9f15ac3cd03e65c6116fd4de6"),
        (("gen", "--users", "30", "--segments", "120", "--seed", "1", "--extra-edges", "3"),
         "969a725f899cbc5b034ada2689e1b0081148f08db3720290561dc2a1cc7df5ad"),
        (("gen", "--users", "200", "--segments", "800", "--seed", "1", "--extra-edges", "0"),
         "14b3e54b8b39bf170b87958f20113498789922e51026551512395b92219fc538"),
        (("experiment", "--users-list", "5,6", "--segments-list", "9", "--trials", "4",
          "--extra-edges", "1", "--seed", "13"),
         "bdfc07dcff11161a6c1d5f3a8fa39d89dad0f3c1133bd558f085d077b3727d1d"),
    ],
)
def test_generator_output_bytes_are_pinned(capsys, argv, digest):
    # the drawn instances themselves, not only their run-to-run repeatability
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "users, segments, seed, extra, analyze_digest, general_digest",
    [
        (8, 18, 7, 0,
         "441344ca0565c559443a76dfb506d76b20a3395c93a5ec78f4694feb8c2faaa5",
         "99db0be8e726a7c3db45104a886ac729b8e45906a9a805a699c7617e8ebec7b4"),
        (8, 18, 7, 2,
         "381ae24f25f245fda3f871c688733fe6bb1d12b910bcce04aa6ed9bbce088ead",
         "76f0f755160a690d871ee05f3bdd62a9b48244a21fccceea5a00c9f7c05e8057"),
        (30, 120, 1, 3,
         "9e0549565e3190f1d3cdf4929d67bc8b812e946f58f984cec613ddceb14175e1",
         "74304bdc3f317b6bbd3cfea603f2267ed6f3132df7ed6ca6aee3389b1a7bd98f"),
    ],
)
def test_analyze_and_general_run_bytes_are_pinned(
    capsys, tmp_path, users, segments, seed, extra, analyze_digest, general_digest
):
    path = tmp_path / "inst.json"
    code, _, _ = run_cli(
        capsys, "gen", "--users", str(users), "--segments", str(segments),
        "--seed", str(seed), "--extra-edges", str(extra), "--out", str(path),
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "analyze", "--in", str(path))
    assert code == 0 and sha256(out) == analyze_digest
    code, out, _ = run_cli(capsys, "run", "--in", str(path), "--strategy", "dbqt-general")
    assert code == 0 and sha256(out) == general_digest


@pytest.mark.parametrize(
    "users, segments, seed, extra, digests",
    [
        (8, 18, 7, 2, [
            "d437bb5c027e266e5cb2b1a84813ac41406d4e6e51eb1167192fa3edeb426003",
            "2731f8dd1bac94e567f7e621f4c40e4d79b4950a43e3541b7d5e719e0236f919",
            "ed81913b517746ee57648ee7465a87cdf273dd3de53c8351da9605ab7bac3952",
        ]),
        (30, 120, 1, 3, [
            "c0254d8a7ed216a803db3200eaae0e57f29265ab2cc6bfa61bd42434d6a399b2",
            "b70912cb59dddc8769104b68f6eeef649c7a220a6dc29181d20c5bc02882bc41",
            "8825372bf610522bdaaba55959e7abda2dfc4ce4294babaa32c8d559e5d471ea",
        ]),
    ],
)
def test_payload_general_transcript_and_naive_bytes_are_pinned(
    capsys, tmp_path, users, segments, seed, extra, digests
):
    path, transcript = tmp_path / "inst.json", tmp_path / "tr.json"
    code, _, _ = run_cli(
        capsys, "gen", "--users", str(users), "--segments", str(segments),
        "--seed", str(seed), "--extra-edges", str(extra), "--out", str(path),
    )
    assert code == 0
    code, general, _ = run_cli(
        capsys, "run", "--in", str(path), "--strategy", "dbqt-general",
        "--payload-check", "--transcript", str(transcript),
    )
    assert code == 0
    code, naive, _ = run_cli(capsys, "run", "--in", str(path), "--strategy", "naive")
    assert code == 0
    assert [sha256(general), sha256(transcript.read_text()), sha256(naive)] == digests


def test_dbqt_run_plan_and_transcript_bytes_are_pinned(capsys, tmp_path):
    path, plan, transcript = (tmp_path / n for n in ("inst.json", "plan.json", "tr.json"))
    run_cli(capsys, "gen", "--users", "8", "--segments", "18", "--seed", "7", "--out", str(path))
    code, out, _ = run_cli(
        capsys, "run", "--in", str(path), "--strategy", "dbqt",
        "--plan", str(plan), "--transcript", str(transcript),
    )
    assert code == 0
    assert [sha256(out), sha256(plan.read_text()), sha256(transcript.read_text())] == [
        "c566db5db3a11eebc870d249602bc966c081b3aa48c7b560f49e80319823d3e3",
        "790156ac9ad2a6b968617621824065fcc2dfb0211ca056141f1a146def78cccb",
        "a09a393de5f1400f8efc6c1a17b1cdd03aa4d8411002eb6093d282804701d3e6",
    ]


@pytest.mark.parametrize("users, segments, digests", [
    (40, 512, ["1baafa7c021336a2898567b3e3dcbcf3e0432ecef2814c2bd250961eb1b76df2",
               "c19f0186cdf1da568008a7d59d7eb2b8d3399de2b24b6f111c9ce38e58b54c1d"]),
    (12, 256, ["1184a0daeb03fdc21dda2cc98e42f5f03a4b06c08556768f97cc07bc869f6d73",
               "cbac4b676495f87ecb3f11201562add8b9680c7c77a21dccec4953af1c179042"]),
])
def test_dbqt_run_where_rows_join_at_their_first_hit_is_pinned(capsys, tmp_path, users, segments, digests):
    """At 40 users and 512 segments most pieces of the dbqt run have more
    rows from before them than their budget, which once held each such row
    from the first slot that hit it; at 12 users and 256 segments its
    blocks reach 103 segments, wider than in any other pinned run.  The
    bytes stay those of those runs."""
    path, transcript = tmp_path / "inst.json", tmp_path / "tr.json"
    run_cli(capsys, "gen", "--users", str(users), "--segments", str(segments), "--seed", "1",
            "--out", str(path))
    code, out, _ = run_cli(
        capsys, "run", "--in", str(path), "--strategy", "dbqt", "--transcript", str(transcript)
    )
    assert code == 0
    assert [sha256(out), sha256(transcript.read_text())] == digests


def test_analyze_tree_fixture(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--in", str(FIXTURES / "tree-instance.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["quasi_tree"] is True
    assert doc["min_cut"] == 1
    assert doc["broadcast_lower_bound"] == 3
    assert doc["representatives"] == [3, 5, 4]
    assert doc["min_cut_single_scan_agrees"] is True


def test_analyze_cyclic_fixture(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--in", str(FIXTURES / "cyclic-instance.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["quasi_tree"] is False
    assert doc["min_cut"] == 1
    assert doc["broadcast_lower_bound"] == 4
    assert doc["min_degree_lower_bound"] == 4
    assert doc["representatives"] is None


def test_analyze_disconnected_bound_is_segment_count(capsys, tmp_path):
    from hypercast import StorageTopology
    from hypercast.formats import write_instance

    topo = StorageTopology(3, {1: {1, 2}, 2: {1, 2}, 3: {3}, 4: {3}})
    path = tmp_path / "disc.json"
    write_instance(path, topo)
    code, out, _ = run_cli(capsys, "analyze", "--in", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["connected"] is False
    assert doc["broadcast_lower_bound"] == topo.num_segments


def test_analyze_one_user_reports_no_cut(capsys, tmp_path):
    from hypercast import StorageTopology
    from hypercast.formats import write_instance

    path = tmp_path / "one.json"
    write_instance(path, StorageTopology(3, {1: {1, 2, 3}}))
    code, out, _ = run_cli(capsys, "analyze", "--in", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["min_cut"] is None
    assert doc["min_cut_single_scan_agrees"] is None
    assert doc["broadcast_lower_bound"] is None
    assert doc["representatives"] == [1]
    assert run_cli(capsys, "run", "--in", str(path), "--strategy", "dbqt-general")[0] == 0


def test_analyze_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "analyze", "--in", str(tmp_path / "nope.json"))
    assert code == 2 and "error" in err


def test_deeply_nested_instance_file_exits_2(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    code, out, err = run_cli(capsys, "analyze", "--in", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: instance file is not valid JSON: ")


def test_coerced_instance_field_exits_2(capsys, tmp_path):
    doc = json.loads((FIXTURES / "tree-instance.json").read_text())
    doc["num_users"] = 6.0
    path = tmp_path / "coerced.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "analyze", "--in", str(path))
    assert code == 2 and "num_users must be an integer" in err


@pytest.mark.parametrize("version", [True, 1.0])
@pytest.mark.parametrize("command", [["analyze"], ["run", "--strategy", "naive"]])
def test_format_version_must_be_the_integer_1(capsys, tmp_path, version, command):
    doc = json.loads((FIXTURES / "tree-instance.json").read_text())
    doc["format_version"] = version
    path = tmp_path / "version.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command[0], "--in", str(path), *command[1:])
    assert code == 2 and out == ""
    assert f"unsupported format_version {version!r}" in err


def test_non_object_metadata_exits_2(capsys, tmp_path):
    doc = json.loads((FIXTURES / "tree-instance.json").read_text())
    doc["metadata"] = []
    path = tmp_path / "metadata.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "run", "--in", str(path))
    assert code == 2 and "metadata must be an object" in err


def test_repeated_segment_id_exits_2(capsys, tmp_path):
    doc = json.loads((FIXTURES / "tree-instance.json").read_text())
    doc["users"][1]["segments"].append(doc["users"][1]["segments"][0])
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "analyze", "--in", str(path))
    segment = doc["users"][1]["segments"][0]
    assert code == 2 and out == ""
    assert f"user {doc['users'][1]['id']} lists segment {segment} twice" in err
    # and the user entries malformed in other ways
    for entry, message in [
        ([2, [2]], "malformed user entry: [2, [2]]"),
        ({"id": 2}, "malformed user entry: {'id': 2}"),
        ({"id": 2, "segments": {"2": True}}, "user 2: segments must be a list"),
    ]:
        doc = json.loads((FIXTURES / "tree-instance.json").read_text())
        doc["users"][1] = entry
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "analyze", "--in", str(path))
        assert code == 2 and out == "" and message in err


def write_doc(tmp_path, num_users, num_segments, holdings):
    """An instance file written by hand, so it may declare what the
    users' entries do not bear out."""
    users = [{"id": v, "segments": sorted(segs)} for v, segs in holdings.items()]
    path = tmp_path / "hand.json"
    path.write_text(json.dumps({
        "format_version": 1, "num_users": num_users, "num_segments": num_segments,
        "users": users,
    }))
    return path


@pytest.mark.parametrize("num_users", [10**18, 2**63])
def test_huge_user_count_exits_2(capsys, tmp_path, num_users):
    path = write_doc(tmp_path, num_users, 1, {1: {1}, 2: {1}})
    code, out, err = run_cli(capsys, "analyze", "--in", str(path))
    assert code == 2 and out == ""
    assert f"user ids must be exactly 1..{num_users}" in err


def test_unheld_segment_is_refused_before_per_segment_work(capsys, tmp_path):
    path = write_doc(tmp_path, 2, 1_000_000, {1: {1}, 2: ()})
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "analyze", "--in", str(path))
    elapsed = time.perf_counter() - start
    assert code == 2 and out == ""
    assert "segment 2 is stored nowhere" in err
    # a holder set per declared segment took seconds here
    assert elapsed < 1.0


@pytest.mark.parametrize("strategy", ["dbqt", "naive", "dbqt-general"])
def test_payload_check_refuses_segment_limit_before_drawing(
    capsys, monkeypatch, tmp_path, strategy
):
    """Refused before any plan too: dbqt's planner would refuse this model
    itself, as every segment is held by one user or by everyone."""
    def reached(*_args):
        raise AssertionError("payloads drawn for an instance the simulator refuses")

    monkeypatch.setattr(hypercast.sim, "random", types.SimpleNamespace(Random=reached))
    monkeypatch.setattr(hypercast.sim, "rank_mod", reached)
    W = hypercast.sim.MAX_SIM_SEGMENTS + 1
    path = write_doc(tmp_path, 2, W, {1: range(1, W + 1), 2: {1}})
    code, out, err = run_cli(
        capsys, "run", "--in", str(path), "--strategy", strategy, "--payload-check"
    )
    assert code == 2 and out == ""
    assert f"simulator supports at most {W - 1} segments, got {W}" in err


def test_payload_check_refuses_segment_limit_before_general_plans(
    capsys, monkeypatch, tmp_path
):
    def reached(*_args):
        raise AssertionError("planned for an instance the simulator refuses")

    monkeypatch.setattr(hypercast.cli, "dbqt_general", reached)
    W = hypercast.sim.MAX_SIM_SEGMENTS + 1
    # segment 1 on users {1, 2} and segment 2 on {1, 3}: a connected model
    path = write_doc(tmp_path, 3, W, {1: range(1, W + 1), 2: {1}, 3: {2}})
    code, out, err = run_cli(
        capsys, "run", "--in", str(path), "--strategy", "dbqt-general", "--payload-check"
    )
    assert code == 2 and out == ""
    assert f"simulator supports at most {W - 1} segments, got {W}" in err


@pytest.mark.parametrize("strategy", ["naive", "dbqt-general"])
def test_payload_check_refuses_long_payloads_before_drawing(
    capsys, monkeypatch, tmp_path, strategy
):
    def reached(*_args):
        raise AssertionError("payloads drawn for a store the simulator refuses")

    monkeypatch.setattr(hypercast.sim, "random", types.SimpleNamespace(Random=reached))
    monkeypatch.setattr(hypercast.sim, "rank_mod", reached)
    path = tmp_path / "long.json"
    path.write_text(json.dumps({
        "format_version": 1, "num_users": 2, "num_segments": 2, "payload_length": 3_000_000,
        "users": [{"id": 1, "segments": [1]}, {"id": 2, "segments": [2]}],
    }))
    code, out, err = run_cli(
        capsys, "run", "--in", str(path), "--strategy", strategy, "--payload-check"
    )
    assert code == 2 and out == ""
    limit = (hypercast.sim.MAX_SIM_SEGMENTS + 1) * hypercast.sim.MAX_SIM_SEGMENTS
    assert "payload_length 3000000" in err and str(limit) in err


@pytest.mark.parametrize("strategy", ["dbqt", "naive", "dbqt-general"])
def test_payload_check_refuses_too_many_payload_values_before_planning(
    capsys, monkeypatch, tmp_path, strategy
):
    """One user holds all 2048 segments and 19 hold none: the run can make
    R = 19 * 2048 basis rows of L = 2049 payload values, over the limit, so
    neither a plan nor a store is made."""
    def reached(*_args):
        raise AssertionError("planned or drew payloads for a run the simulator refuses")

    for name in ("dbqt_schedule", "dbqt_general", "naive_schedule"):
        monkeypatch.setattr(hypercast.cli, name, reached)
    monkeypatch.setattr(hypercast.sim, "random", types.SimpleNamespace(Random=reached))
    W = hypercast.sim.MAX_SIM_SEGMENTS
    path = write_doc(tmp_path, 20, W, {1: range(1, W + 1), **{v: () for v in range(2, 21)}})
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "run", "--in", str(path), "--strategy", strategy, "--payload-check"
    )
    assert code == 2 and out == ""
    R, L = 19 * W, W + 1
    assert f"up to {R} basis rows of {L} payload values, {R * L} in all" in err
    assert str(hypercast.sim.MAX_PAYLOAD_ROW_VALUES) in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("strategy", ["dbqt", "naive", "dbqt-general"])
def test_run_refuses_too_many_users_times_segments_before_planning(
    capsys, monkeypatch, tmp_path, strategy
):
    """One user holds all 2048 segments and 1000 hold none: 1001 x 2048
    is over the largest run measured to complete, so no plan is made; one
    user fewer is at the limit and accepted by the check."""
    def reached(*_args):
        raise AssertionError("planned a run the simulator refuses")

    for name in ("dbqt_schedule", "dbqt_general", "naive_schedule"):
        monkeypatch.setattr(hypercast.cli, name, reached)
    W = hypercast.sim.MAX_SIM_SEGMENTS
    V = hypercast.sim.MAX_SIM_CELLS // W + 1
    path = write_doc(tmp_path, V, W, {1: range(1, W + 1), **{v: () for v in range(2, V + 1)}})
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "run", "--in", str(path), "--strategy", strategy)
    assert code == 2 and out == ""
    assert f"{V} users by {W} segments, {V * W} in all" in err
    assert f"at most {hypercast.sim.MAX_SIM_CELLS} users times segments" in err
    assert time.perf_counter() - start < 1.0
    hypercast.sim.check_limits(V - 1, W)


W_MAX = hypercast.sim.MAX_SIM_SEGMENTS
# (users, segments, payload_length, words of the refusal) just over each
# limit, checked in this order; user 1 holds every segment, the rest none
OVER_LIMIT = {
    "segments": (2, W_MAX + 1, None, f"at most {W_MAX} segments, got {W_MAX + 1}"),
    "cells": (hypercast.sim.MAX_SIM_CELLS // W_MAX + 1, W_MAX, None, "users times segments"),
    "store": (2, 2, 3_000_000, "payload_length 3000000 over 2 segments"),
    "rows": (20, W_MAX, None, f"at most {hypercast.sim.MAX_PAYLOAD_ROW_VALUES}"),
}
ENTRY_POINTS = ["run_schedule", "verify_payload_run", "materialize_payloads",
                "run dbqt", "run naive", "run dbqt-general", "experiment"]


@pytest.mark.parametrize("entry, limit", [
    (entry, limit) for entry in ENTRY_POINTS for limit in OVER_LIMIT
    if entry != "experiment" or limit in ("segments", "cells")
])
def test_every_entry_point_refuses_each_limit_before_its_work(
    capsys, monkeypatch, tmp_path, entry, limit
):
    """`check_limits` refuses before any basis is built, payload drawn,
    plan made or trial drawn; `run` checks the payload limits only with
    --payload-check, and `experiment`, which draws no payloads, checks
    every grid point first, a V under the limit listed first included."""
    def reached(*_args, **_kwargs):
        raise AssertionError("work began on a run over a simulator limit")

    for module, name in [(hypercast.sim, "UserBases"), (hypercast.sim, "rank_mod"),
                         (hypercast.general, "random_instance"), (hypercast.cli, "dbqt_schedule"),
                         (hypercast.cli, "dbqt_general"), (hypercast.cli, "naive_schedule")]:
        monkeypatch.setattr(module, name, reached)
    monkeypatch.setattr(hypercast.sim, "random", types.SimpleNamespace(Random=reached))
    V, W, L, words = OVER_LIMIT[limit]
    payload = limit in ("store", "rows")
    topology = StorageTopology(W, {1: range(1, W + 1), **{v: () for v in range(2, V + 1)}}, L)
    store = types.SimpleNamespace(topology=topology, length=topology.store_length)  # no matrix: never read
    library = {
        "run_schedule": lambda: hypercast.sim.run_schedule(topology, [], store if payload else None),
        "verify_payload_run": lambda: hypercast.sim.verify_payload_run(store, []),
        "materialize_payloads": lambda: hypercast.sim.materialize_payloads(topology, 0),
    }
    if entry in library:
        with pytest.raises(ValueError) as caught:
            library[entry]()
        assert words in str(caught.value)
        return
    start = time.perf_counter()
    if entry == "experiment":
        argv = ["experiment", "--users-list", f"6,{V}", "--segments-list", str(W), "--trials", "1",
                "--extra-edges", "2", "--seed", "1"]
    else:
        path = tmp_path / "over.json"
        hypercast.formats.write_instance(path, topology)
        argv = ["run", "--in", str(path), "--strategy", entry.split()[1]]
        argv += ["--payload-check"] if payload else []
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and words in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("strategy", ["naive", "dbqt-general"])
@pytest.mark.parametrize("num_users", [1, 2])
def test_payload_check_on_zero_segments(capsys, tmp_path, strategy, num_users):
    path = write_doc(tmp_path, num_users, 0, {v: () for v in range(1, num_users + 1)})
    code, out, err = run_cli(
        capsys, "run", "--in", str(path), "--strategy", strategy, "--payload-check"
    )
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["payload_check"] is True and doc["num_broadcasts"] == 0


def test_run_dbqt_on_zero_segments_exits_2(capsys, tmp_path):
    path = write_doc(tmp_path, 1, 0, {1: ()})
    code, out, err = run_cli(capsys, "run", "--in", str(path), "--strategy", "dbqt")
    assert code == 2 and out == ""
    assert "cannot plan phases without edges" in err


def test_run_refuses_a_schedule_that_leaves_a_user_short(capsys, monkeypatch):
    def short(topology):
        # drop the broadcast of segment 1, which users 1 and 4 store and
        # the others do not
        return hypercast.sim.naive_schedule(topology)[1:]

    monkeypatch.setattr(hypercast.cli, "naive_schedule", short)
    code, out, err = run_cli(
        capsys, "run", "--in", str(FIXTURES / "tree-instance.json"), "--strategy", "naive"
    )
    assert code == 2 and out == ""
    assert "schedule did not complete decoding for every user" in err


def test_run_dbqt_on_tree_fixture(capsys, tmp_path):
    plan_path = tmp_path / "plan.json"
    tr_path = tmp_path / "tr.json"
    code, out, _ = run_cli(
        capsys, "run", "--in", str(FIXTURES / "tree-instance.json"),
        "--payload-check", "--plan", str(plan_path), "--transcript", str(tr_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["strategy"] == "dbqt"
    assert doc["num_broadcasts"] == 3
    assert doc["complete"] is True
    assert doc["payload_check"] is True
    assert doc["min_cut"] == 1 and doc["lower_bound"] == 3
    plan = json.loads(plan_path.read_text())
    assert plan["representatives"] == [3, 5, 4]
    transcript = json.loads(tr_path.read_text())
    assert transcript["complete"] is True
    assert len(transcript["slots"]) == 3
    assert all("remaining_edges" in s for s in transcript["slots"])


def test_run_dbqt_rejects_cyclic_with_hint(capsys):
    code, _, err = run_cli(capsys, "run", "--in", str(FIXTURES / "cyclic-instance.json"))
    assert code == 2
    assert "dbqt-general" in err


def test_run_general_on_cyclic_fixture(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--in", str(FIXTURES / "cyclic-instance.json"),
        "--strategy", "dbqt-general", "--payload-check",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["complete"] is True
    assert doc["lower_bound"] == 4
    assert 4 <= doc["num_broadcasts"] <= 5
    assert doc["dbqt_broadcasts"] + doc["completion_broadcasts"] == doc["num_broadcasts"]


def test_run_naive_takes_one_slot_per_segment(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--in", str(FIXTURES / "cyclic-instance.json"), "--strategy", "naive"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["num_broadcasts"] == 5 and doc["complete"] is True


@pytest.mark.parametrize(
    "holdings, total, lower_bound",
    [
        ({1: {1, 2, 4}, 2: {1, 2, 4}, 3: {3, 4}, 4: {3, 4}}, 3, 3),
        ({1: {1, 2}, 2: {2, 3}}, 2, None),  # no model edge, so no bound
    ],
)
def test_run_general_skips_segments_every_user_stores(
    capsys, tmp_path, holdings, total, lower_bound
):
    path = write_doc(tmp_path, len(holdings), max(map(max, holdings.values())), holdings)
    code, out, _ = run_cli(
        capsys, "run", "--in", str(path), "--strategy", "dbqt-general", "--payload-check"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["connected"] is False and doc["complete"] is True
    assert doc["num_broadcasts"] == doc["completion_broadcasts"] == total
    assert doc.get("lower_bound") == lower_bound


@pytest.mark.parametrize("strategy", ["dbqt-general", "naive"])
def test_run_plan_needs_dbqt_strategy(capsys, tmp_path, strategy):
    plan_path = tmp_path / "plan.json"
    code, out, err = run_cli(
        capsys, "run", "--in", str(FIXTURES / "tree-instance.json"),
        "--strategy", strategy, "--plan", str(plan_path),
    )
    assert code == 2 and out == ""
    assert "--strategy dbqt" in err
    assert not plan_path.exists()


def counted(monkeypatch):
    """Count Hypergraph.min_cut calls, and run_schedule calls where cli
    and general import it."""
    calls = {"min_cut": 0, "run_schedule": 0}

    def wrap(owner, name, key):
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    wrap(Hypergraph, "min_cut", "min_cut")
    wrap(hypercast.cli, "run_schedule", "run_schedule")
    wrap(hypercast.general, "run_schedule", "run_schedule")
    return calls


@pytest.mark.parametrize("payload", [False, True])
@pytest.mark.parametrize(
    "strategy, fixture",
    [
        ("dbqt", "tree-instance.json"),  # dbqt refuses the cyclic fixture
        ("dbqt-general", "tree-instance.json"),
        ("dbqt-general", "cyclic-instance.json"),
        ("naive", "tree-instance.json"),
        ("naive", "cyclic-instance.json"),
    ],
)
def test_run_takes_one_cut_and_one_simulation(capsys, monkeypatch, strategy, fixture, payload):
    calls = counted(monkeypatch)
    argv = ["run", "--in", str(FIXTURES / fixture), "--strategy", strategy]
    code, out, _ = run_cli(capsys, *argv, *(["--payload-check"] if payload else []))
    assert code == 0
    doc = json.loads(out)
    assert doc["payload_check"] is (True if payload else None)
    assert calls == {"min_cut": 1, "run_schedule": 1}


def test_general_runs_quasi_trees_beyond_exhaustive_limit(capsys, tmp_path):
    path = tmp_path / "q30.json"
    gen = ("gen", "--users", "30", "--segments", "60", "--seed", "1", "--out", str(path))
    assert run_cli(capsys, *gen)[0] == 0
    code, out, _ = run_cli(capsys, "run", "--in", str(path), "--strategy", "dbqt-general")
    assert code == 0
    doc = json.loads(out)
    assert doc["quasi_tree"] is True
    assert doc["lower_bound"] == 59 == 60 - doc["min_cut"]
    assert doc["num_broadcasts"] == 59 and doc["complete"] is True
    code, out, _ = run_cli(
        capsys, "experiment", "--users-list", "30", "--segments-list", "60",
        "--trials", "1", "--extra-edges", "0", "--seed", "1",
    )
    assert code == 0
    assert out.splitlines()[1] == "30,60,59.0000,59,59,59.0000,0"


def gen_instance(capsys, tmp_path, users, segments, extra):
    path = tmp_path / f"gen-{users}-{segments}-{extra}.json"
    argv = ("gen", "--users", str(users), "--segments", str(segments), "--seed", "1",
            "--extra-edges", str(extra), "--out", str(path))
    assert run_cli(capsys, *argv)[0] == 0
    return path


def test_general_runs_large_cyclic_with_one_cut_and_one_simulation(capsys, monkeypatch, tmp_path):
    path = gen_instance(capsys, tmp_path, 30, 256, 2)
    calls = counted(monkeypatch)
    code, out, _ = run_cli(capsys, "run", "--in", str(path), "--strategy", "dbqt-general")
    assert code == 0
    doc = json.loads(out)
    assert doc["quasi_tree"] is False and doc["complete"] is True
    assert doc["lower_bound"] <= doc["num_broadcasts"] <= 256
    assert calls == {"min_cut": 1, "run_schedule": 1}
    code, out, _ = run_cli(
        capsys, "experiment", "--users-list", "30", "--segments-list", "120",
        "--trials", "2", "--extra-edges", "2", "--seed", "1",
    )
    assert code == 0
    header, row = out.splitlines()
    assert dict(zip(header.split(","), row.split(",")))["violations"] == "0"


@pytest.mark.parametrize(
    "segments, extra, min_cut, agreement", [(60, 0, 1, True), (256, 2, 5, None)]
)
def test_analyze_beyond_exhaustive_limit(capsys, tmp_path, segments, extra, min_cut, agreement):
    path = gen_instance(capsys, tmp_path, 30, segments, extra)
    code, out, _ = run_cli(capsys, "analyze", "--in", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["quasi_tree"] is (extra == 0)
    assert doc["min_cut"] == min_cut
    assert doc["min_cut_single_scan_agrees"] is agreement
    assert doc["broadcast_lower_bound"] == segments - min_cut


def test_experiment_small_grid(capsys, tmp_path):
    out = tmp_path / "rows.csv"
    args = (
        "experiment", "--users-list", "5,6", "--segments-list", "8",
        "--trials", "3", "--extra-edges", "1", "--seed", "3", "--out", str(out),
    )
    code, _, _ = run_cli(capsys, *args)
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("users,segments,")
    first = out.read_text()
    code, _, _ = run_cli(capsys, *args)
    assert code == 0 and out.read_text() == first


def test_experiment_rejects_bad_lists(capsys):
    code, _, err = run_cli(
        capsys, "experiment", "--users-list", "5,x", "--segments-list", "8",
        "--trials", "1", "--extra-edges", "0", "--seed", "1",
    )
    assert code == 2 and "users-list" in err
    code, _, _ = run_cli(
        capsys, "experiment", "--users-list", "", "--segments-list", "8",
        "--trials", "1", "--extra-edges", "0", "--seed", "1",
    )
    assert code == 2
    # `--users-list 6,6 --segments-list 12,12` ran each trial four times,
    # printing four identical rows; a repeated value is refused before any trial
    code, out, err = run_cli(
        capsys, "experiment", "--users-list", "6,6", "--segments-list", "12,12",
        "--trials", "2", "--extra-edges", "0", "--seed", "1",
    )
    assert (code, out, err) == (2, "", "error: users_list repeats 6\n")


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-c",
         "from hypercast.cli import main_script; main_script()"],
        input="", capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(FIXTURES.parent.parent / "src")},
    )
    assert proc.returncode == 1  # no subcommand counts as a usage error
    assert proc.stderr.startswith("usage: hypercast")


def test_gen_analyze_round_trip_never_errors(capsys, tmp_path):
    for seed in range(10):
        path = tmp_path / f"i{seed}.json"
        code, _, _ = run_cli(
            capsys, "gen", "--users", "7", "--segments", "11", "--seed", str(seed),
            "--extra-edges", str(seed % 3), "--out", str(path),
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "analyze", "--in", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["quasi_tree"] == (seed % 3 == 0)
        assert doc["num_segments"] == 11
