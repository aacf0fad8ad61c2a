"""Instance, plan, transcript, and experiment serialization.

Instance files are JSON with a frozen schema (format_version 1): user
holdings plus optional payload_length and metadata.  Every document is
written in one canonical form, exactly json.dumps(doc, indent=2,
sort_keys=True) + "\n", so equal instances always produce identical
bytes; the digest hashes the canonical form without metadata.  Plan
and transcript documents number slots from 0 and phases from 1 by their
position in the plan or transcript.
dumps_document writes that form with the C JSON encoder: before Python
3.13, json.dumps indents with a pure-Python encoder that is much slower.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Mapping

from .dbqt import QuasiTreePlan
from .sim import Transcript
from .topology import StorageTopology

FORMAT_VERSION = 1
_INDENT = "  "
_CONTAINERS = (dict, list, tuple)

__all__ = [
    "FORMAT_VERSION",
    "instance_document",
    "dumps_document",
    "dumps_instance",
    "parse_instance",
    "loads_instance",
    "write_instance",
    "read_instance",
    "instance_digest",
    "plan_document",
    "transcript_document",
    "experiment_csv",
]


def instance_document(topology: StorageTopology, metadata: Mapping | None = None) -> dict:
    doc: dict = {
        "format_version": FORMAT_VERSION,
        "num_users": topology.num_users,
        "num_segments": topology.num_segments,
        "users": [
            {"id": v, "segments": sorted(topology.holding(v))}
            for v in topology.users
        ],
    }
    if topology.payload_length is not None:
        doc["payload_length"] = topology.payload_length
    if metadata:
        doc["metadata"] = dict(metadata)
    return doc


def dumps_document(doc: dict) -> str:
    """The canonical text of a document: exactly
    ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``.

    The C encoder does not indent (before Python 3.13), so here Python
    walks the containers that hold other containers.  Each container of
    scalars is one call to the C encoder, whose item separator carries
    the newline and indent of the container's depth; so are the keys and
    scalar values of each dict that holds a container.
    """
    levels: list[tuple] = []  # per depth: the C encode, the item break, the closing break

    def write(value, depth: int) -> str:
        if depth == len(levels):  # the first container this deep
            inner = "\n" + _INDENT * (depth + 1)
            encoder = json.JSONEncoder(sort_keys=True, separators=("," + inner, ": "))
            levels.append((encoder.encode, inner, "\n" + _INDENT * depth))
        encode, inner, outer = levels[depth]
        if not isinstance(value, _CONTAINERS) or not value:
            return encode(value)  # a scalar, [] or {}
        if isinstance(value, dict):
            nested = [k for k, v in value.items() if isinstance(v, _CONTAINERS)]
            if nested:
                # one C call writes every key, and every scalar value, one
                # item a line in the order of sorted(value.items()): it
                # sorts the same keys in the same order, and its strings
                # escape newlines; a container goes in place of its 0
                lines = encode({**value, **dict.fromkeys(nested, 0)})[1:-1].split("," + inner)
                body = [
                    line[:-1] + write(v, depth + 1) if isinstance(v, _CONTAINERS) else line
                    for line, (_, v) in zip(lines, sorted(value.items()))
                ]
                return "{" + inner + ("," + inner).join(body) + outer + "}"
            text = encode(value)
        else:
            # a list of scalars costs less to encode than to scan; a
            # second bracket in its text comes from a container in it,
            # or from a string, so only then is it scanned
            text = "" if isinstance(value[0], _CONTAINERS) else encode(value)
            if not text or (text.find("[", 1) > 0 or "{" in text) and any(
                isinstance(v, _CONTAINERS) for v in value
            ):
                body = [write(v, depth + 1) for v in value]
                return "[" + inner + ("," + inner).join(body) + outer + "]"
        return text[0] + inner + text[1:-1] + outer + text[-1]

    return write(doc, 0) + "\n"


def dumps_instance(topology: StorageTopology, metadata: Mapping | None = None) -> str:
    return dumps_document(instance_document(topology, metadata))


def _integer(value, what: str) -> int:
    # bool is an int subclass; floats and strings are refused, not coerced
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def parse_instance(doc) -> tuple[StorageTopology, dict]:
    """Validate a parsed instance document; returns (topology, metadata)."""
    if not isinstance(doc, dict):
        raise ValueError("instance document must be a JSON object")
    version = doc.get("format_version")
    # 1.0 and true compare equal to 1; only the integer is the version
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {version!r}")
    try:
        num_users = _integer(doc["num_users"], "num_users")
        num_segments = _integer(doc["num_segments"], "num_segments")
        users = doc["users"]
    except KeyError as exc:
        raise ValueError(f"malformed instance document: {exc}") from exc
    if not isinstance(users, list):
        raise ValueError("users must be a list")
    holdings: dict[int, set[int]] = {}
    for entry in users:
        if not isinstance(entry, dict) or "id" not in entry or "segments" not in entry:
            raise ValueError(f"malformed user entry: {entry!r}")
        uid = _integer(entry["id"], "user id")
        if uid in holdings:
            raise ValueError(f"duplicate user id {uid}")
        if not isinstance(entry["segments"], list):
            raise ValueError(f"user {uid}: segments must be a list")
        segments: set[int] = set()
        for w in entry["segments"]:
            w = _integer(w, f"user {uid} segment id")
            if w in segments:
                raise ValueError(f"user {uid} lists segment {w} twice")
            segments.add(w)
        holdings[uid] = segments
    # the count is checked against the file before any range is built
    if num_users != len(holdings) or sorted(holdings) != list(range(1, num_users + 1)):
        raise ValueError(f"user ids must be exactly 1..{num_users}")
    payload_length = doc.get("payload_length")
    if payload_length is not None:
        payload_length = _integer(payload_length, "payload_length")
    topology = StorageTopology(num_segments, holdings, payload_length)
    metadata = doc.get("metadata")
    if metadata is None:
        metadata = {}
    elif not isinstance(metadata, dict):
        raise ValueError(f"metadata must be an object, got {metadata!r}")
    return topology, metadata


def loads_instance(text: str) -> tuple[StorageTopology, dict]:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # nesting too deep to read
        raise ValueError(f"instance file is not valid JSON: {exc}") from exc
    return parse_instance(doc)


def write_instance(path, topology: StorageTopology, metadata: Mapping | None = None):
    Path(path).write_text(dumps_instance(topology, metadata))


def read_instance(path) -> tuple[StorageTopology, dict]:
    return loads_instance(Path(path).read_text())


def instance_digest(topology: StorageTopology) -> str:
    """sha256 over the canonical metadata-free serialization."""
    return hashlib.sha256(dumps_instance(topology).encode()).hexdigest()


def plan_document(plan: QuasiTreePlan) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "min_edge_weight": plan.delta,
        "representatives": list(plan.representatives),
        "phases": [
            {
                "index": i,
                "representative": ph.representative,
                "bridge_edge": sorted(ph.bridge) if ph.bridge is not None else None,
                "seed_segments": list(ph.seed_segments),
                "block": list(ph.block),
                "broadcast_count": ph.broadcast_count,
            }
            for i, ph in enumerate(plan.phases, start=1)
        ],
        "schedule": [
            {
                "slot": t,
                "sender": b.sender,
                "coefficients": list(b.coefficients),
            }
            for t, b in enumerate(plan.schedule)
        ],
        "num_broadcasts": plan.num_broadcasts,
    }


def transcript_document(transcript: Transcript) -> dict:
    slots = [
        {
            "slot": t,
            "sender": rec.sender,
            "coefficients": list(rec.coefficients),
            "ranks": list(rec.ranks),
            "remaining_edges": rec.remaining_edges,
        }
        for t, rec in enumerate(transcript.slots)
    ]
    return {
        "format_version": FORMAT_VERSION,
        "num_users": transcript.num_users,
        "num_segments": transcript.num_segments,
        "initial_ranks": list(transcript.initial_ranks),
        "slots": slots,
        "num_broadcasts": transcript.num_broadcasts,
        "complete": transcript.complete,
    }


def experiment_csv(rows) -> str:
    lines = [
        "users,segments,mean_broadcasts,min_broadcasts,max_broadcasts,mean_lower_bound,violations"
    ]
    for r in rows:
        lines.append(
            f"{r.num_users},{r.num_segments},{r.mean_broadcasts:.4f},"
            f"{r.min_broadcasts},{r.max_broadcasts},{r.mean_lower_bound:.4f},{r.violations}"
        )
    return "\n".join(lines) + "\n"
