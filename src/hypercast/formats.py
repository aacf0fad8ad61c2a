"""Instance, plan, transcript, and experiment serialization.

Instance files are JSON with a frozen schema (format_version 1): user
holdings plus optional payload_length and metadata.  Serialization is
canonical (sorted keys, two-space indent, trailing newline), so equal
instances always produce identical bytes; the digest hashes the
canonical form without metadata.
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
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


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
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {version!r}")
    try:
        num_users = _integer(doc["num_users"], "num_users")
        num_segments = _integer(doc["num_segments"], "num_segments")
        users = doc["users"]
    except KeyError as exc:
        raise ValueError(f"malformed instance document: {exc}") from exc
    if not isinstance(users, list):
        raise ValueError("users must be a list")
    holdings: dict[int, list[int]] = {}
    for entry in users:
        if not isinstance(entry, dict) or "id" not in entry or "segments" not in entry:
            raise ValueError(f"malformed user entry: {entry!r}")
        uid = _integer(entry["id"], "user id")
        if uid in holdings:
            raise ValueError(f"duplicate user id {uid}")
        if not isinstance(entry["segments"], list):
            raise ValueError(f"user {uid}: segments must be a list")
        holdings[uid] = [_integer(w, f"user {uid} segment id") for w in entry["segments"]]
    if sorted(holdings) != list(range(1, num_users + 1)):
        raise ValueError(f"user ids must be exactly 1..{num_users}")
    payload_length = doc.get("payload_length")
    if payload_length is not None:
        payload_length = _integer(payload_length, "payload_length")
    topology = StorageTopology(num_segments, holdings, payload_length)
    metadata = doc.get("metadata") or {}
    if not isinstance(metadata, dict):
        raise ValueError("metadata must be an object")
    return topology, metadata


def loads_instance(text: str) -> tuple[StorageTopology, dict]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
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
        "representatives": list(plan.representatives.order),
        "phases": [
            {
                "index": ph.index,
                "representative": ph.representative,
                "bridge_edge": sorted(ph.bridge) if ph.bridge is not None else None,
                "seed_segments": list(ph.seed_segments),
                "block": list(ph.block),
                "broadcast_count": ph.broadcast_count,
            }
            for ph in plan.phases
        ],
        "schedule": [
            {
                "slot": b.slot,
                "sender": b.sender,
                "coefficients": list(b.coefficients),
            }
            for b in plan.schedule
        ],
        "num_broadcasts": plan.num_broadcasts,
    }


def transcript_document(transcript: Transcript) -> dict:
    slots = [
        {
            "slot": rec.slot,
            "sender": rec.sender,
            "coefficients": list(rec.coefficients),
            "ranks": list(rec.ranks),
            "remaining_edges": rec.remaining_edges,
        }
        for rec in transcript.slots
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
