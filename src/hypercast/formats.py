"""Instance, plan, transcript, and experiment serialization.

Instance files are JSON with a frozen schema (format_version 1): user
holdings plus optional payload_length and metadata.  Every document is
written in one canonical form, exactly json.dumps(doc, indent=2,
sort_keys=True) + "\n", so equal instances always produce identical
bytes; the digest hashes the canonical form without metadata.  Plan
and transcript documents number slots from 0 and phases from 1 by their
position in the plan or transcript.
dumps_documents writes that form with the C JSON encoder (json.dumps indents
in slow pure Python before 3.13), a depth at a time, and a shared row once.
"""
from __future__ import annotations

import hashlib
import json
import sys
from itertools import islice
from pathlib import Path
from typing import Mapping

from .dbqt import QuasiTreePlan
from .sim import Transcript
from .topology import StorageTopology, _integer

FORMAT_VERSION = 1
_INDENT = "  "
_CONTAINERS = (dict, list, tuple)
_CHUNK = 16  # lists of scalars per C call: no one string holds a whole column
_LEVELS: dict[int, tuple] = {}  # per depth: the C encode, the item separator, the closing break

__all__ = [
    "FORMAT_VERSION",
    "instance_document",
    "dumps_document",
    "dumps_documents",
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


def dumps_documents(*docs):
    """Yield the canonical text of each document in turn: exactly
    ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``.

    The C encoder does not indent (before Python 3.13), so Python walks the
    documents depth by depth, where the C encoder, its item separator the
    newline and indent of the depth, writes every scalar (a dict's value
    after its key) in one call, the lists of scalars in one call per _CHUNK,
    and every dict's keys, sorted and each line ending in 0, in one call; no
    encoded scalar holds a newline, so the separators split these exactly.
    A list of scalars that an earlier document held at the same depth keeps
    its text: it is the same object, as every document stays alive here.
    """
    memo: dict[tuple[int, int], str] = {}  # (depth, id) of a list of scalars: its text
    for doc in docs:
        levels, nodes, keys, children = [], [doc], [""], iter(())  # keys: each node's line so far
        while nodes:
            depth = len(levels)
            if depth > sys.getrecursionlimit():  # as deep as the stdlib goes, or circular
                raise RecursionError(f"document nested more than {sys.getrecursionlimit()} deep")
            if depth not in _LEVELS:
                sep = ",\n" + _INDENT * (depth + 1)
                encode = json.JSONEncoder(sort_keys=True, separators=(sep, ": ")).encode
                _LEVELS[depth] = encode, sep, "\n" + _INDENT * depth
            encode, sep, outer = _LEVELS[depth]
            texts, scalars, lists, nested, below, above = [None] * len(nodes), [], [], [], [], []
            for i, v in enumerate(nodes):
                if not isinstance(v, _CONTAINERS) or not v:
                    scalars.append(i)
                elif isinstance(v, dict) or isinstance(v[0], _CONTAINERS):
                    nested.append(i)
                elif (depth, id(v)) in memo:
                    texts[i] = keys[i] + memo[depth, id(v)]
                else:
                    lists.append(i)
            for i, text in zip(scalars, encode([nodes[i] for i in scalars])[1:-1].split(sep)):
                texts[i] = keys[i] + text
            for chunk in (lists[k:k + _CHUNK] for k in range(0, len(lists), _CHUNK)):
                text = encode([nodes[i] for i in chunk])
                if "{" in text or text.count("[") != len(chunk) + 1:  # a container or a string's "["
                    nested += chunk
                    continue
                for i, body in zip(chunk, text[2:-2].split("]" + sep + "[")):
                    memo[depth, id(nodes[i])] = body = "[" + sep[1:] + body + outer + "]"
                    texts[i] = keys[i] + body
            lines = encode([dict.fromkeys(nodes[i], 0) for i in nested if isinstance(nodes[i], dict)])
            lines = iter(lines[2:-3].replace("0}" + sep + "{", "0" + sep).split("0" + sep))
            for v in map(nodes.__getitem__, nested):
                below += [x for _, x in sorted(v.items())] if isinstance(v, dict) else v
                above += [next(lines) for _ in v] if isinstance(v, dict) else [""] * len(v)
            levels.append((nodes, keys, texts, nested, sep, outer))
            nodes, keys = below, above
        while levels:  # from the deepest, each container joins its children's texts
            nodes, keys, texts, nested, sep, outer = levels.pop()
            for i in nested:
                o, c = "{}" if isinstance(nodes[i], dict) else "[]"
                texts[i] = f"{keys[i]}{o}{sep[1:]}{sep.join(islice(children, len(nodes[i])))}{outer}{c}"
            children = iter(texts)
        yield texts.pop() + "\n"  # the frame keeps no copy of a text it has yielded


def dumps_document(doc) -> str:
    """The canonical text of one document (see dumps_documents)."""
    return next(dumps_documents(doc))


def dumps_instance(topology: StorageTopology, metadata: Mapping | None = None) -> str:
    return dumps_document(instance_document(topology, metadata))


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
                "coefficients": b.coefficients,
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
            "coefficients": rec.coefficients,
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
