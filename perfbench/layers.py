"""Per-layer tracing applied from outside the package.

`Tracer.install` wraps named public functions of hypercast's modules.  A
function is replaced wherever a loaded hypercast module holds it, so
`hypercast.cli.run_schedule` and `hypercast.general.run_schedule` are
both traced; methods are wrapped on their class.  Every call records a
span (name, parent span, start, end) in flat arrays kept in memory, and
some calls feed counters from their arguments or results.  A target that
no longer exists is listed as absent and the run goes on without it.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict


def _count_slots(counters, args, kwargs, transcript):
    slots = getattr(transcript, "slots", ())
    counters["sim.slots"] += len(slots)
    for rec in slots:
        coeffs = getattr(rec, "coefficients", ())
        counters["sim.coeff_nonzero"] += sum(1 for c in coeffs if c)


def _count_rank_gain(counters, args, kwargs, grew):
    counters["field.insert_rank_gain"] += bool(grew)


def _count_removed(counters, args, kwargs, reduction):
    counters["general.removed_edges"] += len(getattr(reduction, "removed", ()))


def _count_completion(counters, args, kwargs, outcome):
    result = outcome[0] if isinstance(outcome, tuple) else outcome
    counters["general.completion_broadcasts"] += getattr(result, "completion_broadcasts", 0)


def _count_phases(counters, args, kwargs, phases):
    counters["dbqt.phases"] += len(phases)
    counters["dbqt.block_max_sum"] += max((len(ph.block) for ph in phases), default=0)


# (module, attribute path, counter hook); the span name is "<module>.<path>".
TARGETS = (
    ("cli", "main", None),
    ("formats", "read_instance", None),
    ("formats", "dumps_document", None),
    ("topology", "StorageTopology.to_hypergraph", None),
    ("hypergraph", "Hypergraph.is_connected", None),
    ("hypergraph", "Hypergraph.is_quasi_tree", None),
    ("hypergraph", "Hypergraph.min_cut", None),
    ("general", "dbqt_general", _count_completion),
    ("general", "spanning_quasi_tree", _count_removed),
    ("dbqt", "dbqt_schedule", None),
    ("dbqt", "plan_phases", _count_phases),
    ("dbqt", "phase_schedule", None),
    ("sim", "run_schedule", _count_slots),
    ("sim", "materialize_payloads", None),
    ("sim", "verify_payload_run", None),
    ("field", "ColumnBasis.insert", _count_rank_gain),
    ("field", "ColumnBasis.solve", None),
    ("field", "rank_mod", None),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _wrap(self, name: str, fn, hook):
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def install(self):
        loaded = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "hypercast"]
        for module_name, path, hook in TARGETS:
            name = f"{module_name}.{path}"
            try:
                module = importlib.import_module(f"hypercast.{module_name}")
                owner = module
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if owners else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, original, hook)
            if owners:
                self._patch(owner, attr, wrapped)
                continue
            for m in loaded:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapped)

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- summaries ------------------------------------------------------

    def open_names(self) -> list[str]:
        """Names of the spans still running, outermost first."""
        return [self.names[self.span_name[sid]] for sid in self._stack]

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its child
        spans.
        """
        n = len(self.span_name)
        child = [0.0] * n
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i, name_id in enumerate(self.span_name):
            row = out[self.names[name_id]]
            row["calls"] += 1
            row["s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        return out

    def spans(self, first: int, last: int) -> list[list]:
        """Spans first..last-1 as [id, parent, name, start, end] rows."""
        return [
            [i, self.span_parent[i], self.names[self.span_name[i]],
             self.span_start[i], self.span_end[i]]
            for i in range(first, last)
        ]
