"""Coded broadcast planning over shared collision channels.

The package models a group of users who each store a subset of a file's
segments and exchange the rest over a single broadcast medium.  Storage
overlap is captured as a weighted hypergraph; the planner derives a
min-cut lower bound on the number of broadcasts and, for quasi-tree
overlap structures, meets it exactly with a coded schedule.  A reduction
extends the planner to arbitrary connected structures.
"""

from .dbqt import (
    NotQuasiTreeError,
    PhasePlan,
    PlanError,
    QuasiTreePlan,
    dbqt_schedule,
    decodable_with,
    ordered_representatives,
    phase_schedule,
    plan_phases,
    vandermonde,
)
from .field import P, inv_mod, nonsingular_mod, rank_mod
from .formats import (
    FORMAT_VERSION,
    dumps_document,
    dumps_instance,
    experiment_csv,
    instance_digest,
    instance_document,
    loads_instance,
    parse_instance,
    plan_document,
    read_instance,
    transcript_document,
    write_instance,
)
from .general import (
    ExperimentConfig,
    ExperimentRow,
    Reduction,
    dbqt_general,
    iter_experiment_instances,
    min_degree_bound,
    run_experiment,
    spanning_quasi_tree,
)
from .generators import GenerationError, derive_seed, random_instance
from .hypergraph import (
    Cut,
    Edge,
    Hypergraph,
    MinCut,
)
from .sim import (
    Broadcast,
    SegmentStore,
    SlotRecord,
    Transcript,
    materialize_payloads,
    naive_schedule,
    run_schedule,
    uncoded_broadcast,
    verify_payload_run,
)
from .topology import StorageTopology

__version__ = "0.1.0"

__all__ = [
    "P",
    "Broadcast",
    "Cut",
    "Edge",
    "ExperimentConfig",
    "ExperimentRow",
    "FORMAT_VERSION",
    "GenerationError",
    "Hypergraph",
    "MinCut",
    "NotQuasiTreeError",
    "PhasePlan",
    "PlanError",
    "QuasiTreePlan",
    "Reduction",
    "SegmentStore",
    "SlotRecord",
    "StorageTopology",
    "Transcript",
    "dbqt_general",
    "dbqt_schedule",
    "decodable_with",
    "derive_seed",
    "dumps_document",
    "dumps_instance",
    "experiment_csv",
    "instance_digest",
    "instance_document",
    "inv_mod",
    "iter_experiment_instances",
    "loads_instance",
    "materialize_payloads",
    "min_degree_bound",
    "naive_schedule",
    "nonsingular_mod",
    "ordered_representatives",
    "parse_instance",
    "phase_schedule",
    "plan_document",
    "plan_phases",
    "random_instance",
    "rank_mod",
    "read_instance",
    "run_experiment",
    "run_schedule",
    "spanning_quasi_tree",
    "transcript_document",
    "uncoded_broadcast",
    "vandermonde",
    "verify_payload_run",
    "write_instance",
]
