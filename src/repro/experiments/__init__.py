"""The experiment driver: declarative matrices over server workloads.

``repro lab run`` executes a workload × backend × scale × jobs matrix
described by a :class:`~repro.experiments.spec.LabSpec` (JSON file,
CLI flags, or both), records each (workload, point) trace exactly
once, replays it through every selected sound-and-complete backend
via the block pipeline, and **asserts the workload's declared ground
truth at every cell before reporting a number**.  ``repro lab
report`` renders stored results as markdown; the ``workloads`` lane
of :mod:`repro.bench` times :func:`record_matrix` /
:func:`check_matrix` against a committed baseline.

See ``docs/workloads.md`` for the server families and their declared
truths, and ``EXPERIMENTS.md`` for how the lab fits the experiment
pipeline.
"""

from repro.experiments.digests import (
    digest_map,
    family_for_digest,
    load_digests,
    save_digests,
)
from repro.experiments.report import render_report
from repro.experiments.runner import (
    BACKEND_FACTORIES,
    GroundTruthMismatch,
    check_cell,
    check_matrix,
    make_backend,
    record_matrix,
    record_trace,
    run_lab,
)
from repro.experiments.spec import (
    ALLOWED_BACKENDS,
    DEFAULT_BACKENDS,
    GRAPH_BACKENDS,
    LabSpec,
    SpecError,
    load_spec,
)

__all__ = [
    "ALLOWED_BACKENDS",
    "BACKEND_FACTORIES",
    "DEFAULT_BACKENDS",
    "GRAPH_BACKENDS",
    "GroundTruthMismatch",
    "LabSpec",
    "SpecError",
    "check_cell",
    "check_matrix",
    "digest_map",
    "family_for_digest",
    "load_digests",
    "load_spec",
    "make_backend",
    "record_matrix",
    "record_trace",
    "render_report",
    "run_lab",
    "save_digests",
]
