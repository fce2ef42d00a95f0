"""The composable event pipeline (paper Section 5 architecture).

Events flow ``source → stages → fan-out → backends``:

* an :class:`EventSource` produces the operation stream — a live
  interpreted execution (:class:`LiveSource`) or a recorded trace
  (:class:`TraceSource`);
* :class:`Stage` filters drop events before analysis (re-entrant lock
  elision, thread-local filtering, atomic-block exclusion);
* :class:`FanOut` feeds every surviving event to N analysis back-ends
  in a single pass over the stream;
* :class:`PipelineMetrics` reports per-kind event counts, per-stage
  drops, and per-backend cost — the ``--stats`` output.

See ``docs/pipeline.md`` for the architecture guide.
"""

from repro.pipeline.core import Pipeline
from repro.pipeline.fanout import FanOut
from repro.pipeline.metrics import (
    BackendMetrics,
    PipelineMetrics,
    StageMetrics,
)
from repro.pipeline.source import (
    EventSink,
    EventSource,
    LiveSource,
    SourceResult,
    TraceSource,
)
from repro.pipeline.stages import (
    AtomicSpecFilter,
    BlockFilter,
    ReentrantLockFilter,
    Stage,
    ThreadLocalFilter,
    UninstrumentedLockFilter,
)

__all__ = [
    "AtomicSpecFilter",
    "BackendMetrics",
    "BlockFilter",
    "EventSink",
    "EventSource",
    "FanOut",
    "LiveSource",
    "Pipeline",
    "PipelineMetrics",
    "ReentrantLockFilter",
    "SourceResult",
    "Stage",
    "StageMetrics",
    "ThreadLocalFilter",
    "TraceSource",
    "UninstrumentedLockFilter",
]
