"""Observability subsystem: tracing spans, metrics, and a run ledger.

Three parts (see ``docs/observability.md``):

- :mod:`repro.obs.trace` — nestable, thread-aware ``span()`` trees;
- :mod:`repro.obs.metrics` — process-local counters / gauges / histograms;
- :mod:`repro.obs.ledger` — JSONL-persisted per-run records with
  listing, loading, and per-phase diffing;

plus :mod:`repro.obs.session`, which scopes one tracer + registry to a
run and appends the ledger record on exit.  Everything defaults to
no-ops (``NULL_TRACER`` / ``NULL_METRICS``) so the instrumented
profile → prompt → generate → repair → execute path is effectively free
unless ``--trace`` / ``REPRO_TRACE=1`` / :func:`enable_tracing` is used.
"""

from repro.obs.ledger import (
    RunLedger,
    RunRecord,
    default_ledger_path,
    render_diff,
    render_record,
    render_records_table,
)
from repro.obs.metrics import (
    NULL_METRICS,
    MetricsRegistry,
    get_metrics,
    set_metrics,
)
from repro.obs.session import (
    RunSession,
    active_session,
    configured_ledger_path,
    disable_tracing,
    enable_tracing,
    run_session,
    tracing_enabled,
)
from repro.obs.trace import (
    NULL_TRACER,
    Span,
    Tracer,
    aggregate_spans,
    current_span,
    get_tracer,
    render_span_tree,
    set_tracer,
    span,
    traced,
)

__all__ = [
    "Span",
    "Tracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "span",
    "current_span",
    "traced",
    "aggregate_spans",
    "render_span_tree",
    "MetricsRegistry",
    "NULL_METRICS",
    "get_metrics",
    "set_metrics",
    "RunLedger",
    "RunRecord",
    "default_ledger_path",
    "render_record",
    "render_records_table",
    "render_diff",
    "RunSession",
    "run_session",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "active_session",
    "configured_ledger_path",
]
