"""Span recording and per-layer roll-up for the traced benchmark run.

The benchmark never turns on the program's own tracer.  Instead,
:func:`instrument` replaces the public functions of each layer with
timing wrappers, at the module where the caller looks each one up
(``repro.generation.generator.execute_pipeline_code`` is imported there
by name, so that is the binding that gets wrapped), and
:meth:`Patches.restore` puts every original back.

Spans live in memory as ``(span_id, name, start, end, parent, op_id)``
tuples and are written out once, at the end of the run.  A layer's self
time is its span's duration minus the durations of the child spans it
covers; whatever part of an op no span covers is the op's unattributed
remainder, so self times plus remainder add up to the op's wall time.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, NamedTuple

__all__ = [
    "Span",
    "Recorder",
    "Patches",
    "instrument",
    "self_times",
    "layer_report",
]


class Span(NamedTuple):
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    op_id: int | None


class Recorder:
    """Thread-aware in-memory span store plus named counters.

    Each thread keeps its own stack of open spans and its own current op,
    so concurrent grid cells produce disjoint span trees.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op_id: int) -> None:
        self._local.op_id = op_id
        self._local.stack = []

    def end_op(self) -> None:
        self._local.op_id = None

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    def timed(self, name: str, fn: Callable[..., Any],
              after: Callable[[Any, float], None] | None = None) -> Callable[..., Any]:
        """Wrap ``fn`` so that every call records one span named ``name``.

        ``after(result, seconds)`` runs once the span is closed.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append(Span(
                    span_id, name, start, end, parent,
                    getattr(recorder._local, "op_id", None),
                ))
            if after is not None:
                after(result, end - start)
            return result

        return wrapper

    def timed_iterator(self, name: str, fn: Callable[..., Iterable[Any]]) -> Callable[..., Any]:
        """Wrap a generator function: each ``next()`` is one span."""
        step = self.timed(name, next)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            iterator = iter(fn(*args, **kwargs))
            done = object()
            while True:
                item = step(iterator, done)
                if item is done:
                    return
                yield item

        return wrapper


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# -- the layer map ---------------------------------------------------------------


def _estimator_methods() -> list[tuple[type, str]]:
    """(defining class, method) for fit/predict/predict_proba of every
    classifier and regressor that ``repro.ml`` exports."""
    import repro.ml as ml
    from repro.ml.base import ClassifierMixin, RegressorMixin

    found: list[tuple[type, str]] = []
    for value in vars(ml).values():
        if not (isinstance(value, type)
                and issubclass(value, (ClassifierMixin, RegressorMixin))):
            continue
        for method in ("fit", "predict", "predict_proba"):
            owner = next((k for k in value.__mro__ if method in k.__dict__), None)
            if owner is not None and (owner, method) not in found:
                found.append((owner, method))
    return found


_METRIC_FUNCTIONS = (
    "accuracy_score", "confusion_matrix", "f1_score", "log_loss",
    "mean_absolute_error", "mean_squared_error", "precision_score",
    "r2_score", "recall_score", "roc_auc_score", "root_mean_squared_error",
)


def instrument(recorder: Recorder) -> Patches:
    """Wrap the public entry points of every layer; returns the undo log."""
    import repro.api as api
    import repro.catalog.profiler as profiler
    import repro.catalog.streaming as streaming
    import repro.datasets.registry as registry
    import repro.execpool.pool as pool
    import repro.generation.generator as generator
    import repro.ml as ml
    import repro.table.io_csv as io_csv
    from repro.generation.knowledge_base import KnowledgeBase
    from repro.llm.mock import MockLLM
    from repro.ml.pipeline import TableVectorizer
    from repro.runner.scheduler import Scheduler
    from repro.sketch import ColumnSketch, PairSketch

    patches = Patches()
    timed = recorder.timed
    local = threading.local()

    # ml: vectorizer, estimators, metric functions (inproc executions only)
    for method in ("fit", "transform", "fit_transform"):
        if method in TableVectorizer.__dict__:
            patches.wrap(TableVectorizer, method,
                         lambda fn: timed("ml.vectorize", fn))
    for owner, method in _estimator_methods():
        name = "ml.fit" if method == "fit" else "ml.predict"
        patches.wrap(owner, method, lambda fn, name=name: timed(name, fn))
    for name in _METRIC_FUNCTIONS:
        patches.wrap(ml, name, lambda fn: timed("ml.metrics", fn))

    # generation: executions, split by whether the static gate's
    # validation step issued them
    def first_error(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            local.validating = True
            try:
                return fn(*args, **kwargs)
            finally:
                local.validating = False
        return wrapper

    def execute(fn: Callable[..., Any]) -> Callable[..., Any]:
        validate = timed("generation.validate_exec", fn)
        final = timed("generation.final_exec", fn)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if getattr(local, "validating", False):
                return validate(*args, **kwargs)
            return final(*args, **kwargs)
        return wrapper

    patches.wrap(generator._GeneratorBase, "_first_error", first_error)
    patches.wrap(generator, "execute_pipeline_code", execute)

    def find_patch(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            entry = fn(*args, **kwargs)
            recorder.count("generation.kb_lookups")
            if entry is not None:
                recorder.count("generation.kb_hits")
            return entry
        return wrapper

    patches.wrap(KnowledgeBase, "find_patch", find_patch)

    # analysis, prompt, llm
    patches.wrap(generator, "analyze_source", lambda fn: timed("analysis.analyze", fn))

    def fixed(outcome: Any, seconds: float) -> None:
        if outcome.changed:
            recorder.count("analysis.fixes_applied")

    patches.wrap(generator, "fix_error", lambda fn: timed("analysis.fix", fn, after=fixed))
    patches.wrap(generator, "build_prompt_plan", lambda fn: timed("prompt.build", fn))
    patches.wrap(generator, "render_error_prompt",
                 lambda fn: timed("prompt.build", fn,
                                  after=lambda r, s: recorder.count("prompt.error_prompts")))

    def completed(response: Any, seconds: float) -> None:
        recorder.count("llm.prompt_tokens", response.prompt_tokens)
        recorder.count("llm.completion_tokens", response.completion_tokens)

    patches.wrap(MockLLM, "complete", lambda fn: timed("llm.complete", fn, after=completed))

    # catalog: batch and streaming profilers, dependency discovery
    for module in (profiler, registry, streaming, api):
        patches.wrap(module, "profile_table", lambda fn: timed("catalog.profile", fn))
    patches.wrap(streaming, "profile_table_streaming",
                 lambda fn: timed("catalog.stream_profile", fn))
    for module, name in ((profiler, "pairwise_similarities"),
                         (profiler, "find_inclusion_dependencies"),
                         (streaming, "similarities_from_vectors"),
                         (streaming, "inclusions_from_hash_sets")):
        patches.wrap(module, name, lambda fn: timed("catalog.dependencies", fn))

    # sketch and table
    for cls in (ColumnSketch, PairSketch):
        patches.wrap(cls, "update", lambda fn: timed("sketch.update", fn))
        patches.wrap(cls, "merge", lambda fn: timed("sketch.merge", fn))
    patches.wrap(io_csv, "iter_csv_chunks",
                 lambda fn: recorder.timed_iterator("table.ingest", fn))
    patches.wrap(registry, "join_multi_table", lambda fn: timed("table.join", fn))
    patches.wrap(api, "train_test_split", lambda fn: timed("table.split", fn))

    # execpool: round trips, their overhead over the worker's own runtime,
    # and the bytes of the job frames sent to workers
    def round_trip(result: Any, seconds: float) -> None:
        recorder.count("execpool.overhead", seconds - result.runtime_seconds)

    patches.wrap(pool.ExecPool, "execute",
                 lambda fn: timed("execpool.roundtrip", fn, after=round_trip))

    class _CountingStream:
        def __init__(self, stream: Any) -> None:
            self._stream = stream

        def write(self, data: bytes) -> int:
            recorder.count("execpool.frame_bytes", len(data))
            return self._stream.write(data)

        def flush(self) -> None:
            self._stream.flush()

    def write_frame(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(stream: Any, payload: Any) -> None:
            fn(_CountingStream(stream), payload)
        return wrapper

    patches.wrap(pool, "write_frame", write_frame)

    # runner: worker-seconds each grid held (outside any op, so a counter)
    def grid_run(fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(self: Any, graph: Any) -> Any:
            start = time.perf_counter()
            try:
                return fn(self, graph)
            finally:
                elapsed = time.perf_counter() - start
                recorder.count("runner.worker_slots", self.workers * elapsed)
                recorder.count("runner.cells", len(graph.cells()))
        return wrapper

    patches.wrap(Scheduler, "run", grid_run)
    return patches


# -- roll-up -----------------------------------------------------------------------


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time per span id: duration minus the child spans it covers."""
    spans = list(spans)
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    return {span.span_id: span.end - span.start - covered[span.span_id]
            for span in spans}


def layer_report(spans: list[Span], op_walls: dict[int, float]) -> dict[str, Any]:
    """Per-op self time per span name, span counts, and the remainder.

    ``op_walls`` maps op id to its wall time; spans outside every op are
    ignored.  The returned ``unattributed_s`` is the mean per op of wall
    time minus the self times of that op's spans, so the per-name means
    plus ``unattributed_s`` equal the mean op wall time exactly.
    """
    n_ops = max(1, len(op_walls))
    selfs = self_times(spans)
    per_name: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    attributed: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.op_id not in op_walls:
            continue
        per_name[span.name] += selfs[span.span_id]
        counts[span.name] += 1
        attributed[span.op_id] += selfs[span.span_id]
    remainder = sum(op_walls[op] - attributed[op] for op in op_walls)
    return {
        "self_s": {name: total / n_ops for name, total in per_name.items()},
        "counts": dict(counts),
        "unattributed_s": remainder / n_ops,
        "op_wall_s": sum(op_walls.values()) / n_ops,
        "ops": len(op_walls),
    }
