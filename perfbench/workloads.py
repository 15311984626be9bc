"""The three benchmark workloads: their input pools, set-up and ops.

Every workload draws its ops from a fixed pool of configurations whose
outputs are committed in ``reference.json``; a run executes whole rounds
over the pool, each round in an order drawn from the workload seed.  An
op returns an *outcome* (what the reference pins) and *extra* fields the
per-layer roll-up reads.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.api import LLM, catdb_pipgen
from repro.catalog import profiler, streaming
from repro.catalog.cache import clear_default_cache, get_default_cache
from repro.datasets.registry import DatasetBundle, load_dataset
from repro.execpool.pool import get_pool, shutdown_pool
from repro.experiments.common import prepare_dataset, run_grid
from repro.generation.generator import CatDB, GenerationReport
from repro.generation.knowledge_base import KnowledgeBase
from repro.llm.mock import MockLLM
from repro.runner import JobGraph
from repro.table import io_csv

__all__ = ["OpResult", "WORKLOADS", "generation_outcome", "compare_outcome"]


@dataclass
class OpResult:
    key: str
    seconds: float
    op_id: int
    outcome: dict[str, Any] | None = None
    error: str = ""
    extra: dict[str, Any] = field(default_factory=dict)


def _md5(text: str) -> str:
    return hashlib.md5(text.encode("utf-8")).hexdigest()


def generation_outcome(report: GenerationReport, task_type: str) -> dict[str, Any]:
    """What a generation op must reproduce: code, token counts, score."""
    metric = report.primary_metric_for(task_type)
    return {
        "success": report.success,
        "code_md5": _md5(report.code),
        "prompt_tokens": report.cost.prompt_tokens,
        "completion_tokens": report.cost.completion_tokens,
        "primary_metric": None if metric is None else float(metric),
    }


def generation_extra(report: GenerationReport) -> dict[str, Any]:
    return {
        "fix_attempts": report.fix_attempts,
        "fallback_used": report.fallback_used,
        "static_exec_skipped": report.static_exec_skipped,
    }


def compare_outcome(outcome: dict[str, Any] | None,
                    expected: dict[str, Any] | None) -> list[str]:
    """Names of the fields where ``outcome`` differs from the reference.

    A missing reference or a missing outcome is a mismatch of everything;
    a generation op that did not succeed mismatches on ``success`` even
    if the reference recorded the same failure.
    """
    if expected is None:
        return ["<no reference>"]
    if outcome is None:
        return ["<no outcome>"]
    wrong = sorted(k for k in expected.keys() | outcome.keys()
                   if outcome.get(k) != expected.get(k))
    if outcome.get("success") is False and "success" not in wrong:
        wrong.append("success")
    return wrong


class _OpClock:
    """Runs one op: times it, tags its spans, and never raises."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def run(self, key: str, fn: Callable[[], tuple[dict, dict]],
            recorder: Any = None) -> OpResult:
        with self._lock:
            op_id = next(self._ids)
        if recorder is not None:
            recorder.begin_op(op_id)
        start = time.perf_counter()
        try:
            outcome, extra = fn()
        except Exception as exc:  # noqa: BLE001 - a failed op is a data point
            seconds = time.perf_counter() - start
            return OpResult(key, seconds, op_id, error=f"{type(exc).__name__}: {exc}")
        finally:
            if recorder is not None:
                recorder.end_op()
        return OpResult(key, time.perf_counter() - start, op_id, outcome, extra=extra)


class Workload:
    """Base: a pool of keys, a repeatable set-up, and rounds of ops."""

    name = ""
    #: seconds one round takes on the 2-core machine the benchmark was
    #: calibrated on; a run does ``round(--seconds / nominal_round_s)``
    #: rounds (at least one), so the work per run is fixed
    nominal_round_s = 1.0

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.clock = _OpClock()

    def keys(self) -> list[str]:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, order: list[str], recorder: Any = None) -> list[OpResult]:
        return [self.clock.run(key, lambda key=key: self.op(key), recorder)
                for key in order]

    def op(self, key: str) -> tuple[dict, dict]:
        raise NotImplementedError

    def close(self) -> None:
        """Release what set-up acquired (processes, files)."""


# -- gen-wide --------------------------------------------------------------------


class GenWide(Workload):
    """What ``repro generate <dataset> --seed <v>`` does after synthesis."""

    name = "gen-wide"
    nominal_round_s = 34.0
    SIZES: dict[str, dict[str, int]] = {
        "kdd98": {"n": 200, "d": 80},
        "airline": {"n": 200},
        "house_sales": {"n": 200},
        "accidents": {"n": 200},
    }
    VARIANTS = (0, 1, 2)

    def keys(self) -> list[str]:
        return [f"{name}:{v}" for name in self.SIZES for v in self.VARIANTS]

    def setup(self) -> None:
        self.bundles: dict[str, DatasetBundle] = {}
        for key in self.keys():
            name, variant = key.split(":")
            bundle = load_dataset(name, seed=int(variant), **self.SIZES[name])
            self.bundles[key] = bundle

    def op(self, key: str) -> tuple[dict, dict]:
        clear_default_cache()  # a fresh `repro generate` process
        seed = int(key.split(":")[1])
        bundle = dataclasses.replace(self.bundles[key], _unified=None)
        catalog = bundle.profile(seed=seed)
        llm = LLM("gpt-4o", config={"seed": seed})
        result = catdb_pipgen(catalog, llm, data=bundle.unified, seed=seed,
                              exec_mode="inproc")
        extra = generation_extra(result.report)
        extra["cache"] = _cache_counts()
        return generation_outcome(result.report, bundle.task_type), extra


def _cache_counts() -> tuple[int, int]:
    cache = get_default_cache()
    return cache.hits, cache.misses


# -- catalog-wide ------------------------------------------------------------------


class CatalogWide(Workload):
    """Cold catalog collection: batch on wide tables, streaming over CSV.

    The five op kinds differ in cost by more than the machine's op-to-op
    noise, and a run does seven rounds, so the median falls in the middle
    of the slowest batch op's seven samples and the tail (ten samples
    beyond it) in the middle of the cheaper stream's.
    """

    name = "catalog-wide"
    nominal_round_s = 4.3
    BATCH: dict[str, dict[str, int]] = {
        "gas_drift": {"n": 200},
        "volkert": {"n": 200},
        "kdd98": {"n": 400},
    }
    #: nyc-style CSVs with more rows than the sketch's exact threshold
    #: (8192), so the sketch path runs
    STREAM_ROWS = 9000
    STREAMS: dict[str, tuple[str, ...]] = {
        "nyc-narrow": ("distance_km", "payment", "fare"),
        "nyc-wide": ("distance_km", "duration_min", "payment", "fare"),
    }
    STREAM_CHUNK_ROWS = 4096

    def keys(self) -> list[str]:
        return ([f"batch:{name}" for name in self.BATCH]
                + [f"stream:{name}" for name in self.STREAMS])

    def _csv_path(self, name: str) -> str:
        return os.path.join(self.workdir, f"{name}.csv")

    def setup(self) -> None:
        self.bundles = {name: load_dataset(name, seed=0, **size)
                        for name, size in self.BATCH.items()}
        os.makedirs(self.workdir, exist_ok=True)
        nyc = load_dataset("nyc", seed=0, n=self.STREAM_ROWS)
        for name, columns in self.STREAMS.items():
            io_csv.write_csv(nyc.unified, self._csv_path(name), columns=list(columns))
        self.stream_target = nyc.target
        self.stream_task = nyc.task_type

    def op(self, key: str) -> tuple[dict, dict]:
        clear_default_cache()  # a fresh `repro profile` process
        kind, name = key.split(":")
        if kind == "batch":
            bundle = self.bundles[name]
            catalog = profiler.profile_table(
                bundle.unified, target=bundle.target, task_type=bundle.task_type,
            )
        else:
            catalog = streaming.profile_table_streaming(
                io_csv.iter_csv_chunks(self._csv_path(name),
                                       chunk_rows=self.STREAM_CHUNK_ROWS),
                target=self.stream_target, task_type=self.stream_task,
                chunk_rows=self.STREAM_CHUNK_ROWS, name=name,
            )
        return ({"catalog_md5": _md5(catalog.to_json())},
                {"cache": _cache_counts()})

    def close(self) -> None:
        for name in self.STREAMS:
            path = self._csv_path(name)
            if os.path.exists(path):
                os.remove(path)


# -- repair-grid -------------------------------------------------------------------


class RepairGrid(Workload):
    """The Table-2 error replay on the scheduler, executing in the pool."""

    name = "repair-grid"
    nominal_round_s = 26.0
    DATASETS = ("wifi", "diabetes", "cmc", "etailing", "utility", "bike_sharing")
    ITERATIONS = (0, 1, 2, 3)
    WORKERS = 2

    def __init__(self, workdir: str, exec_mode: str = "pool", workers: int = WORKERS) -> None:
        super().__init__(workdir)
        self.exec_mode = exec_mode
        self.workers = workers

    def keys(self) -> list[str]:
        return [f"{name}:{it}" for name in self.DATASETS for it in self.ITERATIONS]

    def setup(self) -> None:
        graph = JobGraph()
        for name in self.DATASETS:
            graph.add(f"prepare:{name}",
                      lambda name=name: prepare_dataset(name, seed=0, quick=True),
                      seed=0)
        results = run_grid(graph, workers=self.workers, label="perfbench-prepare")
        failed = [job for job, result in results.items() if not result.ok]
        if failed:
            raise RuntimeError(f"prepare nodes failed: {failed}")
        self.prepared = {name: results[f"prepare:{name}"].value
                         for name in self.DATASETS}
        if self.exec_mode == "pool":
            shutdown_pool()
            _warm_pool(self.workers)

    def run_round(self, order: list[str], recorder: Any = None) -> list[OpResult]:
        graph = JobGraph()
        for key in order:
            graph.add(f"cell:{key}",
                      lambda key=key: self.clock.run(key, lambda: self.op(key), recorder),
                      config={"key": key})
        results = run_grid(graph, workers=self.workers, label="perfbench-repair")
        ops = []
        for key in order:
            result = results[f"cell:{key}"]
            ops.append(result.value if result.ok
                       else OpResult(key, result.seconds, 0, error=result.error))
        return ops

    def op(self, key: str) -> tuple[dict, dict]:
        name, iteration = key.split(":")
        iteration = int(iteration)
        prepared = self.prepared[name]
        llm = MockLLM("gemini-1.5", seed=iteration, error_rate_multiplier=3.0)
        generator = CatDB(llm, max_fix_attempts=4, knowledge_base=KnowledgeBase(),
                          exec_mode=self.exec_mode)
        report = generator.generate(prepared.train, prepared.test, prepared.catalog,
                                    iteration=iteration)
        return generation_outcome(report, prepared.task_type), generation_extra(report)

    def close(self) -> None:
        shutdown_pool()


_NOOP_PIPELINE = "def run_pipeline(train, test):\n    return {}\n"


def _warm_pool(workers: int) -> None:
    """Spawn ``workers`` pool workers by running no-op jobs concurrently."""
    from repro.table.table import Table
    from repro.table.column import Column

    pool = get_pool()
    table = Table([Column("x", [1.0, 2.0])], name="warm")
    threads = [threading.Thread(target=pool.execute, args=(_NOOP_PIPELINE, table, table))
               for _ in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    if pool.stats["spawns"] < workers:
        raise RuntimeError(f"warmed {pool.stats['spawns']} of {workers} pool workers")


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (GenWide, CatalogWide, RepairGrid)
}
