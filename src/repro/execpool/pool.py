"""A pool of warm, reusable subprocess workers for pipeline execution.

The pool is the process-isolation boundary of the error-management loop:
LLM-generated code runs in expendable child interpreters, so a hanging,
memory-hogging, segfaulting, or ``os._exit``-ing pipeline is *reaped and
classified* instead of taking down the orchestrator (the in-process
mode's residual risk).  It is also the only enforcer of a wall-clock
budget off the main thread, where SIGALRM is unavailable:
``execute_pipeline_code`` routes such budgeted executions here.

Life cycle:

- Workers are spawned lazily (up to ``PoolConfig.size``) as executions
  demand them and kept warm between jobs; the spawn preloads numpy and
  the ``repro`` ML surface, so a warm execution costs one pickle
  round-trip of the job tables over a pipe.
- ``execute()`` is thread-safe: scheduler cells borrow idle workers from
  a queue and block when all are busy, so grids fan pipeline executions
  out across interpreters without sharing one.
- A worker that exceeds the wall budget (plus grace), crashes, or exits
  is SIGKILLed/reaped and **not** returned to the queue; the death is
  classified onto the RE taxonomy by
  :func:`~repro.execpool.protocol.classify_worker_death` and the next
  execution spawns a replacement.  Healthy workers are recycled after
  ``max_jobs_per_worker`` executions to bound slow leaks.

Observability (through the caller's active session, so concurrent grid
cells attribute pool activity to their own records): ``execpool.execute``
spans, ``execpool.jobs{status=}`` / ``execpool.spawns`` /
``execpool.recycles`` / ``execpool.kills`` counters, and an
``execpool.peak_child_rss_bytes`` gauge.
"""

from __future__ import annotations

import atexit
import os
import queue
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

from repro.execpool.config import PoolConfig, pool_config_from_env
from repro.execpool.protocol import (
    ExecJob,
    FrameTimeout,
    WorkerDied,
    WorkerReply,
    classify_worker_death,
    read_frame,
    write_frame,
)
from repro.generation.executor import ExecutionResult
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer

__all__ = ["ExecPool", "PoolWorker", "get_pool", "shutdown_pool"]


class PoolWorker:
    """One warm subprocess; owned by exactly one execution at a time."""

    def __init__(self, config: PoolConfig) -> None:
        env = dict(os.environ)
        repro_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH", "")
        if repro_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                repro_root + (os.pathsep + existing if existing else "")
            )
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.execpool.worker"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            close_fds=True,
        )
        self.jobs_done = 0
        self._reply_fd = self.process.stdout.fileno()
        ready: WorkerReply = read_frame(
            self._reply_fd,
            deadline=time.monotonic() + config.spawn_timeout_seconds,
        )
        if ready.kind != "ready":  # pragma: no cover - defensive
            self.kill()
            raise WorkerDied(f"worker sent {ready.kind!r} instead of ready")

    @property
    def pid(self) -> int:
        return self.process.pid

    @property
    def alive(self) -> bool:
        return self.process.poll() is None

    def submit(self, job: ExecJob) -> None:
        write_frame(self.process.stdin, job)

    def read_reply(self, deadline: float | None) -> WorkerReply:
        return read_frame(self._reply_fd, deadline=deadline)

    def kill(self) -> None:
        """SIGKILL + reap; idempotent, never raises."""
        try:
            self.process.kill()
        except OSError:  # pragma: no cover - already gone
            pass
        try:
            self.process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - kernel stall
            pass
        self._close_pipes()

    def close(self) -> None:
        """Graceful shutdown: EOF on the job pipe, then reap."""
        try:
            self.process.stdin.close()
        except OSError:
            pass
        try:
            self.process.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            self.kill()
            return
        self._close_pipes()

    def _close_pipes(self) -> None:
        for stream in (self.process.stdin, self.process.stdout):
            try:
                if stream is not None:
                    stream.close()
            except OSError:  # pragma: no cover
                pass


class ExecPool:
    """Thread-safe pool of :class:`PoolWorker` subprocesses."""

    def __init__(self, config: PoolConfig | None = None) -> None:
        self.config = config if config is not None else pool_config_from_env()
        self._size = self.config.resolved_size()
        self._idle: "queue.Queue[PoolWorker]" = queue.Queue()
        self._lock = threading.Lock()
        self._spawned = 0  # live workers (idle + borrowed)
        self._closed = False
        self.stats = {"spawns": 0, "recycles": 0, "kills": 0, "jobs": 0}

    # -- worker lifecycle ------------------------------------------------------

    def _acquire(self) -> PoolWorker:
        """An idle worker, a fresh spawn (under the cap), or a bounded wait.

        The wait polls rather than blocks: a borrowed worker that dies is
        *retired* (freeing spawn capacity) instead of being returned to
        the queue, so waiters must periodically re-check whether they may
        spawn a replacement themselves.
        """
        while True:
            try:
                worker = self._idle.get_nowait()
            except queue.Empty:
                worker = None
            if worker is None:
                with self._lock:
                    if self._closed:
                        raise RuntimeError("ExecPool is shut down")
                    can_spawn = self._spawned < self._size
                    if can_spawn:
                        self._spawned += 1
                if can_spawn:
                    try:
                        worker = PoolWorker(self.config)
                    except BaseException:
                        with self._lock:
                            self._spawned -= 1
                        raise
                    self._count("spawns")
                    get_metrics().inc("execpool.spawns")
                    return worker
                try:  # all busy: wait for a release, then re-check capacity
                    worker = self._idle.get(timeout=0.05)
                except queue.Empty:
                    continue
            if worker.alive:
                return worker
            self._retire(worker, reason="died_idle")

    def _count(self, stat: str) -> None:
        with self._lock:
            self.stats[stat] += 1

    def _retire(self, worker: PoolWorker, reason: str) -> None:
        worker.kill()
        with self._lock:
            self._spawned -= 1
            self.stats["kills"] += 1
        get_metrics().inc("execpool.kills", reason=reason)

    def _release(self, worker: PoolWorker) -> None:
        recycle = worker.jobs_done >= self.config.max_jobs_per_worker
        with self._lock:
            if not (recycle or self._closed):
                # queued under the lock, so a concurrent shutdown() drains it
                self._idle.put(worker)
                return
            self._spawned -= 1
            if recycle:
                self.stats["recycles"] += 1
        # recycled, or borrowed across shutdown(): must not outlive the pool
        worker.close()
        if recycle:
            get_metrics().inc("execpool.recycles")

    # -- execution -------------------------------------------------------------

    def execute(
        self,
        code: str,
        train: Any,
        test: Any,
        filename: str = "<pipeline>",
        timeout_seconds: float | None = None,
        memory_mb: int | None = None,
        cpu_seconds: float | None = None,
    ) -> ExecutionResult:
        """Run one pipeline on a borrowed worker; never raises for
        pipeline-attributable failures — crashes come back classified."""
        if memory_mb is None:
            memory_mb = self.config.memory_mb
        job = ExecJob(
            code=code, train=train, test=test, filename=filename,
            timeout_seconds=timeout_seconds, memory_mb=memory_mb,
            cpu_seconds=cpu_seconds,
        )
        metrics = get_metrics()
        start = time.perf_counter()
        with get_tracer().span("execpool.execute") as span:
            worker = self._acquire()
            span.set(worker_pid=worker.pid)
            deadline = (
                time.monotonic() + timeout_seconds
                + self.config.kill_grace_seconds
                if timeout_seconds
                else None
            )
            try:
                worker.submit(job)
                reply = worker.read_reply(deadline)
            except FrameTimeout:
                self._retire(worker, reason="timeout")
                metrics.inc("execpool.jobs", status="killed_timeout")
                self._count("jobs")
                span.set(status="killed_timeout")
                return ExecutionResult(
                    success=False,
                    error=classify_worker_death(
                        None, killed_on_timeout=True,
                        timeout_seconds=timeout_seconds, memory_mb=memory_mb,
                    ),
                    runtime_seconds=time.perf_counter() - start,
                )
            except (WorkerDied, BrokenPipeError, OSError):
                # the pipe closed first; reap the child so the death is
                # classified from its real exit status (signal vs code)
                try:
                    returncode = worker.process.wait(timeout=5.0)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    returncode = worker.process.poll()
                self._retire(worker, reason="crashed")
                metrics.inc("execpool.jobs", status="crashed")
                self._count("jobs")
                span.set(status="crashed", returncode=returncode)
                return ExecutionResult(
                    success=False,
                    error=classify_worker_death(
                        returncode, killed_on_timeout=False,
                        timeout_seconds=timeout_seconds, memory_mb=memory_mb,
                    ),
                    runtime_seconds=time.perf_counter() - start,
                )
            worker.jobs_done = reply.jobs_done
            self._release(worker)
            self._count("jobs")
            result: ExecutionResult = reply.result
            metrics.inc(
                "execpool.jobs", status="ok" if result.success else "error"
            )
            if reply.peak_rss_bytes:
                metrics.gauge(
                    "execpool.peak_child_rss_bytes", reply.peak_rss_bytes
                )
            span.set(
                status="ok" if result.success else "error",
                peak_rss_bytes=reply.peak_rss_bytes,
            )
            return result

    # -- shutdown ---------------------------------------------------------------

    def shutdown(self) -> None:
        """Close every idle worker; a borrowed worker is closed when its
        execution releases it."""
        with self._lock:
            self._closed = True
        while True:
            try:
                worker = self._idle.get_nowait()
            except queue.Empty:
                break
            worker.close()
            with self._lock:
                self._spawned -= 1

    def __enter__(self) -> "ExecPool":
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.shutdown()
        return False


# -- process-global default pool (the REPRO_EXEC_MODE=pool singleton) -----------

_default_pool: ExecPool | None = None
_default_pool_lock = threading.Lock()


def get_pool() -> ExecPool:
    """The lazily-created, env-configured shared pool (thread-safe)."""
    global _default_pool
    with _default_pool_lock:
        if _default_pool is None:
            _default_pool = ExecPool(pool_config_from_env())
            atexit.register(shutdown_pool)
        return _default_pool


def shutdown_pool() -> None:
    """Tear down the shared pool (tests; atexit)."""
    global _default_pool
    with _default_pool_lock:
        pool, _default_pool = _default_pool, None
    if pool is not None:
        pool.shutdown()
