"""Pool worker: an isolated interpreter that executes pipeline jobs.

Spawned by :class:`~repro.execpool.pool.ExecPool` as a fresh
``python -m repro.execpool.worker`` process (no fork: nothing of the
orchestrator's state — locks, threads, contextvars — leaks in).  Startup
sequence:

1. Duplicate the protocol fds (stdin for jobs, stdout for replies), then
   point the *real* fds 0/1/2 at ``/dev/null``.  Pipeline code that
   floods stdout/stderr or reads stdin therefore touches ``/dev/null``,
   never the protocol stream.
2. Preload the modules generated pipelines import (numpy, ``repro.ml``,
   ``repro.table``) so warm executions pay no import cost and the
   per-job ``RLIMIT_AS`` cap never charges for module loading.
3. Send a ``ready`` frame, then loop: read a job, apply per-job rlimits
   (address space + CPU), run it through the *same*
   ``_execute_pipeline_code_impl`` the in-process mode uses (signal-mode
   wall budget — this is a fresh main thread, so SIGALRM works), restore
   the rlimits, and reply with the pickled
   :class:`~repro.generation.executor.ExecutionResult` plus the worker's
   peak RSS.

The in-worker wall budget (SIGALRM) kills pure-Python loops and sleeps
cleanly, preserving the in-process timeout classification; anything it
cannot interrupt — tight C loops, a blocked allocator — is SIGKILLed by
the parent at budget + grace and classified from the death.  A per-job
``RLIMIT_CPU`` (``SIGXCPU`` handler raising
:class:`~repro.resilience.deadline.ExecutionTimeout`) additionally bounds
CPU burn independent of the parent's clock.

Exceeding ``RLIMIT_AS`` makes allocations fail with ``MemoryError``
inside the pipeline, which the shared impl classifies as
``resource_limit`` — identical to an in-process MemoryError.
"""

from __future__ import annotations

import os
import resource
import signal
import sys
from typing import Any

__all__ = ["main", "serve"]


def _contain_stdio() -> tuple[Any, Any]:
    """Secure the protocol fds; route real stdio to /dev/null.

    Returns ``(job_stream, reply_stream)`` binary files over duplicated
    fds.  After this call fds 0/1/2 — and ``sys.stdin/stdout/stderr`` —
    all point at ``/dev/null``, so hostile pipeline I/O is swallowed at
    the OS level (C-level ``write(1, ...)`` included).
    """
    job_fd = os.dup(0)
    reply_fd = os.dup(1)
    os.set_inheritable(job_fd, False)
    os.set_inheritable(reply_fd, False)
    devnull = os.open(os.devnull, os.O_RDWR)
    os.dup2(devnull, 0)
    os.dup2(devnull, 1)
    os.dup2(devnull, 2)
    if devnull > 2:
        os.close(devnull)
    sys.stdin = open(0, "r", closefd=False)
    sys.stdout = open(1, "w", closefd=False)
    sys.stderr = open(2, "w", closefd=False)
    return os.fdopen(job_fd, "rb"), os.fdopen(reply_fd, "wb")


def _preload() -> None:
    """Import everything a generated pipeline may touch (warm cache)."""
    import numpy  # noqa: F401
    import repro.ml  # noqa: F401
    import repro.table.ops  # noqa: F401
    import repro.generation.executor  # noqa: F401


class _JobLimits:
    """Apply/restore per-job rlimits (soft caps only; hard stays put)."""

    def __init__(self, memory_mb: int | None, cpu_seconds: float | None) -> None:
        self._restore: list[tuple[int, tuple[int, int]]] = []
        if memory_mb is not None and memory_mb > 0:
            soft, hard = resource.getrlimit(resource.RLIMIT_AS)
            cap = memory_mb * 1024 * 1024
            if hard == resource.RLIM_INFINITY or cap < hard:
                resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
                self._restore.append((resource.RLIMIT_AS, (soft, hard)))
        if cpu_seconds is not None and cpu_seconds > 0:
            soft, hard = resource.getrlimit(resource.RLIMIT_CPU)
            used = resource.getrusage(resource.RUSAGE_SELF)
            budget = int(used.ru_utime + used.ru_stime + cpu_seconds) + 1
            if hard == resource.RLIM_INFINITY or budget < hard:
                resource.setrlimit(resource.RLIMIT_CPU, (budget, hard))
                self._restore.append((resource.RLIMIT_CPU, (soft, hard)))

    def restore(self) -> None:
        for which, limits in reversed(self._restore):
            try:
                resource.setrlimit(which, limits)
            except (ValueError, OSError):
                pass  # soft cap already consumed; recycling will replace us


def _install_sigxcpu() -> None:
    """CPU-rlimit overrun surfaces as the taxonomy's timeout error."""
    from repro.resilience.deadline import ExecutionTimeout

    def _on_xcpu(signum: int, frame: Any) -> None:
        raise ExecutionTimeout(
            "execution exceeded its CPU-time budget (RLIMIT_CPU)"
        )

    signal.signal(signal.SIGXCPU, _on_xcpu)


def serve(job_stream: Any, reply_stream: Any) -> None:
    """The worker loop: one reply frame per job frame, until EOF."""
    from repro.execpool.protocol import (
        ExecJob,
        WorkerDied,
        WorkerReply,
        read_frame,
        write_frame,
    )
    from repro.generation.executor import _execute_pipeline_code_impl

    _install_sigxcpu()
    jobs_done = 0
    write_frame(reply_stream, WorkerReply(kind="ready", pid=os.getpid()))
    job_fd = job_stream.fileno()
    while True:
        try:
            job: ExecJob = read_frame(job_fd)
        except (WorkerDied, EOFError):
            return  # parent closed the job pipe: clean shutdown
        cpu_seconds = job.cpu_seconds
        if cpu_seconds is None and job.timeout_seconds:
            # wall budget implies a CPU ceiling too (headroom for BLAS
            # threads); kills tight C loops even if SIGALRM cannot
            cpu_seconds = 4.0 * job.timeout_seconds + 5.0
        limits = _JobLimits(job.memory_mb, cpu_seconds)
        try:
            result = _execute_pipeline_code_impl(
                job.code,
                job.train,
                job.test,
                job.filename,
                timeout_seconds=job.timeout_seconds,
            )
        finally:
            limits.restore()
        jobs_done += 1
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        try:
            write_frame(reply_stream, WorkerReply(
                kind="result",
                result=result,
                peak_rss_bytes=peak_rss,
                jobs_done=jobs_done,
                pid=os.getpid(),
            ))
        except BrokenPipeError:
            return  # parent went away mid-reply


def main() -> int:
    job_stream, reply_stream = _contain_stdio()
    # the worker must never outlive a dead parent; a closed job pipe
    # (read EOF) is the shutdown signal, so default SIGPIPE dispositions
    # are fine — but ignore SIGINT so ^C on the orchestrator's terminal
    # does not take workers down before the pool can drain them
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _preload()
    serve(job_stream, reply_stream)
    return 0


if __name__ == "__main__":
    sys.exit(main())
