"""Per-call deadlines and wall-clock budgets for arbitrary Python work.

:class:`Deadline` is a small value object around a monotonic clock; the
transport layer uses it to discard responses that arrive too late.

:func:`run_with_timeout` enforces a hard wall-clock budget on a callable
on the POSIX main thread: it arms ``setitimer``, and the SIGALRM handler
raises :class:`ExecutionTimeout` inside the running frame, which also
interrupts blocking sleeps.  Off the main thread (where
:func:`signal_timeout_available` is false) there is no in-process way to
stop a callable, so budgeted pipeline execution goes to the subprocess
pool instead (:mod:`repro.execpool`), which SIGKILLs at the budget.
"""

from __future__ import annotations

import signal
import threading
import time
from typing import Any, Callable, TypeVar

from repro.resilience.errors import DeadlineExceeded

__all__ = [
    "Deadline",
    "ExecutionTimeout",
    "run_with_timeout",
    "signal_timeout_available",
]

T = TypeVar("T")


class ExecutionTimeout(RuntimeError):
    """Work exceeded its wall-clock budget.

    Subclasses :class:`RuntimeError` so the generation error taxonomy
    classifies it as a runtime (RE-group) pipeline error.
    """


class Deadline:
    """A point in monotonic time before which work must finish."""

    __slots__ = ("seconds", "_clock", "_expires_at")

    def __init__(
        self, seconds: float, clock: Callable[[], float] = time.monotonic
    ) -> None:
        if seconds <= 0:
            raise ValueError("deadline must be a positive number of seconds")
        self.seconds = float(seconds)
        self._clock = clock
        self._expires_at = clock() + self.seconds

    @classmethod
    def after(
        cls, seconds: float, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        return cls(seconds, clock=clock)

    def remaining(self) -> float:
        """Seconds left (clamped at zero)."""
        return max(0.0, self._expires_at - self._clock())

    @property
    def expired(self) -> bool:
        return self._clock() >= self._expires_at

    def check(self, what: str = "call") -> None:
        """Raise :class:`DeadlineExceeded` if the deadline has passed."""
        if self.expired:
            raise DeadlineExceeded(
                f"{what} exceeded its {self.seconds:g}s deadline"
            )

    def __repr__(self) -> str:
        return f"Deadline(seconds={self.seconds:g}, remaining={self.remaining():.3f})"


def signal_timeout_available() -> bool:
    """Whether SIGALRM-based enforcement works here (POSIX main thread)."""
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


def _run_with_signal(fn: Callable[[], T], seconds: float) -> T:
    def _on_alarm(signum: int, frame: Any) -> None:
        raise ExecutionTimeout(
            f"execution exceeded its {seconds:g}s wall-clock budget"
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def run_with_timeout(fn: Callable[[], T], seconds: float | None) -> T:
    """Run ``fn`` with a hard wall-clock budget of ``seconds``.

    ``seconds=None`` (or ``<= 0``) runs ``fn`` directly.  Raises
    :class:`ExecutionTimeout` when the budget is exceeded; any exception
    ``fn`` itself raises propagates unchanged.  A budget needs SIGALRM
    (see :func:`signal_timeout_available`); without it this raises
    :class:`RuntimeError` rather than run unbounded.
    """
    if seconds is None or seconds <= 0:
        return fn()
    if not signal_timeout_available():
        raise RuntimeError(
            "run_with_timeout needs SIGALRM on the main thread; "
            "run budgeted pipelines in the execpool instead"
        )
    return _run_with_signal(fn, seconds)
