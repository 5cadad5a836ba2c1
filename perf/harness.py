"""Every engine call the benchmark makes goes through :meth:`Ledger.run`.

One call is one *operation*. It counts as failed when it raises, when it
outlives its watchdog, when it leaves a child process alive or a temp
directory behind, or when its sinks differ from the reference; a failed
operation yields no sample. ``failed / attempted`` is the report's
``failed_share``.
"""

from __future__ import annotations

import multiprocessing
import signal
import time
import traceback
from typing import Any, Callable, List, Optional

from env import TempRoot

#: Timeout handed to every ``run()``; a timed run lasts 3-5 s.
RUN_TIMEOUT = 60.0
#: The watchdog fires after the engine's own timeout had its chance.
WATCHDOG = RUN_TIMEOUT + 15.0
#: How long a child may stay listed after an operation before it counts as
#: a survivor. ``DistRuntime`` reaps each shard from a monitor thread; a
#: shard that thread has already waited for reads as alive to every other
#: thread until the monitor stores its exit code, which under load can be
#: after ``run()`` has returned (seen about once in 150 runs).
REAP_GRACE = 2.0


class OperationTimeout(Exception):
    """The watchdog interrupted an operation that would not return."""


class Ledger:
    def __init__(self, temp: TempRoot) -> None:
        self.temp = temp
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def run(
        self,
        label: str,
        operation: Callable[[], Any],
        check: Optional[Callable[[Any], Optional[str]]] = None,
        timeout: float = WATCHDOG,
    ) -> Any:
        """``operation()``'s value, or ``None`` if the operation failed.

        ``check`` returns a complaint about the value, or ``None``.
        """
        self.attempted += 1
        value, complaint = None, None
        try:
            value = _with_watchdog(operation, timeout)
        except OperationTimeout:
            complaint = f"still running after {timeout:g}s"
        except Exception:  # the benchmark must outlive any engine failure
            complaint = traceback.format_exc(limit=4).strip().splitlines()[-1]
        leaked = _survivors()
        for child in leaked:
            child.kill()
            child.join()
        leftovers = self.temp.leftovers()
        self.temp.clear()
        if complaint is None and leaked:
            complaint = f"left {len(leaked)} child process(es) alive"
        if complaint is None and leftovers:
            complaint = f"left temp entries behind: {leftovers}"
        if complaint is None and check is not None:
            complaint = check(value)
        if complaint is None:
            return value
        self.failed += 1
        self.failures.append(f"{label}: {complaint}")
        return None


def _survivors() -> list:
    """The children still listed once ``REAP_GRACE`` has passed."""
    deadline = time.monotonic() + REAP_GRACE
    while (children := multiprocessing.active_children()) and time.monotonic() < deadline:
        time.sleep(0.01)
    return children


def _with_watchdog(operation: Callable[[], Any], timeout: float) -> Any:
    def expire(_signum, _frame):
        raise OperationTimeout()

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return operation()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
