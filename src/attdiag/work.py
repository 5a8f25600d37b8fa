"""The work ledger: `COUNTS`, one process-wide count of the work each layer
does, under names that mean one thing wherever they appear (README lists
them). Stage log lines carry it; `report.json` never does. `CPU_SECONDS`,
its sibling, holds the CPU seconds per phase of a stage (`lap_clock` times
them); it is kept apart so the counts stay deterministic.

`Forked` runs a function in a forked worker process; the bootstrap's
stripes and `reproduce`'s selection simulation use it. A worker returns
what it added to the ledger with its result, and the caller adds that here.
"""

import os
import pickle
import signal
import time
from collections import Counter

from .errors import WorkerError

COUNTS = Counter()
CPU_SECONDS = Counter()


def lap_clock():
    """The phase clock: a function returning the CPU seconds of this process
    since its previous call, or since `lap_clock` made it."""
    last = time.process_time()

    def lap() -> float:
        nonlocal last
        start, last = last, time.process_time()
        return last - start
    return lap


def available_cpus() -> int:
    """CPUs this process may run on; 1 without an affinity mask (macOS,
    Windows), where work runs in the calling process."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


class Forked:
    """`fn(*args)` started in a worker process forked from the caller. The
    worker inherits the caller's memory, so nothing is pickled on the way
    in; its value, or the exception it raised, comes back pickled with what
    it added to `COUNTS` and `CPU_SECONDS`. A failed fork raises
    WorkerError and leaves no pipe open. `result` waits for the worker, adds
    those to the caller's, reaps it and returns the value or raises the
    exception; a worker that died first raises WorkerError. `close` kills
    and reaps a worker still running, and may be called at any time, more
    than once. The worker is reaped only there, so the caller's CPU clock
    (`os.times`' children) takes its seconds in at that point. No thread is
    started."""

    def __init__(self, fn, *args):
        receive, send = os.pipe()
        try:
            pid = os.fork()
        except OSError as exc:
            os.close(receive)
            os.close(send)
            raise WorkerError(f"worker process could not be forked ({exc})") from None
        if pid == 0:
            code = 1
            try:
                os.close(receive)
                before, seconds = COUNTS.copy(), CPU_SECONDS.copy()
                try:
                    outcome = (False, fn(*args))
                except Exception as exc:
                    outcome = (True, exc)
                with open(send, "wb") as pipe:
                    pickle.dump((*outcome, COUNTS - before, CPU_SECONDS - seconds), pipe,
                                pickle.HIGHEST_PROTOCOL)
                code = 0
            finally:
                # Leave without running the caller's exit handlers or flushing
                # its buffers a second time.
                os._exit(code)
        # Only the worker holds the sending end, so its exit ends the pipe.
        os.close(send)
        self._pid = pid
        self._receive = open(receive, "rb")

    def result(self):
        try:
            raised, value, counts, seconds = pickle.load(self._receive)
        except (EOFError, pickle.UnpicklingError):
            code = self._reap()
            raise WorkerError(f"worker process died before returning its result "
                              f"(exit code {code})") from None
        self._reap()
        COUNTS.update(counts)
        CPU_SECONDS.update(seconds)
        if raised:
            raise value
        return value

    def close(self) -> None:
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            self._reap()

    def _reap(self) -> int:
        """The worker's exit code, once it has ended; releases the pipe."""
        _, status = os.waitpid(self._pid, 0)
        self._pid = None
        self._receive.close()
        return os.waitstatus_to_exitcode(status)
