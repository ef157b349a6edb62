"""Fan independent work out over forked worker processes.

:func:`map_chunks` splits an ordered list of items into contiguous
chunks. The calling process works the first chunk itself while one
forked child per further chunk works the rest. A child sends only its
chunk's result back, pickled over a pipe, and the results come back in
item order. An exception a chunk raises comes back too, and the
earliest failing chunk's is raised, so a caller whose chunks stop at
their first failing item reports the item a serial loop would have.

Fork, not spawn: a forked child starts with the parent's imports and
state, where a spawned one would start a new interpreter and import
numpy and rankmil again, about 0.4 s on a 2-core box, as long as the
serial ``score`` of a 1000-bag cohort.
A child always leaves through ``os._exit``, so it never runs the
parent's exit handlers or flushes a copy of the parent's buffered
output. The parent kills and reaps every child before it returns or
raises, after a ``KeyboardInterrupt`` too.

:func:`worker_count` forks only when every process gets at least
:data:`MIN_ROWS` patch rows. Below that, the fixed costs of a child (the
fork, the copy-on-write faults of two processes touching the same
pages, the second core warming its caches) outweigh the half of the
work it takes over.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import threading
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# Patch rows each process must get before a command forks. Measured on a
# 2-core box, BLAS pinned to one thread, in a 60 MB process, as the
# median of 10 alternating serial and 2-process runs: `score` of 40 bags
# of 300 to 600 patches at dim 32 (18 000 rows) took 19.8 ms serial and
# 18.7 ms forked, of 120 bags 55.8 and 39.8 ms; `synth` of 108 bags
# (49 000 rows) took 104 and 116 ms, of 140 bags (63 000 rows) 129 and
# 98 ms. A child's fixed cost is thus worth about 9 000 rows of `score`
# (1 us a row) and 27 000 rows of `synth` (2 us a row); the round trip of
# a child that does nothing is 2 to 4 ms of it. 32 768 rows a process
# clears both, so two processes need about 145 bags of that shape.
MIN_ROWS = 32768


class WorkerFailed(RuntimeError):
    """A worker process ended without sending its chunk's result."""


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where there is no affinity API,
    and so no ``fork`` to rely on (not Linux)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def worker_count(rows: Iterable[int]) -> int:
    """How many processes should share work whose items have ``rows``
    patch rows each: one per :data:`MIN_ROWS` rows, at most one per
    usable CPU, and 1 in a process with a second thread, which ``fork``
    would copy in an unknown state. Stops reading ``rows`` once every
    CPU has its share, so a caller may compute them lazily."""
    cpus = _usable_cpus()
    if cpus < 2 or threading.active_count() > 1:
        return 1
    total = 0
    for n in rows:
        total += n
        if total >= cpus * MIN_ROWS:
            return cpus
    return max(1, total // MIN_ROWS)


def map_chunks(items: Sequence[T], work: Callable[[Sequence[T]], R], workers: int) -> list[R]:
    """``work(chunk)`` for each of ``workers`` contiguous chunks of
    ``items`` of near-equal length (fewer if there are fewer items), in
    order. The first chunk runs in this process, each further one in a
    forked child; with one worker nothing forks. The earliest chunk's
    exception is raised, a child's as it pickled it; a child that ends
    without a result raises :class:`WorkerFailed`."""
    workers = max(1, min(workers, len(items)))
    bounds = [len(items) * i // workers for i in range(workers + 1)]
    pending: list[tuple[int, int]] = []  # (pid, read end of its pipe), in chunk order
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            pending.append(_fork(work, items[start:stop]))
        results = [work(items[: bounds[1]])]
        while pending:
            pid, fd = pending[0]
            data = b"".join(iter(lambda: os.read(fd, 1 << 16), b""))
            status = os.waitpid(pid, 0)[1]
            del pending[0]
            os.close(fd)
            results.append(_reply(pid, status, data))
        return results
    finally:
        for pid, fd in pending:
            os.close(fd)
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


def _fork(work: Callable[[Sequence[T]], R], chunk: Sequence[T]) -> tuple[int, int]:
    """Fork a child that runs ``work(chunk)`` and writes
    ``(True, result)`` or ``(False, exception)`` to a pipe; returns the
    child's pid and the pipe's read end."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                reply = (True, work(chunk))
            except Exception as exc:  # sent to the parent, which raises it
                reply = (False, exc)
            with open(write_fd, "wb") as fh:
                pickle.dump(reply, fh)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, read_fd


def _reply(pid: int, status: int, data: bytes):
    """The result a child sent, or its exception raised."""
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise WorkerFailed(f"worker process {pid} {how} before sending its result")
    ok, value = pickle.loads(data)  # written by this program's own child
    if not ok:
        raise value
    return value


__all__ = ["MIN_ROWS", "WorkerFailed", "map_chunks", "worker_count"]
