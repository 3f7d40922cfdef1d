"""The package's one helper pool and one CPU ledger.

Two kinds of work split into independent blocks across cores: the exact
scan of ``index.search_topk`` (row blocks of the candidate matrix) and the
attention forward of ``nn.attention`` (blocks of query rows).  Both call
``run_blocks``.  The calling thread and helper threads claim blocks from
one counter; the caller runs blocks itself until none is left unclaimed,
then waits only for blocks a helper has claimed, never for a task still
queued, so nothing deadlocks and no block is left to a thread that has not
started.  The first exception any thread raises is raised in the caller,
and the blocks nobody has claimed by then are not run.

The helpers come from one pool, started on the first split, with a thread
per usable CPU beyond the first.  A split asks only for CPUs that no other
split, none of their helpers and no other ``Pipeline.run_batch`` worker
holds (``workers_hold_cpus``), so it does not crowd CPUs that other work
uses.  It runs only when the process's OpenBLAS reports one thread: with
more BLAS threads the library already spreads each product over the cores
(see the ``index`` docstring for the measurement), and where the count
cannot be asked (another BLAS, or no ``/proc/self/maps``) nothing splits.
A forked child has none of its parent's threads, so it forgets the pool
and the ledger and starts its own.
"""
from __future__ import annotations

import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_OPENBLAS_THREAD_GETTERS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                            "scipy_openblas_get_num_threads64_")


@functools.cache
def _openblas_threads():
    """OpenBLAS's thread-count getter from the libraries mapped into this
    process, or None if there is no such library or no such listing."""
    paths = []
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                path = line.split(maxsplit=5)[5:]
                if path and "openblas" in path[0] and path[0].strip() not in paths:
                    paths.append(path[0].strip())
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_THREAD_GETTERS:
            if (getter := getattr(lib, name, None)) is not None:
                getter.restype = ctypes.c_int
                return getter
    return None


def blas_single_threaded() -> bool:
    getter = _openblas_threads()
    return getter is not None and getter() == 1


_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
_cpus_held = 0  # by splits, their helpers and other run_batch workers


def _forget_pool() -> None:
    """A forked child has none of the parent's threads: it starts its own
    pool, under a lock that no parent thread can hold, and holds no CPU."""
    global _pool, _pool_lock, _cpus_held
    _pool, _pool_lock, _cpus_held = None, threading.Lock(), 0


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def hold_cpus(cpus: int, blocks: int) -> tuple[ThreadPoolExecutor | None, int]:
    """Hold a CPU for the caller and one for each helper it may ask for:
    at most one per block after the first, and none that is held
    already.  Returns the pool and the helper count."""
    global _pool, _cpus_held
    with _pool_lock:
        helpers = max(0, min(cpus - _cpus_held - 1, blocks - 1))
        _cpus_held += 1 + helpers
        if helpers and _pool is None:
            _pool = ThreadPoolExecutor(cpus - 1, thread_name_prefix="cmcrank-helper")
        return _pool, helpers


def release_cpus(held: int) -> None:
    global _cpus_held
    with _pool_lock:
        _cpus_held -= held


@contextmanager
def workers_hold_cpus(workers: int):
    """Hold a CPU for each of ``workers`` threads that run alongside the
    calling one (``Pipeline.run_batch``'s other workers), so no split
    lands on them."""
    global _cpus_held
    with _pool_lock:
        _cpus_held += workers
    try:
        yield
    finally:
        release_cpus(workers)


class _Blocks:
    """One split's blocks, claimed in order by whichever thread asks."""

    def __init__(self, count: int, start: Callable[[], Callable[[int], None]]):
        self.count, self.start = count, start
        self.claimed = self.finished = 0
        self.error: Exception | None = None
        self.cond = threading.Condition(threading.Lock())

    def _claim(self) -> int | None:
        with self.cond:
            if self.claimed == self.count:
                return None
            self.claimed += 1
            return self.claimed - 1

    def _finish(self, error: Exception | None = None) -> None:
        """Count a claimed block as done; an error also gives up every
        block not yet claimed."""
        with self.cond:
            self.finished += 1
            if error is not None:
                self.error = self.error or error
                self.finished += self.count - self.claimed
                self.claimed = self.count
            if self.finished == self.count:
                self.cond.notify_all()

    def run(self) -> None:
        """Run blocks until every block is claimed; a thread that claims
        none never calls ``start``."""
        block = self._claim()
        if block is None:
            return
        try:
            work = self.start()
        except Exception as exc:  # raised to the caller by wait()
            self._finish(exc)
            return
        while block is not None:
            try:
                work(block)
            except Exception as exc:
                self._finish(exc)
                return
            self._finish()
            block = self._claim()

    def wait(self) -> None:
        with self.cond:
            self.cond.wait_for(lambda: self.finished == self.count)
        if self.error is not None:
            raise self.error


def run_blocks(blocks: int, start: Callable[[], Callable[[int], None]]) -> bool:
    """Run blocks ``0 .. blocks - 1`` on the caller and on helpers, as the
    module docstring says, and return True; or return False, having run
    nothing, when no helper can be had (one block, one usable CPU, a BLAS
    that is not single-threaded OpenBLAS, or no free CPU).

    Each thread that claims a block calls ``start()`` once and then the
    returned function on each block it claims, so what ``start`` makes
    (scratch buffers, say) belongs to that thread alone."""
    if blocks < 2:
        return False
    cpus = usable_cpus()
    if cpus < 2 or not blas_single_threaded():
        return False
    pool, helpers = hold_cpus(cpus, blocks)
    try:
        if not helpers:
            return False
        job = _Blocks(blocks, start)
        try:
            for _ in range(helpers):
                pool.submit(job.run)
        except RuntimeError:  # no thread can start (at exit, say): run alone
            pass
        job.run()
        job.wait()
        return True
    finally:
        release_cpus(1 + helpers)
