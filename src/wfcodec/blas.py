"""The threads of this process: the worker count ``W``, the one pool of worker
threads every kernel shares, and the BLAS thread count.

``W`` (:func:`worker_count`) is the number of CPUs the process may run on,
capped by the ``WFCODEC_THREADS`` environment variable when that is an
integer. The conv's row tiles, the Haar kernels' tiles and the subband
statistics are shared out to ``W`` workers (:func:`share_out`): the calling
thread and ``W - 1`` threads of one pool of ``os.cpu_count()`` threads, made
on first use and kept for the life of the process. Every item of work sees
the same operations whichever worker runs it, so no output bit depends on
``W``.

A streamed encode can instead run as a two-stage pipeline
(:func:`pipeline`): the caller runs the front stage on item k + 1 while one
pool thread runs the back stage on item k. Inside a stage :func:`workers` is
1, so each stage's kernels run every tile on their own thread, the same
one-thread GEMMs a share-out runs.

The BLAS's own threads have no say in that. numpy ships OpenBLAS inside its
wheels; this module finds that library among the shared objects mapped into
the process (``/proc/self/maps``) and calls its thread-count getter and
setter through ``ctypes``: the ``scipy_openblas_*64_`` names that numpy's
wheels export, then the plain ``openblas_*`` names of other builds. How a
multi-threaded BLAS partitions a GEMM changes its bits, so every GEMM in the
package runs inside :func:`one_blas_thread`: each conv feed takes the pin
for its GEMMs and restores the count when it ends, and the CLI pins a whole
command. Where no setter is found the BLAS keeps its own threads, the conv
runs on one worker, and its bits then depend on the BLAS's thread count.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# (getter, setter) symbol pairs, in the order they are tried in each library.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _loaded_blas_paths() -> list[str]:
    """Shared objects with "blas" in their name mapped into this process."""
    paths: list[str] = []
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                if "blas" in os.path.basename(path).lower() and path not in paths:
                    paths.append(path)
    except OSError:
        pass
    return paths


@functools.lru_cache(maxsize=None)
def _controls():
    """The loaded BLAS's (getter, setter), or None when none is found."""
    for path in _loaded_blas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            getter = getattr(lib, get_name, None)
            setter = getattr(lib, set_name, None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return getter, setter
    return None


def blas_threads() -> int | None:
    """The thread count the loaded BLAS reports, or None without a getter."""
    controls = _controls()
    return None if controls is None else int(controls[0]())


class _Pin:
    """How many :func:`one_blas_thread` blocks are open, on any thread, and
    the BLAS thread count the outermost one found."""

    lock = threading.Lock()
    depth = 0
    found = 1


@contextlib.contextmanager
def one_blas_thread():
    """Run the BLAS at one thread until the outermost such block ends, which
    restores the count it found. Yields the workers a conv may use: ``W``,
    or 1 when no BLAS setter is found."""
    controls = _controls()
    if controls is None:
        yield 1
        return
    getter, setter = controls
    with _Pin.lock:
        if _Pin.depth == 0:
            _Pin.found = int(getter())
            setter(1)
        _Pin.depth += 1
    try:
        yield workers()
    finally:
        with _Pin.lock:
            _Pin.depth -= 1
            if _Pin.depth == 0:
                setter(_Pin.found)


def thread_cap() -> int | None:
    """``WFCODEC_THREADS`` as a count of at least 1, or None when it is unset
    or not an integer."""
    try:
        return max(1, int(os.environ["WFCODEC_THREADS"]))
    except (KeyError, ValueError):
        return None


def worker_count() -> int:
    """``W``: the CPUs this process may run on, at most ``WFCODEC_THREADS``."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, thread_cap() or cpus)


# Set inside a stage of :func:`pipeline`, where a call runs on one worker.
_in_stage = contextvars.ContextVar("wfcodec_in_stage", default=False)


def workers() -> int:
    """The workers a kernel call may share its work out to here: ``W``, or
    1 inside a stage of :func:`pipeline`."""
    return 1 if _in_stage.get() else worker_count()


_pool_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None


def _shared_pool() -> ThreadPoolExecutor:
    """The pool of worker threads, made on first use. It has
    ``os.cpu_count()`` threads, at least the ``W - 1`` a call asks for, so it
    never grows. A forked child starts without one."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(os.cpu_count() or 1, thread_name_prefix="wfcodec")
        return _pool


def _forget_pool() -> None:
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


@contextlib.contextmanager
def _buffer_share(workers: int):
    """Run at 1/``workers`` of the ufunc buffer size, in the 16s numpy
    wants: ``workers`` threads that run at once hold no more iterator
    buffers together than one call does."""
    previous = np.setbufsize(max(16, np.getbufsize() // workers // 16 * 16))
    try:
        yield
    finally:
        np.setbufsize(previous)


def share_out(items: int, workers: int, work) -> list:
    """``[work(worker, i) for i in range(items)]``, in item order.

    Up to ``workers`` workers take the items in turn, each as it finishes
    the last: worker 0 is the calling thread, the others run on the shared
    pool, which a one-worker call never touches. Each worker runs in a copy
    of the caller's context, so numpy's error state carries over, with
    1/workers of the caller's ufunc buffer size: the workers together hold
    no more iterator buffers than one call does. A pool worker that has not
    started when the caller runs out of items is cancelled, so a busy pool
    delays nothing. Returns once every item is done; the first exception a
    worker raised is raised again.
    """
    workers = max(1, min(workers, items))
    lock = threading.Lock()
    results = [None] * items
    # Emptied on return: a cancelled worker stays queued on the pool until a
    # pool thread drops it, and must not keep ``work`` and its buffers alive.
    shared = [work, iter(range(items))]

    def run(worker: int) -> None:
        with _buffer_share(workers):
            while True:
                with lock:
                    item = next(shared[1], None)
                if item is None:
                    return
                results[item] = shared[0](worker, item)

    helpers = [
        _shared_pool().submit(contextvars.copy_context().run, run, worker)
        for worker in range(1, workers)
    ]
    try:
        contextvars.copy_context().run(run, 0)
    finally:  # no worker may still write when the caller returns or raises
        errors = [f.exception() for f in helpers if not f.cancel()]
        shared.clear()
    for error in errors:
        if error is not None:
            raise error
    return results


_END = object()  # the hand-off after the last item


def pipeline(items, front, back=None) -> list:
    """``[back(front(item)) for item in items]``, in item order, or
    ``[front(item) ...]`` without ``back``.

    Without ``back`` the caller runs ``front`` on every item, and its
    kernels share their work out to ``W`` workers. With it the items flow
    through two stages: the caller runs ``front`` on item k + 1 while one
    pool thread runs ``back`` on item k, and the two hand each item over
    through a queue of depth 1. Each stage runs in its own context at half
    the caller's ufunc buffer size, and every kernel call in it runs on one
    worker (:func:`workers`), so each tile is the same one-thread GEMM that
    a share-out runs and no output bit moves.

    ``back`` is handed what ``front`` returned, and neither stage keeps a
    reference to it: a mutable hand-off that ``back`` empties is freed as
    ``back`` goes. An exception in either stage stops the other at its next
    item. It is raised once the pool thread has stopped, so no pool thread
    runs on when this returns or raises.
    """
    if back is None:
        return [front(item) for item in items]
    handoff: queue.Queue = queue.Queue(maxsize=1)
    stop = threading.Event()
    results, errors = [], []

    def stage(loop) -> None:  # in a copy of the caller's context
        _in_stage.set(True)
        with _buffer_share(2):
            loop()

    def run_front() -> None:
        for item in items:
            if stop.is_set():
                return
            handoff.put(front(item))

    def run_back() -> None:
        while (item := handoff.get()) is not _END:
            if not stop.is_set():  # else drained, so no put blocks for good
                try:
                    results.append(back(item))
                except BaseException as exc:
                    errors.append(exc)
                    stop.set()
            del item  # before waiting for the next

    helper = _shared_pool().submit(contextvars.copy_context().run, stage, run_back)
    try:
        contextvars.copy_context().run(stage, run_front)
    except BaseException:
        stop.set()
        raise
    finally:
        handoff.put(_END)  # the back stage drains the queue up to it
        helper.result()
    if errors:
        raise errors[0]
    return results
