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
        yield worker_count()
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
    bufsize = max(16, np.getbufsize() // workers // 16 * 16)  # numpy wants 16s
    lock = threading.Lock()
    results = [None] * items
    # Emptied on return: a cancelled worker stays queued on the pool until a
    # pool thread drops it, and must not keep ``work`` and its buffers alive.
    shared = [work, iter(range(items))]

    def run(worker: int) -> None:
        previous = np.setbufsize(bufsize)
        try:
            while True:
                with lock:
                    item = next(shared[1], None)
                if item is None:
                    return
                results[item] = shared[0](worker, item)
        finally:
            np.setbufsize(previous)

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
