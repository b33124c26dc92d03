"""Machine probes: BLAS thread read-back, last-level cache size, copy bandwidth
and a float32 GEMM ceiling at given (out x in) @ (in x N) shapes.

All probes act on this process only. Nothing here imports numpy at module
level, so ``cap_blas_threads`` can run before numpy loads.
"""

from __future__ import annotations

import ctypes
import glob
import os
import time

BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Thread-count getters exported by the OpenBLAS builds numpy ships with
# (scipy-openblas wheels prefix and suffix their symbols) and by plain builds.
_BLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_blas_threads() -> int:
    """Set every BLAS thread variable to the usable CPU count.

    Must run before numpy is imported: OpenBLAS reads the variables once, when
    it loads. Returns the count that was requested.
    """
    n = usable_cpus()
    for var in BLAS_ENV_VARS:
        os.environ[var] = str(n)
    return n


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


def blas_threads(requested: int) -> dict:
    """Read the thread count back from the BLAS library numpy loaded.

    ``confirmed`` is true only when the library reports the requested count;
    when no getter is found the cap is reported as unconfirmed, not assumed.
    """
    import numpy  # noqa: F401  (the BLAS library is loaded with numpy)

    for path in _loaded_blas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is None:
                continue
            getter.argtypes = []
            getter.restype = ctypes.c_int
            got = int(getter())
            return {
                "requested": requested,
                "readback": got,
                "confirmed": got == requested,
                "library": os.path.basename(path),
                "symbol": symbol,
            }
    return {"requested": requested, "readback": None, "confirmed": False, "library": None}


def last_level_cache_bytes() -> tuple[int, str]:
    """Sum of the distinct highest-level caches serving the usable CPUs."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:
        cpus = list(range(os.cpu_count() or 1))
    seen: dict[str, int] = {}
    best_level = 0
    for cpu in cpus:
        for index in glob.glob(f"/sys/devices/system/cpu/cpu{cpu}/cache/index*"):
            try:
                with open(os.path.join(index, "level")) as fh:
                    level = int(fh.read())
                with open(os.path.join(index, "size")) as fh:
                    size = _parse_size(fh.read().strip())
                with open(os.path.join(index, "shared_cpu_list")) as fh:
                    shared = fh.read().strip()
            except (OSError, ValueError):
                continue
            if level > best_level:
                best_level, seen = level, {}
            if level == best_level:
                seen[shared] = size
    if seen:
        return sum(seen.values()), f"sysfs L{best_level}"
    return 64 * 2**20, "default (sysfs unreadable)"


def _parse_size(text: str) -> int:
    units = {"K": 2**10, "M": 2**20, "G": 2**30}
    if text[-1].upper() in units:
        return int(text[:-1]) * units[text[-1].upper()]
    return int(text)


def copy_bandwidth(llc_bytes: int, reps: int = 3) -> dict:
    """Best-of-``reps`` np.copyto between two arrays of 4x the LLC each.

    Bandwidth counts bytes read plus bytes written, the same convention as
    the wavelet layer's computed bytes.
    """
    import numpy as np

    src = np.ones(4 * llc_bytes // np.dtype(np.float32).itemsize, dtype=np.float32)
    dst = np.zeros_like(src)
    np.copyto(dst, src)  # fault in both arrays before timing
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t0)
    nbytes = src.nbytes
    del src, dst
    return {
        "gb_s": 2 * nbytes / best / 1e9,
        "array_mib": nbytes / 2**20,
        "llc_mib": llc_bytes / 2**20,
        "reps": reps,
    }


def gemm_seconds(m: int, k: int, n: int, rng, min_seconds: float = 0.02) -> float:
    """Best time of one float32 (m x k) @ (k x n) product with contiguous operands."""
    import numpy as np

    a = rng.standard_normal((m, k), dtype=np.float32)
    b = rng.standard_normal((k, n), dtype=np.float32)
    c = np.empty((m, n), dtype=np.float32)
    np.matmul(a, b, out=c)
    best = float("inf")
    spent = 0.0
    reps = 0
    while reps < 3 or (spent < min_seconds and reps < 200):
        t0 = time.perf_counter()
        np.matmul(a, b, out=c)
        dt = time.perf_counter() - t0
        best = min(best, dt)
        spent += dt
        reps += 1
    return best
