"""The BLAS thread count of this process, read and set at run time.

numpy ships OpenBLAS inside its wheels. This module finds that library among
the shared objects mapped into the process (``/proc/self/maps``) and calls its
thread-count getter and setter through ``ctypes``: the ``scipy_openblas_*64_``
names that numpy's wheels export, then the plain ``openblas_*`` names of other
builds. The conv kernels' output bits depend on the count, so a digest holds
only at a stated count, and the CLI reports the one it read back.
"""

from __future__ import annotations

import ctypes
import functools
import os

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
    import numpy  # noqa: F401  (loads the BLAS library looked for here)

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


def set_blas_threads(n: int) -> int | None:
    """Set the loaded BLAS to ``n`` threads and return the count it had.

    Returns None, and changes nothing, when no setter is found.
    """
    controls = _controls()
    if controls is None:
        return None
    previous = int(controls[0]())
    controls[1](int(n))
    return previous
