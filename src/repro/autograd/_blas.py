"""ctypes control of the BLAS thread pool numpy is linked against.

The big GEMMs in the fused kernels run inside whatever BLAS numpy was built
on (OpenBLAS for the wheels this repro pins).  That library owns its own
thread pool, sized at load time from the machine's core count — which is
exactly wrong once several sites train at once: k forked workers x M BLAS
threads oversubscribe k*M ways, and k client *threads* sharing one M-thread
pool serialise and spin on it; either way every GEMM slows down.

``threadpoolctl`` is the usual answer but is not a dependency of this repo,
so this module speaks to the loaded BLAS directly: it finds the shared
object already mapped into the process (``/proc/self/maps``), loads it with
:mod:`ctypes` (a second ``dlopen`` of a loaded library just bumps its
refcount) and calls its thread-count entry points.  Everything degrades to
a no-op — ``None`` returns — when the platform or the BLAS flavour does not
cooperate; callers must treat thread pinning as best-effort.

Used by the ``blas`` array backend (:mod:`repro.autograd.backend`) and by
the simulator, which gives every run one budget —
:func:`recommended_blas_threads` of the ``k`` sites that can train at once —
applied to each forked worker and, on the threaded memory fabric, to this
process's own pool for the duration of the run (see ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import os
import sys
import threading

__all__ = ["set_blas_threads", "get_blas_threads", "blas_thread_info",
           "recommended_blas_threads"]

# Symbol spellings across BLAS flavours.  The 64-bit-index OpenBLAS builds
# scipy/numpy wheels use suffix their exports (``openblas_set_num_threads64_``).
_SET_SYMBOLS = (
    "scipy_openblas_set_num_threads64_",   # scipy-openblas wheels (numpy >= 2)
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
    "goto_set_num_threads",
    "bli_thread_set_num_threads",
    "MKL_Set_Num_Threads",
)
_GET_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
    "bli_thread_get_num_threads",
    "mkl_get_max_threads",
)

_lock = threading.Lock()
_searched = False
_set_fn = None
_get_fn = None
_library_path: str | None = None


def _mapped_blas_libraries() -> list[str]:
    """Shared objects already mapped into this process that look like a BLAS."""
    paths: list[str] = []
    try:
        with open("/proc/self/maps") as handle:
            for line in handle:
                parts = line.split()
                if not parts:
                    continue
                path = parts[-1]
                if not path.startswith("/"):
                    continue
                base = os.path.basename(path).lower()
                if ("blas" in base or "mkl" in base or "blis" in base) \
                        and path not in paths:
                    paths.append(path)
    except OSError:
        pass
    return paths


def _resolve() -> None:
    """Locate the thread-count entry points once; cache the outcome."""
    global _searched, _set_fn, _get_fn, _library_path
    if _searched:
        return
    with _lock:
        if _searched:
            return
        _searched = True
        if not sys.platform.startswith("linux"):
            return
        try:
            import ctypes

            import numpy  # noqa: F401  (ensures the BLAS is mapped)
        except Exception:  # pragma: no cover - numpy is a hard dependency
            return
        for path in _mapped_blas_libraries():
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            set_fn = next((getattr(lib, name) for name in _SET_SYMBOLS
                           if hasattr(lib, name)), None)
            if set_fn is None:
                continue
            get_fn = next((getattr(lib, name) for name in _GET_SYMBOLS
                           if hasattr(lib, name)), None)
            set_fn.argtypes = [ctypes.c_int]
            set_fn.restype = None
            if get_fn is not None:
                get_fn.argtypes = []
                get_fn.restype = ctypes.c_int
            _set_fn, _get_fn, _library_path = set_fn, get_fn, path
            return


def get_blas_threads() -> int | None:
    """The BLAS pool's current thread count, or ``None`` when unknowable."""
    _resolve()
    if _get_fn is None:
        return None
    try:
        return int(_get_fn())
    except Exception:  # pragma: no cover - defensive
        return None


def set_blas_threads(n: int) -> int | None:
    """Resize the BLAS thread pool to ``n``; returns the previous count.

    Best-effort: returns ``None`` (and changes nothing) when the loaded
    BLAS exposes no thread-count entry point.  ``n`` is clamped to >= 1.
    """
    if n < 1:
        n = 1
    _resolve()
    if _set_fn is None:
        return None
    previous = get_blas_threads()
    try:
        _set_fn(int(n))
    except Exception:  # pragma: no cover - defensive
        return None
    return previous


def blas_thread_info() -> dict:
    """Diagnostics: which library/symbols were found and the current count."""
    _resolve()
    return {
        "library": _library_path,
        "controllable": _set_fn is not None,
        "threads": get_blas_threads(),
    }


def recommended_blas_threads(workers: int) -> int:
    """BLAS threads per trainer that avoid oversubscription.

    With ``workers`` sites training concurrently — processes with a pool
    each, or threads sharing one — the GEMMs must share the machine:
    ``max(1, cores // workers)``.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cores = os.cpu_count() or 1
    return max(1, cores // max(1, workers))
