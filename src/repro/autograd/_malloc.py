"""glibc allocator tuning for large numpy temporaries.

Training steps allocate and free many multi-hundred-KB arrays (activations,
gradients, dropout masks).  glibc's default ``M_MMAP_THRESHOLD`` (128 KB,
dynamic) services those with ``mmap``/``munmap`` pairs, so every step pays
page-fault and zeroing costs for buffers that are immediately reallocated.
Raising the mmap and trim thresholds keeps those blocks on the heap where
they are reused, which measurably speeds up the fused training path
(~15-20% on the BERT-mini train step).

Those thresholds are *per arena*, and glibc gives every thread its own
arena (up to 8 per core): with eight client threads each arena retains its
own untrimmed heap, which was over 300 of the 497 MB the threaded BERT-mini
server peaked at.  ``M_ARENA_MAX`` is therefore capped at 1 in the same
call — it runs at ``import repro.autograd``, before any thread exists — so
all threads reuse one heap (184 MB on that job; the allocator lock is held
for microseconds against GEMMs of milliseconds, and ``job_s`` did not move
on any workload, see ``docs/PERFORMANCE.md``).

Set ``REPRO_NO_MALLOC_TUNE=1`` to skip the tuning (e.g. for memory-footprint
profiling).  Non-Linux / non-glibc platforms are silently left untouched.
"""

from __future__ import annotations

import os
import sys

__all__ = ["tune_malloc"]

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
_THRESHOLD_BYTES = 1 << 26  # 64 MB: well above any per-op buffer we allocate

_applied = False
_at_fork_registered = False


def _reapply_after_fork() -> None:
    """Re-run the tuning in a freshly-forked child.

    glibc nominally copies ``mallopt`` state across ``fork``, but the
    process-per-client runner must not depend on that: the child resets the
    applied flag and tunes again, so a worker forked before (or regardless
    of) the parent's call still trains with the thresholds raised.

    The child also hands back the free heap pages it inherited.  With the
    trim threshold raised, the parent's freed temporaries stay resident, and
    a forked worker would otherwise carry them in its RSS for its whole
    life, or not, depending on whether its own buffers happen to fit the
    holes they left.
    """
    global _applied
    _applied = False
    if tune_malloc():
        import ctypes

        ctypes.CDLL("libc.so.6").malloc_trim(0)


def tune_malloc() -> bool:
    """Raise glibc's mmap/trim thresholds and cap it at one arena; returns
    True if applied."""
    global _applied, _at_fork_registered
    if _applied:
        return True
    if os.environ.get("REPRO_NO_MALLOC_TUNE"):
        return False
    if not sys.platform.startswith("linux"):
        return False
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
        libc.mallopt.restype = ctypes.c_int
        ok = bool(libc.mallopt(_M_MMAP_THRESHOLD, _THRESHOLD_BYTES))
        ok = bool(libc.mallopt(_M_TRIM_THRESHOLD, _THRESHOLD_BYTES)) and ok
        ok = bool(libc.mallopt(_M_ARENA_MAX, 1)) and ok
        _applied = ok
        if ok and not _at_fork_registered:
            os.register_at_fork(after_in_child=_reapply_after_fork)
            _at_fork_registered = True
        return ok
    except Exception:
        return False
