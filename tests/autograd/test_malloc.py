"""glibc allocator tuning: threads share one arena after ``tune_malloc``."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

# Run in a fresh interpreter: arenas a process has created never go away.
PROBE = """
import ctypes, sys, threading
import numpy as np
import repro.autograd  # applies tune_malloc before any thread exists

def work():
    for _ in range(20):
        a = np.ones((128, 128), dtype=np.float32)
        a @ a

threads = [threading.Thread(target=work) for _ in range(6)]
[t.start() for t in threads]
[t.join() for t in threads]
libc = ctypes.CDLL("libc.so.6")
libc.fopen.restype = ctypes.c_void_p
stream = ctypes.c_void_p(libc.fopen(sys.argv[1].encode(), b"w"))
libc.malloc_info(0, stream)
libc.fclose(stream)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc only")
@pytest.mark.parametrize("tuned, arenas", [(True, "one"), (False, "many")])
def test_six_allocating_threads_share_one_arena(tmp_path, tuned, arenas):
    report = tmp_path / "malloc_info.xml"
    env = {"PYTHONPATH": str(SRC), "PATH": ""}
    if not tuned:
        env["REPRO_NO_MALLOC_TUNE"] = "1"
    try:
        subprocess.run([sys.executable, "-c", PROBE, str(report)], env=env,
                       check=True, timeout=60)
    except (subprocess.CalledProcessError, OSError):
        pytest.skip("no glibc malloc_info on this platform")
    heaps = report.read_text().count("<heap nr=")
    assert heaps == 1 if tuned else heaps > 1, heaps
