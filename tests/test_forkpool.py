"""The fork pool's own threads must allocate from glibc's main malloc arena:
a thread arena of their own would keep freed results resident in a
different arena from one run to the next, and the process's peak memory
would vary with it."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import avfusion
from helpers import needs_fork

SCRIPT = r"""
import ctypes, sys
import numpy as np
from avfusion import forkpool

def rows(job, k):
    return np.full((job, 24), float(k))

for _ in range(3):
    out = forkpool.fork_map(rows, 2000, [(k,) for k in range(4)],
                            [f"rows {k}" for k in range(4)], RuntimeError)
    assert [float(r[0, 0]) for r in out] == [0.0, 1.0, 2.0, 3.0]
libc = ctypes.CDLL(None)
libc.fopen.restype = ctypes.c_void_p
libc.fopen.argtypes = [ctypes.c_char_p, ctypes.c_char_p]
libc.malloc_info.argtypes = [ctypes.c_int, ctypes.c_void_p]
libc.fclose.argtypes = [ctypes.c_void_p]
fp = libc.fopen(sys.argv[1].encode(), b"w")
libc.malloc_info(0, fp)
libc.fclose(fp)
"""


@needs_fork
@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="malloc arenas are glibc's")
def test_pool_threads_allocate_from_the_main_arena(tmp_path):
    info = tmp_path / "malloc_info.xml"
    # a fresh interpreter, so that no earlier test's threads left arenas
    src = str(Path(avfusion.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", SCRIPT, str(info)], check=True,
                   timeout=120, env=env)
    heaps = info.read_text().count("<heap nr=")
    assert heaps == 1, f"{heaps} malloc arenas after the pool ran"
