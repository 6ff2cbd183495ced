"""OpenBLAS thread control.

OpenBLAS splits a dense LU and a matrix product across its threads, and how it
splits them changes the rounding, so results change in their last digits with
the thread count.  ``single_blas_thread`` runs a block with every loaded
OpenBLAS set to one thread.  Other BLAS builds are left alone.  The state
below is module-level because the thread count it guards is process-wide.
"""

import ctypes
import os
import sys
import threading
from contextlib import contextmanager

# (getter, setter) symbol pairs under which OpenBLAS builds export their
# thread count: plain, 64-bit-integer, and the two scipy-openblas wheels.
_OPENBLAS_THREAD_SYMBOLS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


def openblas_thread_controls():
    """(getter, setter) of the thread count of every loaded OpenBLAS.

    Libraries are found in /proc/self/maps; empty when that file cannot be
    read or no OpenBLAS is loaded.
    """
    try:
        with open("/proc/self/maps") as handle:
            paths = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        return []
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                getter, setter = getattr(lib, get_name), getattr(lib, set_name)
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                controls.append((getter, setter))
                break
    return controls


# (len(sys.modules) at the last scan, the controls it found); an import may
# load another OpenBLAS (scipy.special brings scipy's own), so a changed
# module count triggers a rescan
_scanned = (None, [])


def _controls():
    global _scanned
    if _scanned[0] != len(sys.modules):
        _scanned = (len(sys.modules), openblas_thread_controls())
    return _scanned[1]


_lock = threading.Lock()
_depth = 0  # blocks of the process inside single_blas_thread, over all its threads
_saved = []  # (setter, count before the outermost block) per library


def _reset_lock():
    global _lock
    _lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # a child forked while another thread held the lock
    os.register_at_fork(after_in_child=_reset_lock)


@contextmanager
def single_blas_thread():
    """Run the body with every loaded OpenBLAS set to one thread.

    The setting is process-wide and is inherited by workers forked inside
    the body.  Only the outermost of nested or concurrent blocks sets and
    restores the counts, so a block inside another costs a lock and a count,
    and the caller's counts come back when the last block exits.
    """
    global _depth, _saved
    with _lock:
        if not _depth:
            _saved = [(setter, getter()) for getter, setter in _controls()]
            for setter, _ in _saved:
                setter(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if not _depth:
                for setter, count in _saved:
                    setter(count)
