"""Build and load the compiled kernels in ``_kernels.c``.

The source holds three entry points: ``energy_tables`` (used by ``sim``),
``gibbs_chain`` (used by ``gibbs``) and ``follower_best`` (used by
``game``). Each takes every array, and ``gibbs_chain`` its ``GibbsTables``,
as a ``c_void_p`` address, so ctypes checks only the scalars; the caller
passes arrays it built or checked in the kernel's types. The source is
compiled on the first call to ``load_kernels``, not at import, and cached
per user under ``$XDG_CACHE_HOME/windgame`` (default ``~/.cache/windgame``).
When no compiler is found, the build or load fails (``gibbs_chain`` needs
the compiler's ``unsigned __int128``) or the library lacks an entry point,
one warning is logged and ``load_kernels`` returns None, so each caller
runs its own fallback (numpy in ``sim``, the full-surface reference in
``game``, Python in ``gibbs``), which gives the same bits.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import logging
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from importlib import resources
from pathlib import Path

log = logging.getLogger("windgame")

_KERNEL_SOURCE = "_kernels.c"
# No -ffast-math: the kernels must neither contract nor reassociate. No
# -march=native: the cache key names only the machine type, so the binary
# must run on every CPU of that type; energy_tables dispatches by CPU at load.
_KERNEL_FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
# serialises _load_kernels' first call, so one thread compiles or warns
_KERNEL_LOCK = threading.Lock()


def _compile_kernel() -> Path:
    """Path of the compiled kernels in the per-user cache, built on a miss.

    The file name hashes the C source, the flags and the machine type, so
    an edited source or a shared home directory never loads a stale or
    foreign binary. The compiler writes a temporary file that is renamed
    over the final name, so concurrent processes never load a partial one.
    """
    source = resources.files("windgame").joinpath(_KERNEL_SOURCE).read_bytes()
    key = hashlib.sha256(source + " ".join((*_KERNEL_FLAGS, platform.machine())).encode())
    cache = os.environ.get("XDG_CACHE_HOME")
    root = Path(cache) if cache and os.path.isabs(cache) else Path.home() / ".cache"
    target = root / "windgame" / f"kernels-{key.hexdigest()[:16]}.so"
    if target.is_file():
        return target
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        raise OSError("no C compiler (cc or gcc) on PATH")
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f".{target.name}.", dir=target.parent)
    os.close(fd)
    try:
        subprocess.run([compiler, *_KERNEL_FLAGS, "-o", tmp, "-x", "c", "-"],
                       input=source, capture_output=True, check=True, timeout=300)
        os.replace(tmp, target)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
    return target


class GibbsTables(ctypes.Structure):
    """``gibbs_chain``'s ``struct gibbs_tables``: the addresses of the CSR
    arrays and the mean-wind map, then the mean-wind bins."""

    _fields_ = [*((name, ctypes.c_void_p) for name in (
                    "col_start", "col_len", "col_w1", "col_row", "row_start", "row_len",
                    "row_w2", "row_col", "dem_start", "dem_len", "dem_vals", "mean_map")),
                ("mean_origin", ctypes.c_double), ("mean_width", ctypes.c_double),
                ("n_mean_bins", ctypes.c_int64)]


def _bind(path) -> ctypes.CDLL:
    """The library at ``path``, its three entry points declared: arrays are
    addresses, scalars keep their C types."""
    lib = ctypes.CDLL(str(path))
    energy, gibbs, follower = lib.energy_tables, lib.gibbs_chain, lib.follower_best
    ptr = ctypes.c_void_p
    energy.argtypes = [ctypes.c_ssize_t, ctypes.c_ssize_t, *[ptr] * 8]
    energy.restype = None
    gibbs.argtypes = [ctypes.c_ssize_t, ctypes.c_ssize_t, ptr, ptr, ptr, ptr]
    gibbs.restype = None
    follower.argtypes = [ctypes.c_ssize_t, ctypes.c_ssize_t, *[ptr] * 7]
    follower.restype = ctypes.c_int
    return lib


@functools.cache
def _load_kernels():
    try:
        return _bind(_compile_kernel())
    except (OSError, RuntimeError, AttributeError, subprocess.SubprocessError) as exc:
        stderr = (getattr(exc, "stderr", None) or b"").decode(errors="replace").strip()
        log.warning("compiled kernels unavailable, using the fallback loops: %s%s",
                    exc, f"\n{stderr}" if stderr else "")
        return None


def load_kernels():
    """The compiled library (``energy_tables``, ``gibbs_chain``,
    ``follower_best``), or None once it failed to build or load."""
    with _KERNEL_LOCK:
        return _load_kernels()
