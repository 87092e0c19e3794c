"""BLAS thread clamping: the oversubscription guard.

Every parallel backend in this package multiplies its own workers by
whatever thread count the BLAS library was started with.  On C usable
CPUs (:func:`repro.config.usable_cores` — the affinity mask, not the
machine), W workers each driving a C-thread OpenBLAS oversubscribe
them W-fold — the classic silent slowdown of nested parallelism.
:func:`clamp_blas_threads` bounds the product: it picks
``max(1, cores // workers)`` BLAS threads per worker, exports it
through the portable environment variables (which newly *spawned*
worker processes honor at BLAS load time), and best-effort applies it
to the already-loaded BLAS of the current process (which forked
workers inherit).  Everything restores on exit.

Clamping never changes results: OpenBLAS/MKL partition GEMM over the
output dimensions, so per-element accumulation order — and therefore
bit-exactness — is independent of the thread count.
"""

from __future__ import annotations

import ctypes
import os
import sys
from contextlib import contextmanager
from functools import lru_cache

from ..config import usable_cores

__all__ = ["BLAS_THREAD_ENV", "blas_clamp_for", "clamp_blas_threads"]

#: Environment variables the mainstream BLAS/OpenMP runtimes read at
#: library initialization.
BLAS_THREAD_ENV: tuple[str, ...] = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "BLIS_NUM_THREADS",
)

_BLAS_SO_MARKERS = ("openblas", "libblas", "mkl_rt", "blis")


def blas_clamp_for(workers: int, *, cores: int | None = None) -> int:
    """Per-worker BLAS thread budget for ``workers`` parallel workers:
    ``max(1, cores // workers)``."""
    if cores is None:
        cores = usable_cores()
    return max(1, int(cores) // max(1, int(workers)))


def _loaded_blas_libraries() -> list[str]:
    """Paths of BLAS shared objects mapped into this process (linux
    ``/proc/self/maps``; empty elsewhere — the env clamp still covers
    spawned workers)."""
    if not sys.platform.startswith("linux"):  # pragma: no cover
        return []
    paths: list[str] = []
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                path = line.rstrip("\n").partition(" ")[2]
                idx = path.find("/")
                if idx < 0:
                    continue
                path = path[idx:]
                name = os.path.basename(path).lower()
                if any(marker in name for marker in _BLAS_SO_MARKERS):
                    if path not in paths:
                        paths.append(path)
    except OSError:  # pragma: no cover - /proc unavailable
        return []
    return paths


@lru_cache(maxsize=1)
def _blas_controls() -> tuple:
    """Thread-count setter/getter pairs of every BLAS runtime loaded in
    this process, discovered once per process (clamping runs on every
    likelihood evaluation, so the ``/proc`` scan must not)."""
    controls = []
    for path in _loaded_blas_libraries():
        try:
            lib = ctypes.CDLL(path)  # ref-counted handle to the mapped .so
        except OSError:  # pragma: no cover - unloadable mapping
            continue
        for setter, getter in (
            ("openblas_set_num_threads", "openblas_get_num_threads"),
            ("MKL_Set_Num_Threads", "MKL_Get_Max_Threads"),
            ("bli_thread_set_num_threads", "bli_thread_get_num_threads"),
        ):
            set_fn = getattr(lib, setter, None)
            if set_fn is None:
                continue
            controls.append((set_fn, getattr(lib, getter, None)))
            break
    return tuple(controls)


def _set_inprocess(n: int) -> list[tuple]:
    """Best-effort in-process clamp of already-loaded BLAS runtimes
    (what threadpoolctl does, minus the dependency).  Returns the
    undo list of ``(setter, previous_value)``."""
    undo: list[tuple] = []
    for set_fn, get_fn in _blas_controls():
        previous = int(get_fn()) if get_fn is not None else 0
        try:
            set_fn(int(n))
        except Exception:  # pragma: no cover - defensive
            continue
        if previous > 0:
            undo.append((set_fn, previous))
    return undo


@contextmanager
def clamp_blas_threads(workers: int, *, cores: int | None = None):
    """Scope in which each of ``workers`` parallel workers gets
    ``max(1, cores // workers)`` BLAS threads.

    Yields the chosen clamp (for run reports).  Both the environment
    (read by freshly spawned processes) and the current process's
    loaded BLAS runtimes (inherited by forked workers and used by
    thread workers) are clamped; both restore on exit.  ``workers <= 1``
    is a no-op that yields ``None`` — the sequential paths keep the
    library default.
    """
    if workers <= 1:
        yield None
        return
    clamp = blas_clamp_for(workers, cores=cores)
    saved_env = {name: os.environ.get(name) for name in BLAS_THREAD_ENV}
    for name in BLAS_THREAD_ENV:
        os.environ[name] = str(clamp)
    undo = _set_inprocess(clamp)
    try:
        yield clamp
    finally:
        for set_fn, previous in undo:
            try:
                set_fn(previous)
            except Exception:  # pragma: no cover - defensive
                continue  # a runtime that rejects restore keeps the clamp
        for name, value in saved_env.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
