"""Where the package starts threads.

Two places deal work over a thread pool, both sized by
``VariantConfig.workers``: an element-wise kernel's generation slices
(``CovarianceKernel.from_flat_geometry`` — the training tiles and a
prediction's cross panels alike) and the panel sweep
(``runtime/batchdispatch.py``).  Per-tile generation and compression
run on the caller's thread whatever ``workers`` is, and their results
are the same bytes at every width (prediction at every width:
``tests/test_serving.py``).
"""

import ast
import pathlib
import threading

import numpy as np
import pytest

import repro
from repro.kernels import AnisotropicMaternKernel
from repro.tile import build_planned_covariance

SRC = pathlib.Path(repro.__file__).parent
THREAD_CONSTRUCTORS = {"Thread", "ThreadPoolExecutor", "Timer"}


def _thread_sites() -> set[str]:
    sites = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None)
            if name in THREAD_CONSTRUCTORS:
                sites.add(path.relative_to(SRC).as_posix())
    return sites


def test_two_modules_start_threads():
    assert _thread_sites() == {"kernels/base.py", "runtime/batchdispatch.py"}


@pytest.fixture
def started(monkeypatch):
    """Names of the threads started while the test runs."""
    names: list[str] = []
    start = threading.Thread.start

    def spy(self):
        names.append(self.name)
        return start(self)

    monkeypatch.setattr(threading.Thread, "start", spy)
    return names


def _planned(kernel, theta, x, workers):
    matrix, report = build_planned_covariance(
        kernel, theta, x, 16, nugget=1e-8, use_mp=True, use_tlr=True,
        mp_accuracy=1e-6, tlr_tol=1e-6, workers=workers,
    )
    blocks = {key: tile.to_dense64().tobytes() for key, tile in matrix.items()}
    return blocks, report.ranks, report.compressed


def test_per_tile_generation_and_compression_start_no_thread(started):
    """A kernel evaluated tile by tile, and every tile's compression,
    run on the caller's thread at ``workers=3`` — with the bytes of
    ``workers=1``."""
    kernel = AnisotropicMaternKernel()
    assert not kernel.elementwise_geometry
    theta = np.array([1.0, 0.2, 0.1, 0.3, 0.5])
    x = np.random.default_rng(3).uniform(size=(80, 2))
    one = _planned(kernel, theta, x, workers=1)
    assert started == []
    assert _planned(kernel, theta, x, workers=3) == one
    assert started == []

