"""The execution matrix: every way a factorization can be asked to run.

placement {inline, thread, process} x grouping {per-tile, stacked} x
hook {none, deadline, retry+chaos} x variant {dense-fp64, mp-dense-tlr}
at ``nt`` in {1, 4} and a ragged last tile, plus an ``mp-dense-tlr``
shape large enough that low-rank tiles accumulate several Schur
updates and settle from both accumulator forms.  Every cell goes through
the public :func:`loglikelihood` with the execution settings on the
variant, and either

* produces a factor bit-identical to :func:`tile_cholesky` on the same
  planned covariance, with the setting *demonstrably applied* (the run
  report names the resolved placement and grouping, stacked cells ran
  stacked calls, chaos fired and was retried, an expired deadline
  raises from the loop that was asked for), or
* raises :class:`ConfigurationError` (stacked grouping with task-level
  retry/chaos) — never a silently dropped setting.

No ``/dev/shm`` segment or thread outlives a cell.
"""

import inspect
import os
import threading
import time

import numpy as np
import pytest

from repro.core import (
    EvaluationEngine,
    ExaGeoStatModel,
    fit_mle,
    get_variant,
    loglikelihood,
    loglikelihood_replicated,
)
from repro.core.variants import VariantConfig
from repro.exceptions import ConfigurationError, DeadlineExceededError
from repro.kernels import MaternKernel
from repro.obs import Telemetry
from repro.ordering import order_points
from repro.resilience import ChaosConfig, Deadline, ResilienceConfig, RetryPolicy
from repro.runtime import (
    ParallelRunReport,
    ProcessPoolEngine,
    execute_cholesky_batched,
    execute_cholesky_parallel,
)
from repro.tile import build_planned_covariance, leaked_segments, tile_cholesky

TILE = 16
#: Short range: the off-band tiles of mp-dense-tlr compress even at tile 16.
THETA = np.array([1.0, 0.03, 0.5])
NUGGET = 1.0e-8
#: name -> n: one tile, four tiles, three and a half tiles, and twelve
#: and a half — where mp-dense-tlr settles some tiles from stacked
#: factors, some from a dense accumulator, and keeps one dense.
SHAPES = {"nt1": 16, "nt4": 64, "ragged": 56, "settling": 200}
CELLS = [
    (variant, shape)
    for variant in ("dense-fp64", "mp-dense-tlr") for shape in SHAPES
    if (variant, shape) != ("dense-fp64", "settling")
]
PLACEMENTS = {
    "inline": dict(workers=1),
    "thread": dict(workers=2),
    "process": dict(workers=2, backend="process"),
}
GROUPINGS = {"per-tile": dict(batch=False), "stacked": dict(batch=True)}
HOOKS = ("none", "deadline", "retry+chaos")
_RETRY_CHAOS = ResilienceConfig(
    retry=RetryPolicy(max_attempts=12, base_delay_s=0.0, max_delay_s=0.0),
    chaos=ChaosConfig(seed=12, tile_nan_rate=0.3),
)
#: Where an expired deadline must surface from, per (placement, grouping).
LOOPS = {
    ("inline", "per-tile"): "execute_cholesky_parallel",
    ("thread", "per-tile"): "execute_cholesky_parallel",
    ("inline", "stacked"): "execute_cholesky_batched",
    ("thread", "stacked"): "execute_cholesky_batched",
    ("process", "per-tile"): "ProcessPoolEngine.execute",
    ("process", "stacked"): "ProcessPoolEngine.execute",
}


class RunCapture(Telemetry):
    """Telemetry bundle that keeps the executors' run reports."""

    def __init__(self):
        super().__init__()
        self.runs = []

    def record(self, stats):
        if isinstance(stats, ParallelRunReport):
            self.runs.append(stats)
        super().record(stats)


def _problem(n):
    gen = np.random.default_rng(n)
    x = gen.uniform(size=(n, 2))
    x = x[order_points(x, "morton")]
    return x, gen.standard_normal(n)


_REFERENCE = {}


def _reference(variant, shape):
    """``tile_cholesky`` on the cell's planned covariance."""
    key = (variant, shape)
    if key not in _REFERENCE:
        cfg = get_variant(variant)
        x, _ = _problem(SHAPES[shape])
        matrix, report = build_planned_covariance(
            MaternKernel(), THETA, x, TILE, nugget=NUGGET,
            **cfg.assembly_kwargs(),
        )
        factor, stats = tile_cholesky(
            matrix, tile_tol=report.tile_tol,
            max_rank=int(cfg.max_rank_fraction * TILE) or None,
            fp16_accumulate_fp32=cfg.fp16_accumulate_fp32,
        )
        low_rank = sum(tile.is_low_rank for _, tile in factor.items())
        assert bool(low_rank) == (cfg.use_tlr and shape != "nt1")
        if shape == "settling":
            # densified_tiles settled from the dense form, the rest of
            # the truncations from stacked factors.
            assert 0 < stats.kept_dense < stats.densified_tiles
            assert stats.densified_tiles < stats.truncations
        _REFERENCE[key] = factor, stats
    return _REFERENCE[key]


def _assert_bit_identical(factor, reference):
    assert factor.keys() == reference.keys()
    for (i, j), want in reference.items():
        got = factor.get(i, j)
        assert got.is_low_rank == want.is_low_rank, (i, j)
        assert got.precision == want.precision, (i, j)
        if want.is_low_rank:
            np.testing.assert_array_equal(got.u, want.u)
            np.testing.assert_array_equal(got.v, want.v)
        else:
            np.testing.assert_array_equal(got.data, want.data)


@pytest.fixture(scope="module")
def procpool():
    """One worker pool for every process cell; a warm-up run starts
    its queue feeder threads before any cell counts threads."""
    x, z = _problem(SHAPES["nt4"])
    with ProcessPoolEngine(workers=2) as pool:
        loglikelihood(
            MaternKernel(), THETA, x, z, tile_size=TILE, nugget=NUGGET,
            variant=get_variant("dense-fp64").with_(backend="process"),
            procpool=pool,
        )
        yield pool


@pytest.fixture
def nothing_outlives_the_cell():
    threads = threading.active_count()
    yield
    assert leaked_segments() == []
    give_up = time.monotonic() + 5.0
    while threading.active_count() > threads:
        assert time.monotonic() < give_up, "a thread outlived the cell"
        time.sleep(0.01)


@pytest.mark.parametrize("variant,shape", CELLS)
@pytest.mark.parametrize("hook", HOOKS)
@pytest.mark.parametrize("grouping", GROUPINGS)
@pytest.mark.parametrize("placement", PLACEMENTS)
def test_cell(placement, grouping, hook, variant, shape, procpool,
              nothing_outlives_the_cell):
    cfg = get_variant(variant).with_(
        **PLACEMENTS[placement], **GROUPINGS[grouping]
    )
    x, z = _problem(SHAPES[shape])
    pool = procpool if placement == "process" else None

    def evaluate(**hooks):
        capture = RunCapture()
        result = loglikelihood(
            MaternKernel(), THETA, x, z, tile_size=TILE, variant=cfg,
            nugget=NUGGET, procpool=pool, telemetry=capture, **hooks,
        )
        return result, capture

    if hook == "retry+chaos" and grouping == "stacked":
        with pytest.raises(ConfigurationError, match="stacked"):
            evaluate(resilience=_RETRY_CHAOS)
        return
    if hook == "deadline":
        # Expired: raised by the loop the cell asked for, not another.
        with pytest.raises(DeadlineExceededError) as expired:
            evaluate(deadline=Deadline(0.0))
        assert expired.value.where == LOOPS[placement, grouping]

    hooks = {
        "none": {},
        "deadline": dict(deadline=Deadline(60.0)),
        "retry+chaos": dict(resilience=_RETRY_CHAOS),
    }[hook]
    result, capture = evaluate(**hooks)
    reference, ref_stats = _reference(variant, shape)
    _assert_bit_identical(result.factor, reference)
    assert result.stats.kernel_counts == ref_stats.kernel_counts
    assert result.stats.densified_tiles == ref_stats.densified_tiles
    assert result.stats.max_rank_seen == ref_stats.max_rank_seen
    assert result.stats.truncations == ref_stats.truncations
    assert result.stats.kept_dense == ref_stats.kept_dense

    # Stacked pools are sized to the physical cores, so a one-core
    # host resolves thread x stacked to the caller's thread.
    workers = cfg.workers
    if grouping == "stacked" and placement == "thread":
        workers = min(workers, os.cpu_count() or 1)
        placement = "thread" if workers > 1 else "inline"
    factorize = capture.tracer.by_name("factorize")[0]
    resolved = (factorize.attrs["placement"], factorize.attrs["grouping"])
    assert resolved == (placement, grouping)
    if (placement, grouping, hook) == ("inline", "per-tile", "none"):
        assert capture.runs == []  # the reference loop itself ran
        return
    (run,) = capture.runs
    assert (run.placement, run.grouping) == (placement, grouping)
    assert run.workers == factorize.attrs["workers"] == workers
    assert 1 <= run.max_concurrency <= workers
    if grouping == "stacked":
        assert run.batched_tasks + run.fallback_tasks == run.tasks
        if variant == "dense-fp64" and shape != "nt1":
            assert run.batches > 0 and run.batched_tasks > 0
    if hook == "retry+chaos" and shape != "nt1":
        assert run.chaos_events > 0
        assert run.stats.retries == result.stats.retries > 0


def test_inline_run_lets_an_interrupt_through(monkeypatch):
    """At workers=1 the heap loop runs on the caller's thread: a
    Ctrl-C there is the caller's, not a task failure to wrap."""
    from repro.runtime import taskcore

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    x, _ = _problem(SHAPES["nt4"])
    matrix, _ = build_planned_covariance(
        MaternKernel(), THETA, x, TILE, nugget=NUGGET,
        **get_variant("dense-fp64").assembly_kwargs(),
    )
    monkeypatch.setattr(taskcore.K, "potrf", interrupted)
    with pytest.raises(KeyboardInterrupt):
        execute_cholesky_parallel(matrix, workers=1)


# ----------------------------------------------------------------------
# one carrier for execution settings
# ----------------------------------------------------------------------
EXECUTION_SETTINGS = {"workers", "batch", "backend"}


@pytest.mark.parametrize("api", [
    loglikelihood, loglikelihood_replicated, fit_mle,
    EvaluationEngine, ExaGeoStatModel,
], ids=lambda api: api.__name__)
def test_execution_settings_ride_on_the_variant_only(api):
    assert not EXECUTION_SETTINGS & set(inspect.signature(api).parameters)
    assert EXECUTION_SETTINGS <= set(VariantConfig.__dataclass_fields__)


@pytest.mark.parametrize("api", [
    loglikelihood, loglikelihood_replicated, fit_mle,
    EvaluationEngine, ExaGeoStatModel,
    execute_cholesky_parallel, execute_cholesky_batched,
    ProcessPoolEngine.execute,
], ids=lambda api: api.__qualname__)
def test_no_api_asks_for_a_second_timeline(api):
    """Spans are the only timeline: ``telemetry=`` arms it, nothing
    else does."""
    assert not [
        name for name in inspect.signature(api).parameters if "trace" in name
    ]
    assert "trace" not in ParallelRunReport.__dataclass_fields__
    assert "retries" not in ParallelRunReport.__dataclass_fields__
