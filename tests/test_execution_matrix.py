"""The execution matrix: every way a factorization can be asked to run.

placement {inline, thread, process} x requested grouping {per-tile,
stacked} (``batch``) x hook
{none, deadline, retry+chaos} x variant {dense-fp64, mp-dense-tlr} at
``nt`` in {1, 4} and a ragged last tile, plus three shapes chosen for
what they do to the executors: ``settling`` (``mp-dense-tlr`` large
enough that low-rank tiles accumulate several Schur updates, settle,
and one stays dense), ``smalltile`` (``mp-dense`` with runs of all
three precisions riding in one column, lone tiles between them and a
ragged last row) and ``interrupted`` (``mp-dense-tlr`` where
planned-low-rank rows ride a column's float64 run beside dense ones
and settle mid-sweep).  Every cell goes through the public
:func:`loglikelihood` with the execution settings on the variant, and
either

* produces a factor bit-identical to :func:`tile_cholesky` on the same
  planned covariance, with the setting *demonstrably applied* (the run
  report names the resolved placement and grouping — in this process
  the panel sweep, ``"stacked"``, for every variant, retry / chaos
  hooks on its calls — stacked cells ran stacked calls, chaos fired
  and was retried, an expired deadline raises from the loop the cell
  resolved to), or
* raises :class:`ConfigurationError` (``batch=True`` with
  ``backend="process"``, whose workers run one tile op per message —
  refused when the variant is built, whatever the hook) — never a
  silently dropped setting.

No ``/dev/shm`` segment or thread outlives a cell.
"""

import inspect
import math
import os
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.tile.assembly as assembly_module
import repro.tile.kernels as kernels_module
from repro.core import (
    EvaluationEngine,
    ExaGeoStatModel,
    fit_mle,
    get_variant,
    loglikelihood,
    loglikelihood_replicated,
)
from repro.config import usable_cores
from repro.core.variants import VariantConfig
from repro.exceptions import (
    ConfigurationError,
    DeadlineExceededError,
    NotPositiveDefiniteError,
    NumericalCorruptionError,
    SchedulingError,
)
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
from repro.runtime.taskcore import ColumnStacks, TaskBody
from repro.tile import (
    DenseTile,
    LowRankTile,
    Precision,
    TileLayout,
    TileMatrix,
    build_planned_covariance,
    forward_solve,
    leaked_segments,
    tile_cholesky,
    tile_logdet,
)
from repro.tile.compression import compress_or_rank

NUGGET = 1.0e-8
#: name -> (n, tile, Matern range): one tile, four tiles, three and a
#: half tiles, and twelve and a half — where mp-dense-tlr settles its
#: accumulators and keeps one dense (the short range makes its off-band
#: tiles compress even at tile 16) — then the two sweep shapes of the
#: module docstring.
SHAPES = {
    "nt1": (16, 16, 0.03), "nt4": (64, 16, 0.03), "ragged": (56, 16, 0.03),
    "settling": (200, 16, 0.03),
    "smalltile": (116, 8, 0.03), "interrupted": (150, 12, 0.1),
}
CELLS = [
    (variant, shape)
    for variant in ("dense-fp64", "mp-dense-tlr")
    for shape in ("nt1", "nt4", "ragged")
] + [
    ("mp-dense-tlr", "settling"), ("mp-dense-tlr", "interrupted"),
    ("mp-dense", "smalltile"),
]
PLACEMENTS = {
    "inline": dict(workers=1),
    "thread": dict(workers=2),
    "process": dict(workers=2, backend="process"),
}
#: Cells whose matrix has tiles that ride the sweep's stacks (the small
#: TLR shapes' dense tiles are FP32 and face a low-rank operand: loose).
RIDING_CELLS = {
    ("dense-fp64", "nt4"), ("dense-fp64", "ragged"),
    ("mp-dense-tlr", "settling"), ("mp-dense-tlr", "interrupted"),
    ("mp-dense", "smalltile"),
}
#: What the variant asks for (``batch``); what ran is in the report.
GROUPINGS = {"per-tile": dict(batch=False), "stacked": dict(batch=True)}
HOOKS = ("none", "deadline", "retry+chaos")
_RETRY_CHAOS = ResilienceConfig(
    retry=RetryPolicy(max_attempts=12, base_delay_s=0.0, max_delay_s=0.0),
    chaos=ChaosConfig(seed=12, tile_nan_rate=0.3),
)
#: Where an expired deadline must surface from, per placement: in this
#: process always the sweep (a panel boundary), whoever was asked.
LOOPS = {
    "inline": "execute_cholesky_batched",
    "thread": "execute_cholesky_batched",
    "process": "ProcessPoolEngine.execute",
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


def _problem(shape):
    """``(x, z, tile, theta)`` of a named shape."""
    n, tile, matern_range = SHAPES[shape]
    gen = np.random.default_rng(n)
    x = gen.uniform(size=(n, 2))
    x = x[order_points(x, "morton")]
    return x, gen.standard_normal(n), tile, np.array([1.0, matern_range, 0.5])


def _planned(variant, shape):
    """The cell's planned covariance and its factorization arguments."""
    cfg = get_variant(variant)
    x, _, tile, theta = _problem(shape)
    matrix, report = build_planned_covariance(
        MaternKernel(), theta, x, tile, nugget=NUGGET,
        **cfg.assembly_kwargs(),
    )
    return matrix, dict(
        tile_tol=report.tile_tol,
        max_rank=int(cfg.max_rank_fraction * tile) or None,
        fp16_accumulate_fp32=cfg.fp16_accumulate_fp32,
    )


_REFERENCE = {}


def _reference(variant, shape):
    """``tile_cholesky`` on the cell's planned covariance."""
    key = (variant, shape)
    if key not in _REFERENCE:
        matrix, args = _planned(variant, shape)
        owing = sum(tile.owed is not None for _, tile in matrix.items())
        factor, stats = tile_cholesky(matrix, **args)
        low_rank = sum(tile.is_low_rank for _, tile in factor.items())
        assert bool(low_rank) == (
            get_variant(variant).use_tlr and shape != "nt1"
        )
        if shape == "settling":
            # Every planned-low-rank tile left the assembly owing its
            # one truncation (none was a low-rank tile a GEMM had to
            # densify) and settled once; some could not get under the
            # cap.
            assert 0 < stats.kept_dense < stats.truncations
            assert stats.truncations == owing + stats.densified_tiles
            assert stats.densified_tiles == 0
            assert stats.max_rank_seen == 0
        _REFERENCE[key] = factor, stats
    return _REFERENCE[key]


def _assert_bit_identical(factor, reference):
    assert factor.keys() == reference.keys()
    for key, want in reference.items():
        _assert_same_tile(factor.get(*key), want, key)


def _assert_same_tile(got, want, key):
    assert got.is_low_rank == want.is_low_rank, key
    assert got.precision == want.precision, key
    if want.is_low_rank:
        np.testing.assert_array_equal(got.u, want.u)
        np.testing.assert_array_equal(got.v, want.v)
    else:
        np.testing.assert_array_equal(got.data, want.data)


@pytest.fixture(scope="module")
def procpool():
    """One worker pool for every process cell; a warm-up run starts
    its queue feeder threads before any cell counts threads."""
    x, z, tile, theta = _problem("nt4")
    with ProcessPoolEngine(workers=2) as pool:
        loglikelihood(
            MaternKernel(), theta, x, z, tile_size=tile, nugget=NUGGET,
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


def _assert_same_stats(stats, reference):
    for name in ("kernel_counts", "densified_tiles", "max_rank_seen",
                 "truncations", "kept_dense", "certified"):
        assert getattr(stats, name) == getattr(reference, name), name


@pytest.mark.parametrize("variant,shape", CELLS)
@pytest.mark.parametrize("hook", HOOKS)
@pytest.mark.parametrize("grouping", GROUPINGS)
@pytest.mark.parametrize("placement", PLACEMENTS)
def test_cell(placement, grouping, hook, variant, shape, procpool,
              nothing_outlives_the_cell):
    asked = {**PLACEMENTS[placement], **GROUPINGS[grouping]}
    if (placement, grouping) == ("process", "stacked"):
        # Refused where the setting is made, before any hook matters.
        with pytest.raises(ConfigurationError, match="one tile op"):
            get_variant(variant).with_(**asked)
        return
    cfg = get_variant(variant).with_(**asked)
    x, z, tile, theta = _problem(shape)
    pool = procpool if placement == "process" else None

    def evaluate(**hooks):
        capture = RunCapture()
        result = loglikelihood(
            MaternKernel(), theta, x, z, tile_size=tile, variant=cfg,
            nugget=NUGGET, procpool=pool, telemetry=capture, **hooks,
        )
        return result, capture

    if hook == "deadline":
        # Expired: raised at the first panel boundary of the sweep (or
        # by the process loop), with nothing left running.
        with pytest.raises(DeadlineExceededError) as expired:
            evaluate(deadline=Deadline(0.0))
        assert expired.value.where == LOOPS[placement]

    hooks = {
        "none": {},
        "deadline": dict(deadline=Deadline(60.0)),
        "retry+chaos": dict(resilience=_RETRY_CHAOS),
    }[hook]
    result, capture = evaluate(**hooks)
    reference, ref_stats = _reference(variant, shape)
    _assert_bit_identical(result.factor, reference)
    _assert_same_stats(result.stats, ref_stats)

    # What the settings resolve to.  batch=True sizes its pool to the
    # usable CPUs, so a one-CPU host resolves it to the caller's
    # thread.  In this process everything is the sweep ("stacked"),
    # hooked or not, whatever the variant plans; process workers
    # always run per tile.
    workers = cfg.workers
    if grouping == "stacked" and placement == "thread":
        workers = min(workers, usable_cores())
        placement = "thread" if workers > 1 else "inline"
    if placement != "process":
        grouping = "stacked"
    factorize = capture.tracer.by_name("factorize")[0]
    resolved = (factorize.attrs["placement"], factorize.attrs["grouping"])
    assert resolved == (placement, grouping)
    (run,) = capture.runs
    assert (run.placement, run.grouping) == (placement, grouping)
    assert run.workers == factorize.attrs["workers"] == workers
    assert 1 <= run.max_concurrency <= workers
    if grouping == "stacked":
        assert run.batched_tasks + run.fallback_tasks == run.tasks
        if (variant, shape) in RIDING_CELLS:
            assert run.batches > 0 and run.batched_tasks > 0
    else:
        assert run.batches == run.batched_tasks == run.fallback_tasks == 0
    if hook == "retry+chaos" and shape != "nt1":
        assert run.chaos_events > 0
        assert run.stats.retries == result.stats.retries > 0


# ----------------------------------------------------------------------
# the panel sweep
# ----------------------------------------------------------------------
def _riding(matrix, fp16_accumulate_fp32=True):
    """``{column: [(lo, hi, precision), ...]}`` of the runs the sweep
    forms over ``matrix``."""
    columns = ColumnStacks(matrix, fp16_accumulate_fp32)
    return {
        n: [(run.lo, run.hi, run.precision) for run in columns.get(n)]
        for n in range(matrix.nt) if columns.get(n)
    }


@contextmanager
def units_own_their_columns(workers):
    """Watch one panel sweep run inside the block, then assert what its
    threads rely on instead of locks — each unit touches only its own
    column:

    * inside ``TaskBody.update_column(k, n, ...)`` a thread gets or
      sets column ``n`` of the :class:`ColumnStacks` and no other;
    * in every panel ``k`` each riding column ``n > k`` is updated
      exactly once, by one thread, and at most ``workers`` threads ran
      units.

    ``update_column`` and ``ColumnStacks.get`` / ``set`` are wrapped
    for the block only; the yielded namespace holds what was seen
    (``foreign``: ``(k, n, column touched)``; ``updates``: ``(k, n) ->
    [thread ident]``)."""
    seen = SimpleNamespace(foreign=[], updates={}, columns=None)
    current = threading.local()
    lock = threading.Lock()
    update_column, get, put = (
        TaskBody.update_column, ColumnStacks.get, ColumnStacks.set,
    )

    def watched_update(body, k, n, facing):
        with lock:
            seen.updates.setdefault((k, n), []).append(threading.get_ident())
            seen.columns = body.columns
        current.unit = k, n
        try:
            update_column(body, k, n, facing)
        finally:
            current.unit = None

    def touch(column):
        unit = getattr(current, "unit", None)
        if unit is not None and column != unit[1]:
            with lock:
                seen.foreign.append((*unit, column))

    def watched_get(columns, n):
        touch(n)
        return get(columns, n)

    def watched_set(columns, n, runs):
        touch(n)
        put(columns, n, runs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TaskBody, "update_column", watched_update)
        patch.setattr(ColumnStacks, "get", watched_get)
        patch.setattr(ColumnStacks, "set", watched_set)
        yield seen
    assert not seen.foreign, (
        f"{len(seen.foreign)} foreign column access(es) from units, "
        f"(k, n, column) first: {seen.foreign[:3]}"
    )
    assert seen.columns is not None, "the sweep ran no unit"
    riding = seen.columns.riding
    assert seen.updates.keys() == {
        (k, n) for k in range(len(riding))
        for n in range(k + 1, len(riding)) if riding[n]
    }
    again = sorted(key for key, idents in seen.updates.items() if len(idents) > 1)
    assert not again, f"(k, n) updated more than once: {again[:3]}"
    threads = {ident for idents in seen.updates.values() for ident in idents}
    assert len(threads) <= workers


def test_sweep_shapes_are_what_they_claim():
    """``smalltile`` rides runs of all three precisions in one column
    beside lone tiles and a ragged row; ``interrupted`` has a column
    whose float64 run carries planned-low-rank rows beside dense
    ones."""
    matrix, _ = _planned("mp-dense", "smalltile")
    runs = _riding(matrix)
    assert {precision for _, _, precision in runs[0]} == set(Precision)
    riding = {m for lo, hi, _ in runs[0] for m in range(lo, hi)}
    assert set(range(1, matrix.nt)) - riding  # lone tiles stay loose
    last = matrix.nt - 1
    assert last not in riding
    assert matrix.get(last, 0).shape[0] < matrix.layout.tile_size

    matrix, _ = _planned("mp-dense-tlr", "interrupted")
    columns = ColumnStacks(matrix, True)
    mixed = [
        (n, run) for n in range(matrix.nt) for run in columns.get(n)
        if run.owing and len(run.owing) < run.hi - run.lo
    ]
    assert mixed
    for n, run in mixed:
        assert run.precision is Precision.FP64
        assert run.stack.dtype == np.float64
        for m, precision in run.owing:
            assert matrix.get(m, n).owed is not None
            assert matrix.get(m, n).precision is precision


@pytest.mark.parametrize("workers", [1, 2, 4, 8])
@pytest.mark.parametrize("variant,shape", [
    ("mp-dense", "smalltile"), ("mp-dense-tlr", "interrupted"),
])
def test_sweep_at_every_width(variant, shape, workers,
                              nothing_outlives_the_cell):
    """Real pool widths (``clamp=False``), through both entry points:
    bit-identical factor and tallies, a report that adds up, and units
    that touched only their own columns."""
    reference, ref_stats = _reference(variant, shape)
    for run_sweep in (
        lambda m, **kw: execute_cholesky_batched(m, clamp=False, **kw),
        execute_cholesky_parallel,
    ):
        matrix, args = _planned(variant, shape)
        with units_own_their_columns(workers):
            factor, run = run_sweep(matrix, workers=workers, **args)
        _assert_bit_identical(factor, reference)
        _assert_same_stats(run.stats, ref_stats)
        assert run.grouping == "stacked"
        assert run.placement == ("inline" if workers == 1 else "thread")
        assert run.workers == workers
        assert 1 <= run.max_concurrency <= workers
        assert run.batched_tasks + run.fallback_tasks == run.tasks
        assert run.tasks == sum(ref_stats.kernel_counts.values())
        assert (run.blas_clamp is None) == (workers == 1)
        assert 0 < run.batches < run.batched_tasks


def test_tlr_compresses_each_off_band_tile_once(
        procpool, monkeypatch, nothing_outlives_the_cell):
    """mp-dense-tlr compresses each off-band tile exactly once per
    evaluation, at its settle: the assembly compresses none (a fixed
    band in rank mode reads no rank), hands every off-band tile over
    as its exact float64 block owing ``(tile_tol, max_rank)``, and no
    low-rank tile is ever densified.  A column-0 tile settles the very
    block the assembly used to compress, so it keeps that arithmetic's
    bytes; and every executor settles the same bytes."""
    calls = {"assembly": 0, "settle": 0}

    def counting(module, name, where, per_call):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[where] += per_call(*args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting(assembly_module, "compress_or_rank", "assembly", lambda *a: 1)
    counting(assembly_module, "compress_many", "assembly",
             lambda blocks, keys, *rest: len(keys))
    counting(kernels_module, "compress_or_rank", "settle", lambda *a: 1)

    x, z, tile, theta = _problem("settling")
    cfg = get_variant("mp-dense-tlr")
    result = loglikelihood(MaternKernel(), theta, x, z, tile_size=tile,
                           variant=cfg, nugget=NUGGET)
    nt = result.factor.nt
    assert nt >= 6
    off_band = (nt - cfg.band_size) * (nt - cfg.band_size + 1) // 2
    assert calls == {"assembly": 0, "settle": off_band}
    stats = result.stats
    assert stats.truncations == off_band and stats.densified_tiles == 0
    assert 0 < stats.kept_dense < off_band
    assert result.report.ranks == {}
    monkeypatch.undo()

    matrix, args = _planned("mp-dense-tlr", "settling")
    owing = {key for key, tile in matrix.items() if tile.owed is not None}
    assert len(owing) == off_band
    assert {j for _, j in owing} >= {0, 1, nt - cfg.band_size - 1}
    max_rank = int(cfg.max_rank_fraction * tile)
    blocks = {key: matrix.get(*key) for key in owing}
    assert all(b.owed == (args["tile_tol"], max_rank) for b in blocks.values())
    reference, ref_stats = _reference("mp-dense-tlr", "settling")

    # Column 0: compress_or_rank on the exact block, then the low-rank
    # (or, over the cap, dense) TRSM — the assembly-time arithmetic.
    low = reference.get(0, 0)
    for m in range(cfg.band_size, nt):
        block = blocks[(m, 0)]
        tol, cap = block.owed
        _, u, v, _ = compress_or_rank(block.data, tol, max_rank=cap)
        planned = (DenseTile(block.data, block.precision) if u is None
                   else LowRankTile(u, v, block.precision))
        want = kernels_module.trsm(low, planned)
        _assert_same_tile(reference.get(m, 0), want, (m, 0))

    # Every executor: the sweep at three widths, the process backend.
    for workers in (1, 2, 4):
        matrix, args = _planned("mp-dense-tlr", "settling")
        with units_own_their_columns(workers):
            factor, run = execute_cholesky_batched(
                matrix, workers=workers, clamp=False, **args)
        _assert_bit_identical(factor, reference)
        _assert_same_stats(run.stats, ref_stats)
    matrix, args = _planned("mp-dense-tlr", "settling")
    factor, run = procpool.execute(matrix, **args)
    _assert_bit_identical(factor, reference)
    _assert_same_stats(run.stats, ref_stats)


@pytest.mark.parametrize("workers", [2, 4])
def test_column_ownership_check_catches_a_nosy_unit(workers, monkeypatch):
    """The ownership check is not vacuous: a unit that also reads the
    next column's runs fails it, flagged at every one of its calls."""
    update_column = TaskBody.update_column

    def nosy(body, k, n, facing):
        body.columns.get((n + 1) % len(body.columns.riding))
        update_column(body, k, n, facing)

    monkeypatch.setattr(TaskBody, "update_column", nosy)
    matrix, args = _planned("mp-dense", "smalltile")
    with pytest.raises(AssertionError, match="foreign column"):
        with units_own_their_columns(workers) as seen:
            execute_cholesky_batched(
                matrix, workers=workers, clamp=False, **args
            )
    assert len(seen.foreign) == len(seen.updates) > 0


def test_hgemm_mode_keeps_fp16_tiles_off_the_stacks():
    """Binary16 compute has no stacked kernel: FP16 tiles run per tile
    and the factor still matches the reference bit for bit."""
    matrix, args = _planned("mp-dense", "smalltile")
    args["fp16_accumulate_fp32"] = False
    assert all(
        precision is not Precision.FP16
        for column in _riding(matrix, False).values()
        for _, _, precision in column
    )
    reference, ref_stats = tile_cholesky(matrix.copy(), **args)
    factor, run = execute_cholesky_batched(matrix, **args)
    _assert_bit_identical(factor, reference)
    _assert_same_stats(run.stats, ref_stats)
    assert run.batches > 0


def test_expired_deadline_stops_the_sweep_between_panels(
        nothing_outlives_the_cell):
    """A deadline that expires mid-run surfaces at the next panel
    boundary: some panels ran, the pool has been joined."""

    class ExpiresAfter:
        """Deadline double: not expired for the first ``polls`` polls."""

        budget_s = 1.0

        def __init__(self, polls):
            self.polls = polls

        @property
        def expired(self):
            self.polls -= 1
            return self.polls < 0

    matrix, args = _planned("mp-dense", "smalltile")
    with pytest.raises(DeadlineExceededError) as expired:
        execute_cholesky_batched(
            matrix, workers=4, clamp=False, deadline=ExpiresAfter(3), **args
        )
    assert expired.value.where == "execute_cholesky_batched"
    reference, _ = _reference("mp-dense", "smalltile")
    # Panels 0..2 ran to their barrier — those columns are final —
    # and panel 3 never started.
    for k in range(3):
        for m in range(k, matrix.nt):
            np.testing.assert_array_equal(
                matrix.get(m, k).data, reference.get(m, k).data
            )
    assert not np.array_equal(
        matrix.get(3, 3).data, reference.get(3, 3).data
    )


# ----------------------------------------------------------------------
# hooks on the sweep's calls
# ----------------------------------------------------------------------
def test_hooked_sweep_schedule_depends_on_the_matrix_alone(
        nothing_outlives_the_cell):
    """Seeded chaos under retry on the sweep itself: stacked calls
    are retried whole, the factor is the reference's, and what fired
    repeats exactly — across repeats and across pool widths."""
    reference, ref_stats = _reference("mp-dense", "smalltile")
    fired = []
    for workers in (1, 2, 2):
        matrix, args = _planned("mp-dense", "smalltile")
        factor, run = execute_cholesky_batched(
            matrix, workers=workers, clamp=False, retry=_RETRY_CHAOS.retry,
            chaos=_RETRY_CHAOS.chaos, **args,
        )
        _assert_bit_identical(factor, reference)
        _assert_same_stats(run.stats, ref_stats)
        assert run.grouping == "stacked" and run.workers == workers
        assert run.batches > 0
        fired.append((run.chaos_events, run.stats.retries))
    assert fired[0][0] > 0 and fired[0][1] > 0
    assert fired[1:] == fired[:1] * 2


def test_finite_check_names_the_riding_tile(nothing_outlives_the_cell):
    """A stacked call's finite check reports the *tile* that went bad,
    not the row its run starts at."""
    gen = np.random.default_rng(5)
    a = gen.standard_normal((32, 32))
    matrix = TileMatrix.from_dense(a @ a.T + 32.0 * np.eye(32), 4)
    assert _riding(matrix)[0] == [(1, 8, Precision.FP64)]
    poisoned = matrix.get(5, 0).data.copy()
    poisoned[2, 1] = np.nan
    matrix.set(5, 0, DenseTile(poisoned))
    with pytest.raises(NumericalCorruptionError, match="trsm") as raised:
        execute_cholesky_batched(matrix, check_finite=True)
    assert raised.value.tile_index == (5, 0)


#: One percent of NaN per call attempt, under ``_RETRY_CHAOS``'s retry;
#: seed 3 fires on the ``settling`` shape.
_ACCUMULATOR_CHAOS = ChaosConfig(seed=3, tile_nan_rate=0.01)


def test_hooks_on_accumulating_runs(monkeypatch, nothing_outlives_the_cell):
    """Retry + 1 % NaN chaos on a TLR matrix whose float64 runs carry
    accumulating planned-low-rank rows: the hooked factor is the
    hook-free one, the seeded ``(chaos_events, retries)`` are the same
    at every width, and a stacked GEMM whose run starts at an
    accumulating row hands the injector that row as the accumulator it
    is — float64, owing its truncation — not rounded to its storage."""
    from repro.resilience.chaos import ChaosInjector
    from repro.runtime.taskgraph import cholesky_task

    reference, ref_stats = _reference("mp-dense-tlr", "settling")
    matrix, args = _planned("mp-dense-tlr", "settling")
    nt, columns = matrix.nt, ColumnStacks(matrix, True)
    lead_sites = {
        cholesky_task(nt, "gemm", k, run.lo, n).uid
        for n in range(nt) for run in columns.get(n)
        if run.owing and run.owing[0][0] == run.lo
        for k in range(n)
    }
    assert lead_sites
    handed = []
    corrupt_tile = ChaosInjector.corrupt_tile

    def recording(self, tile, epoch, uid, attempt):
        if uid in lead_sites:
            handed.append((tile.owed, tile.data.dtype, tile.precision))
        return corrupt_tile(self, tile, epoch, uid, attempt)

    monkeypatch.setattr(ChaosInjector, "corrupt_tile", recording)
    fired = []
    for workers in (1, 2, 2):
        handed.clear()
        matrix, args = _planned("mp-dense-tlr", "settling")
        factor, run = execute_cholesky_batched(
            matrix, workers=workers, clamp=False, retry=_RETRY_CHAOS.retry,
            chaos=_ACCUMULATOR_CHAOS, **args,
        )
        _assert_bit_identical(factor, reference)
        _assert_same_stats(run.stats, ref_stats)
        assert run.batches > 0
        fired.append((run.chaos_events, run.stats.retries))
        owed = (args["tile_tol"], args["max_rank"])
        assert handed and all(
            (o, dtype) == (owed, np.float64) for o, dtype, _ in handed
        )
        assert Precision.FP32 in {precision for *_, precision in handed}
    assert fired[0][0] > 0 and fired[0][1] > 0
    assert fired[1:] == fired[:1] * 2


def test_finite_check_names_the_riding_accumulator(nothing_outlives_the_cell):
    """A NaN in a planned-low-rank row riding inside a float64 run —
    not the run's first row — is named by its own tile index at the
    first stacked GEMM into it."""
    matrix, args = _planned("mp-dense-tlr", "settling")
    columns = ColumnStacks(matrix, True)
    m, n = next(
        (m, n) for n in range(matrix.nt) for run in columns.get(n)
        for m, _ in run.owing if m > run.lo
    )
    tile = matrix.get(m, n)
    poisoned = tile.data.copy()
    poisoned[1, 0] = np.nan
    matrix.set(m, n, DenseTile(poisoned, tile.precision, tile.owed))
    with pytest.raises(NumericalCorruptionError, match="gemm") as raised:
        execute_cholesky_batched(matrix, check_finite=True, **args)
    assert raised.value.tile_index == (m, n)


@pytest.mark.parametrize("variant,shape,default_grouping", [
    ("mp-dense", "smalltile", "stacked"),
    ("mp-dense-tlr", "interrupted", "stacked"),
])
def test_hooks_through_the_likelihood(variant, shape, default_grouping,
                                      nothing_outlives_the_cell):
    """``batch=True`` with retry + chaos runs, and returns the
    hook-free call's numbers; an expired deadline beside the hooks
    surfaces from the sweep; inert hooks resolve exactly as none —
    the sweep on the caller's thread, a TLR variant's included."""
    x, z, tile, theta = _problem(shape)

    def evaluate(cfg, **hooks):
        capture = RunCapture()
        result = loglikelihood(
            MaternKernel(), theta, x, z, tile_size=tile, variant=cfg,
            nugget=NUGGET, telemetry=capture, **hooks,
        )
        return result, capture

    batched = get_variant(variant).with_(batch=True, workers=2)
    plain, _ = evaluate(batched)
    hooked, capture = evaluate(batched, resilience=_RETRY_CHAOS)
    assert (hooked.value, hooked.logdet, hooked.quadratic) == (
        plain.value, plain.logdet, plain.quadratic
    )
    (run,) = capture.runs
    assert run.grouping == "stacked"
    assert run.chaos_events > 0 and run.stats.retries > 0

    with pytest.raises(DeadlineExceededError) as expired:
        evaluate(batched, resilience=_RETRY_CHAOS, deadline=Deadline(0.0))
    assert expired.value.where == "execute_cholesky_batched"

    for hooks in ({}, dict(resilience=ResilienceConfig(chaos=ChaosConfig()))):
        _, capture = evaluate(get_variant(variant), **hooks)
        factorize = capture.tracer.by_name("factorize")[0]
        assert (
            factorize.attrs["placement"], factorize.attrs["grouping"]
        ) == ("inline", default_grouping)
        assert len(capture.runs) == 1


@st.composite
def _tile_maps(draw, precisions=tuple(Precision), tile=4, max_rank=2):
    """A small SPD tile matrix with a random storage precision per
    tile (from ``precisions``) and random low-rank flags off the
    diagonal, ranks ``0 .. max_rank``; ``nt = 1`` and a ragged last
    tile included."""
    nt = draw(st.integers(1, 6))
    n = nt * tile - draw(st.integers(0, tile - 1)) * (nt > 1)
    gen = np.random.default_rng(draw(st.integers(0, 2**16)))
    x = np.sort(gen.uniform(size=n))
    # Exponential covariance on a line: SPD, smooth off the diagonal.
    dense = np.exp(-np.abs(x[:, None] - x[None, :]) / 0.3) + 1e-3 * np.eye(n)
    layout = TileLayout(n, tile)
    matrix = TileMatrix(layout)
    for i, j in layout.lower_tiles():
        block = dense[layout.block_slice(i), layout.block_slice(j)]
        precision = (
            Precision.FP64 if i == j else draw(st.sampled_from(precisions))
        )
        if i != j and draw(st.booleans()):
            u, s, vt = np.linalg.svd(block)
            rank = draw(st.integers(0, min(max_rank, *block.shape)))
            matrix.set(i, j, LowRankTile(
                u[:, :rank] * s[:rank], vt[:rank].T, precision
            ))
        else:
            matrix.set(i, j, DenseTile(block, precision))
    return matrix


@settings(max_examples=25, deadline=None)
@given(matrix=_tile_maps(), workers=st.sampled_from([1, 3]),
       fp16_accumulate_fp32=st.booleans())
def test_sweep_equals_reference_on_any_tile_map(
        matrix, workers, fp16_accumulate_fp32):
    args = dict(
        tile_tol=1e-6, max_rank=2,
        fp16_accumulate_fp32=fp16_accumulate_fp32,
    )
    try:
        reference, ref_stats = tile_cholesky(matrix.copy(), **args)
    except Exception as exc:
        # Aggressive maps may break down; the sweep must break down
        # the same way (wrapped, unless indefinite).
        with pytest.raises((type(exc), SchedulingError)):
            execute_cholesky_batched(
                matrix, workers=workers, clamp=False, **args
            )
        return
    factor, run = execute_cholesky_batched(
        matrix, workers=workers, clamp=False, **args
    )
    _assert_bit_identical(factor, reference)
    _assert_same_stats(run.stats, ref_stats)
    assert run.batched_tasks + run.fallback_tasks == run.tasks


@settings(max_examples=30, deadline=None)
@given(matrix=_tile_maps(
    precisions=(Precision.FP64, Precision.FP32), tile=6, max_rank=3,
))
def test_low_rank_columns_ride_on_any_tile_map(matrix):
    """Dense and low-rank tiles, FP64 and FP32 storage, ranks up to
    the cap: every float64 output rides whatever its operands are, an
    FP32 dense tile that meets a low-rank operand runs loose, and the
    sweep at widths 1 / 2 / 4 is the reference's factor and tally."""
    args = dict(tile_tol=1e-6, max_rank=3)
    columns = ColumnStacks(matrix, True)
    for n in range(matrix.nt):
        riding = {
            m for run in columns.get(n) for m in range(run.lo, run.hi)
        }
        for m in range(n + 1, matrix.nt):
            tile = matrix.get(m, n)
            faces_low_rank = any(
                matrix.get(row, k).is_low_rank
                for row in (m, n) for k in range(n)
            )
            if tile.precision is Precision.FP32 and not tile.is_low_rank:
                assert not (faces_low_rank and m in riding), (m, n)
            if tile.is_low_rank and m in riding:
                assert n > 0
    try:
        reference, ref_stats = tile_cholesky(matrix.copy(), **args)
    except Exception as exc:
        with pytest.raises((type(exc), SchedulingError)):
            execute_cholesky_batched(matrix, clamp=False, **args)
        return
    for workers in (1, 2, 4):
        factor, run = execute_cholesky_batched(
            matrix.copy(), workers=workers, clamp=False, **args
        )
        _assert_bit_identical(factor, reference)
        _assert_same_stats(run.stats, ref_stats)
        assert run.batched_tasks + run.fallback_tasks == run.tasks


def _over_half_rank_matrix(tile=16, nt=4, rank=6):
    """Diagonally dominant SPD tiles whose off-diagonal ones are planned
    low-rank at ``rank < tile / 2``; with ``tile_tol=0`` tile ``(2, 1)``
    absorbs one rank-``rank`` update and settles at ``2 * rank``, over
    the default cap ``tile / 2``."""
    gen = np.random.default_rng(tile)
    matrix = TileMatrix(TileLayout(nt * tile, tile))
    for i, j in matrix.layout.lower_tiles():
        if i == j:
            matrix.set(i, j, DenseTile(50.0 * np.eye(tile)))
        else:
            matrix.set(i, j, LowRankTile(
                gen.standard_normal((tile, rank)),
                gen.standard_normal((tile, rank)),
            ))
    return matrix


@pytest.mark.parametrize("executor", ["batched", "thread", "process"])
def test_default_rank_cap_is_the_same_at_every_entry_point(
        executor, procpool, nothing_outlives_the_cell):
    """``max_rank=None`` is the default fraction of the tile size
    wherever a factorization starts: a settle over ``tile / 2`` stays
    dense under a default-called executor exactly as under the
    default-called reference loop."""
    matrix = _over_half_rank_matrix()
    reference, ref_stats = tile_cholesky(matrix.copy())
    assert ref_stats.kept_dense > 0
    uncapped, _ = tile_cholesky(matrix.copy(), max_rank=matrix.layout.tile_size)
    assert uncapped.get(2, 1).is_low_rank and uncapped.get(2, 1).rank > 8
    run = {
        "batched": execute_cholesky_batched,
        "thread": lambda m: execute_cholesky_parallel(m, workers=2),
        "process": procpool.execute,
    }[executor]
    factor, report = run(matrix.copy())
    _assert_bit_identical(factor, reference)
    _assert_same_stats(report.stats, ref_stats)


def _overflowing_matrix():
    """Four 4x4 tiles a side; panel 0 updates the FP16 tiles ``(2, 1)``
    and ``(3, 1)`` (100) by ``-(300 * -300) * 4``: 3.6e5 cannot be
    stored in FP16.  The identity in ``(0, 0)`` makes the panel's
    TRSMs no-ops, so the operands are exactly as written."""
    ones = np.ones((4, 4))
    matrix = TileMatrix(TileLayout(16, 4))
    for i, j in matrix.layout.lower_tiles():
        matrix.set(i, j, DenseTile(1e7 * np.eye(4) if i == j else ones))
    matrix.set(0, 0, DenseTile(np.eye(4)))
    matrix.set(1, 0, DenseTile(-300.0 * ones))
    matrix.set(2, 0, DenseTile(300.0 * ones))
    matrix.set(3, 0, DenseTile(300.0 * ones))
    matrix.set(2, 1, DenseTile(100.0 * ones, Precision.FP16))
    matrix.set(3, 1, DenseTile(100.0 * ones, Precision.FP16))
    return matrix


@pytest.mark.parametrize("placement", [
    "inline", "thread", "stacked", "process",
])
def test_fp16_overflow_is_the_same_typed_error_everywhere(
        placement, procpool, nothing_outlives_the_cell):
    """A narrowing cast that overflows raises
    :class:`NumericalCorruptionError` from the per-tile kernels; the
    stacked kernels must not store ``inf`` under a ``RuntimeWarning``
    instead, and the process workers must ship the same error home."""
    run = {
        "inline": tile_cholesky,
        "thread": lambda m: execute_cholesky_parallel(
            m, workers=2, check_finite=True
        ),
        "stacked": lambda m: execute_cholesky_batched(
            m, workers=2, clamp=False
        ),
        "process": procpool.execute,
    }[placement]
    matrix = _overflowing_matrix()
    assert _riding(matrix)[1] == [(2, 4, Precision.FP16)]
    with pytest.raises((NumericalCorruptionError, SchedulingError)) as raised:
        run(matrix)
    error = raised.value
    if isinstance(error, SchedulingError):
        error = error.__cause__
    assert isinstance(error, NumericalCorruptionError)
    assert "overflows FP16 storage" in str(error)


def test_inline_run_lets_an_interrupt_through(monkeypatch):
    """At workers=1 the loop runs on the caller's thread: a Ctrl-C
    there is the caller's, not a task failure to wrap."""
    from repro.runtime import taskcore

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(taskcore.K, "potrf", interrupted)
    for hooks in ({}, dict(check_finite=True)):  # plain, hooked
        matrix, _ = _planned("dense-fp64", "nt4")
        with pytest.raises(KeyboardInterrupt):
            execute_cholesky_parallel(matrix, workers=1, **hooks)


# ----------------------------------------------------------------------
# the plain call of any variant: the sweep on the caller's thread
# ----------------------------------------------------------------------
@pytest.mark.parametrize("variant,shape", [
    ("dense-fp64", "nt1"), ("dense-fp64", "nt4"), ("dense-fp64", "ragged"),
    ("mp-dense", "nt1"), ("mp-dense", "smalltile"),
    ("mp-dense-tlr", "ragged"), ("mp-dense-tlr", "settling"),
])
def test_plain_call_equals_the_reference_loop(variant, shape):
    """Nothing asked for: the likelihood's three numbers are *equal* to
    the ones computed from ``tile_cholesky``'s factor."""
    x, z, tile, theta = _problem(shape)
    result = loglikelihood(
        MaternKernel(), theta, x, z, tile_size=tile, variant=variant,
        nugget=NUGGET,
    )
    factor, _ = _reference(variant, shape)
    logdet = tile_logdet(factor)
    y = forward_solve(factor, z)
    quadratic = float(y @ y)
    assert result.logdet == logdet
    assert result.quadratic == quadratic
    assert result.value == (
        -0.5 * len(z) * math.log(2.0 * math.pi) - 0.5 * logdet
        - 0.5 * quadratic
    )


def _indefinite_matrix():
    """Eight 2x2 tiles a side, tile ``(5, 5)`` with a negative pivot."""
    diagonal = np.ones(16)
    diagonal[11] = -5.0
    return TileMatrix.from_dense(np.diag(diagonal), 2)


@pytest.mark.parametrize("matrix,error,index,message", [
    (_indefinite_matrix, NotPositiveDefiniteError, (5, 5),
     "not positive definite"),
    (_overflowing_matrix, NumericalCorruptionError, None,
     "overflows FP16 storage"),
])
def test_plain_call_raises_what_the_reference_loop_raised(
        monkeypatch, matrix, error, index, message):
    """A breakdown in the default evaluation surfaces as the loop's own
    typed error — what MLE drivers and the recovery ladder catch —
    not as the executor's ``SchedulingError``."""
    from repro.core import likelihood

    with pytest.raises(error, match=message) as reference:
        tile_cholesky(matrix())
    assert type(reference.value) is error
    monkeypatch.setattr(
        likelihood, "build_planned_covariance",
        lambda *args, **kwargs: (matrix(), SimpleNamespace(tile_tol=0.0)),
    )
    capture = RunCapture()
    with pytest.raises(error, match=message) as raised:
        loglikelihood(
            MaternKernel(), np.array([1.0, 0.1, 0.5]),
            np.random.default_rng(0).uniform(size=(16, 2)), np.zeros(16),
            tile_size=matrix().layout.tile_size, telemetry=capture,
        )
    assert type(raised.value) is error
    assert raised.value.tile_index == reference.value.tile_index == index
    factorize = capture.tracer.by_name("factorize")[0]
    assert factorize.attrs["grouping"] == "stacked"


def test_plain_call_does_not_import_networkx():
    """The sweep schedules from panel indices: a process that only
    evaluates never pays for the graph library the simulator and the
    DAG helpers use (a fresh interpreter — this one has it loaded)."""
    script = (
        "import sys, numpy as np\n"
        "import repro, repro.runtime.batchdispatch\n"
        "from repro.core import loglikelihood\n"
        "from repro.kernels import MaternKernel\n"
        "x = np.random.default_rng(0).uniform(size=(32, 2))\n"
        "loglikelihood(MaternKernel(), np.array([1.0, 0.1, 0.5]), x,\n"
        "              np.zeros(32), tile_size=8, nugget=1e-8)\n"
        "sys.exit('networkx' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run(
        [sys.executable, "-c", script], timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0


# ----------------------------------------------------------------------
# one carrier for execution settings
# ----------------------------------------------------------------------
EXECUTION_SETTINGS = {"workers", "batch", "backend"}


@pytest.mark.parametrize("api", [
    loglikelihood, loglikelihood_replicated, fit_mle,
    EvaluationEngine, ExaGeoStatModel,
    # Process placement has one grouping, so nothing to ask it for.
    ProcessPoolEngine.execute,
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


def test_the_sweep_takes_no_tuning():
    """No scratch pool to pass in, no group-size threshold: the sweep's
    signature is the harness's arguments plus deadline / telemetry /
    clamp and the three hook values; the thread door is the same minus
    ``clamp`` — no ``cancel``."""
    sweep = set(inspect.signature(execute_cholesky_batched).parameters)
    assert sweep == {
        "matrix", "workers", "tile_tol", "max_rank", "fp16_accumulate_fp32",
        "clamp", "deadline", "retry", "chaos", "check_finite", "telemetry",
    }
    assert set(
        inspect.signature(execute_cholesky_parallel).parameters
    ) == sweep - {"clamp"}
