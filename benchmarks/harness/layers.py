"""The traced pass: one budget line per layer, from the outside in.

Everything is measured at ``theta_true`` by calling each layer's public
functions from here, inside spans of the harness's own
:class:`~tracing.Tracer`.  The factorization is decomposed by
:func:`replay_cholesky`, which walks the same right-looking task order
as ``tile_cholesky`` and times every tile kernel call; its factor must
be bit-identical to ``tile_cholesky``'s.

Derived metrics (differences and ratios of measured ones) say so in
README.md and name their base there.
"""

from __future__ import annotations

import os
import resource
import threading
import time
from collections import Counter

import numpy as np

import adapter
from pipeline import (
    Dataset,
    Ops,
    check_prediction,
    first_batch,
    loglik_budget,
    seeded_thetas,
)
from tracing import Tracer
from workloads import NUGGET, Workload

#: Peak probes: GEMM order and triad array length (doubles).
_PEAK_GEMM = 1024
_TRIAD_LEN = 8 * 2**20
_KERNEL_CLASSES = (
    "potrf", "trsm_dense", "trsm_lr", "syrk_dense", "syrk_lr",
    "gemm_dense", "gemm_lr",
)
_GEMM_PRECISIONS = ("fp64", "fp32", "fp16")


# ----------------------------------------------------------------------
# machine peaks, measured in the same run
# ----------------------------------------------------------------------
def _best_seconds(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def machine_peaks(tile: int, seed: int) -> dict:
    rng = np.random.default_rng([seed, 9])
    out = {}
    for name, dtype in (("dgemm", np.float64), ("sgemm", np.float32)):
        a = rng.standard_normal((_PEAK_GEMM, _PEAK_GEMM)).astype(dtype)
        b = rng.standard_normal((_PEAK_GEMM, _PEAK_GEMM)).astype(dtype)
        a @ b
        secs = _best_seconds(lambda a=a, b=b: a @ b, 5)
        out[f"machine.{name}_gflops"] = 2.0 * _PEAK_GEMM**3 / secs / 1e9
    # One tile-sized product per call, as a tile task issues them.
    a = rng.standard_normal((tile, tile))
    b = rng.standard_normal((tile, tile))
    calls = max(20, int(2.0e8 / (2.0 * tile**3)))

    def tile_products() -> None:
        for _ in range(calls):
            a @ b.T

    secs = _best_seconds(tile_products, 3)
    out["machine.dgemm_tile_gflops"] = calls * 2.0 * tile**3 / secs / 1e9
    # Triad a = b + s*c as two in-place passes; bytes are computed from
    # the array sizes (5 array transfers), not counted by hardware.
    x, y = np.ones(_TRIAD_LEN), np.ones(_TRIAD_LEN)
    dest = np.empty(_TRIAD_LEN)

    def triad() -> None:
        np.multiply(y, 3.0, out=dest)
        np.add(dest, x, out=dest)

    secs = _best_seconds(triad, 3)
    out["machine.triad_gbs"] = 5.0 * 8.0 * _TRIAD_LEN / secs / 1e9
    return out


# ----------------------------------------------------------------------
# factorization replay
# ----------------------------------------------------------------------
def _rank(tile) -> int:
    return tile.rank if tile.is_low_rank else min(tile.shape)


def _lr_gemm_flops(a, b, c) -> float:
    """Model flops of a GEMM with a low-rank operand (dense operands
    count as full rank)."""
    size = c.shape[0]
    ra, rb = _rank(a), _rank(b)
    if c.is_low_rank:
        return adapter.tlr_gemm_flops(size, ra, rb, c.rank)
    return adapter.lr_product_flops(size, ra, rb) + 2.0 * size * size * min(ra, rb)


def replay_cholesky(a, *, tile_tol: float, max_rank, fp16_accumulate_fp32: bool):
    """``tile_cholesky``'s loop with a timer around every kernel call.

    Returns ``(factor, classes, densified, max_rank_seen)`` where
    ``classes`` maps a kernel class to ``[calls, seconds, flops]``.
    Flops come from ``perfmodel/gemm.py`` (a model of the work from
    shapes and ranks, not a hardware count).  The dense-GEMM branch —
    the only one that runs O(nt^3) times — touches nothing but three
    list slots per call and inlines ``dense_gemm_flops``' ``2 m n k``,
    so the timers stay a few percent of a 30^3 GEMM."""
    kernels = adapter.tile_kernels
    fp64, fp32 = adapter.Precision.FP64, adapter.Precision.FP32
    clock = time.perf_counter
    names = [c for c in _KERNEL_CLASSES if c != "gemm_dense"]
    names += [f"gemm_dense_{p}" for p in _GEMM_PRECISIONS]
    classes = {name: [0, 0.0, 0.0] for name in names}
    gemm64, gemm32, gemm16 = (
        classes[f"gemm_dense_fp{bits}"] for bits in (64, 32, 16))
    gemm_lr = classes["gemm_lr"]
    densified = 0
    max_rank_seen = 0
    nt = a.nt
    sizes = [int(b) for b in a.layout.block_sizes()]
    for k in range(nt):
        size_k = sizes[k]
        ckk = a.get(k, k)
        start = clock()
        lkk = kernels.potrf(ckk, index=(k, k))
        elapsed = clock() - start
        record = classes["potrf"]
        record[0] += 1
        record[1] += elapsed
        record[2] += adapter.dense_potrf_flops(size_k)
        a.set(k, k, lkk)
        for m in range(k + 1, nt):
            amk = a.get(m, k)
            start = clock()
            out = kernels.trsm(
                lkk, amk, fp16_accumulate_fp32=fp16_accumulate_fp32
            )
            elapsed = clock() - start
            if amk.is_low_rank:
                record = classes["trsm_lr"]
                record[2] += adapter.tlr_trsm_flops(size_k, amk.rank)
            else:
                record = classes["trsm_dense"]
                record[2] += adapter.dense_trsm_flops(sizes[m], size_k)
            record[0] += 1
            record[1] += elapsed
            a.set(m, k, out)
        column_lr = [False] * nt
        for m in range(k + 1, nt):
            amk = a.get(m, k)
            amk_lr = column_lr[m] = amk.is_low_rank
            cmm = a.get(m, m)
            start = clock()
            out = kernels.syrk(
                amk, cmm, fp16_accumulate_fp32=fp16_accumulate_fp32
            )
            elapsed = clock() - start
            size_m = sizes[m]
            if amk_lr:
                record = classes["syrk_lr"]
                rank = amk.rank  # V^T V, U (V^T V), (U W) U^T
                record[2] += 4.0 * size_m * rank * rank + 2.0 * size_m * size_m * rank
            else:
                record = classes["syrk_dense"]
                record[2] += adapter.dense_syrk_flops(size_m, size_k)
            record[0] += 1
            record[1] += elapsed
            a.set(m, m, out)
            dense_flops = 2.0 * size_m * size_k
            for n in range(k + 1, m):
                ank = a.get(n, k)
                cmn = a.get(m, n)
                start = clock()
                out = kernels.gemm(
                    amk, ank, cmn, tol=tile_tol, max_rank=max_rank,
                    fp16_accumulate_fp32=fp16_accumulate_fp32,
                )
                elapsed = clock() - start
                if amk_lr or column_lr[n] or cmn.is_low_rank:
                    gemm_lr[0] += 1
                    gemm_lr[1] += elapsed
                    gemm_lr[2] += _lr_gemm_flops(amk, ank, cmn)
                    if cmn.is_low_rank and not out.is_low_rank:
                        densified += 1
                    if out.is_low_rank:
                        max_rank_seen = max(max_rank_seen, out.rank)
                else:
                    precision = cmn.precision
                    record = (gemm64 if precision is fp64
                              else gemm32 if precision is fp32 else gemm16)
                    record[0] += 1
                    record[1] += elapsed
                    record[2] += dense_flops * sizes[n]
                a.set(m, n, out)
    return a, classes, densified, max_rank_seen


def timer_cost(calls: int = 100_000) -> float:
    """Seconds one timed call adds to the replay loop: two clock reads
    and the three accumulator updates, measured around nothing."""
    clock = time.perf_counter
    record = [0, 0.0, 0.0]
    begin = clock()
    for _ in range(calls):
        start = clock()
        elapsed = clock() - start
        record[0] += 1
        record[1] += elapsed
        record[2] += 1.0
    return (clock() - begin) / calls


def bit_identical(f, g) -> bool:
    """Same structure, precision and bits in every tile."""
    if f.keys() != g.keys():
        return False
    for (i, j), tile in f.items():
        other = g.get(i, j)
        if (tile.is_low_rank != other.is_low_rank
                or tile.precision != other.precision):
            return False
        if tile.is_low_rank:
            same = (np.array_equal(tile.u, other.u)
                    and np.array_equal(tile.v, other.v))
        else:
            same = np.array_equal(tile.data, other.data)
        if not same:
            return False
    return True


# ----------------------------------------------------------------------
# the pass
# ----------------------------------------------------------------------
def run_traced(workload: Workload, seed: int, data: Dataset, setup: dict,
               ops: Ops, tracer: Tracer, threads_at_start: int) -> dict:
    """Measure every per-layer metric once; returns ``name -> value``."""
    variant = adapter.variant_for(workload)
    kernel, theta = data.kernel, data.theta_true
    xo, zo = data.xo, data.zo
    n, tile = workload.n, workload.tile
    # Workers of the thread / batched / process placements; run.py
    # pinned one BLAS thread, so two workers fill two cores.
    workers = min(2, os.cpu_count() or 1)
    exec_workers = min(workload.workers, os.cpu_count() or 1)
    use_batch = bool(workload.execution.get("batch", False))
    max_rank = int(variant.max_rank_fraction * tile) or None
    fp16_acc = variant.fp16_accumulate_fp32
    m: dict[str, float] = {}
    span = tracer.span

    m["setup.import_s"] = setup["import_s"]
    m["setup.data_s"] = setup["data_s"]
    m["setup.order_s"] = setup["order_s"]

    with span("machine"):
        m.update(machine_peaks(tile, seed))

    # ---- anchors -----------------------------------------------------
    with span("anchor"):
        with span("anchor.dense_ref_eval"):
            _, ref = ops.timed(
                "reference",
                lambda: adapter.loglikelihood_dense_reference(
                    kernel, theta, xo, zo, nugget=NUGGET),
            )
        with span("anchor.generate"):
            sigma = kernel.covariance_matrix(theta, xo, nugget=NUGGET)
        with span("anchor.potrf"):
            np.linalg.cholesky(sigma)
        del sigma
        with span("anchor.base_eval"):
            _, plain = ops.timed(
                "base",
                lambda: adapter.loglikelihood(
                    kernel, theta, xo, zo, tile_size=tile,
                    variant=adapter.base_variant(), nugget=NUGGET),
                lambda r: None if abs(r.value - ref) <= 1e-9 * abs(ref)
                else f"|l_base - l_ref| = {abs(r.value - ref):.3g}",
            )
        del plain
    m["anchor.dense_ref_eval_s"] = tracer.seconds("anchor.dense_ref_eval")
    m["anchor.dense_ref_generate_s"] = tracer.seconds("anchor.generate")
    m["anchor.dense_ref_potrf_s"] = tracer.seconds("anchor.potrf")
    m["anchor.eval_vs_base"] = (
        tracer.seconds("anchor.base_eval") / m["anchor.dense_ref_eval_s"]
    )

    # ---- geometry and covariance generation --------------------------
    with span("geometry.build"):
        geometry = adapter.build_tile_geometry(kernel, xo, tile)
    m["geometry.build_s"] = tracer.seconds("geometry.build")
    m["geometry.mb"] = geometry.nbytes / 1e6
    keys = list(geometry.tiles)
    with span("kernels.generate", tiles=len(keys)):
        if use_batch:
            blocks = dict(zip(keys, kernel.from_geometry_batch(
                theta, [geometry.tile(i, j) for i, j in keys])))
        else:
            blocks = {
                (i, j): kernel.from_geometry(theta, geometry.tile(i, j))
                for i, j in keys
            }
    m["kernels.generate_s"] = tracer.seconds("kernels.generate")
    m["kernels.entries_per_s"] = (
        sum(b.size for b in blocks.values()) / m["kernels.generate_s"]
    )
    x_first = first_batch(workload, seed, data)
    with span("kernels.cross_generate", points=len(x_first)):
        kernel(theta, xo, x_first)
    m["kernels.cross_generate_s"] = tracer.seconds("kernels.cross_generate")

    # ---- assembly, decisions, compression ----------------------------
    with span("assembly.build") as counts:
        matrix, report = adapter.build_planned_covariance(
            kernel, theta, xo, tile, nugget=NUGGET, geometry=geometry,
            workers=exec_workers, batch=use_batch,
            **variant.assembly_kwargs(),
        )
        plan = report.plan
        lr_ranks = [t.rank for _, t in matrix.items() if t.is_low_rank]
        precisions = Counter(int(p) for p in plan.precisions.values())
        counts.update(tiles_lr=len(lr_ranks), tiles_fp32=precisions[32],
                      tiles_fp16=precisions[16])
    m["assembly.build_s"] = tracer.seconds("assembly.build")
    m["assembly.plan_compress_s"] = m["assembly.build_s"] - m["kernels.generate_s"]
    m["assembly.tiles_lr"] = len(lr_ranks)
    m["assembly.tiles_fp32"] = precisions[32]
    m["assembly.tiles_fp16"] = precisions[16]
    m["assembly.rank_mean"] = float(np.mean(lr_ranks)) if lr_ranks else 0.0
    m["assembly.rank_max"] = max(lr_ranks, default=0)
    m["assembly.band_size"] = plan.band_size_dense

    offdiag = [key for key in keys if key[0] != key[1]]
    if variant.use_tlr:
        with span("compression.compress_many", tiles=len(offdiag)):
            adapter.compress_many(
                blocks, offdiag, report.tile_tol, max_rank=max_rank)
        with span("compression.warm_hint", tiles=len(offdiag)):
            adapter.compress_many(
                blocks, offdiag, report.tile_tol, max_rank=max_rank,
                hints=report.ranks)
    del blocks
    m["compression.compress_many_s"] = tracer.seconds("compression.compress_many")
    m["compression.tiles_per_s"] = (
        len(offdiag) / m["compression.compress_many_s"]
        if variant.use_tlr else 0.0
    )
    m["compression.warm_hint_s"] = tracer.seconds("compression.warm_hint")

    # ---- factorization: replay and the four placements, all on copies
    # of the one assembled matrix --------------------------------------
    factor_args = dict(
        tile_tol=report.tile_tol, max_rank=max_rank,
        fp16_accumulate_fp32=fp16_acc,
    )
    work = matrix.copy()
    with span("factor.replay") as counts:
        replayed, classes, densified, max_rank_seen = replay_cholesky(
            work, **factor_args)
        tasks = sum(c[0] for c in classes.values())
        counts.update(tasks=tasks)
    work = matrix.copy()
    with span("runtime.sequential"):
        sequential, stats = adapter.tile_cholesky(work, **factor_args)
    identical = bit_identical(replayed, sequential)
    ops.require("replay", identical,
                "replayed factor differs from tile_cholesky's")
    ops.require(
        "replay",
        (densified, max_rank_seen) == (stats.densified_tiles, stats.max_rank_seen)
        and tasks == sum(stats.kernel_counts.values()),
        "replay tallies differ from CholeskyStats",
    )
    del replayed

    placement_s = {"sequential": tracer.seconds("runtime.sequential")}

    def run_placement(name: str, fn):
        work = matrix.copy()
        with span(f"runtime.{name}"):
            start = time.perf_counter()
            factored, run = fn(work)
            placement_s[name] = time.perf_counter() - start
        ops.require(f"runtime.{name}", bit_identical(factored, sequential),
                    "factor differs from the sequential one")
        return run

    run_placement("thread", lambda w: adapter.execute_cholesky_parallel(
        w, workers=workers, **factor_args))
    run_placement("batched", lambda w: adapter.execute_cholesky_batched(
        w, workers=workers, **factor_args))
    pool = adapter.ProcessPoolEngine(workers=workers)
    try:
        with span("runtime.process.pool_start"):
            pool.start()
        run = run_placement("process", lambda w: pool.execute(w, **factor_args))
    finally:
        pool.close()
    for name, secs in placement_s.items():
        m[f"runtime.{name}.factor_s"] = secs
    m["runtime.process.pool_start_s"] = tracer.seconds("runtime.process.pool_start")
    m["runtime.process.remote_mb"] = (
        0.0 if run.comm is None else run.comm.remote_bytes / 1e6
    )

    dense_gemm = [classes[f"gemm_dense_{p}"] for p in _GEMM_PRECISIONS]
    classes["gemm_dense"] = [sum(c[i] for c in dense_gemm) for i in range(3)]
    for cls in _KERNEL_CLASSES:
        m[f"kernel.{cls}.s"] = classes[cls][1]
        m[f"kernel.{cls}.calls"] = classes[cls][0]
    for precision, (_, secs, flops) in zip(_GEMM_PRECISIONS, dense_gemm):
        m[f"kernel.gemm_dense_{precision}.gflops"] = (
            flops / secs / 1e9 if secs else 0.0)
    total_flops = sum(classes[cls][2] for cls in _KERNEL_CLASSES)
    m["factor.s"] = placement_s[workload.placement]
    m["factor.tasks"] = tasks
    m["factor.kernel_s"] = sum(m[f"kernel.{cls}.s"] for cls in _KERNEL_CLASSES)
    m["factor.dispatch_residual_s"] = m["factor.s"] - m["factor.kernel_s"]
    m["factor.gflops"] = total_flops / m["factor.s"] / 1e9
    m["factor.peak_fraction"] = m["factor.gflops"] / m["machine.dgemm_gflops"]
    m["factor.densified_tiles"] = densified
    m["factor.max_rank_seen"] = max_rank_seen

    # ---- solves on the sequential factor ------------------------------
    with span("solve.logdet"):
        adapter.tile_logdet(sequential)
    with span("solve.forward"):
        adapter.forward_solve(sequential, zo)
    with span("solve.panel_build"):
        solver = adapter.PanelSolver(sequential)
        solver.solve(zo)
    rhs = np.random.default_rng([seed, 5]).standard_normal((n, workload.batch))
    with span("solve.multi_rhs", rhs=workload.batch):
        solver.solve(rhs)
    del rhs, solver, sequential
    for name in ("logdet", "forward", "panel_build", "multi_rhs"):
        m[f"solve.{name}_s"] = tracer.seconds(f"solve.{name}")

    # ---- likelihood, engine, fit --------------------------------------
    with span("likelihood.eval"):
        _, cold = ops.timed(
            "loglikelihood",
            lambda: adapter.loglikelihood(
                kernel, theta, xo, zo, tile_size=tile, variant=variant,
                nugget=NUGGET),
        )
    m["likelihood.eval_s"] = tracer.seconds("likelihood.eval")
    solve_s = m["solve.logdet_s"] + m["solve.forward_s"]
    m["likelihood.residual_s"] = (
        m["likelihood.eval_s"] - m["assembly.build_s"] - m["factor.s"] - solve_s
    )
    budget = loglik_budget(variant, n, ref)
    err = abs(cold.value - ref)
    ops.require("loglikelihood", err <= budget,
                f"|l - l_ref| = {err:.3g} > {budget:.3g}")
    m["accuracy.loglik_abs_err"] = err
    m["accuracy.loglik_err_over_budget"] = err / budget
    m["accuracy.replay_bit_identical"] = float(identical)

    engine = adapter.engine_for(
        kernel, xo, zo, tile=tile, variant=variant, nugget=NUGGET)
    try:
        with span("engine.cold_eval"):
            ops.timed("evaluate[cold]", lambda: engine.evaluate(theta))
        with span("engine.warm_eval"):
            ops.timed("evaluate[warm]", lambda: engine.evaluate(theta))
        engine_stats = engine.stats()
    finally:
        engine.close()
    m["engine.cold_eval_s"] = tracer.seconds("engine.cold_eval")
    m["engine.warm_eval_s"] = tracer.seconds("engine.warm_eval")
    m["engine.warm_tiles"] = engine_stats.warm_tiles
    m["geometry.cache_hit_ratio"] = engine_stats.geometry_hits / max(
        1, engine_stats.geometry_hits + engine_stats.geometry_misses)

    theta0 = seeded_thetas(workload, seed, 1)[0]
    model = adapter.model_for(kernel, tile=tile, variant=variant, nugget=NUGGET)
    def check_fit(fitted) -> str | None:
        if fitted.result_.nfev != workload.max_nfev:
            return f"nfev {fitted.result_.nfev} != {workload.max_nfev}"
        if not np.isfinite(fitted.theta_).all():
            return "non-finite theta_hat"
        return None

    with span("mle.fit", max_nfev=workload.max_nfev):
        ops.timed(
            "fit",
            lambda: model.fit(data.x_train, data.z_train, theta0=theta0,
                              max_nfev=workload.max_nfev),
            check_fit,
        )
    result = model.result_
    fit_s = tracer.seconds("mle.fit")
    with span("mle.ref_loglik"):
        at_start = adapter.loglikelihood_dense_reference(
            kernel, theta0, xo, zo, nugget=NUGGET)
        m["mle.ref_loglik_at_fit"] = adapter.loglikelihood_dense_reference(
            kernel, model.theta_, xo, zo, nugget=NUGGET)
    # The variant's own likelihood error may reorder two nearly equal
    # points; beyond its budget the fit went downhill.
    ops.require(
        "fit",
        m["mle.ref_loglik_at_fit"] >= at_start - loglik_budget(variant, n, at_start),
        f"l_ref(theta_hat) = {m['mle.ref_loglik_at_fit']:.6f} < "
        f"l_ref(theta0) = {at_start:.6f}",
    )
    m["mle.nfev"] = result.nfev
    # A budget-stopped fit reports nit = 0; count the evaluations that
    # improved the best value instead.
    history = result.history
    m["mle.iterations"] = result.nit or sum(
        1 for prev, cur in zip(history, history[1:]) if cur > prev)
    m["mle.fit_s"] = fit_s
    m["mle.glue_s"] = fit_s - result.nfev * m["engine.warm_eval_s"]

    # ---- serving on the cold likelihood's factor ----------------------
    with span("serving.build"):
        serving = adapter.PredictionEngine(kernel, theta, xo, zo, cold.factor)
    with span("serving.batch", points=len(x_first)):
        _, pred = ops.timed(
            "predict",
            lambda: serving.predict(x_first, return_uncertainty=True),
            lambda p: check_prediction(p, data, variant),
        )
    with span("serving.cached_batch", points=len(x_first)):
        ops.timed(
            "predict[repeat]",
            lambda: serving.predict(x_first, return_uncertainty=True),
            lambda again: None if np.array_equal(again.mean, pred.mean)
            else "repeated batch differs from its first prediction",
        )
    served = serving.stats()
    m["serving.build_s"] = tracer.seconds("serving.build")
    m["serving.batch_s"] = tracer.seconds("serving.batch")
    m["serving.points_per_s"] = len(x_first) / m["serving.batch_s"]
    m["serving.cached_batch_s"] = tracer.seconds("serving.cached_batch")
    m["serving.cross_hit_ratio"] = served.cross_hits / max(
        1, served.cross_hits + served.cross_misses)
    m["serving.weight_solves"] = served.weight_solves
    held = len(data.z_held)
    mspe = float(np.mean((pred.mean[:held] - data.z_held) ** 2))
    m["accuracy.mspe_rel_err"] = abs(mspe - data.ref_mspe) / data.ref_mspe
    m["accuracy.predict_mean_max_err"] = float(
        np.max(np.abs(pred.mean[:held] - data.ref_mean)))

    # ---- process and the harness itself -------------------------------
    m["process.peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    m["process.blas_threads"] = int(os.environ["OPENBLAS_NUM_THREADS"])
    m["process.shm_leaked"] = len(adapter.leaked_segments())
    m["process.threads_leaked"] = threading.active_count() - threads_at_start
    # A direct replay / tile_cholesky comparison is noisier on a shared
    # 2-core box (0.8 to 1.15 over four alternations) than the effect,
    # so the traced wall is the untraced one plus the calibrated cost
    # of the timers and spans that tracing adds.
    untraced = m["assembly.build_s"] + m["runtime.sequential.factor_s"] + solve_s
    added = (tasks + 2 * len(tracer.spans)) * timer_cost()
    m["trace.overhead_ratio"] = (untraced + added) / untraced
    m["trace.spans"] = len(tracer.spans)
    ops.require("trace",
                not workload.check_overhead or m["trace.overhead_ratio"] <= 1.05,
                f"overhead ratio {m['trace.overhead_ratio']:.3f} > 1.05")
    return m
