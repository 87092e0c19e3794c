"""One workload, one pass, in a fresh process (started by ``run.py``).

The parent pins ``OMP_NUM_THREADS`` / ``OPENBLAS_NUM_THREADS`` in this
process's environment before it starts, so the numerical libraries
are imported under the recorded thread count.  Imports of numpy, scipy
and ``repro`` happen inside :func:`main`, where they are timed as part
of set-up.  The last line printed is the workload's record as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import threading
import time


_PREFAULT_CHUNK = 16 * 2**20


def prefault(megabytes: int) -> float:
    """Touch ``megabytes`` of heap and hand it back to malloc, which
    (pinned by ``run.py`` to the heap, never trimmed) keeps it mapped
    and serves every later array from it; returns the seconds that
    took.

    On the VM this was sized on, the first touch of a page the host has
    taken back costs up to a thousand times a warm one (512 MB: 0.17 s
    warm, 19.9 s cold, minutes apart), and which pages are cold is the
    host's business.  Faulting the workload's peak footprint in here,
    before the clock starts, moves that cost out of the timed phases
    without changing how many pages the process touches."""
    start = time.perf_counter()
    page = 4096
    stamp = b"\x01" * (_PREFAULT_CHUNK // page)
    chunks = []
    for _ in range(megabytes * 2**20 // _PREFAULT_CHUNK):
        chunk = bytearray(_PREFAULT_CHUNK)
        chunk[::page] = stamp
        chunks.append(chunk)
    del chunks
    return time.perf_counter() - start


def stolen_seconds() -> float:
    """CPU seconds the host took from this guest so far (all cores;
    0.0 where the kernel does not account for it)."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
    except OSError:
        return 0.0
    if len(fields) < 9:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def fingerprint() -> dict:
    """What must match before two records may be compared."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        model = platform.processor() or "unknown"
    return {
        "cores": os.cpu_count(),
        "cpu": model,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "malloc": {k: v for k, v in sorted(os.environ.items())
                   if k.startswith("MALLOC_")},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def run_sweep_point(n: int, seed: int) -> dict:
    """Evaluate phase only, exponential field, tile n/30: three
    variants and the dense reference, interleaved as in the workloads,
    in one process."""
    from dataclasses import replace

    import adapter
    from pipeline import Ops, loglik_budget, summarize, synthesize
    from workloads import NUGGET, WORKLOADS

    workload = replace(WORKLOADS["mp-large"], n=n, tile=n // 30, held_out=8)
    data = synthesize(workload, seed)
    theta = data.theta_true
    ops = Ops()

    def reference() -> float:
        return adapter.loglikelihood_dense_reference(
            data.kernel, theta, data.xo, data.zo, nugget=NUGGET)

    variants = {
        name: adapter.variant_for(replace(workload, variant=name))
        for name in ("dense-fp64", "mp-dense", "mp-dense-tlr")
    }
    engines = {
        name: adapter.engine_for(data.kernel, data.xo, data.zo,
                                 tile=workload.tile, variant=cfg, nugget=NUGGET)
        for name, cfg in variants.items()
    }
    samples: dict[str, list[float]] = {name: [] for name in engines}
    ref_s: list[float] = []
    results = {}
    try:
        for engine in engines.values():
            engine.evaluate(theta)  # cold: geometry, rank hints
        for _ in range(5):
            dt, ref = ops.timed("reference", reference)
            ref_s.append(dt)
            for name, engine in engines.items():
                dt, results[name] = ops.timed(
                    f"evaluate[{name}]", lambda e=engine: e.evaluate(theta))
                samples[name].append(dt)
    finally:
        for engine in engines.values():
            engine.close()
    point = {"n": n, "tile": workload.tile, "seed": seed,
             "dense_ref_eval_s": summarize(ref_s), "variants": {}}
    for name, cfg in variants.items():
        err = abs(results[name].value - ref)
        ops.require(f"evaluate[{name}]", err <= loglik_budget(cfg, n, ref),
                    f"|l - l_ref| = {err:.3g}")
        stats = summarize(samples[name])
        point["variants"][name] = {
            "eval_s": stats,
            "eval_vs_ref": stats["median"] / point["dense_ref_eval_s"]["median"],
            "factor_mb": results[name].factor.nbytes / 1e6,
            "loglik_abs_err": err,
        }
    point["ops_attempted"] = ops.attempted
    point["ops_failed"] = ops.failed
    point["failures"] = ops.failures
    return point


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mini", action="store_true")
    parser.add_argument("--sweep-n", type=int)
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)
    threads_at_start = threading.active_count()
    stolen_at_start = stolen_seconds()

    from workloads import WORKLOADS

    workload = None
    prefault_s = 0.0
    if args.workload:
        workload = WORKLOADS[args.workload]
        if args.mini:
            workload = workload.miniature()
        prefault_s = prefault(workload.prefault_mb)
    process_start = time.perf_counter()
    import adapter  # noqa: F401  (first import of numpy, scipy, repro)
    import pipeline

    import_s = time.perf_counter() - process_start
    if args.sweep_n:
        point = run_sweep_point(args.sweep_n, args.seed)
        point["machine"] = fingerprint()
        print(json.dumps(point))
        return 0

    ops = pipeline.Ops()
    data, setup = pipeline.run_setup(
        workload, args.seed, import_s, repeats=1 if args.trace else 3)
    record = {
        "workload": workload.name,
        "definition": workload.definition(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "machine": fingerprint(),
        "prefault_s": prefault_s,
        "setup": setup,
    }
    if args.trace:
        import layers
        from tracing import Tracer

        tracer = Tracer(workload.name)
        tracer.add("setup.import", process_start, process_start + import_s)
        record["per_layer"] = layers.run_traced(
            workload, args.seed, data, setup, ops, tracer, threads_at_start)
        if args.trace_file:
            tracer.write(args.trace_file)
    else:
        record["end_to_end"] = pipeline.run_untraced(
            workload, args.seed, args.seconds, data, ops)
    leaked = adapter.leaked_segments()
    ops.require("process", not leaked, f"/dev/shm segments left: {leaked}")
    extra_threads = threading.active_count() - threads_at_start
    ops.require("process", extra_threads == 0,
                f"{extra_threads} threads outlive the workload")
    record["ops_attempted"] = ops.attempted
    record["ops_failed"] = ops.failed
    record["failures"] = ops.failures
    record["wall_s"] = time.perf_counter() - process_start
    record["stolen_s"] = stolen_seconds() - stolen_at_start
    record["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
