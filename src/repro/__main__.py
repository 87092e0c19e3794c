"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``info``
    Version, dependency versions, machine-model summary.
``selfcheck``
    A fast end-to-end validation: fits the three compute variants on a
    small surrogate, checks they agree, and prints the Table-I-style
    rows.  Exit code 0 iff all checks pass.
``crossover [--tile B]``
    Print the Fig. 5 dense/TLR crossover analysis for a tile size.
``scaling [--nodes N] [--matrix M]``
    Fig. 10-style projection for a weak-correlation problem.
``profile [--n N] [--tile B] [--variant V] [--backend B] [--workers W]
[--max-iter K] [--trace PATH] [--prometheus PATH] [--dump PATH]``
    Profile a seeded fit + predict workload under the unified
    telemetry layer (DESIGN.md §16): writes a Perfetto-loadable Chrome
    trace, prints the per-op flamegraph-style breakdown, and
    optionally dumps the Prometheus exposition / JSON profile.
``analyze [--lint PATH ...] [--comm] [--concurrency [PATH ...]]
[--json] [--rules]``
    Verification layer: run the numerical-hygiene linter over source
    paths, the owner-computes traffic cross-check (``--comm``: the
    process backend's measured transfers must equal the simulator's
    wire-format model byte-for-byte on a dense plan), and the static
    lock-discipline analyzer (``--concurrency``, defaulting to the
    installed package sources).  Exit code 0 iff no error-severity
    finding is reported; warnings do not fail the run.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _cmd_info(_args) -> int:
    import networkx
    import scipy

    import repro
    from repro.perfmodel import A64FX

    print(f"repro {repro.__version__}")
    print(f"  numpy {np.__version__}, scipy {scipy.__version__}, "
          f"networkx {networkx.__version__}")
    print(f"  machine model: {A64FX.name}")
    print(f"    FP64 peak {A64FX.peak_gflops} Gflop/s/node map, "
          f"sustained efficiency {A64FX.efficiency:.0%}")
    return 0


def _cmd_selfcheck(_args) -> int:
    from repro import ExaGeoStatModel
    from repro.data import soil_moisture_surrogate

    print("self-check: fitting 3 variants on a 300-point surrogate ...")
    data = soil_moisture_surrogate(n_train=300, n_test=40, seed=1)
    rows = {}
    for variant in ("dense-fp64", "mp-dense", "mp-dense-tlr"):
        model = ExaGeoStatModel(kernel="matern", variant=variant,
                                tile_size=50)
        model.fit(data.x_train, data.z_train,
                  theta0=data.theta_true, max_iter=40)
        mspe = model.score(data.x_test, data.z_test)
        rows[variant] = (model.theta_, model.loglik_, mspe)
        theta = ", ".join(f"{v:.4f}" for v in model.theta_)
        print(f"  {variant:13s} theta=[{theta}] loglik={model.loglik_:.3f} "
              f"MSPE={mspe:.4f}")
    base_theta, base_ll, base_mspe = rows["dense-fp64"]
    ok = True
    for variant, (theta, ll, mspe) in rows.items():
        if not np.allclose(theta, base_theta, rtol=0.2):
            print(f"FAIL: {variant} parameters diverge from dense FP64")
            ok = False
        if abs(mspe - base_mspe) > 0.1 * base_mspe + 1e-12:
            print(f"FAIL: {variant} MSPE diverges from dense FP64")
            ok = False
    print("self-check PASSED" if ok else "self-check FAILED")
    return 0 if ok else 1


def _cmd_crossover(args) -> int:
    from repro.perfmodel import A64FX, crossover_rank, gemm_ratio_curve

    tile = args.tile
    xover = crossover_rank(tile, A64FX)
    ranks = np.linspace(max(xover // 8, 1), 2 * xover, 9, dtype=int)
    tlr, dense, ratio = gemm_ratio_curve(tile, ranks, A64FX)
    print(f"tile {tile}: crossover rank = {xover} "
          "(paper Fig. 5: ~200 at tile 2700)")
    for r, t, d, rr in zip(ranks, tlr, dense, ratio):
        print(f"  rank {int(r):4d}: tlr {t:.4g}s dense {d:.4g}s "
              f"ratio {rr:.2f}")
    return 0


def _cmd_scaling(args) -> int:
    from repro.kernels import MaternKernel
    from repro.ordering import order_points
    from repro.perfmodel import A64FX, PlanProfile, estimate_cholesky
    from repro.tile import build_planned_covariance, ranked_plan

    gen = np.random.default_rng(0)
    x = gen.uniform(size=(1200, 2))
    x = x[order_points(x, "morton")]
    matrix, rep = build_planned_covariance(
        MaternKernel(), np.array([1.0, 0.03, 0.5]), x, 60, nugget=1e-8,
        use_mp=True, use_tlr=True, band_size=1, max_rank_fraction=0.95,
    )
    profile = PlanProfile.from_plan(ranked_plan(matrix, rep.plan))
    dense = estimate_cholesky(
        PlanProfile.dense_fp64(), args.matrix, 2700, A64FX, nodes=args.nodes
    )
    tlr = estimate_cholesky(
        profile, args.matrix, 1350, A64FX, nodes=args.nodes, band_size=2
    )
    print(f"N={args.matrix:,} on {args.nodes} A64FX nodes (model):")
    print(f"  dense FP64    {dense.time_s:10.1f} s "
          f"({dense.sustained_pflops:.2f} Pflop/s)")
    print(f"  MP+dense/TLR  {tlr.time_s:10.1f} s "
          f"-> speedup {dense.time_s / tlr.time_s:.1f}x, "
          f"memory -{tlr.memory_reduction:.0%}")
    return 0


def _cmd_profile(args) -> int:
    import json as _json
    import time

    from repro import ExaGeoStatModel
    from repro.core import get_variant
    from repro.data import soil_moisture_surrogate
    from repro.obs import Telemetry

    n_test = max(20, min(args.n // 4, 200))
    data = soil_moisture_surrogate(
        n_train=args.n, n_test=n_test, seed=args.seed
    )
    telemetry = Telemetry()
    execution = {
        name: value
        for name, value in (("backend", args.backend),
                            ("workers", args.workers))
        if value is not None
    }
    variant = get_variant(args.variant).with_(**execution)
    model = ExaGeoStatModel(
        kernel="matern", variant=variant, tile_size=args.tile,
        telemetry=telemetry,
    )
    print(f"profiling: n={args.n} tile={args.tile} "
          f"variant={variant.name} backend={variant.backend} "
          f"workers={variant.workers} max_iter={args.max_iter}")
    t0 = time.perf_counter()
    model.fit(data.x_train, data.z_train, theta0=data.theta_true,
              max_iter=args.max_iter)
    model.predict(data.x_test, return_uncertainty=True)
    wall = time.perf_counter() - t0
    print(f"  loglik={model.loglik_:.4f} nfev={model.result_.nfev} "
          f"wall={wall:.2f}s")
    # What the variant's execution settings resolved to (the span
    # carries what ran, not what was asked).
    resolved = telemetry.tracer.by_name("factorize")[0].attrs
    print("  factorized on: placement={placement} grouping={grouping} "
          "workers={workers}".format(**resolved))
    generated = telemetry.tracer.by_name("generate")[0].attrs
    print("  generated on: elementwise={elementwise} chunks={chunks} "
          "workers={workers} table={table} rtol={rtol:.1e}".format(**generated))
    predicted = telemetry.tracer.by_name("predict_batch")[0].attrs
    print("  predicted on: elementwise={elementwise} chunks={chunks} "
          "workers={workers} table={table} rtol={rtol:.1e}".format(**predicted))
    # CholeskyStats as the registry mirrors it, summed over the fit.
    metrics = telemetry.registry.snapshot()
    truncations, kept_dense, densified, certified = (
        int(metrics[f"repro_cholesky_{name}_total"]["series"][0]["value"])
        for name in ("truncations", "kept_dense", "densified_tiles",
                     "certified")
    )
    if variant.use_tlr:
        # Every compression of the fit, where it happened: a settle
        # compresses each planned-low-rank tile once, and the assembly
        # only the tiles a decision reads the rank of ("compress" spans).
        compressed = {"certified": certified,
                      "fallback": truncations - kept_dense - certified,
                      "over_cap": kept_dense}
        for span in telemetry.tracer.by_name("compress"):
            for outcome, count in span.attrs["compressed"].items():
                compressed[outcome] += count
        print("  compressed: certified={certified} fallback={fallback} "
              "over_cap={over_cap} (assembly + settles, whole fit)"
              .format(**compressed))
    print(f"  {len(telemetry.tracer)} span(s), "
          f"{len(telemetry.tracer.sorted_events())} event(s), "
          f"{len(telemetry.registry.metrics())} metric(s)")
    telemetry.write_chrome_trace(args.trace)
    print(f"  trace -> {args.trace} "
          "(open in https://ui.perfetto.dev or chrome://tracing)")
    if args.prometheus:
        with open(args.prometheus, "w") as fh:
            fh.write(telemetry.render_prometheus())
        print(f"  prometheus exposition -> {args.prometheus}")
    if args.dump:
        with open(args.dump, "w") as fh:
            _json.dump(telemetry.profile_dump(), fh, indent=2)
        print(f"  profile dump -> {args.dump}")
    print()
    print(telemetry.render_breakdown())
    print(f"low-rank settles: {truncations} truncation(s), "
          f"{kept_dense} kept dense, {densified} accumulator(s) went dense")
    return 0


def _cmd_analyze(args) -> int:
    from repro.analysis import (
        COMM_RULES,
        DAG_RULES,
        LINT_RULES,
        LOCK_RULES,
        PLAN_RULES,
        AnalysisReport,
        Severity,
        check_golden_comm,
        check_lock_discipline,
        lint_paths,
    )

    if args.rules:
        for catalog in (
            PLAN_RULES, DAG_RULES, LINT_RULES, COMM_RULES, LOCK_RULES,
        ):
            for rule, text in catalog.items():
                print(f"  {rule}  {text}")
        return 0
    if not (args.lint or args.comm or args.concurrency is not None):
        print("nothing to analyze: pass --lint PATH ..., --comm, "
              "and/or --concurrency",
              file=sys.stderr)
        return 2
    report = AnalysisReport()
    if args.lint:
        report.extend(lint_paths(args.lint))
    if args.comm:
        report.extend(check_golden_comm())
    if args.concurrency is not None:
        report.extend(
            check_lock_discipline(args.concurrency or None)
        )
    if args.json:
        print(report.to_json(indent=2))
    else:
        min_severity = Severity.INFO if args.verbose else Severity.WARNING
        print(report.render_text(min_severity=min_severity))
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Mixed-precision + TLR geostatistics reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("info", help="versions and machine model")
    sub.add_parser("selfcheck", help="fast end-to-end validation")
    p_x = sub.add_parser("crossover", help="Fig. 5 crossover analysis")
    p_x.add_argument("--tile", type=int, default=2700)
    p_s = sub.add_parser("scaling", help="Fig. 10-style projection")
    p_s.add_argument("--nodes", type=int, default=4096)
    p_s.add_argument("--matrix", type=int, default=4_000_000)
    p_p = sub.add_parser(
        "profile",
        help="profile a seeded fit + predict under the telemetry layer",
    )
    p_p.add_argument("--n", type=int, default=400,
                     help="training points of the seeded workload")
    p_p.add_argument("--tile", type=int, default=64)
    p_p.add_argument("--variant", default="mp-dense")
    p_p.add_argument("--backend", default=None,
                     choices=("thread", "process"),
                     help="factorization backend (default: the "
                          "variant's)")
    p_p.add_argument("--workers", type=int, default=None)
    p_p.add_argument("--max-iter", type=int, default=8)
    p_p.add_argument("--seed", type=int, default=20220101)
    p_p.add_argument("--trace", default="repro_profile_trace.json",
                     help="Chrome trace-event JSON output path "
                          "(Perfetto-loadable)")
    p_p.add_argument("--prometheus", default=None, metavar="PATH",
                     help="also write the Prometheus text exposition")
    p_p.add_argument("--dump", default=None, metavar="PATH",
                     help="also write the JSON profile dump")
    p_a = sub.add_parser("analyze", help="static verification layer")
    p_a.add_argument("--lint", nargs="+", metavar="PATH", default=[],
                     help="lint these files/directories")
    p_a.add_argument("--comm", action="store_true",
                     help="cross-check the process backend's measured "
                          "owner-computes traffic against the "
                          "simulator's wire-format model (dense plan, "
                          "byte-for-byte)")
    p_a.add_argument("--concurrency", nargs="*", metavar="PATH",
                     default=None,
                     help="run the static lock-discipline analyzer "
                          "over these files/directories (default: the "
                          "installed repro package sources)")
    p_a.add_argument("--json", action="store_true",
                     help="machine-readable JSON output")
    p_a.add_argument("--rules", action="store_true",
                     help="print the rule catalog and exit")
    p_a.add_argument("--verbose", action="store_true",
                     help="also print info-severity findings")
    args = parser.parse_args(argv)
    handler = {
        "info": _cmd_info,
        "selfcheck": _cmd_selfcheck,
        "crossover": _cmd_crossover,
        "scaling": _cmd_scaling,
        "profile": _cmd_profile,
        "analyze": _cmd_analyze,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
