"""The repository's benchmark: evaluate -> predict (and a traced fit),
anchored to the dense FP64 baseline.

    python3 benchmarks/harness/run.py                  # all four workloads
    python3 benchmarks/harness/run.py --workload mp-large --seed 3
    python3 benchmarks/harness/run.py --trace 1        # per-layer pass
    python3 benchmarks/harness/run.py --selfcheck      # n=240, < 30 s
    python3 benchmarks/harness/run.py --sweep-n 900,1800,3600,5400 --out DIR

Each workload runs in its own fresh subprocess (``worker.py``) with the
BLAS thread count pinned in its environment.  This process imports
neither numpy nor ``repro``; it starts workers, checks what they
return against ``BENCHMARK.json``, prints every metric by name with
its unit, writes one record per workload, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

from workloads import HARNESS_DIR, REPO_ROOT, WORKLOADS, load_contract, metric_units

WORKER = HARNESS_DIR / "worker.py"
DEFAULT_OUT = HARNESS_DIR / "out" / "latest"
#: A worker that runs longer than this is killed (the driver allows
#: 180 s per run); sweep points are off the timed path and get longer.
WORKER_TIMEOUT_S = 170.0
SWEEP_TIMEOUT_S = 1500.0
#: ``eval_vs_ref`` within this of 1 is parity, not a win or a loss.
PARITY = 0.10
_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: glibc malloc: take every array from the heap, never from a mapping
#: of its own, and never trim the heap, so freed memory is reused
#: instead of being unmapped and page-faulted in again.  On a small VM
#: the host takes back pages the guest frees; touching one again costs
#: ten to a thousand times a warm page and varies run to run, and with
#: the defaults that variation, not the code, set most timings.  Anchors
#: and variants run under the same setting, and the record names it.
MALLOC_ENV = {
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": str(4 * 2**30),
}
_SHM = pathlib.Path("/dev/shm")


def blas_threads() -> int:
    return 1


@functools.cache
def git_state() -> dict:
    """Commit and dirty flag; a benchmark checkout is not a repository."""
    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(
                ["git", "-C", str(REPO_ROOT), *args], capture_output=True,
                text=True, timeout=30, check=False)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if sha else None
    return {"sha": sha or "unknown", "dirty": bool(status) if sha else None}


def shm_names() -> set[str]:
    try:
        return set(os.listdir(_SHM))
    except OSError:
        return set()


def run_worker(args: list[str], timeout_s: float = WORKER_TIMEOUT_S) -> dict:
    """Start one worker, wait for it, return the record on its last
    output line.  The worker gets its own process group so that a
    timeout takes its pool processes down with it."""
    env = dict(os.environ)
    for name in _THREAD_ENV:
        env[name] = str(blas_threads())
    env.update(MALLOC_ENV)
    before = shm_names()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], env=env, text=True,
        stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"worker {args} exceeded {timeout_s:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"worker {args} exited with code {proc.returncode}")
    record = json.loads(out.strip().splitlines()[-1])
    record["shm_left_behind"] = sorted(shm_names() - before)
    return record


#: Gated time metric -> the samples it is the ratio of, over the
#: run's median ``loglikelihood_dense_reference`` time.
VS_REF = {
    "eval_vs_ref": "eval_s",
    "base_vs_ref": "base_eval_s",
    "predict_first_vs_ref": "predict_first_s",
    "predict_vs_ref": "predict_s",
}


def end_to_end_values(record: dict) -> dict[str, dict]:
    """The gated end-to-end metrics, each with its summary statistics."""
    e2e = record["end_to_end"]
    ref = e2e["dense_ref_eval_s"]["median"]
    # Imports + the median synthesis + building the engines and their
    # first evaluation (once: it is seconds, and pays for the caches).
    setup = dict(record["setup"]["setup_s"])
    setup["median"] += e2e["engines_s"]
    values = {"setup_s": setup, "factor_mb": e2e["factor_mb"]}
    for name, seconds in VS_REF.items():
        values[name] = {
            "median": e2e[seconds]["median"] / ref, "n": e2e[seconds]["n"],
            "iqr": e2e[seconds]["iqr"] / ref,
            "base": f"dense_ref_eval_s (same run): {ref:.6f} s",
        }
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out_dir: pathlib.Path, contract: dict, *,
                 mini: bool = False) -> dict:
    """One workload, one pass: run, validate, print, write, summarize."""
    out_dir.mkdir(parents=True, exist_ok=True)
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace))]
    if mini:
        args.append("--mini")
    if trace:
        args += ["--trace-file", str(out_dir / f"trace_{name}.json")]
    record = run_worker(args)
    record["git"] = git_state()
    record["unix_time"] = time.time()

    units = metric_units(contract, trace)
    if trace:
        stats = {k: {"median": v, "n": 1, "iqr": 0.0}
                 for k, v in record["per_layer"].items()}
    else:
        stats = end_to_end_values(record)
    if set(stats) != set(units):
        raise SystemExit(
            f"{name}: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(stats))}, "
            f"extra {sorted(set(stats) - set(units))}")
    failures = list(record["failures"])
    if record["shm_left_behind"]:
        failures.append(f"process: /dev/shm entries left: {record['shm_left_behind']}")
    record["failures"] = failures
    record["ops_failed"] = len(failures)
    record["metrics"] = {
        k: {**stats[k], "unit": units[k]} for k in units
    }

    mode = "per-layer (traced)" if trace else "end-to-end (untraced)"
    print(f"== {name}  seed={seed}  {mode}  wall {record['wall_s']:.1f} s")
    for key, unit in units.items():
        s = stats[key]
        spread = f"  n={s['n']} iqr={s['iqr']:.4g}" if s["n"] > 1 else ""
        print(f"  {key:<34} {s['median']:>14.6g} {unit}{spread}")
    if not trace:
        # The seconds behind the ratios: in the record, not gated (the
        # host's speed moves them by tens of percent for minutes).
        for key in ("dense_ref_eval_s", *VS_REF.values()):
            s = record["end_to_end"][key]
            print(f"  ({key:<32} {s['median']:>14.6g} s  n={s['n']} "
                  f"iqr={s['iqr']:.4g})")
    print(f"  ops_attempted={record['ops_attempted']} "
          f"ops_failed={record['ops_failed']}")
    for failure in failures:
        print(f"  FAILED {failure}")

    suffix = ".trace.json" if trace else ".json"
    (out_dir / f"{name}{suffix}").write_text(json.dumps(record, indent=1) + "\n")
    return record


def result_line(records: list[dict], prefix: bool) -> str:
    """The driver's last line; metric names carry the workload only
    when several workloads ran in one invocation."""
    metrics = {}
    for record in records:
        for key, stat in record["metrics"].items():
            name = f"{record['workload']}/{key}" if prefix else key
            metrics[name] = {"value": stat["median"], "unit": stat["unit"]}
    failed = sum(r["ops_failed"] for r in records)
    return json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["ops_attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    })


def selfcheck(contract: dict, seed: int) -> int:
    """Miniature of all four workloads, both passes: names equal
    ``BENCHMARK.json`` (checked in :func:`run_workload`), every check
    passes, the replayed factor is bit-identical."""
    start = time.perf_counter()
    out_dir = HARNESS_DIR / "out" / "selfcheck"
    bad = 0
    for name in WORKLOADS:
        for trace in (False, True):
            record = run_workload(name, seed, 0.0, trace, out_dir, contract,
                                  mini=True)
            bad += record["ops_failed"]
            if trace and record["per_layer"]["accuracy.replay_bit_identical"] != 1.0:
                bad += 1
    elapsed = time.perf_counter() - start
    print(f"selfcheck: {'ok' if not bad else 'FAILED'} in {elapsed:.1f} s")
    return 1 if bad else 0


def crossover_sentences(points: list[dict]) -> list[str]:
    """One sentence per variant: the crossover n against the dense
    LAPACK reference, or that there is none.  A crossover needs a
    margin, has to hold from there on up, and needs two sweep points:
    one reading below 1 is noise until the next size confirms it."""
    sizes = [p["n"] for p in points]
    sentences = []
    for name in points[0]["variants"]:
        ratios = [p["variants"][name]["eval_vs_ref"] for p in points]
        listed = ", ".join(
            f"{r:.2f} at n={n}" for r, n in zip(ratios, sizes))
        wins = [all(r < 1.0 - PARITY for r in ratios[i:]) for i in range(len(sizes))]
        first = wins.index(True) if True in wins else len(sizes)
        if len(sizes) - first >= 2:
            verdict = (f"evaluates faster than the dense LAPACK reference "
                       f"from n={sizes[first]} up")
        elif len(sizes) - first == 1:
            ref = points[-1]["dense_ref_eval_s"]["samples"]
            verdict = (f"is faster than the dense LAPACK reference only at the "
                       f"largest n measured, where the reference itself took "
                       f"{min(ref):.1f} to {max(ref):.1f} s; one point is not "
                       f"a crossover")
        elif abs(ratios[-1] - 1.0) <= PARITY:
            verdict = (f"has no crossover for n <= {sizes[-1]} on this class of "
                       f"machine; it reaches parity (within {PARITY:.0%}) with "
                       f"the dense LAPACK reference at n={sizes[-1]}")
        else:
            verdict = (f"has no crossover for n <= {sizes[-1]} on this class "
                       f"of machine")
        sentences.append(f"{name} {verdict} (eval_vs_ref {listed}).")
    return sentences


def sweep(sizes: list[int], seed: int, out_dir: pathlib.Path) -> int:
    """Crossover curve: ``eval_vs_ref`` of three variants per n, one
    fresh worker per point, written to ``crossover.json`` in
    ``out_dir`` (the committed one is in ``out/``)."""
    points = []
    for n in sizes:
        point = run_worker(["--sweep-n", str(n), "--seed", str(seed)],
                           timeout_s=SWEEP_TIMEOUT_S)
        points.append(point)
        for name, v in point["variants"].items():
            print(f"n={n:<6} {name:<14} eval_s={v['eval_s']['median']:.4f} "
                  f"eval_vs_ref={v['eval_vs_ref']:.3f} "
                  f"(ref {point['dense_ref_eval_s']['median']:.4f} s)")
    sentences = crossover_sentences(points)
    failed = sum(p["ops_failed"] for p in points)
    machine = points[0]["machine"]
    for p in points:
        del p["machine"]
    out = {
        "what": "evaluate phase only, exponential theta=(1, 0.1), nugget 1e-6, "
                "Morton order, tile n/30, default execution; eval_vs_ref = "
                "median warm EvaluationEngine.evaluate / median "
                "loglikelihood_dense_reference, five of each, interleaved in "
                "one process as in the workloads",
        "git": git_state(), "machine": machine,
        "crossover": sentences, "points": points, "ops_failed": failed,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "crossover.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print("\n".join(sentences))
    print(f"wrote {path}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--sweep-n", type=lambda s: [int(n) for n in s.split(",")])
    args = parser.parse_args(argv)

    if args.selfcheck:
        return selfcheck(contract, args.seed)
    if args.sweep_n:
        return sweep(args.sweep_n, args.seed, args.out)
    names = [args.workload] if args.workload else list(WORKLOADS)
    records = [
        run_workload(name, args.seed, args.seconds, bool(args.trace),
                     args.out, contract)
        for name in names
    ]
    print(result_line(records, prefix=args.workload is None))
    return 0


if __name__ == "__main__":
    sys.exit(main())
