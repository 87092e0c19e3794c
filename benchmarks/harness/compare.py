"""Compare two sets of benchmark records.

    python3 benchmarks/harness/compare.py OUT_A OUT_B
    python3 benchmarks/harness/compare.py A1,A2,A3 B1,B2,B3

``OUT_A`` (the parent) and ``OUT_B`` (the change) are directories
written by ``run.py --out``; several runs of one side are given as a
comma-separated list.  For every workload on both sides and every
end-to-end metric it prints both medians, both inter-quartile ranges,
the bound from ``BENCHMARK.json`` and a verdict.  With several runs a
side's median and IQR are taken over its runs' values (the run-to-run
spread); with one run they are that run's own median and sample IQR.

* ``worse`` / ``better`` — B's median differs from A's by more than
  the bound (every end-to-end metric is lower-is-better);
* ``same`` — within the bound;
* ``unresolved`` — the spread (the larger IQR over A's median)
  exceeds the bound, so the bound cannot be read.

Records taken on different machines, with different workload
definitions, seeds or ``--seconds``, are not compared (exit code 2).  Exit code 1
when any metric is worse or B fails a larger share of its operations.
Count metrics that should repeat exactly (``factor_mb``, ``mle.nfev``,
``kernel.*.calls``, ``assembly.tiles_*``) are listed when they differ.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

from workloads import WORKLOADS, load_contract

def repeats_exactly(key: str) -> bool:
    """Per-layer counts that two runs of one commit and seed share."""
    return (
        key == "mle.nfev"
        or key.startswith("assembly.tiles_")
        or (key.startswith("kernel.") and key.endswith(".calls"))
    )


def load(directory: pathlib.Path, name: str, suffix: str) -> dict | None:
    path = directory / f"{name}{suffix}"
    return json.loads(path.read_text()) if path.is_file() else None


def load_side(directories: list[pathlib.Path], name: str) -> list[dict]:
    """One side's end-to-end records of a workload (all runs or none)."""
    records = [load(d, name, ".json") for d in directories]
    return [] if None in records else records


def side_stat(records: list[dict], metric: str) -> dict:
    """Median and IQR of one metric over a side's runs."""
    if len(records) == 1:
        return records[0]["metrics"][metric]
    values = [r["metrics"][metric]["median"] for r in records]
    # "inclusive" keeps the quartiles inside the data with 2 or 3 runs.
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "iqr": q3 - q1}


def comparable(runs_a: list[dict], runs_b: list[dict]) -> str | None:
    """Why two sides of one workload must not be compared: every run
    must share machine, definition and ``--seconds``, and the sides
    must have run the same seeds."""
    first = runs_a[0]
    for other in runs_a[1:] + runs_b:
        for key in ("machine", "definition", "seconds"):
            if first[key] != other[key]:
                return f"{key} differs: {first[key]} vs {other[key]}"
    seeds_a = sorted(r["seed"] for r in runs_a)
    seeds_b = sorted(r["seed"] for r in runs_b)
    if seeds_a != seeds_b:
        return f"seeds differ: {seeds_a} vs {seeds_b}"
    return None


def verdict(a: dict, b: dict, bound: float) -> str:
    spread = max(a["iqr"], b["iqr"]) / a["median"]
    if spread > bound:
        return "unresolved"
    change = (b["median"] - a["median"]) / a["median"]
    if change > bound:
        return "worse"
    return "better" if change < -bound else "same"


def exact_differences(a: dict | None, b: dict | None) -> list[str]:
    if a is None or b is None:
        return []
    return [
        f"{key}: {a['per_layer'][key]} vs {b['per_layer'][key]}"
        for key in a["per_layer"]
        if repeats_exactly(key) and a["per_layer"][key] != b["per_layer"][key]
    ]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    side_a, side_b = ([pathlib.Path(p) for p in arg.split(",")] for arg in argv)
    bounds = {m["name"]: m["bound"] for m in load_contract()["end_to_end"]}
    exit_code = 0
    compared = 0
    for name in WORKLOADS:
        runs_a, runs_b = load_side(side_a, name), load_side(side_b, name)
        if not runs_a or not runs_b:
            continue
        reason = comparable(runs_a, runs_b)
        if reason is not None:
            print(f"{name}: refusing to compare, {reason}")
            return 2
        compared += 1
        print(f"== {name}  ({len(runs_a)} vs {len(runs_b)} runs)")
        print(f"  {'metric':<16} {'median A':>12} {'median B':>12} "
              f"{'iqr A':>10} {'iqr B':>10} {'bound':>6}  verdict")
        for metric, bound in bounds.items():
            sa, sb = side_stat(runs_a, metric), side_stat(runs_b, metric)
            result = verdict(sa, sb, bound)
            if result == "worse":
                exit_code = 1
            print(f"  {metric:<16} {sa['median']:>12.6g} {sb['median']:>12.6g} "
                  f"{sa['iqr']:>10.4g} {sb['iqr']:>10.4g} {bound:>6.2f}  {result}")
        failed_a = sum(r["ops_failed"] for r in runs_a)
        failed_b = sum(r["ops_failed"] for r in runs_b)
        tried_a = sum(r["ops_attempted"] for r in runs_a)
        tried_b = sum(r["ops_attempted"] for r in runs_b)
        print(f"  ops failed/attempted: A {failed_a}/{tried_a}  B {failed_b}/{tried_b}")
        if failed_b / tried_b > failed_a / tried_a:
            print("  B fails a larger share of its operations")
            exit_code = 1
        differing = exact_differences(
            load(side_a[0], name, ".trace.json"), load(side_b[0], name, ".trace.json"))
        if side_stat(runs_a, "factor_mb")["median"] != side_stat(runs_b, "factor_mb")["median"]:
            differing.insert(0, "factor_mb differs")
        for line in differing:
            print(f"  count differs  {line}")
    if not compared:
        print("no workload has a record in both directories")
        return 2
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
