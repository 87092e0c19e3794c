"""Workload definitions and the metric contract (no numpy, no repro).

``BENCHMARK.json`` at the repository root is the single source of the
workload and metric *names*, units and bounds; this module holds what
each workload *is* (field, size, variant, execution settings, repeat
counts) and checks that the two agree.

Sizes, tiles, variants and execution settings are fixed by the issue
that defined the benchmark.  Repeat counts are trimmed to the floor
that issue allows (5 evaluations, 3 anchors) because 92 driver runs
must fit in 3420 s; see README.md, "Sizing".
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field, replace

HARNESS_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = HARNESS_DIR.parents[1]
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"

#: Model nugget of every workload (the sampled field carries none).
NUGGET = 1.0e-6
#: Points per predict batch, and how many of the first batch are
#: held-out field values the MSPE check uses.
PREDICT_BATCH = 1000
HELD_OUT = 200
#: Seed of the (fixed) observation network; see ``pipeline.synthesize``.
LOCATION_SEED = 20220101
#: Log-scale amplitude of the seeded theta trajectory / start point.
TRAJECTORY_SIGMA = 0.1


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: the user's fit -> evaluate -> predict
    pipeline on one seeded synthetic field."""

    name: str
    kernel: str  # "exponential" | "matern"
    theta_true: tuple[float, ...]
    n: int
    tile: int
    variant: str
    #: ``VariantConfig.with_`` changes: the execution settings ride on
    #: the variant, so fit, evaluate and predict all see them.
    execution: dict = field(default_factory=dict)
    #: Which ``runtime.*`` placement this execution config resolves to;
    #: ``factor.s`` is that placement's wall time.
    placement: str = "sequential"
    #: Evaluations of the bounded fit; it runs in the traced pass only.
    max_nfev: int = 8
    #: A run repeats its round (see ``pipeline.run_untraced``) until
    #: ``--seconds`` are used up, but at least this often.
    min_rounds: int = 3
    fresh_per_round: int = 2
    #: Reference calls per round: 3 where one costs a fraction of a
    #: second (n=1800, exponential), 1 where it costs as much as an
    #: evaluation (Bessel generation, n=3600).
    refs_per_round: int = 3
    batch: int = PREDICT_BATCH
    held_out: int = HELD_OUT
    #: Heap the worker touches before the clock starts: the peak RSS
    #: of the untraced pass (``peak_rss_mb`` in its record) less the
    #: interpreter's own 90 MB, and a little room.
    prefault_mb: int = 416
    #: The <= 1.05 tracing-overhead check holds only where kernel calls
    #: dwarf the timers around them, not at the miniature size.
    check_overhead: bool = True

    @property
    def workers(self) -> int:
        return int(self.execution.get("workers", 1))

    def definition(self) -> dict:
        """What :mod:`compare` requires to be equal between records."""
        return {
            "kernel": self.kernel, "theta_true": list(self.theta_true),
            "n": self.n, "tile": self.tile, "variant": self.variant,
            "execution": dict(self.execution), "nugget": NUGGET,
            "max_nfev": self.max_nfev, "min_rounds": self.min_rounds,
            "fresh_per_round": self.fresh_per_round,
            "refs_per_round": self.refs_per_round, "batch": self.batch,
            "held_out": self.held_out,
        }

    def miniature(self) -> "Workload":
        """The ``--selfcheck`` size: same pipeline and code paths at
        n=240 (tile scaled so the tile grid keeps a dense band, an
        off-band region and several panels)."""
        return replace(
            self, n=240, tile=_MINI_TILE[self.name], max_nfev=3,
            min_rounds=2, fresh_per_round=1, batch=100, held_out=40,
            prefault_mb=64, check_overhead=False,
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="tlr-fit-serve", kernel="exponential",
            theta_true=(1.0, 0.1), n=1800, tile=60,
            variant="mp-dense-tlr",
        ),
        Workload(
            name="smalltile-threads", kernel="exponential",
            theta_true=(1.0, 0.1), n=1800, tile=30,
            variant="dense-fp64",
            execution={"backend": "thread", "workers": 2},
            placement="thread", max_nfev=6, prefault_mb=480,
        ),
        Workload(
            name="matern-batched", kernel="matern",
            theta_true=(1.0, 0.1, 0.8), n=1800, tile=60,
            variant="mp-dense",
            execution={"batch": True, "workers": 2},
            placement="batched", max_nfev=10, fresh_per_round=1,
            refs_per_round=1, prefault_mb=608,
        ),
        Workload(
            name="mp-large", kernel="exponential",
            theta_true=(1.0, 0.1), n=3600, tile=120,
            variant="mp-dense", max_nfev=6, refs_per_round=1,
            prefault_mb=1088,
        ),
    )
}

_MINI_TILE = {
    "tlr-fit-serve": 24,
    "smalltile-threads": 12,
    "matern-batched": 24,
    "mp-large": 40,
}


def load_contract() -> dict:
    """Parse ``BENCHMARK.json`` and check it names exactly the
    workloads defined here."""
    contract = json.loads(BENCHMARK_JSON.read_text())
    names = [w["name"] for w in contract["workloads"]]
    if names != list(WORKLOADS):
        raise SystemExit(
            f"BENCHMARK.json workloads {names} != harness workloads "
            f"{list(WORKLOADS)}"
        )
    return contract


def metric_units(contract: dict, trace: bool) -> dict[str, str]:
    """``name -> unit`` of the metrics one pass must print."""
    section = contract["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}
