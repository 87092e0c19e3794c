"""Compute variants: the paper's three Cholesky configurations.

Every accuracy/performance experiment compares:

* ``DENSE_FP64`` — the reference: all tiles dense, all FP64;
* ``MP_DENSE`` — mixed precision, dense tiles (Fig. 2(d): adaptive
  Frobenius-rule precision per tile);
* ``MP_DENSE_TLR`` — mixed precision plus tile low-rank off the dense
  band (Fig. 3(b)) — the paper's headline variant.

A :class:`VariantConfig` carries every knob the assembly/factorization
pipeline understands so experiments can also build ablations (band
precision rule, pure HGEMM, fixed band sizes, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..config import DEFAULT_MAX_RANK_FRACTION, DEFAULT_TLR_TOLERANCE
from ..exceptions import ConfigurationError
from ..perfmodel.machine import A64FX, MachineSpec
from ..tile.recovery import DEFAULT_RECOVERY, RecoveryPolicy

__all__ = [
    "VariantConfig",
    "DENSE_FP64",
    "MP_DENSE",
    "MP_DENSE_TLR",
    "MP_DENSE_TLR_RECOVER",
    "get_variant",
]


@dataclass(frozen=True)
class VariantConfig:
    """Configuration of one compute variant.

    ``band_size`` is an integer or ``"auto"`` (Algorithm 2);
    ``structure_mode`` chooses between the paper's performance-model
    decision (meaningful at production tile sizes) and the
    scale-independent rank criterion used for laptop-size numerics.
    ``recovery`` (a :class:`~repro.tile.recovery.RecoveryPolicy`)
    enables the numerical recovery ladder: instead of failing on an
    indefinite planned covariance, the likelihood retries with
    escalating precision/structure promotion and bounded jitter.

    The three *execution settings* ride here and nowhere else (the
    likelihood, MLE, engine and model APIs take no execution keyword):
    ``get_variant("mp-dense").with_(workers=4, batch=True)``.  Every
    combination produces bit-identical results or raises
    :class:`~repro.exceptions.ConfigurationError` — none is silently
    dropped (DESIGN.md "Execution").

    * ``workers`` — width of the package's two thread pools: the
      slices of an element-wise kernel's generation (one flat buffer
      in cache-sized slices), for the training tiles and for a
      prediction's cross panels alike, and the factorization's sweep.
      Any other kernel's tiles and panels, the compression and the
      prediction batches run on the caller's thread.
    * ``backend`` — where factorization tasks run: ``"thread"``
      (default; a worker-thread pool, or the caller's thread at
      ``workers=1`` — the panel sweep there too, whatever the variant
      plans) or
      ``"process"`` (shared-memory worker processes running one tile
      op per message, :mod:`repro.runtime.procpool`).
    * ``batch`` — stacked grouping: assembly compresses whole shape
      classes of tiles in stacked SVD calls and the factorization is
      the panel sweep (a column's dense tiles as single stacked-BLAS
      calls, :mod:`repro.tile.batch`), pools sized to the usable CPUs.
      It does not touch covariance generation, which has one path.
      Task-level retry/chaos attach to the sweep's calls; cannot
      combine with ``backend="process"`` (raises).

    How a low-rank tile is updated is not a setting: every execution
    accumulates its Schur updates exactly and truncates once, when the
    tile is next read (DESIGN.md "Low-rank updates").
    """

    name: str
    use_mp: bool = False
    use_tlr: bool = False
    mp_mode: str = "adaptive"  # or "band"
    mp_accuracy: float = 1.0e-8
    mp_fp64_band: int = 1
    mp_fp32_band: int | None = None
    tlr_tol: float = DEFAULT_TLR_TOLERANCE
    band_size: int | str = 2
    structure_mode: str = "rank"
    max_rank_fraction: float = DEFAULT_MAX_RANK_FRACTION
    fp16_accumulate_fp32: bool = True
    shgemm_mode: str = "sgemm_fallback"
    machine: MachineSpec = field(default=A64FX)
    recovery: RecoveryPolicy | None = None
    workers: int = 1
    batch: bool = False
    backend: str = "thread"

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.backend not in ("thread", "process"):
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; expected 'thread' "
                "or 'process' (one worker is workers=1)"
            )
        if self.backend == "process" and self.batch:
            raise ConfigurationError(
                "backend='process' cannot run with batch=True: process "
                "placement runs one tile op per message; use "
                "backend='thread' for stacked grouping or batch=False"
            )
        if self.mp_mode not in ("adaptive", "band"):
            raise ConfigurationError(f"unknown mp_mode {self.mp_mode!r}")
        if self.structure_mode not in ("rank", "perfmodel"):
            raise ConfigurationError(
                f"unknown structure_mode {self.structure_mode!r}"
            )
        if not self.fp16_accumulate_fp32 and self.shgemm_mode != "hgemm":
            raise ConfigurationError(
                "fp16_accumulate_fp32=False is the HGEMM emulation; set "
                "shgemm_mode='hgemm' to make the intent explicit"
            )

    def assembly_kwargs(self) -> dict:
        """Keyword arguments for
        :func:`repro.tile.assembly.build_planned_covariance`."""
        return dict(
            use_mp=self.use_mp,
            mp_mode=self.mp_mode,
            mp_accuracy=self.mp_accuracy,
            mp_fp64_band=self.mp_fp64_band,
            mp_fp32_band=self.mp_fp32_band,
            use_tlr=self.use_tlr,
            tlr_tol=self.tlr_tol,
            band_size=self.band_size,
            max_rank_fraction=self.max_rank_fraction,
            structure_mode=self.structure_mode,
            machine=self.machine,
        )

    def with_(self, **changes) -> "VariantConfig":
        """Derived variant with some fields replaced."""
        return replace(self, **changes)


DENSE_FP64 = VariantConfig(name="dense-fp64")
MP_DENSE = VariantConfig(name="mp-dense", use_mp=True)
MP_DENSE_TLR = VariantConfig(
    name="mp-dense-tlr", use_mp=True, use_tlr=True, band_size=2
)
#: The headline variant hardened with the full recovery ladder — what a
#: production MLE driver should run.
MP_DENSE_TLR_RECOVER = MP_DENSE_TLR.with_(
    name="mp-dense-tlr-recover", recovery=DEFAULT_RECOVERY
)

_REGISTRY = {
    v.name: v
    for v in (DENSE_FP64, MP_DENSE, MP_DENSE_TLR, MP_DENSE_TLR_RECOVER)
}
_ALIASES = {
    "dense_fp64": "dense-fp64",
    "fp64": "dense-fp64",
    "mp_dense": "mp-dense",
    "mp": "mp-dense",
    "mp_dense_tlr": "mp-dense-tlr",
    "tlr": "mp-dense-tlr",
    "mp_dense_tlr_recover": "mp-dense-tlr-recover",
    "tlr-recover": "mp-dense-tlr-recover",
    "tlr_recover": "mp-dense-tlr-recover",
}


def get_variant(name: "str | VariantConfig") -> VariantConfig:
    """Look up a preset variant by name (a config passes through)."""
    if isinstance(name, VariantConfig):
        return name
    key = _ALIASES.get(name.lower(), name.lower())
    try:
        return _REGISTRY[key]
    except KeyError:
        raise ConfigurationError(
            f"unknown variant {name!r}; presets: {sorted(_REGISTRY)}"
        ) from None
