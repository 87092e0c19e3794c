"""Analytical performance models.

This subpackage stands in for the hardware the paper ran on (Fugaku's
A64FX nodes, Shaheen II's Haswell nodes).  It supplies:

* :class:`~repro.perfmodel.machine.MachineSpec` hardware descriptions;
* flop/byte counts of every tile kernel (:mod:`repro.perfmodel.gemm`);
* a roofline per-task time model (:mod:`repro.perfmodel.kernelmodel`)
  used by the structure-aware decision (Algorithm 2) and by the
  discrete-event scaling simulator;
* the dense/TLR crossover analysis of Fig. 5
  (:mod:`repro.perfmodel.crossover`);
* checkpoint/restart cost modeling with Daly's optimal
  interval (:mod:`repro.perfmodel.resilience`), feeding the fault-aware
  simulator.
"""

from .cholesky import ScaleEstimate, estimate_cholesky, project_classes
from .energy import A64FX_ENERGY, EnergyModel, estimate_energy, task_energy
from .feasibility import max_feasible_n, storage_per_node
from .resilience import (
    application_mtbf,
    checkpoint_cost_s,
    daly_interval,
    expected_waste,
)
from .crossover import (
    crossover_rank,
    gemm_ratio_curve,
    gemm_time_dense,
    gemm_time_tlr,
)
from .profiles import CLASSES, PlanProfile
from .gemm import (
    dense_gemm_bytes,
    dense_gemm_flops,
    dense_potrf_flops,
    dense_syrk_flops,
    dense_trsm_flops,
    lr_product_flops,
    lr_recompress_flops,
    tlr_gemm_bytes,
    tlr_gemm_flops,
    tlr_trsm_flops,
)
from .kernelmodel import TaskShape, task_bytes, task_flops, task_time
from .machine import A64FX, FUGAKU_NODE, HASWELL_NODE, SHGEMM_MODES, MachineSpec

__all__ = [
    "ScaleEstimate",
    "EnergyModel",
    "A64FX_ENERGY",
    "task_energy",
    "estimate_energy",
    "max_feasible_n",
    "storage_per_node",
    "checkpoint_cost_s",
    "daly_interval",
    "application_mtbf",
    "expected_waste",
    "estimate_cholesky",
    "project_classes",
    "PlanProfile",
    "CLASSES",
    "MachineSpec",
    "A64FX",
    "FUGAKU_NODE",
    "HASWELL_NODE",
    "SHGEMM_MODES",
    "TaskShape",
    "task_flops",
    "task_bytes",
    "task_time",
    "crossover_rank",
    "gemm_ratio_curve",
    "gemm_time_dense",
    "gemm_time_tlr",
    "dense_gemm_flops",
    "dense_trsm_flops",
    "dense_syrk_flops",
    "dense_potrf_flops",
    "dense_gemm_bytes",
    "lr_product_flops",
    "lr_recompress_flops",
    "tlr_gemm_flops",
    "tlr_trsm_flops",
    "tlr_gemm_bytes",
]
