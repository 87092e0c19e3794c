"""Tests for the wire-format model and execution traces."""

import pytest

from repro.runtime import plan_wire_bytes, tile_wire_bytes
from repro.runtime.trace import ExecutionTrace, TaskRecord
from repro.tile import Precision, TileLayout
from repro.tile.decisions import TilePlan


class TestWireBytes:
    def test_dense_fp64(self):
        lay = TileLayout(100, 20)
        assert tile_wire_bytes(lay, (1, 0), Precision.FP64) == 20 * 20 * 8

    def test_fp16_quarter(self):
        lay = TileLayout(100, 20)
        full = tile_wire_bytes(lay, (1, 0), Precision.FP64)
        half = tile_wire_bytes(lay, (1, 0), Precision.FP16)
        assert half * 4 == full

    def test_low_rank(self):
        lay = TileLayout(100, 20)
        nbytes = tile_wire_bytes(lay, (2, 0), Precision.FP32, low_rank=True, rank=3)
        assert nbytes == 4 * 3 * 40

    def test_rhs_block(self):
        lay = TileLayout(100, 20)
        assert tile_wire_bytes(lay, (1, -1), Precision.FP64) == 8 * 20

    def test_ragged_tile(self):
        lay = TileLayout(50, 20)  # last block 10
        assert tile_wire_bytes(lay, (2, 0), Precision.FP64) == 10 * 20 * 8

    def test_plan_wire_bytes(self):
        lay = TileLayout(60, 20)
        precisions = {k: Precision.FP64 for k in lay.lower_tiles()}
        precisions[(2, 0)] = Precision.FP32
        use_lr = {k: False for k in lay.lower_tiles()}
        use_lr[(2, 0)] = True
        plan = TilePlan(lay, precisions, use_lr, meta={"ranks": {(2, 0): 4}})
        assert plan_wire_bytes(plan, (2, 0)) == 4 * 4 * 40
        assert plan_wire_bytes(plan, (1, 0)) == 8 * 400


class TestExecutionTrace:
    def _trace(self):
        tr = ExecutionTrace(nodes=2, cores_per_node=1)
        tr.add(TaskRecord(0, "potrf", 0, 0, 0.0, 1.0, flops=10.0))
        tr.add(TaskRecord(1, "trsm", 1, 0, 1.0, 3.0, flops=20.0, comm_bytes=5.0))
        tr.add(TaskRecord(2, "gemm", 0, 0, 3.0, 4.0, flops=30.0, conversions=1))
        return tr

    def test_makespan(self):
        assert self._trace().makespan == 4.0

    def test_totals(self):
        tr = self._trace()
        assert tr.total_flops == 60.0
        assert tr.total_comm_bytes == 5.0
        assert tr.total_conversions == 1

    def test_busy_by_node(self):
        busy = self._trace().busy_time_by_node()
        assert busy[0] == pytest.approx(2.0)
        assert busy[1] == pytest.approx(2.0)

    def test_load_imbalance_balanced(self):
        assert self._trace().load_imbalance() == pytest.approx(1.0)

    def test_load_imbalance_skewed(self):
        tr = ExecutionTrace(nodes=2, cores_per_node=1)
        tr.add(TaskRecord(0, "gemm", 0, 0, 0.0, 4.0))
        assert tr.load_imbalance() == pytest.approx(2.0)

    def test_time_by_op(self):
        by_op = self._trace().time_by_op()
        assert by_op == {"potrf": 1.0, "trsm": 2.0, "gemm": 1.0}

    def test_parallel_efficiency(self):
        tr = self._trace()
        assert tr.parallel_efficiency() == pytest.approx(4.0 / 8.0)

    def test_empty_trace(self):
        tr = ExecutionTrace()
        assert tr.makespan == 0.0
        assert tr.load_imbalance() == 1.0
        assert tr.sustained_flops() == 0.0
