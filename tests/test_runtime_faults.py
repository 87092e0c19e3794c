"""Fault injection + checkpoint/restart in the discrete-event simulator."""

import math

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, TaskFailedError
from repro.perfmodel import (
    application_mtbf,
    checkpoint_cost_s,
    daly_interval,
    expected_waste,
)
from repro.runtime import (
    CheckpointConfig,
    FaultModel,
    SimConfig,
    build_dag,
    cholesky_tasks,
    simulate_tasks,
    validate_schedule,
)
from repro.tile import build_planned_covariance


@pytest.fixture(scope="module")
def planned_problem():
    from repro.kernels import MaternKernel
    from repro.ordering import order_points

    gen = np.random.default_rng(21)
    x = gen.uniform(size=(240, 2))
    x = x[order_points(x, "morton")]
    mat, report = build_planned_covariance(
        MaternKernel(), np.array([1.0, 0.08, 0.5]), x, 40,
        nugget=1e-8, use_mp=True, use_tlr=True, band_size=2,
    )
    return mat, report


def _simulate(planned_problem, cfg):
    mat, report = planned_problem
    tasks = list(cholesky_tasks(mat.nt))
    dag = build_dag(tasks)
    return simulate_tasks(tasks, mat.layout, report.plan, cfg, dag=dag), dag


class TestFaultModel:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultModel(node_mtbf_s=0.0)
        with pytest.raises(ConfigurationError):
            FaultModel(transient_prob=1.0)
        with pytest.raises(ConfigurationError):
            FaultModel(restart_s=-1.0)

    def test_crash_times_deterministic_and_increasing(self):
        fm = FaultModel(node_mtbf_s=10.0, seed=3)
        a = fm.crash_times(2)
        b = fm.crash_times(2)
        t, times = 0.0, []
        for _ in range(5):
            t = a.next_after(t)
            times.append(t)
        assert times == sorted(times)
        assert all(t1 < t2 for t1, t2 in zip(times, times[1:]))
        # Same (seed, node) -> same stream, regardless of query order.
        assert b.next_after(times[2]) == times[3]

    def test_crash_streams_differ_by_node_and_seed(self):
        fm = FaultModel(node_mtbf_s=10.0, seed=3)
        assert fm.crash_times(0).next_after(0.0) != fm.crash_times(1).next_after(0.0)
        fm2 = FaultModel(node_mtbf_s=10.0, seed=4)
        assert fm.crash_times(0).next_after(0.0) != fm2.crash_times(0).next_after(0.0)

    def test_infinite_mtbf_never_crashes(self):
        fm = FaultModel(node_mtbf_s=math.inf)
        assert fm.crash_times(0).next_after(0.0) == math.inf

    def test_transient_fractions_deterministic(self):
        fm = FaultModel(transient_prob=0.5, max_task_retries=100, seed=9)
        for uid in range(50):
            assert fm.task_waste_fractions(uid) == fm.task_waste_fractions(uid)

    def test_transient_budget_exhaustion(self):
        fm = FaultModel(transient_prob=0.95, max_task_retries=0, seed=0)
        with pytest.raises(TaskFailedError) as info:
            for uid in range(100):
                fm.task_waste_fractions(uid)
        assert info.value.uid is not None
        assert info.value.attempts >= 1


class TestResilienceModel:
    def test_young_daly_formulas(self):
        c, m, r = 10.0, 1000.0, 30.0
        daly = daly_interval(c, m, r)
        assert daly == pytest.approx(math.sqrt(2 * c * (m + r)) - c)
        assert application_mtbf(1000.0, 10) == pytest.approx(100.0)

    def test_checkpoint_cost(self):
        # 4 GB at 4 GB/s -> 1 s.
        assert checkpoint_cost_s(4e9, 4.0) == pytest.approx(1.0)

    def test_expected_waste_minimized_near_daly(self):
        c, m, r = 5.0, 2000.0, 20.0
        opt = daly_interval(c, m, r)
        w_opt = expected_waste(opt, c, m, r)
        assert w_opt < expected_waste(opt / 4, c, m, r)
        assert w_opt < expected_waste(opt * 4, c, m, r)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            expected_waste(0.0, 1.0, 100.0)

    def test_tuned_checkpoint_config(self):
        cfg = CheckpointConfig.tuned(4e9, nodes=16, node_mtbf_s=1e6)
        assert cfg.cost_s > 0
        assert cfg.interval_s >= cfg.cost_s
        with pytest.raises(ConfigurationError):
            CheckpointConfig(interval_s=0.0, cost_s=1.0)


class TestFaultySimulation:
    def test_seeded_runs_bit_identical(self, planned_problem):
        base, _ = _simulate(planned_problem, SimConfig(nodes=4))
        fm = FaultModel(
            node_mtbf_s=base.makespan / 2,
            transient_prob=0.05,
            restart_s=base.makespan / 50,
            seed=7,
        )
        ck = CheckpointConfig(
            interval_s=base.makespan / 5, cost_s=base.makespan / 200
        )
        cfg = SimConfig(nodes=4, faults=fm, checkpoint=ck)
        t1, _ = _simulate(planned_problem, cfg)
        t2, _ = _simulate(planned_problem, cfg)
        assert t1.makespan == t2.makespan
        assert [
            (r.uid, r.kind, r.node, r.core, r.start, r.end) for r in t1.records
        ] == [
            (r.uid, r.kind, r.node, r.core, r.start, r.end) for r in t2.records
        ]

    def test_different_seed_changes_schedule(self, planned_problem):
        base, _ = _simulate(planned_problem, SimConfig(nodes=4))
        def cfg(seed):
            return SimConfig(
                nodes=4,
                faults=FaultModel(
                    node_mtbf_s=base.makespan / 2,
                    restart_s=base.makespan / 50,
                    seed=seed,
                ),
            )
        t1, _ = _simulate(planned_problem, cfg(1))
        t2, _ = _simulate(planned_problem, cfg(2))
        assert t1.makespan != t2.makespan

    def test_faults_inflate_makespan_and_stay_valid(self, planned_problem):
        base, _ = _simulate(planned_problem, SimConfig(nodes=4))
        fm = FaultModel(
            node_mtbf_s=base.makespan / 2,
            transient_prob=0.05,
            restart_s=base.makespan / 50,
            seed=7,
        )
        ck = CheckpointConfig(
            interval_s=base.makespan / 5, cost_s=base.makespan / 200
        )
        trace, dag = _simulate(
            planned_problem, SimConfig(nodes=4, faults=fm, checkpoint=ck)
        )
        assert trace.makespan > base.makespan
        assert trace.recovery_count > 0
        assert trace.checkpoint_count > 0
        # Resilience events never collide with DAG uids.
        assert all(
            r.uid < 0 for r in trace.records if r.kind != "compute"
        )
        # The DAG order still holds for the compute schedule.
        validate_schedule(dag, *trace.start_end_maps())
        s = trace.summary()
        assert s["tasks"] == len(trace.compute_records)
        assert s["resilience_overhead_s"] > 0

    def test_benign_fault_model_matches_faults_off(self, planned_problem):
        """Infinite MTBF + no transients must reproduce the fault-free
        schedule bit for bit."""
        base, _ = _simulate(planned_problem, SimConfig(nodes=4))
        benign = SimConfig(
            nodes=4, faults=FaultModel(node_mtbf_s=math.inf, transient_prob=0.0)
        )
        trace, _ = _simulate(planned_problem, benign)
        assert trace.makespan == base.makespan
        assert [
            (r.uid, r.start, r.end) for r in trace.records
        ] == [(r.uid, r.start, r.end) for r in base.records]

    def test_transient_failures_reexecute(self, planned_problem):
        base, _ = _simulate(planned_problem, SimConfig(nodes=4))
        cfg = SimConfig(
            nodes=4,
            faults=FaultModel(
                node_mtbf_s=math.inf,
                transient_prob=0.3,
                max_task_retries=50,
                seed=5,
            ),
        )
        trace, _ = _simulate(planned_problem, cfg)
        assert trace.reexecuted_tasks > 0
        assert trace.makespan > base.makespan
        assert max(r.attempts for r in trace.compute_records) > 1

    def test_unsurvivable_fault_model_rejected(self, planned_problem):
        """restart >= MTBF means recovery can never outpace failures;
        the simulator must refuse rather than loop forever."""
        base, _ = _simulate(planned_problem, SimConfig(nodes=4))
        fm = FaultModel(
            node_mtbf_s=base.makespan / 2, restart_s=base.makespan, seed=0
        )
        with pytest.raises(ConfigurationError):
            _simulate(planned_problem, SimConfig(nodes=4, faults=fm))

    def test_cores_actually_tracked(self, planned_problem):
        """TaskRecord.core must report the executing core, not always 0."""
        trace, _ = _simulate(planned_problem, SimConfig(nodes=2))
        assert {r.core for r in trace.records} != {0}

    def test_checkpointing_reduces_crash_overhead(self, planned_problem):
        """With a harsh MTBF, periodic checkpoints should beat losing
        all volatile work on every crash."""
        base, _ = _simulate(planned_problem, SimConfig(nodes=4))
        fm = FaultModel(node_mtbf_s=base.makespan / 3, restart_s=0.0, seed=2)
        no_ck, _ = _simulate(planned_problem, SimConfig(nodes=4, faults=fm))
        ck = CheckpointConfig(
            interval_s=base.makespan / 20, cost_s=base.makespan / 1e4
        )
        with_ck, _ = _simulate(
            planned_problem, SimConfig(nodes=4, faults=fm, checkpoint=ck)
        )
        assert with_ck.makespan < no_ck.makespan
