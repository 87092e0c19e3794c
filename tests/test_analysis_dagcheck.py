"""Tests for the static task-stream/DAG verifier (repro.analysis.dagcheck)."""

import networkx as nx

from repro.analysis import check_dag, check_task_stream, check_taskgraph
from repro.runtime.dag import build_dag
from repro.runtime.task import Task
from repro.runtime.taskgraph import cholesky_tasks, forward_solve_tasks
from repro.tile.layout import TileLayout


def dag_of(*tasks, edges=()):
    dag = nx.DiGraph()
    for t in tasks:
        dag.add_node(t.uid, task=t)
    dag.add_edges_from(edges)
    return dag


class TestDag001ReadBeforeWrite:
    def test_read_of_unproduced_tile_flagged(self):
        layout = TileLayout(64, 16)
        tasks = [
            Task(0, "potrf", 0, output=(0, 0)),
            Task(1, "gemm", 0, output=(2, 1), inputs=((7, 0),)),
        ]
        rep = check_task_stream(tasks, layout=layout)
        assert [d.rule for d in rep.errors] == ["DAG001"]
        assert rep.errors[0].task == 1

    def test_reads_of_initial_tiles_clean(self):
        layout = TileLayout(64, 16)
        rep = check_task_stream(list(cholesky_tasks(4)), layout=layout)
        assert len(rep) == 0

    def test_explicit_initial_tiles(self):
        tasks = [Task(0, "potrf", 0, output=(0, 0))]
        assert len(check_task_stream(tasks, initial_tiles=[(0, 0)])) == 0
        rep = check_task_stream(tasks, initial_tiles=[])
        assert [d.rule for d in rep.errors] == ["DAG001"]

    def test_skipped_without_initial_info(self):
        tasks = [Task(0, "trsm", 0, output=(1, 0), inputs=((9, 9),))]
        assert len(check_task_stream(tasks)) == 0


class TestDag002WawRace:
    def test_unordered_writers_flagged(self):
        t0 = Task(0, "potrf", 0, output=(0, 0))
        t1 = Task(1, "potrf", 0, output=(0, 0))
        rep = check_dag(dag_of(t0, t1))
        assert [d.rule for d in rep.errors] == ["DAG002"]
        assert rep.errors[0].tile == (0, 0)

    def test_ordered_writers_clean(self):
        t0 = Task(0, "potrf", 0, output=(0, 0))
        t1 = Task(1, "potrf", 0, output=(0, 0))
        rep = check_dag(dag_of(t0, t1, edges=[(0, 1)]))
        assert len(rep) == 0


class TestDag003RawRace:
    def test_unordered_reader_writer_flagged(self):
        t0 = Task(0, "potrf", 0, output=(0, 0))
        t1 = Task(1, "trsm", 0, output=(1, 0), inputs=((0, 0),))
        rep = check_dag(dag_of(t0, t1))
        assert [d.rule for d in rep.errors] == ["DAG003"]
        assert rep.errors[0].task == 1

    def test_ordered_reader_writer_clean(self):
        t0 = Task(0, "potrf", 0, output=(0, 0))
        t1 = Task(1, "trsm", 0, output=(1, 0), inputs=((0, 0),))
        rep = check_dag(dag_of(t0, t1, edges=[(0, 1)]))
        assert len(rep) == 0

    def test_dropped_edge_in_real_dag_detected(self):
        tasks = list(cholesky_tasks(4))
        dag = build_dag(tasks)
        potrf0 = next(t for t in tasks if t.op == "potrf" and t.k == 0)
        trsm10 = next(t for t in tasks if t.op == "trsm"
                      and t.output == (1, 0))
        dag.remove_edge(potrf0.uid, trsm10.uid)
        rep = check_dag(dag)
        assert [d.rule for d in rep.errors] == ["DAG003"]
        assert rep.errors[0].task == trsm10.uid


class TestDag004DuplicateUids:
    def test_duplicate_uid_flagged(self):
        tasks = [
            Task(0, "potrf", 0, output=(0, 0)),
            Task(0, "trsm", 0, output=(1, 0), inputs=((0, 0),)),
        ]
        rep = check_task_stream(tasks, layout=TileLayout(32, 16))
        assert "DAG004" in [d.rule for d in rep.errors]

    def test_taskgraph_short_circuits_on_duplicates(self):
        tasks = [
            Task(0, "potrf", 0, output=(0, 0)),
            Task(0, "potrf", 0, output=(1, 1)),
        ]
        rep = check_taskgraph(tasks, layout=TileLayout(32, 16))
        assert rep.rule_ids() == ["DAG004"]

    def test_unique_uids_clean(self):
        rep = check_task_stream(list(cholesky_tasks(4)),
                                layout=TileLayout(64, 16))
        assert len(rep) == 0


class TestReferenceStreamsClean:
    def test_cholesky_stream_and_dag_clean(self):
        layout = TileLayout(128, 16)
        tasks = list(cholesky_tasks(8))
        assert len(check_taskgraph(tasks, layout=layout)) == 0

    def test_forward_solve_stream_and_dag_clean(self):
        layout = TileLayout(128, 16)
        tasks = list(forward_solve_tasks(8))
        assert len(check_taskgraph(tasks, layout=layout)) == 0
