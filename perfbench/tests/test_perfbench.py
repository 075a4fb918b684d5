"""The benchmark's own checks, on a tiny input.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

import engine_pass
import run
from workloads import Spec, make_inputs, reference_events

TINY = Spec("snb", 300, 20)
BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def as_plain(inputs):
    updates, queries = inputs
    return [tuple(vars(u).values()) for u in updates], [(q.qid, q.vertices, q.edges) for q in queries]


class TestSeed:
    def test_same_seed_same_inputs(self):
        assert as_plain(make_inputs(TINY, 3)) == as_plain(make_inputs(TINY, 3))

    def test_seed_changes_inputs(self):
        a_updates, a_queries = as_plain(make_inputs(TINY, 3))
        b_updates, b_queries = as_plain(make_inputs(TINY, 4))
        assert a_updates != b_updates
        assert a_queries != b_queries
        assert len(a_updates) == len(b_updates) == TINY.n_updates
        assert len(a_queries) == len(b_queries) == TINY.n_queries

    def test_engines_receive_only_the_generated_inputs(self, monkeypatch):
        received_queries, received_updates = [], []
        real_make_engine = engine_pass.make_engine

        class Recording:
            def __init__(self, name):
                self.inner = real_make_engine(name)
                self.name = self.inner.name

            def add_query(self, q):
                received_queries.append(q)
                self.inner.add_query(q)

            def process_update(self, u):
                received_updates.append(u)
                return self.inner.process_update(u)

            def __getattr__(self, attr):
                return getattr(self.inner, attr)

        monkeypatch.setattr(engine_pass, "make_engine", Recording)
        updates, queries = make_inputs(TINY, 5)
        engine_pass.run_pass(updates, queries, "tric+")
        assert received_queries == queries
        assert received_updates == updates


class TestCorrectnessGate:
    @pytest.fixture(scope="class")
    def pass_and_reference(self):
        inputs = make_inputs(TINY, 1)
        result = engine_pass.run_pass(*inputs, "tric")
        reference = reference_events(*inputs)
        assert reference, "the tiny workload must produce events"
        return result, reference

    def test_matching_stream_has_no_failures(self, pass_and_reference):
        result, reference = pass_and_reference
        assert run.failed_updates(reference, result) == 0

    @pytest.mark.parametrize("corrupt", ["drop", "shift", "extra"])
    def test_corrupted_stream_fails_every_update(self, pass_and_reference, corrupt):
        result, reference = pass_and_reference
        events = [list(e) for e in result["events"]]
        if corrupt == "drop":
            events.pop()
        elif corrupt == "shift":
            events[0][0] += 1
        else:
            events.append([TINY.n_updates - 1, events[0][1]])
        bad = dict(result, events=events)
        assert run.failed_updates(reference, bad) == TINY.n_updates

    def test_stopped_pass_fails_the_unanswered_rest(self, pass_and_reference):
        result, reference = pass_and_reference
        stop = reference[len(reference) // 2][0]
        cut = dict(result, answered=stop, events=[e for e in result["events"] if e[0] < stop])
        assert run.failed_updates(reference, cut) == TINY.n_updates - stop


def check_printed(metrics, result, declared):
    by_name = {m.name: m for m in metrics}
    assert list(by_name) == [d["name"] for d in declared]
    for d in declared:
        m = by_name[d["name"]]
        assert m.unit == d["unit"]
        assert m.samples >= 1
    printed = run.table(metrics).splitlines()
    for m in metrics:
        line = next(x for x in printed if x.split()[0] == m.name)
        assert m.unit in line.split() and str(m.samples) in line.split()
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert result["metrics"] == {m.name: {"value": m.value, "unit": m.unit} for m in metrics}


def test_end_to_end_metrics_print_with_unit_and_samples():
    metrics, result = run.run("tiny", TINY, seed=2, seconds=0, trace=False)
    check_printed(metrics, result, BENCHMARK["end_to_end"])


def test_per_layer_metrics_print_with_unit_and_samples():
    metrics, result = run.run("tiny", TINY, seed=2, seconds=0, trace=True)
    check_printed(metrics, result, BENCHMARK["per_layer"])
    values = {m.name: m.value for m in metrics}
    assert values["tricp.relational.build_rows"] == 0
    assert values["tric.relational.build_rows"] > 0
    assert values["tricp.trace.attributed_share"] > 0.9


def test_corrupted_reference_fails_the_whole_run(monkeypatch):
    import workloads

    real = workloads.reference_events
    monkeypatch.setattr(workloads, "reference_events", lambda u, q: real(u, q)[:-1])
    metrics, result = run.run("tiny", TINY, seed=2, seconds=0, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["answered_share"]["value"] == 0
