"""Benchmark harness: workload builder, sweep runner, memory measurement,
results writer."""
import json
import math

import pytest

from repro.bench import harness
from repro.bench.harness import build_workload, measure_memory, run_algorithms, save_results
from repro.engine.base import EngineOverflow


class TestBuildWorkload:
    def test_deterministic(self):
        a = build_workload("snb", n_updates=100, n_queries=10, seed=0)
        b = build_workload("snb", n_updates=100, n_queries=10, seed=0)
        assert a[0] == b[0]
        assert [(q.vertices, q.edges) for q in a[1]] == [
            (q.vertices, q.edges) for q in b[1]
        ]

    def test_sizes(self):
        updates, queries = build_workload("biogrid", n_updates=123, n_queries=7, seed=1)
        assert len(updates) == 123 and len(queries) == 7


class TestRunAlgorithms:
    def test_metrics_fields(self):
        updates, queries = build_workload("snb", n_updates=80, n_queries=8, seed=0)
        res = run_algorithms(updates, queries, ["tric", "graphdb"])
        assert set(res) == {"tric", "graphdb"}
        m = res["tric"]
        assert m["processed"] == 80 and not m["timed_out"]
        assert m["index_s"] >= 0 and not math.isnan(m["avg_ms_per_update"])
        assert res["tric"]["n_matched"] == res["graphdb"]["n_matched"]

    def test_time_limit_marks_timeout(self):
        updates, queries = build_workload("snb", n_updates=400, n_queries=40, seed=0)
        res = run_algorithms(updates, queries, ["inv"], time_limit_s=1e-4)
        assert res["inv"]["timed_out"]


def _patch_inv(monkeypatch, process_update):
    """Make ``run_algorithms`` build an ``inv`` whose ``process_update(u)``
    is ``process_update(real_process_update, u)``."""
    real = harness.make_engine

    def make(name):
        e = real(name)
        if name == "inv":
            inner = e.process_update
            e.process_update = lambda u: process_update(inner, u)
        return e

    monkeypatch.setattr(harness, "make_engine", make)


class TestEnginesAgree:
    """``run_algorithms`` checks every engine's full ``(t, qid)`` events
    against the engine that processed the most updates."""

    @pytest.fixture
    def workload(self):
        return build_workload("snb", n_updates=80, n_queries=8, seed=0)

    def test_extra_event_raises(self, monkeypatch, workload):
        updates, queries = workload
        _patch_inv(monkeypatch, lambda f, u: f(u) + ([99] if u is updates[5] else []))
        with pytest.raises(AssertionError, match=r"inv and tric disagree.*\(5, 99\)"):
            run_algorithms(updates, queries, ["tric", "inv"])

    def test_truncated_run_is_checked_on_its_prefix(self, monkeypatch, workload):
        updates, queries = workload

        def overflow_at_40(f, u):
            if u is updates[40]:
                raise EngineOverflow("cap")
            return f(u)

        _patch_inv(monkeypatch, overflow_at_40)
        res = run_algorithms(updates, queries, ["inv", "tric"])
        assert res["inv"]["processed"] == 40 and res["tric"]["processed"] == 80
        assert res["inv"]["n_matched"] < res["tric"]["n_matched"]


class TestMemory:
    def test_positive_and_same_magnitude(self):
        updates, queries = build_workload("snb", n_updates=150, n_queries=15, seed=0)
        plain = measure_memory("tric", updates, queries)
        cached = measure_memory("tric+", updates, queries)
        assert plain > 0 and cached > 0
        # the cached/uncached Table-1 ordering only emerges at bench scale;
        # at test scale just require the same order of magnitude
        assert 0.2 < cached / plain < 5

    def test_time_limit_respected(self):
        updates, queries = build_workload("snb", n_updates=600, n_queries=60, seed=0)
        assert measure_memory("inv", updates, queries, time_limit_s=0.2) > 0


class TestFormatting:
    def test_save_results_roundtrip(self, tmp_path):
        p = tmp_path / "sub" / "r.json"
        save_results({"a": 1}, str(p))
        assert json.loads(p.read_text()) == {"a": 1}
