"""All seven engines must agree — with each other and with brute force —
on the full ``(t, qid)`` event stream, across datasets and seeds.  This is
the core correctness gate of the reproduction."""
import pytest

from repro.bench.harness import build_workload
from repro.engine.base import ALGORITHMS, make_engine
from repro.engine.runner import index_queries, run_stream
from repro.graph.bruteforce import match_times


def run(name, updates, queries):
    e = make_engine(name)
    index_queries(e, queries)
    return run_stream(e, updates)


@pytest.fixture(scope="module")
def workloads():
    """Small deterministic workloads with reference (brute-force) answers:
    per query, the update indexes at which a new embedding completes."""
    out = {}
    for ds in ("snb", "nyc", "biogrid"):
        for seed in (0, 1):
            updates, queries = build_workload(
                ds, n_updates=160, n_queries=18, avg_len=4, seed=seed
            )
            bf = {q.qid: match_times(q, updates) for q in queries}
            out[(ds, seed)] = (updates, queries, bf)
    return out


@pytest.mark.parametrize("ds", ["snb", "nyc", "biogrid"])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("engine", ALGORITHMS)
class TestAgainstBruteForce:
    def test_matched_set_and_first_match(self, workloads, ds, seed, engine):
        updates, queries, bf = workloads[(ds, seed)]
        r = run(engine, updates, queries)
        assert r.events == sorted((t, q) for q, ts in bf.items() for t in ts)
        assert r.matched == {q for q, ts in bf.items() if ts}


@pytest.mark.parametrize("ds", ["snb", "nyc", "biogrid"])
class TestCachedVariantsIdentical:
    """The + variants must produce bit-identical event streams (not just
    matched sets) to their uncached counterparts."""

    @pytest.mark.parametrize("base", ["tric", "inv", "inc"])
    def test_event_stream_identical(self, workloads, ds, base):
        updates, queries, _ = workloads[(ds, 0)]
        r_plain = run(base, updates, queries)
        r_cached = run(base + "+", updates, queries)
        assert r_plain.events == r_cached.events


@pytest.mark.parametrize("ds", ["snb", "nyc", "biogrid"])
def test_selectivity_control_is_exact(workloads, ds):
    """σ by construction: exactly the generator-marked satisfiable queries
    match by the end of the stream."""
    updates, queries, bf = workloads[(ds, 0)]
    sat = {q.qid for q in queries if q.meta["satisfiable"]}
    assert {q for q, ts in bf.items() if ts} == sat


class TestEdgeCases:
    def test_duplicate_update_is_idempotent(self):
        updates, queries = build_workload("snb", n_updates=120, n_queries=10, seed=5)
        doubled = [u for u in updates for _ in range(2)]
        expected = sorted((t, q.qid) for q in queries for t in match_times(q, doubled))
        for name in ("tric", "inv", "inc", "graphdb"):
            r1 = run(name, updates, queries)
            r2 = run(name, doubled, queries)
            assert r1.matched == r2.matched, name
            assert r2.events == expected, name

    def test_no_queries_no_events(self):
        updates, _ = build_workload("snb", n_updates=50, n_queries=5, seed=0)
        for name in ALGORITHMS:
            e = make_engine(name)
            r = run_stream(e, updates)
            assert r.events == [] and r.processed == len(updates)

    def test_unindexed_predicate_is_skipped(self):
        from repro.graph.model import QueryPattern, Triple

        q = QueryPattern(qid=0, vertices=[None, "X"], edges=[(0, "p", 1)])
        for name in ALGORITHMS:
            e = make_engine(name)
            e.add_query(q)
            assert e.process_update(Triple("a", "nope", "b")) == []
            assert e.process_update(Triple("a", "p", "X")) == [0]

    def test_events_are_monotone_nondecreasing_in_t(self):
        updates, queries = build_workload("nyc", n_updates=150, n_queries=12, seed=2)
        for name in ALGORITHMS:
            r = run(name, updates, queries)
            ts = [t for t, _ in r.events]
            assert ts == sorted(ts)

    def test_engine_factory_rejects_unknown(self):
        for name in ("nope", "graphdb+", "tric++", "inv+++"):
            with pytest.raises(ValueError, match="unknown engine"):
                make_engine(name)

    def test_engine_names(self):
        for name in ALGORITHMS:
            assert make_engine(name).name == name
