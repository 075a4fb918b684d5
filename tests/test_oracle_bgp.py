"""Catalyst BGP matcher ⟷ DuckDB oracle.

Every query-result check goes through ``repro.oracle.assert_equivalent``:
the Spark DataFrame produced by the Catalyst matcher is diffed row-for-row
against the same BGP expressed as SQL on DuckDB over the identical triples
table.  This is what certifies the ground truth that all engines are then
compared against.
"""
import pytest

from repro.bench.harness import build_workload
from repro.graph.bruteforce import embeddings, match_times
from repro.oracle import assert_equivalent
from repro.spark_ops.batch_match import bgp_to_sql, match_events_spark, spark_bgp_match
from repro.streams.datasets import stream_to_pandas, stream_to_spark
from repro.streams.querygen import generate_queries


@pytest.fixture(scope="module")
def snb(spark):
    updates, queries = build_workload("snb", n_updates=220, n_queries=16, avg_len=4, seed=4)
    return updates, queries, stream_to_spark(spark, updates)


@pytest.mark.parametrize("qi", range(16))
def test_catalyst_matches_duckdb(snb, qi):
    """Per generated query: Catalyst self-join plan == DuckDB SQL."""
    updates, queries, triples_df = snb
    q = queries[qi]
    got = spark_bgp_match(triples_df, q)
    assert_equivalent(got, bgp_to_sql(q, table="g"), g=stream_to_pandas(updates))


@pytest.mark.parametrize("qi", [0, 3, 7, 11])
def test_catalyst_matches_bruteforce(snb, qi):
    updates, queries, triples_df = snb
    q = queries[qi]
    rows = spark_bgp_match(triples_df, q).collect()
    var_vids = [v for v, term in enumerate(q.vertices) if term is None]
    got = sorted(tuple(r[f"v{v}"] for v in var_vids) for r in rows)
    exp = sorted({tuple(e[v] for v in var_vids) for e in embeddings(q, updates)})
    assert got == exp


def test_match_events_spark_equals_bruteforce(snb):
    """The Catalyst ground truth's full ``(t, qid)`` event list equals the
    brute-force oracle's, not just each query's first event."""
    updates, queries, triples_df = snb
    got = match_events_spark(triples_df, queries[:8])
    exp = sorted((t, q.qid) for q in queries[:8] for t in match_times(q, updates))
    assert exp and got == exp


class TestHandwrittenPatterns:
    """Directed shapes checked against DuckDB on a tiny explicit graph."""

    @pytest.fixture(scope="class")
    def tiny(self, spark):
        import pandas as pd

        rows = [
            (0, "a", "knows", "b"),
            (1, "b", "knows", "c"),
            (2, "c", "knows", "a"),
            (3, "a", "likes", "p1"),
            (4, "b", "likes", "p1"),
            (5, "a", "knows", "c"),
        ]
        pdf = pd.DataFrame(rows, columns=["t", "s", "p", "o"])
        return pdf, spark.createDataFrame(pdf)

    def q(self, vertices, edges):
        from repro.graph.model import QueryPattern

        return QueryPattern(qid=0, vertices=vertices, edges=edges)

    @pytest.mark.parametrize(
        "vertices,edges",
        [
            ([None, None], [(0, "knows", 1)]),  # single edge
            ([None, None, None], [(0, "knows", 1), (1, "knows", 2)]),  # chain
            ([None, None], [(0, "knows", 1), (1, "knows", 0)]),  # 2-cycle
            ([None, None, None], [(0, "knows", 1), (1, "knows", 2), (2, "knows", 0)]),
            ([None, None, "p1"], [(0, "knows", 1), (0, "likes", 2), (1, "likes", 2)]),
            (["a", None], [(0, "knows", 1)]),  # literal source
            ([None, "p1"], [(0, "likes", 1)]),  # literal target
            (["a", "b"], [(0, "knows", 1)]),  # no variables at all
        ],
    )
    def test_pattern(self, tiny, vertices, edges):
        pdf, df = tiny
        q = self.q(vertices, edges)
        assert_equivalent(spark_bgp_match(df, q), bgp_to_sql(q), g=pdf)


class TestProvidedOracleOnTriples:
    """Smoke tests that the provided DuckDB bridge itself behaves, on the
    triples table: a float aggregate (exercises the oracle's rounding) and
    a join."""

    def test_triples_aggregate(self, snb):
        from pyspark.sql import functions as F

        updates, _, triples_df = snb
        got = triples_df.groupBy("p").agg(
            F.count("*").alias("cnt"), F.avg("t").alias("avg_t")
        )
        assert_equivalent(
            got,
            "SELECT p, count(*) AS cnt, avg(t) AS avg_t FROM g GROUP BY p",
            g=stream_to_pandas(updates),
        )

    def test_triples_join(self, snb):
        from pyspark.sql import functions as F

        updates, _, triples_df = snb
        a, b = triples_df.alias("a"), triples_df.alias("b")
        got = (
            a.join(b, F.col("a.o") == F.col("b.s"))
            .groupBy(F.col("a.p").alias("p1"), F.col("b.p").alias("p2"))
            .agg(F.count("*").alias("cnt"))
        )
        assert_equivalent(
            got,
            "SELECT a.p AS p1, b.p AS p2, count(*) AS cnt FROM g a JOIN g b "
            "ON a.o = b.s GROUP BY a.p, b.p",
            g=stream_to_pandas(updates),
        )
