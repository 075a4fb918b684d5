"""Spark-facing operators: Catalyst batch BGP matcher (ground truth),
the continuous multi-query matcher as a DataFrame→DataFrame transformation
(mapInPandas), and a Structured Streaming wrapper (foreachBatch)."""

from repro.spark_ops.batch_match import bgp_to_sql, match_events_spark, spark_bgp_match  # noqa: F401
from repro.spark_ops.matcher import match_updates  # noqa: F401
