"""The Spark operator on one workload's inputs, in a fresh process.

``spark_ops.matcher.match_updates(df, queries, "tric+").collect()`` is called
once cold (the first call on a started session) and then warm, on a local
session.  Spark's scratch files stay under ``job["out_dir"]``; the JVM is
stopped and waited for before the process exits.

Run as ``python3 spark_pass.py '<job json>'``.  The inputs come pickled from
the file ``job["inputs"]``; the last stdout line is the result as JSON.
"""
from __future__ import annotations

import json
import os
import pickle
import statistics
import sys
import time
from pathlib import Path

WARM_CALLS = 2
#: local-mode cores, at most the machine's
CORES = min(4, os.cpu_count() or 1)


def spark_env(out_dir: Path) -> None:
    """Keep the JVM and its Python workers inside ``out_dir``."""
    tmp = out_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{CORES}]",
            "--driver-memory 1g",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            f"--conf spark.local.dir={out_dir / 'local'}",
            f"--conf spark.sql.warehouse.dir={out_dir / 'warehouse'}",
            "--conf spark.sql.execution.arrow.pyspark.enabled=true",
            "pyspark-shell",
        ]
    )


def main(argv: list[str]) -> int:
    job = json.loads(argv[1])
    spark_env(Path(job["out_dir"]))

    from pyspark import SparkContext
    from pyspark.sql import SparkSession

    from repro.spark_ops.matcher import match_updates
    from repro.streams.datasets import stream_to_spark

    with open(job["inputs"], "rb") as f:  # written by run.py for this run
        updates, queries = pickle.load(f)
    spark = SparkSession.builder.appName("perfbench").getOrCreate()
    jvm = SparkContext._gateway.proc
    try:
        df = stream_to_spark(spark, updates).cache()
        df.count()
        calls, events = [], []
        for _ in range(1 + WARM_CALLS):
            t0 = time.perf_counter()
            rows = match_updates(df, queries, "tric+").collect()
            calls.append(time.perf_counter() - t0)
            events.append(sorted((r["t"], r["qid"]) for r in rows))
    finally:
        spark.stop()
        jvm.stdin.close()  # the gateway exits when its stdin closes
        jvm.wait(timeout=60)
    print(json.dumps({"warm_s": statistics.median(calls[1:]), "warm_calls": WARM_CALLS, "events": events}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
