"""pytest-benchmark for every evaluation artifact: one case per (artifact,
representative point, algorithm) in ``repro.bench.sweeps.SWEEPS``; the
full sweeps are ``python jobs/run.py``.

Answering cases time one engine's answering phase (indexing is outside the
timed region) and record the paper's metric (ms/update) and timeout marker
in extra_info.  Indexing cases time indexing the whole query set.  Memory
cases record resident tracemalloc MiB; their time is incidental.
Workloads are built once per session; engines are rebuilt for every
measured run (they are stateful).
"""
from functools import lru_cache

import pytest

from repro.bench.harness import build_workload, measure_memory
from repro.bench.sweeps import ANSWERING, INDEXING, MIB, SWEEPS
from repro.engine.base import make_engine
from repro.engine.runner import index_queries, run_stream

#: per-run wall-clock cap — the scaled analogue of the paper's 24 h threshold
TIME_LIMIT_S = 20.0

workload = lru_cache(maxsize=32)(build_workload)

CASES = [
    pytest.param(sw.kind, {**sw.base, **sw.bench_base, sw.knob: v, "seed": 0}, algo,
                 id=f"{name}-{sw.knob}={v}-{algo}")
    for name, sw in SWEEPS.items()
    for v in sw.bench
    for algo in sw.bench_algos
]


@pytest.mark.parametrize("kind,wl,algo", CASES)
def test_sweep(benchmark, kind, wl, algo):
    updates, queries = workload(**wl)
    if kind == INDEXING:
        benchmark.pedantic(
            index_queries, setup=lambda: ((make_engine(algo), queries), {}), rounds=3, iterations=1
        )
    elif kind == ANSWERING:

        def indexed():
            e = make_engine(algo)
            index_queries(e, queries)
            return (e, updates), {"time_limit_s": TIME_LIMIT_S}

        res = benchmark.pedantic(run_stream, setup=indexed, rounds=1, iterations=1)
        benchmark.extra_info.update(
            ms_per_update=round(res.avg_ms_per_update, 4),
            timed_out=res.timed_out,
            processed=res.processed,
            matched=len(res.matched),
        )
    else:
        peak = benchmark.pedantic(measure_memory, (algo, updates, queries), rounds=1, iterations=1)
        benchmark.extra_info["resident_mib"] = round(peak / MIB, 2)
