"""Harness of ``repro.bench.sweeps`` (``jobs/run.py``): workload builder,
per-algorithm runner with its cross-engine agreement check, memory
measurement, and the results writer.  Each evaluation artifact is one
``SWEEPS`` entry; its rows (x-value × algorithm → answering time per update
in ms, with "timeout at |G_E| = X" markers) are dumped as JSON under
``results/`` so EXPERIMENTS.md can diff paper vs measured.
"""
from __future__ import annotations

import json
import os
import tracemalloc
from typing import Optional, Sequence

from repro.engine.base import make_engine
from repro.engine.runner import RunResult, index_queries, run_stream
from repro.graph.model import QueryPattern, Triple
from repro.streams.datasets import DATASETS
from repro.streams.querygen import generate_queries

#: default variable-lifting probability per dataset.  NYC/BioGRID queries
#: are more literal-anchored (concrete zones / proteins, as in the paper's
#: workloads); 0.5 on the hub-heavy graphs explodes every engine's views.
VAR_PROB_DEFAULT = {"snb": 0.5, "nyc": 0.35, "biogrid": 0.35}


def build_workload(
    dataset: str = "snb",
    n_updates: int = 3000,
    n_queries: int = 300,
    avg_len: int = 5,
    selectivity: float = 0.25,
    overlap: float = 0.35,
    var_prob: Optional[float] = None,
    seed: int = 0,
) -> tuple[list[Triple], list[QueryPattern]]:
    """Deterministic (stream, query set) pair for one experiment config."""
    if var_prob is None:
        var_prob = VAR_PROB_DEFAULT.get(dataset, 0.5)
    updates = DATASETS[dataset](n_updates, seed=seed)
    queries = generate_queries(
        updates,
        n_queries,
        avg_len=avg_len,
        selectivity=selectivity,
        overlap=overlap,
        var_prob=var_prob,
        seed=seed + 1,
    )
    return updates, queries


def run_algorithms(
    updates: Sequence[Triple],
    queries: Sequence[QueryPattern],
    algos: Sequence[str],
    time_limit_s: Optional[float] = None,
) -> dict[str, dict]:
    """Index + stream each algorithm on a fresh engine; returns per-algo
    metrics (the paper's answering / indexing time and timeout markers).

    Raises ``AssertionError`` unless every engine's ``(t, qid)`` events equal
    those of the engine that processed the most updates, on the updates
    both processed (a run cut by the time limit or an overflow is a prefix).
    """
    out: dict[str, dict] = {}
    runs: dict[str, RunResult] = {}
    for name in algos:
        engine = make_engine(name)
        idx_s = index_queries(engine, queries)
        res = runs[name] = run_stream(engine, updates, time_limit_s=time_limit_s)
        out[name] = {
            "engine": name,
            "index_s": idx_s,
            "avg_ms_per_update": res.avg_ms_per_update,
            "elapsed_s": res.elapsed_s,
            "processed": res.processed,
            "total_updates": res.total_updates,
            "timed_out": res.timed_out,
            "timeout_reason": res.timeout_reason,
            "n_matched": len(res.matched),
        }
    ref = max(runs.values(), key=lambda r: r.processed)
    for name, res in runs.items():
        expected = [e for e in ref.events if e[0] < res.processed]
        if res.events != expected:
            diff = sorted(set(res.events) ^ set(expected))[:5]
            raise AssertionError(
                f"{name} and {ref.engine} disagree on updates < {res.processed}: "
                f"{diff} (first differing events)"
            )
    return out


def measure_memory(
    name: str,
    updates: Sequence[Triple],
    queries: Sequence[QueryPattern],
    time_limit_s: float = 30.0,
) -> int:
    """Resident tracemalloc bytes held after indexing + answering — the
    analogue of Table 1's resident MB (peak would be dominated by the
    uncached variants' *transient* build tables, which the paper's resident
    measurement does not see)."""
    tracemalloc.start()
    try:
        engine = make_engine(name)
        index_queries(engine, queries)
        # tracemalloc slows execution several-fold; cap the answering phase
        # (state keeps growing monotonically, so this under-reports slow
        # engines slightly — noted in EXPERIMENTS.md)
        run_stream(engine, updates, collect_events=False, time_limit_s=time_limit_s)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        del engine
        tracemalloc.stop()
    return current


def save_results(payload: dict, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, default=str)
