"""One engine pass in a fresh process: index the queries, replay the stream
in order, one update at a time, and report what was measured.

Run as ``python3 engine_pass.py '<job json>'``.  The inputs come pickled
from the file ``job["inputs"]``; the last stdout line is the result as JSON.
Each pass gets its own process because resident memory does not shrink
after a free, so a process that has held another engine would misreport the
next one's state.
"""
from __future__ import annotations

import gc
import json
import os
import pickle
import sys
from pathlib import Path

from repro.engine.base import make_engine
from repro.engine.runner import index_queries, run_stream
from repro.relational.relation import COUNTERS, reset_counters

PAGE = os.sysconf("SC_PAGE_SIZE")
#: a pass that answers for longer than this stops; the rest counts as failed
PASS_LIMIT_S = 60.0


def rss_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * PAGE


def run_pass(
    updates: list,
    queries: list,
    engine_name: str,
    setup_repeats: int = 1,
    tracer=None,
) -> dict:
    """Set up ``setup_repeats`` times (the last engine answers), then feed the
    stream through ``engine.runner`` one update per call (closed loop)."""
    gc.collect()
    rss0 = rss_bytes()
    setup_s = []
    for _ in range(setup_repeats):
        # free the previous engine (tries hold reference cycles) so that the
        # one that answers reuses its memory instead of growing the process
        engine = None
        gc.collect()
        engine = make_engine(engine_name)
        setup_s.append(index_queries(engine, queries))
    if tracer is not None:
        tracer.index_tries(engine.forest)
        tracer.install()
    reset_counters()
    latencies: list[float] = []
    events: list[tuple[int, int]] = []
    answered = 0
    elapsed = 0.0
    stop = ""
    try:
        for t, u in enumerate(updates):
            res = run_stream(engine, (u,))
            latencies.append(res.elapsed_s)
            elapsed += res.elapsed_s
            if res.timed_out:  # EngineOverflow: this update is unanswered
                stop = f"update {t}: {res.timeout_reason}"
                break
            events.extend((t, qid) for _, qid in res.events)
            answered += 1
            if elapsed > PASS_LIMIT_S and answered < len(updates):
                stop = f"update {t}: pass exceeded {PASS_LIMIT_S}s"
                break
    finally:
        if tracer is not None:
            tracer.remove()
    gc.collect()
    return {
        "engine": engine_name,
        "setup_s": setup_s,
        "latencies_s": latencies,
        "answered": answered,
        "updates": len(updates),
        "stop": stop,
        "events": events,
        "state_bytes": rss_bytes() - rss0,
        "state": state_sizes(engine),
        "counters": dict(COUNTERS),
    }


def state_sizes(engine) -> dict[str, int]:
    """Row and node counts read from the engine's public state."""
    nodes = engine.forest.all_nodes()
    return {
        "trie_nodes": len(nodes),
        "nonempty_nodes": sum(1 for n in nodes if len(n.matv)),
        "view_rows": sum(len(v) for v in engine.base.values()) + sum(len(n.matv) for n in nodes),
        "canon_rows": sum(len(v) for a in engine.assemblers.values() for v in a.canon_views),
    }


def main(argv: list[str]) -> int:
    job = json.loads(argv[1])
    with open(job["inputs"], "rb") as f:  # written by run.py for this run
        updates, queries = pickle.load(f)
    tracer = None
    if job.get("trace_path"):
        from tracer import Tracer

        tracer = Tracer()
    out = run_pass(updates, queries, job["engine"], job["setup_repeats"], tracer)
    if tracer is not None:
        out["layers"] = tracer.layer_times()
        out["trace_counts"] = tracer.counts
        tracer.write(Path(job["trace_path"]))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
