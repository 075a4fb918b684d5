#!/usr/bin/env python3
"""TRIC / TRIC+ benchmark: answering time, latency, memory and set-up.

    python3 perfbench/run.py --workload snb --seed 1 --seconds 30 --trace 0

Run from the repository root.  Load model: a closed loop from one process
and one thread; the stream is replayed in order and each update is sent only
after the previous answer returned.  Every pass (one engine, one stream)
runs in its own process.  Every pass's full ``(t, qid)`` event stream is
checked against the graph-database executor's on the same inputs.

``--trace 0`` alternates TRIC+ and TRIC passes, three at a time on separate
cores, for ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` runs one plain and one traced pass per engine, plus the Spark
operator on the same inputs, and reports the per-layer metrics; spans are
written to ``.perfbench_out/``.  A table of every metric, with its unit and
sample count, is printed first; the last line is the result as JSON.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
#: metric prefix -> engine name (``+`` is not allowed in metric names)
ENGINES = {"tricp": "tric+", "tric": "tric"}
#: a run must end within 180 s; workers get what is left of this
RUN_BUDGET_S = 170.0
SETUP_REPEATS = 7
MIN_STEPS = 2
#: simultaneous passes per step, one core left for the rest of the system
REPLICAS = max(1, min(3, (os.cpu_count() or 1) - 1))


class Metric(NamedTuple):
    name: str
    value: float
    unit: str
    samples: int
    note: str = ""


def run_workers(script: str, jobs: list[dict], deadline: float) -> list[dict]:
    """Run ``script`` once per job, all at once, each in a fresh process
    group, and return the results in job order.  When one fails or the run's
    time budget is spent, every group still running is killed; every process
    is waited for."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    procs = [
        subprocess.Popen(
            [sys.executable, str(HERE / script), json.dumps(job)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            start_new_session=True,
        )
        for job in jobs
    ]
    results = []
    try:
        for proc in procs:
            try:
                out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise RuntimeError(f"{script} ran past the run's time budget") from None
            if proc.returncode != 0:
                raise RuntimeError(f"{script} exited with {proc.returncode}:\n{err[-3000:]}")
            results.append(json.loads(out.strip().splitlines()[-1]))
    finally:
        for proc in procs:
            if proc.returncode is None:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.communicate()
    return results


def run_worker(script: str, job: dict, deadline: float) -> dict:
    return run_workers(script, [job], deadline)[0]


def failed_updates(reference: list[tuple[int, int]], result: dict) -> int:
    """Updates of one pass not answered or answered wrongly: a pass whose
    events differ from the reference's fails on every update; one that
    stopped early fails on the updates it did not answer."""
    answered = result["answered"]
    expected = [e for e in reference if e[0] < answered]
    if sorted(tuple(e) for e in result["events"]) != expected:
        return result["updates"]
    return result["updates"] - answered


def tally(reference: list[tuple[int, int]], results: list[dict]) -> tuple[int, int]:
    """(attempted, failed) updates over engine passes; reports why a pass stopped."""
    for r in results:
        if r["stop"]:
            print(f"perfbench: {r['engine']} pass stopped at {r['stop']}", file=sys.stderr)
    return sum(r["updates"] for r in results), sum(failed_updates(reference, r) for r in results)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def engine_job(inputs: Path, engine: str, setup_repeats: int, trace_path: str = "") -> dict:
    return {
        "inputs": str(inputs),
        "engine": engine,
        "setup_repeats": setup_repeats,
        "trace_path": trace_path,
    }


def end_to_end(inputs: Path, seconds: float, reference, deadline: float):
    """Steps of ``REPLICAS`` simultaneous passes of one engine, alternating
    so that each engine gets about half of ``seconds`` (at least
    ``MIN_STEPS`` each), until the next step would end past ``seconds``;
    returns (metrics, attempted, failed).

    Latencies are per update, the fastest of its passes.  An update does the
    same work in every pass, so the spread between passes is interference
    from outside the program; on a shared host it moves from core to core
    within seconds, and replicas on separate cores let some pass miss it."""
    passes = {k: [] for k in ENGINES}
    spent = dict.fromkeys(ENGINES, 0.0)
    last = dict.fromkeys(ENGINES, 0.0)
    t0 = time.monotonic()
    while True:
        key = min(ENGINES, key=lambda k: spent[k])
        enough = all(len(p) >= MIN_STEPS * REPLICAS for p in passes.values())
        if enough and time.monotonic() - t0 + last[key] > seconds:
            break
        started = time.monotonic()
        job = engine_job(inputs, ENGINES[key], SETUP_REPEATS)
        passes[key] += run_workers("engine_pass.py", [job] * REPLICAS, deadline)
        last[key] = time.monotonic() - started
        spent[key] += last[key]

    metrics, attempted, failed = [], 0, 0
    setup_s = 0.0
    n_setup = 0
    for key, results in passes.items():
        n = len(results)
        fastest = [min(per_pass) for per_pass in zip(*(r["latencies_s"] for r in results))]
        m = len(fastest)
        note = f"each update's fastest of {n} passes"
        metrics += [
            Metric(f"{key}.ms_per_update", 1000 * sum(fastest) / m, "ms", m, f"mean over {m} updates; {note}"),
            Metric(f"{key}.update_ms_p50", 1000 * statistics.median(fastest), "ms", m, note),
            Metric(f"{key}.update_ms_p99", 1000 * percentile(fastest, 0.99), "ms", m,
                   f"{note}; {m - math.ceil(0.99 * m)} samples beyond p99"),
            Metric(f"{key}.state_mib", statistics.median(r["state_bytes"] / 2**20 for r in results), "MiB", n,
                   f"median over {n} passes of resident growth, fresh process each"),
        ]
        samples = [s for r in results for s in r["setup_s"]]
        setup_s += statistics.median(samples)
        n_setup += len(samples)
        tried, bad = tally(reference, results)
        attempted += tried
        failed += bad
    metrics.append(Metric("setup_s", setup_s, "s", n_setup, "sum over engines of the median index_queries time"))
    metrics.append(Metric("answered_share", 1 - failed / attempted, "share", attempted,
                          "updates answered correctly / updates attempted"))
    return metrics, attempted, failed


def layer_metrics(key: str, plain: dict, traced: dict) -> list[Metric]:
    """Per-layer metrics of one engine from its traced pass."""
    n = len(traced["latencies_s"])
    layers, counts = traced["layers"], traced["trace_counts"]
    state, counters = traced["state"], traced["counters"]
    answer_traced = sum(traced["latencies_s"])
    answer_plain = sum(plain["latencies_s"])

    def ms(ns: float) -> float:
        return ns / 1e6 / n

    def per_update(name: str, value: float, note: str) -> Metric:
        return Metric(f"{key}.{name}", value, "ms/update", n, note)

    def count(name: str, value: float, unit: str = "count", note: str = "") -> Metric:
        return Metric(f"{key}.{name}", value, unit, 1, note)

    asm = [layers["assembler.on_path_delta"], layers["assembler.finish_update"]]
    visited = layers["tric.descend"]["calls"]
    finish_calls = layers["assembler.finish_update"]["calls"]
    attributed = sum(v["self_ns"] for v in layers.values()) / 1e9
    return [
        per_update("runner.update_self_ms", ms(layers["runner.update"]["self_ns"]),
                   "process_update self: signature lookup, base-view adds"),
        per_update("trie.route_ms", ms(layers["trie.route"]["incl_ns"]), "TrieForest.affected_roots"),
        count("trie.roots_per_update", counts["roots"] / n),
        count("trie.nodes_visited", visited),
        count("trie.nodes_pruned_share", 1 - visited / max(1, counts["nodes_in_affected"]), "share",
              "1 - visited / nodes in the affected tries"),
        count("trie.nodes", state["trie_nodes"]),
        count("trie.nonempty_nodes", state["nonempty_nodes"]),
        per_update("tric.descend_self_ms", ms(layers["tric.descend"]["self_ns"]), "TricEngine._descend self"),
        per_update("relational.view_add_ms", ms(layers["relational.view_add"]["self_ns"]), "View.add_all"),
        count("relational.rows_offered", counts["rows_offered"]),
        count("relational.rows_new", counts["rows_new"]),
        count("relational.dup_share", 1 - counts["rows_new"] / max(1, counts["rows_offered"]), "share"),
        count("relational.view_rows", state["view_rows"], note="rows in base and trie views at the end"),
        per_update("relational.join_ms", ms(layers["relational.join"]["self_ns"]), "hash_join"),
        count("relational.build_rows", counters["build_rows"]),
        count("relational.probe_rows", counters["probe_rows"]),
        count("relational.out_rows", counters["out_rows"]),
        per_update("assembler.ms", ms(sum(a["incl_ns"] for a in asm)), "on_path_delta + finish_update, inclusive"),
        per_update("assembler.self_ms", ms(sum(a["self_ns"] for a in asm)), "on_path_delta + finish_update, self"),
        count("assembler.finish_calls", finish_calls),
        count("assembler.hit_share", counts["finish_hits"] / max(1, finish_calls), "share"),
        count("assembler.canon_rows", state["canon_rows"], note="rows in canonical views at the end"),
        per_update("trace.ms_per_update", 1000 * answer_traced / n, "traced answering time"),
        count("trace.overhead_share", answer_traced / answer_plain - 1, "share", "traced / plain answering - 1"),
        count("trace.attributed_share", attributed / answer_traced, "share",
              "named layers' self time / traced answering time"),
    ]


def per_layer(name: str, inputs: Path, n_updates: int, reference, deadline: float):
    """One plain and one traced pass per engine, then the Spark operator;
    returns (metrics, attempted, failed)."""
    metrics, attempted, failed = [], 0, 0
    plain = {}
    for key, engine in ENGINES.items():
        plain[key] = run_worker("engine_pass.py", engine_job(inputs, engine, 1), deadline)
        trace_path = str(OUT / f"trace-{name}-{key}.npz")
        traced = run_worker("engine_pass.py", engine_job(inputs, engine, 1, trace_path), deadline)
        metrics += layer_metrics(key, plain[key], traced)
        tried, bad = tally(reference, [plain[key], traced])
        attempted += tried
        failed += bad

    spark = run_worker("spark_pass.py", {"inputs": str(inputs), "out_dir": str(OUT / "spark")}, deadline)
    for events in spark["events"]:
        attempted += n_updates
        if [tuple(e) for e in events] != reference:
            failed += n_updates
    in_process = plain["tricp"]["setup_s"][0] + sum(plain["tricp"]["latencies_s"])
    metrics.append(Metric("tricp.spark.boundary_ms", 1000 * (spark["warm_s"] - in_process), "ms", spark["warm_calls"],
                          "warm match_updates().collect() minus in-process index + stream"))
    return metrics, attempted, failed


def run(name: str, spec, seed: int, seconds: float, trace: bool) -> tuple[list[Metric], dict]:
    from workloads import make_inputs, reference_events

    deadline = time.monotonic() + RUN_BUDGET_S
    updates, queries = make_inputs(spec, seed)
    reference = reference_events(updates, queries)
    OUT.mkdir(exist_ok=True)
    inputs = OUT / f"inputs-{os.getpid()}.pickle"
    try:
        with open(inputs, "wb") as f:
            pickle.dump((updates, queries), f)
        if trace:
            metrics, attempted, failed = per_layer(name, inputs, len(updates), reference, deadline)
        else:
            metrics, attempted, failed = end_to_end(inputs, seconds, reference, deadline)
    finally:
        inputs.unlink(missing_ok=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m.name: {"value": m.value, "unit": m.unit} for m in metrics},
    }
    return metrics, result


def table(metrics: list[Metric]) -> str:
    width = max(len(m.name) for m in metrics)
    lines = [f"{'metric':<{width}}  {'value':>14}  {'unit':<9}  {'samples':>7}  note"]
    for m in metrics:
        lines.append(f"{m.name:<{width}}  {m.value:>14.6g}  {m.unit:<9}  {m.samples:>7}  {m.note}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; pick one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    metrics, result = run(args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{result['attempted']} updates attempted, {result['failed']} failed")
    print(table(metrics))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
