"""Declarative index of the paper's evaluation artifacts (DESIGN.md §6).

``SWEEPS`` maps each artifact's ``results/<name>.json`` / EXPERIMENTS.md
marker name to one :class:`Sweep`.  :func:`run` regenerates an artifact
(printed paper-style rows plus the results JSON), :func:`render` turns that
JSON into the EXPERIMENTS.md table, and ``benchmarks/bench_sweeps.py`` runs
each sweep's representative ``bench`` points under pytest-benchmark.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.bench.harness import (
    build_workload,
    cell,
    fmt_table,
    measure_memory,
    run_algorithms,
    save_results,
)
from repro.engine.base import ALGORITHMS, make_engine
from repro.engine.runner import index_queries, run_stream

ANSWERING, INDEXING, MEMORY = "answering", "indexing", "memory"

#: the only workload arguments ``--scale`` multiplies
SCALED = ("n_updates", "n_queries")

#: engines of the knob benches: both TRICs, the strongest baseline, the
#: graph-DB stand-in
BENCH_ALGOS = ("tric", "tric+", "inc+", "graphdb")

MIB = 1 << 20


@dataclass(frozen=True)
class Sweep:
    """One evaluation artifact.

    ``kind`` is ANSWERING (x-value × algorithm → answering ms/update with
    timeout markers), INDEXING (Fig. 15: the query set grows in equal
    batches of ``values[0]`` queries; indexing seconds per batch) or MEMORY
    (Table 1: resident bytes per algorithm × x-value).  ``knob`` is the
    ``build_workload`` argument that takes ``values`` along x, each shown
    as ``label.format(value)``; ``base`` holds the fixed arguments.  The
    pytest benchmark runs ``bench_algos`` at each ``knob`` value in
    ``bench``, on ``base`` updated by ``bench_base``.
    """

    title: str
    kind: str
    knob: str
    values: tuple
    label: str
    base: dict
    bench: tuple
    bench_algos: tuple[str, ...] = tuple(ALGORITHMS)
    bench_base: dict = field(default_factory=lambda: dict(n_updates=1500, n_queries=200))


SNB = dict(dataset="snb", n_updates=2000, n_queries=300)

SWEEPS = {
    # 1500 updates with 300 queries concentrates the query walks on a
    # too-small final graph and overloads every inverted-index engine;
    # 2000/3000 match the other tables' baseline density.
    "table_snb_answering": Sweep(
        "Fig 13(a) — SNB answering time (ms/update), Q=300, l=5, sigma=25%, o=35%",
        ANSWERING, "n_updates", (2000, 3000), "|G_E|={}", SNB, bench=(2000,),
    ),
    "table_snb_selectivity": Sweep(
        "Fig 13(b) — SNB answering time (ms/update) vs selectivity sigma",
        ANSWERING, "selectivity", (0.10, 0.15, 0.20, 0.25, 0.30), "sigma={:.0%}", SNB,
        bench=(0.10, 0.30), bench_algos=BENCH_ALGOS,
    ),
    "table_snb_qdb": Sweep(
        "Fig 13(c) — SNB answering time (ms/update) vs |Q_DB|",
        ANSWERING, "n_queries", (100, 300, 500), "|Q_DB|={}", SNB,
        bench=(100, 400), bench_algos=BENCH_ALGOS,
    ),
    "table_snb_qlen": Sweep(
        "Fig 13(d) — SNB answering time (ms/update) vs query size l",
        ANSWERING, "avg_len", (3, 5, 7, 9), "l={}", SNB, bench=(3, 7), bench_algos=BENCH_ALGOS,
    ),
    # overlap is the knob TRIC's trie clustering exploits: its bench pits it
    # against the other shared-state family, with and without caching
    "table_snb_overlap": Sweep(
        "Fig 13(e) — SNB answering time (ms/update) vs overlap o",
        ANSWERING, "overlap", (0.25, 0.35, 0.45, 0.55, 0.65), "o={:.0%}", SNB,
        bench=(0.25, 0.65), bench_algos=("tric", "tric+", "inc", "inc+"),
    ),
    # the paper grows |G_E| to 1M/10M under a 24 h cap; we grow the scaled
    # stream under the per-run wall-clock cap
    "table_snb_scale": Sweep(
        "Fig 13(f)+14 — SNB scale-up (ms/update), with timeout markers",
        ANSWERING, "n_updates", (2000, 6000, 12000, 24000), "|G_E|={}", SNB,
        bench=(8000,), bench_algos=BENCH_ALGOS,
    ),
    "table_indexing": Sweep(
        "Fig 15 — indexing time",
        INDEXING, "n_queries", (100, 200, 300, 400, 500), "|Q_DB|->{}",
        dict(dataset="snb", n_updates=2000), bench=(500,), bench_base={},
    ),
    "table_nyc": Sweep(
        "Fig 16(a) — NYC answering time (ms/update), with timeout markers",
        ANSWERING, "n_updates", (1000, 3000, 8000), "|G_E|={}", dict(SNB, dataset="nyc"),
        bench=(2000,),
    ),
    "table_biogrid": Sweep(
        "Fig 16(b,c) — BioGRID answering time (ms/update), with timeout markers",
        ANSWERING, "n_updates", (1000, 3000, 8000), "|G_E|={}", dict(SNB, dataset="biogrid"),
        bench=(1500,),
    ),
    "table1_memory": Sweep(
        "Table 1 — memory usage (resident MiB)",
        MEMORY, "dataset", ("snb", "nyc", "biogrid"), "{}", dict(n_updates=2000, n_queries=300),
        bench=("snb",), bench_base=dict(n_updates=1000, n_queries=150),
    ),
}


def _workload(kw: dict, scale: float, seed: int) -> dict:
    """``build_workload`` arguments with only the sizes scaled."""
    return {**{k: int(v * scale) if k in SCALED else v for k, v in kw.items()}, "seed": seed}


def run(
    name: str,
    out_dir: str,
    scale: float = 1.0,
    seed: int = 0,
    time_limit_s: float = 30.0,
    verify: bool = False,
) -> dict:
    """Regenerate artifact ``name``: print its rows and write
    ``<out_dir>/<name>.json``.  ``verify`` checks each answering workload
    against the Catalyst ground truth (needs Spark)."""
    sw = SWEEPS[name]
    if sw.kind == ANSWERING:
        payload = _answering(sw, scale, seed, time_limit_s, verify)
    else:
        payload = (_indexing if sw.kind == INDEXING else _memory)(sw, scale, seed)
    save_results(payload, os.path.join(out_dir, f"{name}.json"))
    return payload


def _answering(sw: Sweep, scale: float, seed: int, time_limit_s: float, verify: bool) -> dict:
    rows, configs = [], []
    for v in sw.values:
        kw = _workload({**sw.base, sw.knob: v}, scale, seed)
        updates, queries = build_workload(**kw)
        if verify:
            verify_sample(updates, queries)
        res = run_algorithms(updates, queries, ALGORITHMS, time_limit_s=time_limit_s)
        label = sw.label.format(v)
        rows.append({"x": label, **{a: cell(m) for a, m in res.items()}})
        configs.append({"label": label, "workload": kw, "results": res})
        print(f"[done] {label}")
    print()
    print(fmt_table(sw.title, rows, ["x", *ALGORITHMS]))
    return {"title": sw.title, "configs": configs}


def _indexing(sw: Sweep, scale: float, seed: int) -> dict:
    batch = int(sw.values[0] * scale)
    kw = _workload(sw.base, scale, seed)
    _, queries = build_workload(**kw, **{sw.knob: batch * len(sw.values)})
    engines = {name: make_engine(name) for name in ALGORITHMS}
    rows, batches = [], []
    for b in range(len(sw.values)):
        chunk = queries[b * batch : (b + 1) * batch]
        secs = {name: index_queries(e, chunk) for name, e in engines.items()}
        ms = {a: f"{s * 1000:.1f}" for a, s in secs.items()}
        rows.append({"x": sw.label.format((b + 1) * batch), **ms})
        batches.append(secs)
    print(fmt_table(f"{sw.title} (ms) per batch of {batch} queries", rows, ["x", *ALGORITHMS]))
    return {"title": sw.title, "batch": batch, "batches": batches}


def _memory(sw: Sweep, scale: float, seed: int) -> dict:
    workloads = {
        sw.label.format(v): build_workload(**_workload({**sw.base, sw.knob: v}, scale, seed))
        for v in sw.values
    }
    rows, algorithms = [], {}
    for name in ALGORITHMS:
        rec = {x: measure_memory(name, *w) for x, w in workloads.items()}
        rows.append({"algorithm": name, **{x: f"{b / MIB:.1f}MiB" for x, b in rec.items()}})
        algorithms[name] = rec
        print(f"[done] {name}")
    base = _workload(sw.base, scale, seed)
    title = f"{sw.title}, Q={base['n_queries']}, |G_E|={base['n_updates']} (tracemalloc)"
    print()
    print(fmt_table(title, rows, ["algorithm", *workloads]))
    return {"title": sw.title, "algorithms": algorithms}


def verify_sample(updates, queries, n_sample: int = 10) -> None:
    """Check tric+'s first-match map against the Catalyst BGP ground truth."""
    from pyspark.sql import SparkSession

    from repro.spark_ops.batch_match import first_match_spark
    from repro.streams.datasets import stream_to_spark

    spark = (
        SparkSession.builder.appName("repro-verify")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    sample = queries[:n_sample]
    engine = make_engine("tric+")
    index_queries(engine, sample)
    res = run_stream(engine, updates)
    truth = first_match_spark(stream_to_spark(spark, updates), sample)
    assert res.first_match == truth, (res.first_match, truth)
    print(f"[verify] tric+ first-match equals Catalyst ground truth on {len(sample)} queries")


def _md_table(head: list[str], rows: list[list[str]]) -> str:
    def line(cells):
        return "|" + "|".join(f" {c} " if c else " " for c in cells) + "|"

    return "\n".join([line(head), "|---|" + "---|" * (len(head) - 1), *map(line, rows)])


def _ms_cell(m: dict) -> str:
    v = f"{m['avg_ms_per_update']:.3f}"
    if m.get("timed_out"):
        v += f"\\* @{m['processed']}"
    return v


def render(data: dict) -> str:
    """EXPERIMENTS.md markdown table for one results payload, by its shape."""
    if "algorithms" in data:
        algos = data["algorithms"]
        xs = list(next(iter(algos.values())))
        return _md_table(
            ["algorithm", *xs],
            [[a, *(f"{rec[x] / MIB:.1f} MiB" for x in xs)] for a, rec in algos.items()],
        )
    if "batches" in data:
        # files written before ``batch`` was recorded were all at scale 1
        batch = data.get("batch", 100)
        algos = list(data["batches"][0])
        rows = [
            [str((i + 1) * batch), *(f"{b[a] * 1000:.1f}" for a in algos)]
            for i, b in enumerate(data["batches"])
        ]
        return _md_table(["batch", *algos], rows) + f"\n\n(ms per batch of {batch} queries)"
    algos = list(data["configs"][0]["results"])
    rows = [[c["label"], *(_ms_cell(c["results"][a]) for a in algos)] for c in data["configs"]]
    return _md_table(["", *algos], rows) + "\n\n(ms/update; \\* = hit threshold after N updates)"
