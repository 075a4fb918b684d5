"""SWEEPS, the declarative index of the paper's evaluation artifacts: it
covers every EXPERIMENTS.md marker one to one, and each artifact kind's
results file keeps the schema that ``render`` (and so
``jobs/fill_experiments.py``) reads."""
import json
import os
import re

import pytest

from repro.bench.sweeps import ANSWERING, INDEXING, MEMORY, SWEEPS, render, run
from repro.engine.base import ALGORITHMS

EXPERIMENTS = os.path.join(os.path.dirname(__file__), "..", "EXPERIMENTS.md")

#: the first sweep of each kind
ONE_PER_KIND = {}
for _name, _sw in SWEEPS.items():
    ONE_PER_KIND.setdefault(_sw.kind, _name)


def test_keys_match_experiments_markers():
    with open(EXPERIMENTS) as f:
        markers = re.findall(r"<!-- MEASURED:(\w+) -->", f.read())
    assert sorted(markers) == sorted(SWEEPS)


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """Each kind's first sweep at scale 0.02, as read back from its JSON."""
    out = tmp_path_factory.mktemp("results")
    loaded = {}
    for kind, name in ONE_PER_KIND.items():
        run(name, str(out), scale=0.02, time_limit_s=30.0)
        with open(out / f"{name}.json") as f:
            loaded[kind] = json.load(f)
    return loaded


def _first_cells(table: str) -> list[str]:
    """First cell of each data row of a rendered markdown table, unescaped
    (labels such as ``|G_E|=2000`` render as ``\\|G_E\\|=2000``).  Every
    row must have as many cells as the header."""
    rows = [
        [c.strip().replace(r"\|", "|") for c in re.split(r"(?<!\\)\|", ln)[1:-1]]
        for ln in table.splitlines()
        if ln.startswith("|")
    ]
    assert all(len(r) == len(rows[0]) for r in rows), rows
    return [r[0] for r in rows[2:]]


@pytest.mark.parametrize("kind", [ANSWERING, INDEXING, MEMORY])
def test_run_writes_what_render_reads(results, kind):
    sw = SWEEPS[ONE_PER_KIND[kind]]
    data = results[kind]
    assert data["title"] == sw.title
    firsts = ALGORITHMS if kind == MEMORY else [sw.label.format(v) for v in sw.values]
    if kind == INDEXING:
        firsts = [str(data["batch"] * (i + 1)) for i in range(len(sw.values))]
    assert _first_cells(render(data)) == firsts


def test_only_sizes_are_scaled(results):
    sw = SWEEPS[ONE_PER_KIND[ANSWERING]]
    cfg = results[ANSWERING]["configs"][0]
    assert cfg["label"] == sw.label.format(sw.values[0])
    scaled = {k: int(v * 0.02) if k in ("n_updates", "n_queries") else v
              for k, v in {**sw.base, sw.knob: sw.values[0]}.items()}
    assert cfg["workload"] == {**scaled, "seed": 0}
    assert set(cfg["results"]) == set(ALGORITHMS)


def test_indexing_renders_recorded_batch(results):
    data = results[INDEXING]
    assert data["batch"] == 2
    table = render(data)
    assert _first_cells(table) == ["2", "4", "6", "8", "10"]
    assert "batch of 2 queries" in table


def test_indexing_without_batch_renders_scale_one():
    """Results files written before ``batch`` was recorded were all at
    scale 1: batches of 100 queries."""
    data = {"title": "Fig 15", "batches": [{"tric": 0.01}] * 5}
    assert _first_cells(render(data)) == ["100", "200", "300", "400", "500"]
