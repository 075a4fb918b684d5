"""Outside-in span tracer for one TRIC/TRIC+ pass.

The program is not edited: :meth:`Tracer.install` replaces the public entry
points of each layer with wrappers that record one span per call (name,
start, end, parent) and restores them on :meth:`Tracer.remove`.  Spans live
in flat arrays while the pass runs and are written out once, at the end.
The hot ``View.add`` (millions of calls per pass) is not wrapped; row counts
come from ``View.add_all``'s arguments and results and from state read
after the pass.

A span's self time is its duration minus the time covered by its child
spans.  Root spans are ``process_update`` calls, one per update in stream
order, so the update a span belongs to is the ordinal of its root.
"""
from __future__ import annotations

import time
from array import array
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import repro.core.tric as tric_module
import repro.engine.assembler as assembler_module
from repro.core.tric import TricEngine
from repro.core.trie import TrieForest
from repro.engine.assembler import QueryAssembler
from repro.relational.relation import View

#: (owner, attribute, span name) of every wrapped entry point
TARGETS = [
    (TricEngine, "process_update", "runner.update"),
    (TrieForest, "affected_roots", "trie.route"),
    (TricEngine, "_descend", "tric.descend"),
    (View, "add_all", "relational.view_add"),
    (tric_module, "hash_join", "relational.join"),
    (assembler_module, "hash_join", "relational.join"),
    (QueryAssembler, "on_path_delta", "assembler.on_path_delta"),
    (QueryAssembler, "finish_update", "assembler.finish_update"),
]


class Tracer:
    """Span recorder plus the counts measured at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        #: nodes under each trie root, filled by :meth:`index_tries`
        self.trie_sizes: dict[int, int] = {}
        self.counts = {
            "roots": 0,
            "nodes_in_affected": 0,
            "rows_offered": 0,
            "rows_new": 0,
            "finish_hits": 0,
        }

    # -- recording ------------------------------------------------------
    def wrap(self, fn: Callable, name: str, count: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call; ``count(args, result)`` runs
        after the span closes (its cost lands in the parent's self time)."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        ids, start, end, parent, stack = self.name_ids, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(start)
            parent.append(stack[-1] if stack else -1)
            ids.append(nid)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if count is not None:
                count(args, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every entry point in :data:`TARGETS`."""
        counts = self.counts
        sizes = self.trie_sizes

        def count_roots(args, roots):
            counts["roots"] += len(roots)
            counts["nodes_in_affected"] += sum(sizes[id(r)] for r in roots)

        def count_rows(args, new):
            counts["rows_offered"] += len(args[1])
            counts["rows_new"] += len(new)

        def count_hit(args, hit):
            counts["finish_hits"] += bool(hit)

        hooks = {"trie.route": count_roots, "relational.view_add": count_rows,
                 "assembler.finish_update": count_hit}
        for owner, attr, name in TARGETS:
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self.wrap(orig, name, hooks.get(name)))

    def remove(self) -> None:
        """Restore the original entry points."""
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def index_tries(self, forest: TrieForest) -> None:
        """Record each trie's node count (the trie is fixed while answering)."""
        for root in forest.roots.values():
            self.trie_sizes[id(root)] = sum(1 for _ in root.walk())

    # -- results --------------------------------------------------------
    def _arrays(self):
        return (
            np.frombuffer(self.name_ids, dtype=np.uint16),
            np.frombuffer(self.start, dtype=np.int64),
            np.frombuffer(self.end, dtype=np.int64),
            np.frombuffer(self.parent, dtype=np.int32),
        )

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``self_ns`` and ``incl_ns`` (inclusive
        time, counting a span nested in a same-named span only once)."""
        name, start, end, parent = self._arrays()
        dur = end - start
        nested = parent >= 0
        child_ns = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_ns = dur - child_ns
        parent_name = np.where(nested, name[np.maximum(parent, 0)], -1)
        outermost = parent_name != name
        out = {}
        for nid, n in enumerate(self.names):
            mine = name == nid
            out[n] = {
                "calls": int(mine.sum()),
                "self_ns": float(self_ns[mine].sum()),
                "incl_ns": float(dur[mine & outermost].sum()),
            }
        return out

    def write(self, path: Path) -> None:
        name, start, end, parent = self._arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as f:
            np.savez(f, names=np.array(self.names), name=name, start=start, end=end, parent=parent)
