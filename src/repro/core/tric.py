"""TRIC / TRIC+ — the paper's contribution (§4).

Indexing (§4.1): each query is decomposed into covering paths, which are
clustered into the :class:`~repro.core.trie.TrieForest`; shared path
prefixes across queries share trie nodes and therefore share materialized
views and join work.

Answering (§4.2): for update ``u``, the affected tries come from ``edgeInd``;
each is traversed top-down computing *delta* views semi-naively:

    Δ(child) = Δ(parent) ⋈ base[child.sig]  ∪  old(parent) ⋈ {u}

(the second term only where the child's signature matches ``u``).  Sub-tries
with an empty delta and no matching signature below are pruned.  Queries
registered at nodes that received deltas are assembled via the shared
:class:`~repro.engine.assembler.QueryAssembler` (final join across covering
paths).  ``cached=True`` gives TRIC+: all views keep their hash-join build
structures (indexes) incrementally instead of rebuilding them per join.
"""
from __future__ import annotations

from repro.core.trie import TrieForest, TrieNode
from repro.engine.paths import PathEngine, append_object
from repro.graph.model import EdgeSig, Triple
from repro.relational.relation import Row, hash_join


class TricEngine(PathEngine):
    """Algorithm TRIC (``cached=False``) / TRIC+ (``cached=True``)."""

    family = "tric"

    def __init__(self, cached: bool = False, max_rows: int = 2_000_000):
        super().__init__(cached, max_rows)
        self.forest = TrieForest(cached)

    # -- indexing phase -------------------------------------------------
    def _index(self, q, paths, chains) -> None:
        for pidx, p in enumerate(paths):
            self.forest.insert_path(q, pidx, p)

    # -- answering phase ------------------------------------------------
    def process_update(self, u: Triple) -> list[int]:
        # base views first: trie deltas join against base *including* u
        sigs, row = self._insert(u)
        sig_set = set(sigs)
        affected: set[int] = set()
        for root in self.forest.affected_roots(sigs):
            root_delta = root.matv.add_all([row]) if root.sig in sig_set else []
            self._descend(root, root_delta, sig_set, affected, row)
        return [qid for qid in sorted(affected) if self.assemblers[qid].finish_update()]

    def _descend(
        self,
        node: TrieNode,
        delta: list[Row],
        sig_set: set[EdgeSig],
        affected: set[int],
        u_row: Row,
    ) -> None:
        if delta and node.registered:
            for qid, pidx in node.registered:
                self.assemblers[qid].on_path_delta(pidx, delta)
                affected.add(qid)
        last = node.depth + 1
        u_s, u_o = u_row
        for child in node.children.values():
            below = not sig_set.isdisjoint(child.subtree_sigs)
            # pruning: nothing below can change
            if not delta and not below:
                continue
            rows = []
            if delta:
                rows = hash_join(delta, (last,), self.base[child.sig], (0,), append_object)
            if child.sig in sig_set:
                # old(parent) ⋈ {u}: parent rows whose last slot is u's
                # source.  Those from Δ(parent) are already in ``rows``
                # (base holds u), so the child view drops them as repeats.
                rows += [pr + (u_o,) for pr in node.matv.select(last, u_s)]
            child_delta = child.matv.add_all(rows) if rows else []
            if child_delta or below:
                self._descend(child, child_delta, sig_set, affected, u_row)
