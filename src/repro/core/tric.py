"""TRIC / TRIC+ — the paper's contribution (§4).

Indexing (§4.1): each query is decomposed into covering paths, which are
clustered into the :class:`~repro.core.trie.TrieForest`; shared path
prefixes across queries share trie nodes and therefore share materialized
views and join work.

Answering (§4.2): for update ``u``, the affected tries come from ``edgeInd``;
each is traversed top-down computing *delta* views semi-naively:

    Δ(child) = Δ(parent) ⋈ base[child.sig]  ∪  old(parent) ⋈ {u}

(the second term only where the child's signature matches ``u``).  The
descent enters a node only if it just received a delta, or if ``u``'s
signatures occur in its subtree *and* its view is non-empty; every other
sub-trie is pruned.  The second condition is exact because trie views are
prefix-closed (each child row is a parent row plus one vertex), so below an
empty view every view is empty and neither term can produce a row.  Queries
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
        # base views first: trie deltas join against base *including* u.
        # A repeated edge gains no base view, so no trie is routed to.
        sigs, row = self._insert(u)
        sig_set = set(sigs)
        affected: set[int] = set()
        for root in self.forest.affected_roots(sigs):
            root_delta = root.matv.add_all([row]) if root.sig in sig_set else []
            if root_delta or root.matv.rows:
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
        """Propagate ``node``'s delta to its children; ``node``'s view is
        non-empty (it holds ``delta``, or the descent would have stopped)."""
        if delta and node.registered:
            for qid, pidx in node.registered:
                self.assemblers[qid].on_path_delta(pidx, delta)
                affected.add(qid)
        last = node.depth + 1
        u_s, u_o = u_row
        for child in node.children.values():
            rows = []
            if delta:
                rows = hash_join(delta, (last,), self.base[child.sig], (0,), append_object)
            if child.sig in sig_set:
                # old(parent) ⋈ {u}: parent rows whose last slot is u's
                # source.  Those from Δ(parent) are already in ``rows``
                # (base holds u), so the child view drops them as repeats.
                rows += [pr + (u_o,) for pr in node.matv.select(last, u_s)]
            child_delta = child.matv.add_all(rows) if rows else []
            # pruning: below an empty view nothing can change (prefix closure)
            if child_delta or (child.matv.rows and not sig_set.isdisjoint(child.subtree_sigs)):
                self._descend(child, child_delta, sig_set, affected, u_row)
