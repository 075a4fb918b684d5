"""Trie forest clustering covering paths by edge-signature chains (§4.1
Step 2, Figs. 6 & 8).

Data structures, named as in the paper:

* ``rootInd``  → :attr:`TrieForest.roots`: signature of a first edge → root.
* ``edgeInd``  → :attr:`TrieForest.edge_ind`: signature → the tries (roots)
  that index it somewhere, in creation order — the entry point of the
  answering phase.
* ``queryInd`` → :attr:`TrieForest.query_ind`: query id → the trie nodes its
  covering paths were registered under (the "last node" references of Fig. 8).

Each node additionally keeps ``subtree_sigs`` (every signature occurring in
its subtree) so the answering phase can prune sub-tries that cannot contain
the update's edge — the paper's pruning (Fig. 9 / Example 4) generalized to
the case where one signature occurs at several depths (BioGRID-style).
"""
from __future__ import annotations

from repro.graph.covering import CoverPath
from repro.graph.model import EdgeSig, QueryPattern
from repro.relational.relation import View


class TrieNode:
    """One trie node indexing one edge signature at depth ``depth``.

    Its materialized view holds every embedding of the root→node signature
    chain into the current graph, as ``depth + 2`` vertex-label slots.
    """

    __slots__ = ("sig", "depth", "children", "matv", "registered", "subtree_sigs")

    def __init__(self, sig: EdgeSig, depth: int, cached: bool):
        self.sig = sig
        self.depth = depth
        self.children: dict[EdgeSig, TrieNode] = {}
        self.matv = View(arity=depth + 2, cached=cached)
        self.registered: list[tuple[int, int]] = []  # (qid, path_idx)
        self.subtree_sigs: set[EdgeSig] = {sig}

    def walk(self):
        """DFS iterator over this subtree (self first)."""
        yield self
        for c in self.children.values():
            yield from c.walk()


class TrieForest:
    """The forest of tries plus the paper's three index structures."""

    def __init__(self, cached: bool):
        self.cached = cached
        self.roots: dict[EdgeSig, TrieNode] = {}  # rootInd
        self.edge_ind: dict[EdgeSig, dict[TrieNode, None]] = {}  # sig -> ordered set of roots
        self.query_ind: dict[int, list[TrieNode]] = {}  # queryInd

    def insert_path(self, q: QueryPattern, pidx: int, path: CoverPath) -> TrieNode:
        """Index one covering path (Fig. 6): descend along the existing trie
        path that matches the signature chain, creating the missing suffix,
        then register the query id at the last node."""
        chain = path.sig_chain(q)
        root_sig = chain[0]
        root = self.roots.get(root_sig)
        if root is None:
            root = self.roots[root_sig] = TrieNode(root_sig, 0, self.cached)
        node = root
        ancestors = [node]
        for d, sig in enumerate(chain[1:], start=1):
            child = node.children.get(sig)
            if child is None:
                child = node.children[sig] = TrieNode(sig, d, self.cached)
            node = child
            ancestors.append(node)
        for sig in chain:
            self.edge_ind.setdefault(sig, {})[root] = None
        for a in ancestors:
            a.subtree_sigs.update(chain[a.depth:])
        node.registered.append((q.qid, pidx))
        self.query_ind.setdefault(q.qid, []).append(node)
        return node

    def affected_roots(self, sigs: list[EdgeSig]) -> list[TrieNode]:
        """Tries containing any of the update's signatures (answering Step 1),
        each once.  Their order cannot change any view or event: each trie
        owns its views, and each covering path is registered at one node."""
        return list(dict.fromkeys(r for s in sigs for r in self.edge_ind.get(s, ())))

    # -- introspection used by tests -----------------------------------
    def n_nodes(self) -> int:
        return sum(1 for r in self.roots.values() for _ in r.walk())

    def all_nodes(self) -> list[TrieNode]:
        return [n for r in self.roots.values() for n in r.walk()]
