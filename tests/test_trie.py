"""Trie forest (rootInd / edgeInd / queryInd) — clustering behaviour, incl.
the paper's Fig. 5/8 worked example."""
import pytest

from repro.core.trie import TrieForest
from repro.graph.covering import covering_paths
from repro.graph.model import QueryPattern


def index_query(forest: TrieForest, q: QueryPattern):
    paths = covering_paths(q)
    for pidx, p in enumerate(paths):
        forest.insert_path(q, pidx, p)
    return paths


def fig5_queries():
    """The four query graph patterns of the paper's Fig. 5(a)."""
    q1 = QueryPattern(
        qid=1,
        vertices=[None, None, "pst1", "pst2", None],
        edges=[(0, "hasMod", 1), (1, "posted", 2), (1, "posted", 3), (4, "reply", 3)],
    )
    q2 = QueryPattern(qid=2, vertices=[None, None], edges=[(0, "hasMod", 1)])
    q3 = QueryPattern(
        qid=3,
        vertices=["com1", None, "pst1", None],
        edges=[(0, "hasCreator", 1), (1, "posted", 2), (2, "containedIn", 3)],
    )
    q4 = QueryPattern(
        qid=4,
        vertices=[None, None, "pst1", None],
        edges=[(0, "hasMod", 1), (1, "posted", 2), (2, "containedIn", 3)],
    )
    return [q1, q2, q3, q4]


class TestInsertPath:
    def test_single_path_creates_chain(self):
        f = TrieForest(cached=False)
        q = QueryPattern(
            qid=0, vertices=[None, None, None], edges=[(0, "a", 1), (1, "b", 2)]
        )
        index_query(f, q)
        assert len(f.roots) == 1
        root = next(iter(f.roots.values()))
        assert root.sig == ("a", None, None)
        assert list(root.children.values())[0].sig == ("b", None, None)
        assert f.n_nodes() == 2

    def test_shared_prefix_shares_nodes(self):
        f = TrieForest(cached=False)
        qa = QueryPattern(
            qid=0, vertices=[None, None, "x"], edges=[(0, "a", 1), (1, "b", 2)]
        )
        qb = QueryPattern(
            qid=1, vertices=[None, None, "y"], edges=[(0, "a", 1), (1, "c", 2)]
        )
        index_query(f, qa)
        index_query(f, qb)
        # one root 'a', two children b/c — 3 nodes, not 4
        assert len(f.roots) == 1
        assert f.n_nodes() == 3

    def test_identical_paths_fully_shared(self):
        f = TrieForest(cached=False)
        for qid in range(5):
            q = QueryPattern(
                qid=qid, vertices=[None, None, None], edges=[(0, "a", 1), (1, "b", 2)]
            )
            index_query(f, q)
        assert f.n_nodes() == 2
        leaf = list(next(iter(f.roots.values())).children.values())[0]
        assert len(leaf.registered) == 5

    def test_query_registered_at_last_node(self):
        f = TrieForest(cached=False)
        q = QueryPattern(
            qid=7, vertices=[None, None, None], edges=[(0, "a", 1), (1, "b", 2)]
        )
        index_query(f, q)
        root = next(iter(f.roots.values()))
        leaf = list(root.children.values())[0]
        assert root.registered == []
        assert leaf.registered == [(7, 0)]
        assert f.query_ind[7] == [leaf]

    def test_subtree_sigs(self):
        f = TrieForest(cached=False)
        q = QueryPattern(
            qid=0, vertices=[None, None, None], edges=[(0, "a", 1), (1, "b", 2)]
        )
        index_query(f, q)
        root = next(iter(f.roots.values()))
        assert root.subtree_sigs == {("a", None, None), ("b", None, None)}
        child = list(root.children.values())[0]
        assert child.subtree_sigs == {("b", None, None)}

    def test_edge_ind_points_to_tries(self):
        f = TrieForest(cached=False)
        q = QueryPattern(
            qid=0, vertices=[None, None, None], edges=[(0, "a", 1), (1, "b", 2)]
        )
        index_query(f, q)
        assert {r.sig for r in f.edge_ind[("a", None, None)]} == {("a", None, None)}
        assert {r.sig for r in f.edge_ind[("b", None, None)]} == {("a", None, None)}

    def test_affected_roots_none_safe_and_deduped(self):
        f = TrieForest(cached=False)
        qa = QueryPattern(qid=0, vertices=[None, "x"], edges=[(0, "a", 1)])
        qb = QueryPattern(qid=1, vertices=[None, None], edges=[(0, "a", 1)])
        index_query(f, qa)
        index_query(f, qb)
        roots = f.affected_roots([("a", None, "x"), ("a", None, None)])
        assert len(roots) == 2  # two distinct tries, each returned once


class TestPaperFig8:
    """Clustering of Fig. 5(b)'s covering paths, per Fig. 8."""

    def test_clustering(self):
        f = TrieForest(cached=False)
        for q in fig5_queries():
            index_query(f, q)
        # Tries rooted at hasMod, reply, hasCreator (paper's T1, T2, T3)
        assert set(f.roots) == {
            ("hasMod", None, None),
            ("reply", None, "pst2"),
            ("hasCreator", "com1", None),
        }
        # T1 clusters Q1.P1, Q1.P2, Q2.P1 and Q4.P1:
        t1 = f.roots[("hasMod", None, None)]
        assert {qid for n in t1.walk() for qid, _ in n.registered} == {1, 2, 4}
        # posted=(?var,pst1) appears under both T1 (Q1/Q4) and T3 (Q3)
        assert {r.sig for r in f.edge_ind[("posted", None, "pst1")]} == {
            ("hasMod", None, None),
            ("hasCreator", "com1", None),
        }
        # Q1 was registered under 3 nodes (its 3 covering paths)
        assert len(f.query_ind[1]) == 3

    def test_shared_posted_pst1_node(self):
        f = TrieForest(cached=False)
        for q in fig5_queries():
            index_query(f, q)
        t1 = f.roots[("hasMod", None, None)]
        # hasMod -> posted:pst1 shared by Q1.P1 and Q4.P1 prefix
        child = t1.children[("posted", None, "pst1")]
        regs = {qid for qid, _ in child.registered}
        assert 1 in regs  # Q1's P1 terminates here
        # Q4 continues below with containedIn
        assert ("containedIn", "pst1", None) in child.children


@pytest.mark.parametrize("cached", [False, True])
def test_cached_flag_propagates_to_views(cached):
    f = TrieForest(cached=cached)
    q = QueryPattern(qid=0, vertices=[None, None], edges=[(0, "a", 1)])
    index_query(f, q)
    root = next(iter(f.roots.values()))
    assert root.matv.cached is cached
