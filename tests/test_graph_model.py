"""Unit tests for the graph/query model (repro.graph.model)."""
import pytest

from repro.graph.model import (
    QueryPattern,
    Triple,
    sig_matches,
    update_sigs,
)


def chain(qid=0, terms=("a", None, "b"), preds=("p1", "p2")):
    return QueryPattern(
        qid=qid,
        vertices=list(terms),
        edges=[(i, preds[i], i + 1) for i in range(len(preds))],
    )


class TestUpdateSigs:
    def test_four_signatures_most_specific_first(self):
        u = Triple("a", "p", "b")
        assert update_sigs(u) == (
            ("p", "a", "b"),
            ("p", "a", None),
            ("p", None, "b"),
            ("p", None, None),
        )

    def test_all_signatures_match_their_update(self):
        u = Triple("a", "p", "b")
        for sig in update_sigs(u):
            assert sig_matches(sig, u)


class TestSigMatches:
    @pytest.mark.parametrize(
        "sig,expect",
        [
            (("p", None, None), True),
            (("p", "a", None), True),
            (("p", None, "b"), True),
            (("p", "a", "b"), True),
            (("q", None, None), False),
            (("p", "x", None), False),
            (("p", None, "x"), False),
            (("p", "a", "x"), False),
        ],
    )
    def test_matrix(self, sig, expect):
        assert sig_matches(sig, Triple("a", "p", "b")) is expect


class TestQueryPattern:
    def test_edge_sig_literal_and_var(self):
        q = chain()
        assert q.edge_sig(0) == ("p1", "a", None)
        assert q.edge_sig(1) == ("p2", None, "b")

    def test_connected(self):
        assert chain().is_connected()

    def test_disconnected_rejected(self):
        q = QueryPattern(
            qid=1,
            vertices=[None, None, None, None],
            edges=[(0, "p", 1), (2, "p", 3)],
        )
        assert not q.is_connected()
        with pytest.raises(ValueError, match="not connected"):
            q.validate()

    def test_no_edges_rejected(self):
        with pytest.raises(ValueError, match="no edges"):
            QueryPattern(qid=1, vertices=[None], edges=[]).validate()

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            QueryPattern(qid=1, vertices=[None], edges=[(0, "p", 3)]).validate()

    def test_isolated_vertex_rejected(self):
        q = QueryPattern(qid=1, vertices=[None, None, "x"], edges=[(0, "p", 1)])
        with pytest.raises(ValueError, match="isolated"):
            q.validate()

    def test_empty_predicate_rejected(self):
        q = QueryPattern(qid=1, vertices=[None, None], edges=[(0, "", 1)])
        with pytest.raises(ValueError, match="empty predicate"):
            q.validate()

    def test_self_loop_allowed(self):
        q = QueryPattern(qid=1, vertices=[None], edges=[(0, "p", 0)])
        q.validate()
        assert q.is_connected()

    def test_multigraph_allowed(self):
        q = QueryPattern(
            qid=1, vertices=[None, None], edges=[(0, "p", 1), (0, "q", 1)]
        )
        q.validate()

