"""QueryAssembler: canonicalization, cycle closure, components, delta and
full final joins."""
import pytest

from repro.engine.assembler import QueryAssembler
from repro.engine.base import EngineOverflow
from repro.graph.covering import covering_paths
from repro.graph.model import QueryPattern


def make(q, cached=False, max_rows=2_000_000):
    paths = covering_paths(q)
    return QueryAssembler(q, paths, cached, max_rows), paths


class TestCanon:
    def test_projects_out_literal_slots(self):
        q = QueryPattern(
            qid=0, vertices=[None, "L", None], edges=[(0, "a", 1), (1, "b", 2)]
        )
        asm, paths = make(q)
        assert asm.path_vars[0] == (0, 2)
        rows = asm.canon(0, [("x", "L", "y")])
        assert rows == [("x", "y")]

    def test_cycle_closure_filters_inconsistent_rows(self):
        # 2-cycle: v0 -a-> v1 -b-> v0; single covering path revisits v0
        q = QueryPattern(qid=0, vertices=[None, None], edges=[(0, "a", 1), (1, "b", 0)])
        asm, paths = make(q)
        assert paths[0].slots == (0, 1, 0)
        assert asm.canon(0, [("x", "y", "x")]) == [("x", "y")]
        assert asm.canon(0, [("x", "y", "z")]) == []  # closure violated

    def test_all_literal_path_canon_is_unit(self):
        q = QueryPattern(qid=0, vertices=["A", "B"], edges=[(0, "a", 1)])
        asm, _ = make(q)
        assert asm.canon(0, [("A", "B")]) == [()]


class TestComponents:
    def test_single_path_single_component(self):
        q = QueryPattern(qid=0, vertices=[None, None], edges=[(0, "a", 1)])
        asm, _ = make(q)
        assert len(asm.components) == 1

    def test_var_disjoint_paths_split_components(self):
        # two paths joined only through the literal middle vertex
        q = QueryPattern(
            qid=0,
            vertices=[None, "M", None],
            edges=[(0, "a", 1), (1, "b", 2)],
        )
        asm, paths = make(q)
        if len(paths) == 1:
            pytest.skip("extractor produced a single chain path")
        assert len(asm.components) == 2

    def test_shared_var_merges_components(self):
        # star: ?c -a-> X, ?c -b-> Y : two paths sharing variable 0
        q = QueryPattern(
            qid=0, vertices=[None, "X", "Y"], edges=[(0, "a", 1), (0, "b", 2)]
        )
        asm, paths = make(q)
        assert len(paths) == 2
        assert len(asm.components) == 1


class TestDeltaSemantics:
    def star(self):
        return QueryPattern(
            qid=0, vertices=[None, "X", "Y"], edges=[(0, "a", 1), (0, "b", 2)]
        )

    def test_no_delta_no_emit(self):
        asm, _ = make(self.star())
        assert asm.finish_update() is False

    def test_partial_paths_do_not_emit(self):
        asm, _ = make(self.star())
        asm.on_path_delta(0, [("c1", "X")])
        assert asm.finish_update() is False

    def test_emits_when_all_paths_join(self):
        asm, _ = make(self.star())
        asm.on_path_delta(0, [("c1", "X")])
        asm.finish_update()
        asm.on_path_delta(1, [("c1", "Y")])
        assert asm.finish_update() is True

    def test_join_on_shared_var_enforced(self):
        asm, _ = make(self.star())
        asm.on_path_delta(0, [("c1", "X")])
        asm.finish_update()
        asm.on_path_delta(1, [("c2", "Y")])  # different center
        assert asm.finish_update() is False

    def test_duplicate_slot_rows_do_not_reemit(self):
        q = QueryPattern(qid=0, vertices=[None, None], edges=[(0, "a", 1)])
        asm, _ = make(q)
        asm.on_path_delta(0, [("x", "y")])
        assert asm.finish_update() is True
        asm.on_path_delta(0, [("x", "y")])
        assert asm.finish_update() is False

    def test_disjoint_components_emit_when_both_satisfied(self):
        q = QueryPattern(
            qid=0, vertices=[None, "M", None], edges=[(0, "a", 1), (1, "b", 2)]
        )
        asm, paths = make(q)
        if len(paths) == 1:
            pytest.skip("single chain path")
        asm.on_path_delta(0, [("x", "M")])
        assert asm.finish_update() is False  # other component unsatisfied
        asm.on_path_delta(1, [("M", "y")])
        assert asm.finish_update() is True

    @pytest.mark.parametrize("cached", [False, True])
    def test_cached_equals_uncached(self, cached):
        q = QueryPattern(
            qid=0,
            vertices=[None, None, None],
            edges=[(0, "a", 1), (1, "b", 2), (0, "c", 2)],
        )
        asm, paths = make(q, cached=cached)
        emits = []
        seq = [
            (0, [("u", "v", "w")]),
            (1, [("u", "w")]),
            (0, [("u2", "v2", "w2")]),
            (1, [("u2", "w2")]),
        ]
        # map seq path indexes onto actual extracted paths by length
        by_len = sorted(range(len(paths)), key=lambda i: -len(paths[i]))
        for pidx, rows in seq:
            # rows sized for: path0 = 2 edges (3 slots), path1 = 1 edge (2 slots)
            target = by_len[0] if len(rows[0]) == 3 else by_len[-1]
            asm.on_path_delta(target, rows)
            emits.append(asm.finish_update())
        assert emits == [False, True, False, True]


class TestFullJoin:
    def test_counts_rows(self):
        q = QueryPattern(
            qid=0, vertices=[None, "X", "Y"], edges=[(0, "a", 1), (0, "b", 2)]
        )
        asm, _ = make(q)
        asm.on_path_delta(0, [("c1", "X"), ("c2", "X")])
        asm.on_path_delta(1, [("c1", "Y")])
        asm.finish_update()
        assert asm.full_join_rows() == 1

    def test_empty_path_prunes(self):
        q = QueryPattern(
            qid=0, vertices=[None, "X", "Y"], edges=[(0, "a", 1), (0, "b", 2)]
        )
        asm, _ = make(q)
        asm.on_path_delta(0, [("c1", "X")])
        asm.finish_update()
        assert asm.full_join_rows() == 0

    def blowup_query(self):
        # star on shared center variable: 20 x 20 join rows >> cap
        return QueryPattern(
            qid=0, vertices=[None, None, None], edges=[(0, "a", 1), (0, "b", 2)]
        )

    def test_delta_join_overflow_raises(self):
        asm, _ = make(self.blowup_query(), max_rows=10)
        asm.on_path_delta(0, [("m", f"x{i}") for i in range(20)])
        asm.finish_update()
        asm.on_path_delta(1, [("m", f"y{i}") for i in range(20)])
        with pytest.raises(EngineOverflow):
            asm.finish_update()

    def test_full_join_overflow_raises(self):
        asm, _ = make(self.blowup_query(), max_rows=10)
        asm.on_path_delta(0, [("m", f"x{i}") for i in range(20)])
        asm.on_path_delta(1, [("m", f"y{i}") for i in range(20)])
        with pytest.raises(EngineOverflow):
            asm.finish_update()
        with pytest.raises(EngineOverflow):
            asm.full_join_rows()
