"""Algorithms INV / INV+ / INC / INC+ (paper §5.1–5.2).

Both index queries with inverted indexes at edge granularity (``edgeInd``:
signature → query ids, plus ``queryInd``: query id → covering paths) and keep
one base materialized view per distinct edge signature.  Neither clusters
queries — shared paths across queries are processed once *per query*.

* **INV**: per update, every affected query's covering paths are
  re-materialized **in full** by joining the base views left-to-right
  ("utilizes all tuples of each materialized view"), then the final
  cross-path join runs.  Nothing but the base views persists.
* **INC**: per update, only the update tuple is extended left/right along
  each affected path through the base views, yielding the path's *delta*
  ("makes use of only the update u_i"); per-(query, path) results persist in
  the shared assembler's canonical views.  Still no sharing across queries.
* The ``+`` variants cache the hash-join build structures: base views and
  assembler views keep incrementally maintained hash indexes (§4.2 Caching).
"""
from __future__ import annotations

from repro.engine.base import EngineOverflow
from repro.engine.paths import PathEngine, append_object, prepend_subject
from repro.graph.covering import CoverPath
from repro.graph.model import EdgeSig, QueryPattern, Triple
from repro.relational.relation import Row, hash_join


class _InvertedBase(PathEngine):
    """Shared indexing phase of INV and INC (§5.1 Steps 1–2)."""

    def __init__(self, cached: bool = False, max_rows: int = 2_000_000):
        super().__init__(cached, max_rows)
        #: edgeInd: signature -> query ids
        self.edge_ind: dict[EdgeSig, set[int]] = {}
        #: queryInd: qid -> (pattern, covering paths, per-path sig chains)
        self.query_ind: dict[int, tuple[QueryPattern, list[CoverPath], list[tuple[EdgeSig, ...]]]] = {}

    def _index(self, q, paths, chains) -> None:
        self.query_ind[q.qid] = (q, paths, chains)
        for chain in chains:
            for sig in chain:
                self.edge_ind.setdefault(sig, set()).add(q.qid)

    def _affected_queries(self, sigs: list[EdgeSig]) -> list[int]:
        qids: set[int] = set()
        for s in sigs:
            qids.update(self.edge_ind.get(s, ()))
        return sorted(qids)

    def _extend(
        self, qid: int, chain: tuple[EdgeSig, ...], rows: list[Row], lo: int, hi: int
    ) -> list[Row]:
        """Extend ``rows``, matches of the sub-path ``chain[lo:hi]``, left
        then right through the base views to matches of the whole path."""
        # leftward the first slot joins base.o; rightward the last slot
        # (slot i, once rows start at slot 0) joins base.s
        steps = [(i, 0, 1, prepend_subject) for i in range(lo - 1, -1, -1)]
        steps += [(i, i, 0, append_object) for i in range(hi, len(chain))]
        for i, probe_col, build_col, emit in steps:
            rows = hash_join(rows, (probe_col,), self.base[chain[i]], (build_col,), emit)
            if not rows:
                return []
            if len(rows) > self.max_rows:
                raise EngineOverflow(
                    f"{self.name}: Q{qid} path materialization exceeded {self.max_rows} rows"
                )
        return rows


class InvEngine(_InvertedBase):
    """Algorithm INV (``cached=False``) / INV+ (``cached=True``)."""

    family = "inv"

    def process_update(self, u: Triple) -> list[int]:
        sigs, _ = self._insert(u)
        out: list[int] = []
        for qid in self._affected_queries(sigs):
            _, _, chains = self.query_ind[qid]
            # Step 1 check: every edge of the query has a non-empty matV
            if not all(len(self.base[s]) for chain in chains for s in chain):
                continue
            asm = self.assemblers[qid]
            for pidx, chain in enumerate(chains):
                # full left-to-right materialization from the base views,
                # recomputed from scratch on every update (INV's cost)
                asm.on_path_delta(pidx, self._extend(qid, chain, self.base[chain[0]].rows, 0, 1))
            if asm.finish_update():
                out.append(qid)
            # INV's final join is always computed in full over all paths
            # (§5.1 Step 3) — no delta shortcut, unlike TRIC.
            asm.full_join_rows()
        return out


class IncEngine(_InvertedBase):
    """Algorithm INC (``cached=False``) / INC+ (``cached=True``)."""

    family = "inc"

    def process_update(self, u: Triple) -> list[int]:
        sigs, row = self._insert(u)
        sig_set = set(sigs)
        out: list[int] = []
        for qid in self._affected_queries(sigs):
            _, _, chains = self.query_ind[qid]
            asm = self.assemblers[qid]
            touched = False
            for pidx, chain in enumerate(chains):
                for k, sig in enumerate(chain):
                    if sig in sig_set:
                        # INC's incremental join: extend only the update
                        delta = self._extend(qid, chain, [row], k, k + 1)
                        if delta:
                            asm.on_path_delta(pidx, delta)
                            touched = True
            if touched and asm.finish_update():
                out.append(qid)
            # INC differs from INV only inside the *path* joins (§5.2);
            # the final join across paths is still computed in full.
            asm.full_join_rows()
        return out
