"""Per-query final join across covering paths (paper Fig. 9, lines 8–13).

Every engine decomposes queries into covering paths and materializes path
matches somehow (TRIC: shared trie views; INC: per-query increments; INV:
full recomputation; the graph DB bypasses this module).  What is common is
the last step: when a path receives *new* matches, join them with the other
paths' matches **on the query vertices the paths share** ("intersection"
information, §4.1) to decide whether new full-query embeddings appeared.

The assembler keeps, per covering path, a *canonical* view: slot tuples
projected to the path's distinct variable vertices (literal slots carry no
information — their values are fixed by the edge signatures), after checking
within-path consistency of repeated vertices (this is where a cycle's
closure constraint is enforced, since tries index paths obliviously to it).

Paths are grouped into variable-connected components; a component is
*satisfied* monotonically once a cross-path join over it succeeds.  A new
full-query embedding exists after an update iff some component had a
successful delta join this update and all components are satisfied.
"""
from __future__ import annotations

from repro.engine.base import EngineOverflow
from repro.graph.covering import CoverPath
from repro.graph.model import QueryPattern
from repro.relational.relation import Row, View, hash_join


class QueryAssembler:
    """Final-join state machine for one indexed query."""

    def __init__(
        self,
        q: QueryPattern,
        paths: list[CoverPath],
        cached: bool,
        max_rows: int = 2_000_000,
    ):
        self.q = q
        self.cached = cached
        self.max_rows = max_rows

        # per path: ordered distinct variable vids + their slot positions
        self.path_vars: list[tuple[int, ...]] = []
        self._var_positions: list[dict[int, list[int]]] = []
        for p in paths:
            order: list[int] = []
            pos: dict[int, list[int]] = {}
            for i, vid in enumerate(p.slots):
                if q.vertices[vid] is not None:
                    continue  # literal slot: value fixed by signature
                if vid not in pos:
                    pos[vid] = []
                    order.append(vid)
                pos[vid].append(i)
            self.path_vars.append(tuple(order))
            self._var_positions.append(pos)

        self.canon_views = [
            View(arity=len(v), cached=cached) for v in self.path_vars
        ]

        # variable-connected components of paths (union-find)
        parent = list(range(len(paths)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        var_owner: dict[int, int] = {}
        for i, vs in enumerate(self.path_vars):
            for v in vs:
                if v in var_owner:
                    parent[find(i)] = find(var_owner[v])
                else:
                    var_owner[v] = i
        self.path_comp = [find(i) for i in range(len(paths))]
        self.components = sorted(set(self.path_comp))
        self.comp_satisfied: dict[int, bool] = {c: False for c in self.components}
        #: per component, its member paths in index order
        self.members: dict[int, list[int]] = {
            c: [j for j, cj in enumerate(self.path_comp) if cj == c] for c in self.components
        }

        self._pending: dict[int, list[Row]] = {}

    # ------------------------------------------------------------------
    def canon(self, pidx: int, slot_rows: list[Row]) -> list[Row]:
        """Project slot tuples to the path's variable bindings, dropping rows
        whose repeated-vertex positions disagree (cycle closure)."""
        pos = self._var_positions[pidx]
        order = self.path_vars[pidx]
        out: list[Row] = []
        for r in slot_rows:
            ok = True
            vals = []
            for v in order:
                ps = pos[v]
                val = r[ps[0]]
                for extra in ps[1:]:
                    if r[extra] != val:
                        ok = False
                        break
                if not ok:
                    break
                vals.append(val)
            if ok:
                out.append(tuple(vals))
        return out

    def on_path_delta(self, pidx: int, slot_rows: list[Row]) -> None:
        """Feed newly materialized slot tuples for one covering path."""
        if not slot_rows:
            return
        new = self.canon_views[pidx].add_all(self.canon(pidx, slot_rows))
        if new:
            self._pending.setdefault(pidx, []).extend(new)

    def finish_update(self) -> bool:
        """Close the update: returns True iff new full-query embeddings exist."""
        if not self._pending:
            return False
        delta_success = False
        for pidx, delta in self._pending.items():
            comp = self.path_comp[pidx]
            if self._join(pidx, delta, self.members[comp]):
                self.comp_satisfied[comp] = True
                delta_success = True
        self._pending.clear()
        return delta_success and all(self.comp_satisfied.values())

    def full_join_rows(self) -> int:
        """Full (non-delta) cross-path join over all canonical views — the
        final-join work INV and INC perform per affected query (paper §5.1
        Step 3: "performs the final join operation among all the paths").

        Joins run per variable-connected component (cross-component products
        are not materialized); returns the number of result rows computed.
        """
        total = 0
        for members in self.members.values():
            # smallest view first; an empty one prunes the component
            first = min(members, key=lambda j: len(self.canon_views[j]))
            total += len(self._join(first, self.canon_views[first].rows, members))
        return total

    def _join(self, start: int, rows: list[Row], members: list[int]) -> list[Row]:
        """Join ``rows`` (bindings of path ``start``'s variables) with the
        canonical views of the other ``members`` of its component, always
        next with the smallest view sharing a variable.  Returns ``[]`` as
        soon as the result is empty; raises :class:`EngineOverflow` past
        ``max_rows`` — the row-cap analogue of the paper's execution-time
        threshold."""
        views, path_vars = self.canon_views, self.path_vars
        remaining = [j for j in members if j != start]
        # fast bail: a partner with no matches yet kills the join
        if any(len(views[j]) == 0 for j in remaining):
            return []
        acc = rows
        acc_vars = list(path_vars[start])
        while remaining and acc:
            # next path sharing a variable with the accumulator (exists by
            # construction of components); prefer the smallest view
            cands = [j for j in remaining if any(v in acc_vars for v in path_vars[j])]
            j = min(cands, key=lambda x: len(views[x]))
            shared = [v for v in path_vars[j] if v in acc_vars]
            probe_key = tuple(acc_vars.index(v) for v in shared)
            build_key = tuple(path_vars[j].index(v) for v in shared)
            new_cols = tuple(i for i, v in enumerate(path_vars[j]) if v not in acc_vars)

            def emit(pr: Row, br: Row, cols=new_cols) -> Row:
                return pr + tuple(br[c] for c in cols)

            acc = hash_join(acc, probe_key, views[j], build_key, emit)
            if len(acc) > self.max_rows:
                raise EngineOverflow(
                    f"Q{self.q.qid}: cross-path join exceeded {self.max_rows} rows"
                )
            acc_vars += [path_vars[j][c] for c in new_cols]
            remaining.remove(j)
        return acc
