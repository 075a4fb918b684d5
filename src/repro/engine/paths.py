"""Shared core of the covering-path engines: TRIC (§4) and INV/INC (§5).

All three families decompose each query into covering paths, keep one base
materialized view ``matV[e_i]`` per distinct edge signature, and decide
whether an update completed a query with the shared
:class:`~repro.engine.assembler.QueryAssembler` (the final join across
paths).  They differ only in how covering-path matches are materialized —
shared trie deltas (TRIC), full re-joins (INV), or extensions of the update
tuple alone (INC) — which each family implements in ``_index`` and
``process_update``.  ``cached=True`` gives the ``+`` variant of a family:
every view keeps its hash indexes incrementally (§4.2 Caching).
"""
from __future__ import annotations

from abc import abstractmethod

from repro.engine.assembler import QueryAssembler
from repro.engine.base import Engine
from repro.graph.covering import CoverPath, covering_paths
from repro.graph.model import EdgeSig, QueryPattern, Triple, update_sigs
from repro.relational.relation import Row, View


def append_object(pr: Row, br: Row) -> Row:
    """Path slot tuple ``pr`` extended rightward by base row ``br``'s object."""
    return pr + (br[1],)


def prepend_subject(pr: Row, br: Row) -> Row:
    """Path slot tuple ``pr`` extended leftward by base row ``br``'s subject."""
    return (br[0],) + pr


class PathEngine(Engine):
    """Indexing phase and base-view upkeep common to TRIC, INV and INC."""

    #: family name; the ``+`` variant appends ``"+"``
    family = "?"

    def __init__(self, cached: bool = False, max_rows: int = 2_000_000):
        self.cached = cached
        self.name = self.family + "+" if cached else self.family
        self.max_rows = max_rows
        #: base materialized view per edge signature (matV[e_i], §4.1)
        self.base: dict[EdgeSig, View] = {}
        self.assemblers: dict[int, QueryAssembler] = {}

    def add_query(self, q: QueryPattern) -> None:
        q.validate()
        paths = covering_paths(q)
        chains = [p.sig_chain(q) for p in paths]
        self._index(q, paths, chains)
        for chain in chains:
            for sig in chain:
                if sig not in self.base:
                    self.base[sig] = View(arity=2, cached=self.cached)
        self.assemblers[q.qid] = QueryAssembler(q, paths, self.cached, self.max_rows)

    @abstractmethod
    def _index(
        self, q: QueryPattern, paths: list[CoverPath], chains: list[tuple[EdgeSig, ...]]
    ) -> None:
        """Family-specific index of one query's covering paths."""

    def _insert(self, u: Triple) -> tuple[list[EdgeSig], Row]:
        """Add ``u`` to the base view of every indexed signature it matches,
        before any path join of this update reads them; returns the
        signatures whose base view *gained* ``u``, and ``u``'s row.

        A repeated edge gains none, so the family routes, descends and joins
        nothing for it: the stream is a set of edges.  This is exact per
        signature because every base view exists from indexing onward."""
        row: Row = (u.s, u.o)
        base = self.base
        sigs = [s for s in update_sigs(u) if s in base and base[s].add(row)]
        return sigs, row
