"""Naive brute-force BGP matcher — an *independent* correctness oracle.

Deliberately written in the most obvious way (per-edge candidate scan +
recursive consistency check, no indexes, no join ordering) so that it shares
no code with the engines under test.  Only usable for small graphs/tests.
"""
from __future__ import annotations

from typing import Iterator, Sequence

from repro.graph.model import QueryPattern, Triple


def _bindings(
    q: QueryPattern, stream: Sequence[Triple]
) -> Iterator[tuple[tuple[str, ...], int]]:
    """Each distinct embedding of ``q`` into ``stream`` with its time: the
    update index at which it completes, i.e. the first arrival of its
    latest-arriving triple.

    An embedding is a tuple over ``q``'s vertex ids in order (literal
    positions included, holding their literal).  A binding fixes the triple
    of every edge, so each embedding has exactly one time.
    """
    arrival: dict[Triple, int] = {}
    for i, t in enumerate(stream):
        arrival.setdefault(t, i)

    binds: list[tuple[dict[int, str], int]] = [({}, -1)]
    for s_vid, p, o_vid in q.edges:
        nxt: dict[tuple, tuple[dict[int, str], int]] = {}
        for b, tm in binds:
            for t in arrival:
                if t.p != p:
                    continue
                s_term = q.vertices[s_vid] if q.vertices[s_vid] is not None else b.get(s_vid)
                o_term = q.vertices[o_vid] if q.vertices[o_vid] is not None else b.get(o_vid)
                if s_term is not None and s_term != t.s:
                    continue
                if o_term is not None and o_term != t.o:
                    continue
                nb = dict(b)
                nb[s_vid] = t.s
                nb[o_vid] = t.o
                nxt[tuple(sorted(nb.items()))] = (nb, max(tm, arrival[t]))  # dedup per step
        binds = list(nxt.values())
    for b, tm in binds:
        yield tuple(b[v] for v in range(len(q.vertices))), tm


def embeddings(q: QueryPattern, triples: Sequence[Triple]) -> list[tuple[str, ...]]:
    """All homomorphic embeddings of ``q`` into ``triples``, sorted."""
    return sorted(e for e, _ in _bindings(q, triples))


def match_times(q: QueryPattern, stream: Sequence[Triple]) -> set[int]:
    """Update indexes ``t`` at which a new embedding of ``q`` completes,
    i.e. ``stream[t]`` is the latest-arriving triple of some embedding.

    Computed from embeddings over the *final* graph with arrival times, which
    is equivalent because updates are additions only (monotone).  A
    triple's arrival is its first occurrence, so repeats complete nothing.
    """
    return {tm for _, tm in _bindings(q, stream)}
