"""Common engine interface + factory for the seven evaluated algorithms."""
from __future__ import annotations

from abc import ABC, abstractmethod

from repro.graph.model import QueryPattern, Triple


class EngineOverflow(RuntimeError):
    """An engine blew past a safety row cap (treated as a timeout by the
    runner — the scaled-down analogue of the paper's 24 h threshold)."""


class Engine(ABC):
    """A continuous multi-query processing engine.

    Life cycle: ``add_query`` for every pattern (indexing phase), then
    ``process_update`` once per stream update (answering phase); the return
    value lists the query ids with *new* full embeddings caused by the update.
    """

    name: str = "?"

    @abstractmethod
    def add_query(self, q: QueryPattern) -> None: ...

    @abstractmethod
    def process_update(self, u: Triple) -> list[int]: ...


#: canonical algorithm order used in result tables (paper's naming)
ALGORITHMS = ["tric", "tric+", "inv", "inv+", "inc", "inc+", "graphdb"]


def make_engine(name: str, **kw) -> Engine:
    """Instantiate an engine by its paper name (``graphdb`` = Neo4j stand-in)."""
    from repro.baselines.graphdb import GraphDBEngine
    from repro.baselines.inv import IncEngine, InvEngine
    from repro.core.tric import TricEngine

    if name not in ALGORITHMS:
        raise ValueError(f"unknown engine {name!r}; pick one of {ALGORITHMS}")
    if name == "graphdb":
        return GraphDBEngine(**kw)
    family = {"tric": TricEngine, "inv": InvEngine, "inc": IncEngine}[name.rstrip("+")]
    return family(cached=name.endswith("+"), **kw)
