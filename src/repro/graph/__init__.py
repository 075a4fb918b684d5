"""Graph & query model substrate: triples, query graph patterns, covering
paths, and a naive brute-force matcher used as an independent oracle."""

from repro.graph.model import EdgeSig, QueryPattern, Triple  # noqa: F401
from repro.graph.covering import covering_paths  # noqa: F401
