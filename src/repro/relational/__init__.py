"""Minimal relational kernel: tuple relations and build/probe hash joins,
with optionally persistent (cached) hash indexes — the substrate shared by
TRIC/TRIC+ and the INV/INC baselines (paper §4.2 "Caching")."""

from repro.relational.relation import HashIndex, View, hash_join  # noqa: F401
