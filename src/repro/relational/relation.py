"""Tuple relations + hash joins (build & probe phases, per paper §4.2).

All engine materialized views are :class:`View`s — append-only *sets* of
tuples (duplicate updates are idempotent; embeddings are sets).  A join is
the classic two-phase hash join the paper describes: *build* a hash table on
one side's key, *probe* with the other side.

The caching distinction between the plain and ``+`` algorithm variants maps
directly onto :class:`HashIndex`:

* plain (TRIC/INV/INC): the build phase runs from scratch on every join —
  ``hash_join`` constructs a throwaway dict over the build side each call;
* cached (TRIC+/INV+/INC+): views keep :class:`HashIndex` objects that are
  maintained incrementally as tuples arrive, so joins skip the build phase
  (``hash_join`` probes ``view.index(key)``).

:meth:`View.select` (rows with one column equal to a value) makes the same
choice for a single-key lookup.  Join-work counters (``COUNTERS``) let tests
assert that caching actually removes build work, not just that it is
equivalent.
"""
from __future__ import annotations

from typing import Callable, Iterable, Optional

Row = tuple

#: global work counters (reset in tests/benches via ``reset_counters``)
COUNTERS = {"build_rows": 0, "probe_rows": 0, "out_rows": 0}


def reset_counters() -> None:
    for k in COUNTERS:
        COUNTERS[k] = 0


class HashIndex:
    """Incrementally maintained hash index of rows on a key-column tuple."""

    __slots__ = ("key_cols", "buckets")

    def __init__(self, key_cols: tuple[int, ...]):
        self.key_cols = key_cols
        self.buckets: dict[tuple, list[Row]] = {}

    def add(self, row: Row) -> None:
        k = tuple(row[c] for c in self.key_cols)
        self.buckets.setdefault(k, []).append(row)

    def get(self, key: tuple) -> list[Row]:
        return self.buckets.get(key, [])

    def __len__(self) -> int:
        return sum(len(v) for v in self.buckets.values())


class View:
    """Append-only set of rows with optional maintained hash indexes.

    ``cached=True`` (the ``+`` variants) keeps every index requested via
    :meth:`index` up to date on insert; ``cached=False`` answers
    :meth:`index` with ``None`` so callers fall back to a from-scratch build.
    """

    __slots__ = ("arity", "rows", "_seen", "cached", "_indexes")

    def __init__(self, arity: int, cached: bool = False):
        self.arity = arity
        self.rows: list[Row] = []
        self._seen: set[Row] = set()
        self.cached = cached
        self._indexes: dict[tuple[int, ...], HashIndex] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, row: Row) -> bool:
        return row in self._seen

    def add(self, row: Row) -> bool:
        """Insert; returns True if the row is new."""
        if row in self._seen:
            return False
        self._seen.add(row)
        self.rows.append(row)
        for idx in self._indexes.values():
            idx.add(row)
        return True

    def add_all(self, rows: Iterable[Row]) -> list[Row]:
        """Insert many; returns the sub-list of genuinely new rows (the delta)."""
        return [r for r in rows if self.add(r)]

    def index(self, key_cols: tuple[int, ...]) -> Optional[HashIndex]:
        """Maintained index on ``key_cols`` (cached views only)."""
        if not self.cached:
            return None
        idx = self._indexes.get(key_cols)
        if idx is None:
            idx = HashIndex(key_cols)
            for r in self.rows:
                idx.add(r)
            self._indexes[key_cols] = idx
        return idx

    def select(self, col: int, value) -> list[Row]:
        """Rows whose column ``col`` equals ``value``: a lookup in the
        maintained index on cached views, a full scan (counted as build
        work) on plain ones."""
        COUNTERS["probe_rows"] += 1
        idx = self.index((col,))
        if idx is not None:
            return idx.get((value,))
        COUNTERS["build_rows"] += len(self.rows)
        return [r for r in self.rows if r[col] == value]


def _build(rows: list[Row], key_cols: tuple[int, ...]) -> dict[tuple, list[Row]]:
    COUNTERS["build_rows"] += len(rows)
    table: dict[tuple, list[Row]] = {}
    for r in rows:
        table.setdefault(tuple(r[c] for c in key_cols), []).append(r)
    return table


def hash_join(
    probe_rows: list[Row],
    probe_key: tuple[int, ...],
    build_view: View,
    build_key: tuple[int, ...],
    emit: Callable[[Row, Row], Row],
) -> list[Row]:
    """Join ``probe_rows`` (usually a small delta) against a view.

    Cached views supply their maintained index (probe only); uncached views
    pay for a full build over their rows on *every* call — this asymmetry is
    the entire plain-vs-``+`` performance story of the paper.
    """
    idx = build_view.index(build_key)
    table = idx.buckets if idx is not None else _build(build_view.rows, build_key)
    COUNTERS["probe_rows"] += len(probe_rows)
    out = [
        emit(pr, br)
        for pr in probe_rows
        for br in table.get(tuple(pr[c] for c in probe_key), ())
    ]
    COUNTERS["out_rows"] += len(out)
    return out
