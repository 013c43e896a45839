"""Hybrid read path: overlay a write store's edits on base-table scans.

This is the glue between the write-optimized store and every read
architecture in the engine.  A :class:`HybridOverlay` is an immutable
snapshot of one table's pending edits, precomputed per query:

* a deleted-mask and prefix-count *shift* array over global positions,
  so base-scan output can be filtered and remapped vectorized;
* the staged rows already projected to the query's select list,
  filtered by its predicates, and positioned at rebuilt-table
  coordinates.

Every execution path applies the overlay the same way, after the
fact (:meth:`HybridOverlay.apply`): the serial, parallel, scheduled and
shared-scan paths run the base plan unchanged — their plumbing
(partitioning, timeslicing, scan sharing) neither knows nor cares about
deltas — and the materialized result is transformed once.  The
transformation is per-row and order-preserving, so the result is
byte-identical to scanning a freshly merged table.
:func:`run_scan_with_store` is the drop-in replacement for
:func:`~repro.engine.executor.run_scan`: with no pending edits it falls
through to the plain scan (one predicate check — this is the candidate
arm of the empty-delta overhead gate in
``benchmarks/check_tracing_overhead.py``).

Snapshot semantics: an overlay captures the store's state at build
time (the delete mask and staged columns are copied), so a query keeps
its view even if writes land while a scheduled query is in flight.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.engine.context import ExecutionContext
from repro.engine.executor import QueryResult, run_scan
from repro.engine.plan import ColumnScannerKind
from repro.engine.query import ScanQuery
from repro.storage.table import Table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.write_store import WriteOptimizedStore


class HybridOverlay:
    """One table's pending edits, snapshotted and query-projected."""

    __slots__ = (
        "base_rows",
        "total_rows",
        "num_deleted",
        "deleted",
        "shift",
        "delta_columns",
        "delta_positions",
    )

    def __init__(
        self,
        base_rows: int,
        total_rows: int,
        deleted: np.ndarray | None,
        shift: np.ndarray,
        delta_columns: dict[str, np.ndarray],
        delta_positions: np.ndarray,
    ):
        self.base_rows = base_rows
        self.total_rows = total_rows
        self.deleted = deleted
        self.num_deleted = 0 if deleted is None else int(deleted.sum())
        self.shift = shift
        self.delta_columns = delta_columns
        self.delta_positions = delta_positions

    def apply(self, result: QueryResult) -> QueryResult:
        """Overlay a materialized base-scan result.

        Drop deleted base rows, shift survivors to rebuilt-table
        positions, append the qualifying delta rows.
        """
        positions = result.positions
        columns = result.columns
        if self.deleted is not None and len(positions):
            keep = ~self.deleted[positions]
            if not keep.all():
                positions = positions[keep]
                columns = {name: col[keep] for name, col in columns.items()}
        remapped = positions.astype(np.int64, copy=True)
        if len(positions):
            remapped -= self.shift[positions]
        if len(self.delta_positions):
            remapped = np.concatenate([remapped, self.delta_positions])
            columns = {
                name: np.concatenate([col, self.delta_columns[name]])
                for name, col in columns.items()
            }
        return QueryResult(
            columns=columns,
            positions=remapped,
            events=result.events,
            corruption=result.corruption,
        )


def build_overlay(store: "WriteOptimizedStore", query: ScanQuery) -> HybridOverlay:
    """Snapshot a store's edits, projected through one query.

    Staged rows are filtered here — deleted-again staged rows dropped,
    the query's predicates evaluated vectorized on the staged columns —
    so applying the overlay only concatenates precomputed arrays.
    """
    base_rows = store.base_rows
    total_rows = store.total_rows
    deletes = store.deletes
    shift = deletes.cumulative()
    deleted = None if deletes.is_empty else deletes.mask()
    staged = store.staged_columns()
    num_staged = total_rows - base_rows
    if num_staged:
        live = np.ones(num_staged, dtype=bool)
        if deleted is not None:
            live &= ~deleted[base_rows:total_rows]
        for predicate in query.predicates:
            live &= predicate.evaluate(staged[predicate.attr])
        picked = np.flatnonzero(live)
        global_positions = base_rows + picked.astype(np.int64)
        delta_positions = global_positions - shift[global_positions]
        delta_columns = {
            name: staged[name][picked] for name in query.select
        }
    else:
        delta_positions = np.zeros(0, dtype=np.int64)
        delta_columns = {}
    # deleted is snapshot-stable: mask()/cumulative() already copied out
    # of the bitmap, and staged column arrays are built fresh per call.
    return HybridOverlay(
        base_rows=base_rows,
        total_rows=total_rows,
        deleted=deleted,
        shift=shift,
        delta_columns=delta_columns,
        delta_positions=delta_positions,
    )


def run_scan_with_store(
    table: Table,
    query: ScanQuery,
    store: "WriteOptimizedStore | None",
    context: ExecutionContext | None = None,
    column_scanner: ColumnScannerKind = ColumnScannerKind.PIPELINED,
    salvage: bool = False,
) -> QueryResult:
    """Serial scan that sees the write store's pending edits, if any.

    The empty-delta fall-through is the whole fast path: one attribute
    load and one predicate check before handing off to the unchanged
    :func:`run_scan`, which the paired overhead gate holds under 5%.
    """
    if store is None or not store.has_changes:
        return run_scan(table, query, context, column_scanner, salvage)
    # Snapshot the edits before the scan runs.
    overlay = build_overlay(store, query)
    return overlay.apply(run_scan(table, query, context, column_scanner, salvage))
