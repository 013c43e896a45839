"""Hybrid base+delta read path: differential equivalence and lifecycle.

The tentpole contract: a table with staged inserts and a populated
delete vector answers every query **byte-identically** to a freshly
rebuilt table, through every scanner architecture, the partitioned
parallel executor at several worker counts, and the cooperative
scheduler with shared scans on and off.  On top sit the write
lifecycle pieces: write memory budgets, merge under governance,
stable sort-key reclustering, background (incremental) merge through
the scheduler, and the write-store telemetry surface.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.tpch import generate_orders
from repro.database import Database
from repro.engine.executor import run_scan
from repro.engine.governance import QueryContext
from repro.engine.hybrid import build_overlay, run_scan_with_store
from repro.engine.plan import ColumnScannerKind
from repro.engine.query import ScanQuery
from repro.errors import (
    GovernanceError,
    MemoryBudgetExceeded,
    PlanError,
    SchemaError,
    StorageError,
)
from repro.storage.layout import Layout
from repro.storage.loader import load_table
from repro.storage.write_store import WriteOptimizedStore
from repro.types.datatypes import IntType
from repro.types.schema import Attribute, TableSchema
from repro.data.generator import GeneratedTable

ROWS = 240
SELECT = ("O_ORDERKEY", "O_TOTALPRICE", "O_ORDERDATE")

ARCHITECTURES = (
    ("row", Layout.ROW, ColumnScannerKind.PIPELINED),
    ("pax", Layout.PAX, ColumnScannerKind.PIPELINED),
    ("column", Layout.COLUMN, ColumnScannerKind.PIPELINED),
    ("fused", Layout.COLUMN, ColumnScannerKind.FUSED),
)


def _dirty_database(layout: Layout, sort_key: str | None = None) -> tuple:
    """A Database with staged inserts and deletes on both legs."""
    data = generate_orders(ROWS, seed=11)
    db = Database(layouts=(layout,))
    db.create_table(data, sort_key=sort_key)
    name = data.schema.name
    staged = [
        tuple(data.columns[a.name][index] for a in data.schema)
        for index in (3, 7, 7, 11)
    ]
    db.insert_many(name, staged)
    # Base deletes, a staged delete, and a re-delete (idempotent).
    db.delete(name, positions=[0, 5, ROWS - 1, ROWS + 1, 5])
    return db, data, name


def _assert_same(result, expected) -> None:
    np.testing.assert_array_equal(result.positions, expected.positions)
    assert set(result.columns) == set(expected.columns)
    for attr, column in expected.columns.items():
        np.testing.assert_array_equal(result.columns[attr], column)


@pytest.mark.parametrize("arch,layout,scanner", ARCHITECTURES)
def test_hybrid_equals_rebuilt_serial(arch, layout, scanner):
    db, data, name = _dirty_database(layout)
    predicate = db.predicate(name, "O_TOTALPRICE", 0.6)
    query = ScanQuery(name, select=SELECT, predicates=(predicate,))
    rebuilt = db.write_store(name).rebuild(db.table(name))
    expected = run_scan(rebuilt, query, column_scanner=scanner)
    result = db.query(
        name, select=SELECT, predicates=(predicate,), column_scanner=scanner
    )
    _assert_same(result, expected)


@pytest.mark.parametrize("arch,layout,scanner", ARCHITECTURES)
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_hybrid_equals_rebuilt_parallel(arch, layout, scanner, workers):
    """Partitioned parallel scan + post-hoc overlay == rebuilt table.

    Drives :func:`repro.engine.parallel.parallel_query` directly (the
    Database clamps ``workers`` to ``os.cpu_count()``, which can be 1
    on CI runners) with the overlay snapshotted before the fan-out —
    the exact transform ``Database.query`` applies.
    """
    from repro.engine.parallel import parallel_query

    db, data, name = _dirty_database(layout)
    store = db.write_store(name)
    predicate = db.predicate(name, "O_TOTALPRICE", 0.5)
    query = ScanQuery(name, select=SELECT, predicates=(predicate,))
    rebuilt = store.rebuild(db.table(name))
    expected = run_scan(rebuilt, query, column_scanner=scanner)
    overlay = build_overlay(store, query)
    result = overlay.apply(
        parallel_query(
            db.table(name),
            query,
            workers=workers,
            partitions=workers,
            column_scanner=scanner,
        )
    )
    _assert_same(result, expected)
    # The facade route (clamped workers) must agree as well.
    _assert_same(
        db.query(
            name,
            select=SELECT,
            predicates=(predicate,),
            workers=workers,
            column_scanner=scanner,
        ),
        expected,
    )


@pytest.mark.parametrize("arch,layout,scanner", ARCHITECTURES)
@pytest.mark.parametrize("sharing", [False, True])
def test_hybrid_equals_rebuilt_scheduler(arch, layout, scanner, sharing):
    db, data, name = _dirty_database(layout)
    predicate = db.predicate(name, "O_TOTALPRICE", 0.4)
    query = ScanQuery(name, select=SELECT, predicates=(predicate,))
    rebuilt = db.write_store(name).rebuild(db.table(name))
    expected = run_scan(rebuilt, query)
    handles = db.run_workload(
        [
            dict(table=name, select=SELECT, predicates=(predicate,)),
            dict(table=name, select=SELECT, predicates=(predicate,)),
        ],
        share_scans=sharing,
        column_scanner=scanner,
    )
    for handle in handles:
        assert handle.error is None
        _assert_same(handle.result, expected)


def test_hybrid_positions_are_remapped_not_global():
    """Positions must address the rebuilt table, not the base snapshot."""
    db, data, name = _dirty_database(Layout.COLUMN)
    result = db.query(name, select=("O_ORDERKEY",))
    # Deleted base rows 0 and 5: the first surviving row is global row 1
    # but rebuilt position 0, and positions are dense [0, live).
    live = ROWS + 4 - 4  # base + staged - deleted
    assert result.positions.tolist() == list(range(live))


def test_unfiltered_hybrid_row_content():
    db, data, name = _dirty_database(Layout.COLUMN)
    result = db.query(name, select=("O_ORDERKEY",))
    keys = data.columns["O_ORDERKEY"]
    expected = [
        int(keys[i]) for i in range(ROWS) if i not in (0, 5, ROWS - 1)
    ] + [int(keys[3]), int(keys[7]), int(keys[11])]
    assert result.columns["O_ORDERKEY"].tolist() == expected


def test_views_bypassed_while_dirty_and_rebuilt_after_merge():
    data = generate_orders(ROWS, seed=11)
    db = Database(layouts=(Layout.COLUMN,))
    db.create_table(data)
    name = data.schema.name
    view = db.create_view(name, ("O_ORDERKEY", "O_TOTALPRICE"))
    assert view.table.num_rows == ROWS
    row = tuple(data.columns[a.name][0] for a in data.schema)
    db.insert(name, row)
    # Dirty: the query answers from the hybrid path, seeing the insert.
    result = db.query(name, select=("O_ORDERKEY",))
    assert len(result.positions) == ROWS + 1
    db.merge(name)
    # Views were re-materialized against the merged base.
    entry_view = db._entry(name).router.views[0]
    assert entry_view.table.num_rows == ROWS + 1
    result = db.query(name, select=("O_ORDERKEY",))
    assert len(result.positions) == ROWS + 1


def test_merge_stable_sort_keeps_insertion_order_for_duplicate_keys():
    """Satellite: duplicate sort keys preserve insertion order (stable)."""
    schema = TableSchema(
        "S",
        attributes=(Attribute("k", IntType()), Attribute("v", IntType())),
    )
    data = GeneratedTable(
        schema=schema,
        columns={
            "k": np.array([2, 1, 2, 1], dtype=np.int64),
            "v": np.array([10, 11, 12, 13], dtype=np.int64),
        },
    )
    db = Database(layouts=(Layout.COLUMN,))
    db.create_table(data, sort_key="k")
    # Stage duplicates of both keys; they must land AFTER the base rows
    # with equal keys, in insertion order.
    db.insert_many("S", [(1, 20), (2, 21), (1, 22)])
    db.merge("S")
    result = db.query("S", select=("k", "v"))
    assert result.columns["k"].tolist() == [1, 1, 1, 1, 2, 2, 2]
    assert result.columns["v"].tolist() == [11, 13, 20, 22, 10, 12, 21]
    # A second merge with no changes is a stable no-op.
    db.insert("S", (1, 30))
    db.merge("S")
    result = db.query("S", select=("v",), predicates=())
    assert result.columns["v"].tolist() == [11, 13, 20, 22, 30, 10, 12, 21]


def test_write_budget_enforced_and_drained_by_merge():
    data = generate_orders(20, seed=3)
    row_bytes = sum(a.attr_type.width for a in data.schema)
    db = Database(layouts=(Layout.COLUMN,))
    db.create_table(data, write_budget=row_bytes * 2)
    name = data.schema.name
    row = tuple(data.columns[a.name][0] for a in data.schema)
    db.insert(name, row)
    db.insert(name, row)
    with pytest.raises(MemoryBudgetExceeded):
        db.insert(name, row)
    db.merge(name)
    db.insert(name, row)  # budget drained by the merge
    assert len(db.write_store(name)) == 1


def test_writes_frozen_during_merge():
    data = generate_orders(20, seed=3)
    store = WriteOptimizedStore(data.schema)
    store.attach_base(data.num_rows)
    row = tuple(data.columns[a.name][0] for a in data.schema)
    store.insert(row)
    store.begin_merge()
    with pytest.raises(StorageError, match="merge"):
        store.insert(row)
    with pytest.raises(StorageError, match="merge"):
        store.delete([0])
    store.end_merge()
    store.insert(row)
    assert len(store) == 2


def test_insert_arity_checked():
    data = generate_orders(10, seed=3)
    db = Database(layouts=(Layout.COLUMN,))
    db.create_table(data)
    with pytest.raises(SchemaError):
        db.insert(data.schema.name, (1, 2))


def test_delete_rejects_predicates_plus_positions():
    db, data, name = _dirty_database(Layout.COLUMN)
    predicate = db.predicate(name, "O_TOTALPRICE", 0.5)
    with pytest.raises(PlanError):
        db.delete(name, predicates=(predicate,), positions=[1])


def test_predicate_delete_covers_base_and_staged():
    db, data, name = _dirty_database(Layout.COLUMN)
    predicate = db.predicate(name, "O_TOTALPRICE", 0.5)
    db.delete(name, predicates=(predicate,))
    result = db.query(name, select=SELECT, predicates=(predicate,))
    assert result.num_tuples == 0
    # The complement population is untouched and still byte-identical
    # to the rebuilt table.
    rebuilt = db.write_store(name).rebuild(db.table(name))
    _assert_same(
        db.query(name, select=SELECT),
        run_scan(rebuilt, ScanQuery(name, select=SELECT)),
    )


def test_merge_under_governance_deadline_aborts_typed():
    db, data, name = _dirty_database(Layout.COLUMN)
    store = db.write_store(name)
    governance = QueryContext.start(timeout=0.0, label="doomed merge")
    with pytest.raises(GovernanceError):
        store.rebuild(db.table(name), governance=governance)
    # The store is writable again after the typed abort.
    row = tuple(data.columns[a.name][0] for a in data.schema)
    db.insert(name, row)


def test_background_merge_snapshot_semantics():
    db, data, name = _dirty_database(Layout.COLUMN)
    predicate = db.predicate(name, "O_TOTALPRICE", 0.5)
    rebuilt = db.write_store(name).rebuild(db.table(name))
    expected = run_scan(
        rebuilt, ScanQuery(name, select=SELECT, predicates=(predicate,))
    )
    # Submit a query BEFORE the merge: its overlay snapshots the
    # pre-merge state, so it must answer identically no matter how far
    # the merge has progressed when it runs.
    before = db.submit(name, select=SELECT, predicates=(predicate,))
    job = db.merge(name, background=True)
    while db.scheduler.poll():
        pass
    assert job.done and not job.failed
    assert job.result == ROWS + 4 - 4
    _assert_same(before.result, expected)
    # Writes unfroze and the store drained.
    assert not db.write_store(name).has_changes
    assert db.write_store(name).base_rows == job.result
    # A query after the merge sees the merged base directly.
    _assert_same(
        db.query(name, select=SELECT, predicates=(predicate,)), expected
    )
    # The job shows up on the scheduler board.
    jobs = db.scheduler.board()["jobs"]
    assert any(j["done"] and not j["failed"] for j in jobs)


def test_background_merge_failure_unfreezes_and_reports():
    db, data, name = _dirty_database(Layout.COLUMN)
    entry = db._entry(name)
    # Sabotage the catalog so the rebuild step raises a typed error.
    entry.data = GeneratedTable(
        schema=entry.data.schema,
        columns={k: v[:-1] for k, v in entry.data.columns.items()},
    )
    job = db.merge(name, background=True)
    while db.scheduler.poll():
        pass
    assert job.done and job.failed
    assert not db.write_store(name).merging  # unfrozen on abort


def test_write_board_and_metrics_surface():
    from repro.obs import metrics as obs_metrics

    db, data, name = _dirty_database(Layout.COLUMN)
    board = db.write_board()
    assert board[name]["staged"] == 4
    assert board[name]["deleted"] == 4
    assert board[name]["base_rows"] == ROWS
    assert board[name]["staged_bytes"] > 0
    assert not board[name]["merging"]
    rendered = obs_metrics.REGISTRY.render()
    assert "repro_write_staged_rows_total" in rendered
    db.merge(name)
    board = db.write_board()
    assert board[name]["staged"] == 0 and board[name]["deleted"] == 0


def test_dashboard_renders_write_panel():
    from repro.obs.dashboard import render_board, render_html

    db, data, name = _dirty_database(Layout.COLUMN)
    text = render_board(write_board=db.write_board())
    assert "write stores" in text
    assert name in text
    html = render_html(write_board=db.write_board())
    assert "write stores" in html


def test_flight_recorder_sees_write_lifecycle():
    from repro.obs import recorder as flight

    db, data, name = _dirty_database(Layout.COLUMN)
    db.merge(name)
    kinds = [event.kind for event in flight.RECORDER.events()]
    for kind in (
        "write.stage",
        "write.delete",
        "write.merge.begin",
        "write.merge.commit",
    ):
        assert kind in kinds


def test_overlay_apply_matches_operator_path():
    """The serial hybrid entry point == overlay applied by hand, exactly."""
    data = generate_orders(ROWS, seed=11)
    table = load_table(data, Layout.COLUMN)
    store = WriteOptimizedStore(data.schema)
    store.attach_base(data.num_rows)
    staged = [
        tuple(data.columns[a.name][index] for a in data.schema)
        for index in (1, 2)
    ]
    store.insert_many(staged)
    store.delete([4, ROWS])
    query = ScanQuery(data.schema.name, select=SELECT)
    operator_result = run_scan_with_store(table, query, store)
    overlay = build_overlay(store, query)
    posthoc = overlay.apply(run_scan(table, query))
    _assert_same(posthoc, operator_result)


def test_iosim_merge_competition_model():
    from repro.iosim import measure_merge_competition

    measurement = measure_merge_competition(4 * 1024 * 1024)
    assert measurement.slowdown >= 1.0
    assert measurement.merge_stretch >= 1.0
    assert measurement.merge_solo_seconds > measurement.query_solo_seconds
    payload = measurement.as_dict()
    assert payload["slowdown"] == measurement.slowdown
