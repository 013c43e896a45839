"""The page source every reader shares (``repro.engine.pages``).

A fake file that counts its reads stands in for a paged file, so the
window, checkpoint, salvage and position-grouping rules are checked
without building a table.
"""

import numpy as np
import pytest

from repro.engine.context import ExecutionContext
from repro.engine.executor import execute_plan
from repro.engine.governance import QueryContext
from repro.engine.pages import PageSource, normalize_row_range
from repro.engine.predicate import ComparisonOp, Predicate
from repro.errors import ChecksumError, PlanError
from repro.index.scan import IndexScan
from repro.index.secondary import SecondaryIndex
from repro.storage.faults import FaultPlan
from repro.storage.table import PageFile

ROWS_PER_PAGE = 4


class CountingFile:
    """``num_pages`` pages of ``ROWS_PER_PAGE`` rows; some may be corrupt."""

    name = "fake"

    def __init__(self, num_pages: int, corrupt=(), log=None):
        self.num_pages = num_pages
        self.corrupt = set(corrupt)
        self.log = log if log is not None else []

    @property
    def reads(self) -> list[int]:
        return [page for kind, page in self.log if kind == "read"]

    def read_page(self, index: int) -> bytes:
        self.log.append(("read", index))
        if index in self.corrupt:
            raise ChecksumError(f"page {index} of {self.name!r} is corrupt")
        return index.to_bytes(4, "little")


def _decode(raw: bytes):
    page_id = int.from_bytes(raw, "little")
    first = page_id * ROWS_PER_PAGE
    return ROWS_PER_PAGE, {"a": np.arange(first, first + ROWS_PER_PAGE)}


def _source(file: CountingFile, strict: bool = True, checkpoint=None):
    page_file = PageFile(("a",), file, lambda _page: ROWS_PER_PAGE, _decode)
    context = ExecutionContext(strict_integrity=strict)
    return PageSource(page_file, context, checkpoint), context


def test_pages_outside_the_window_are_never_read():
    file = CountingFile(10)
    source, _context = _source(file)
    first_rows = [row for row, _decoded in source.scan(9, 22)]
    assert file.reads == [2, 3, 4, 5]
    assert first_rows == [8, 12, 16, 20]


def test_empty_window_reads_nothing_past_it():
    file = CountingFile(10)
    source, _context = _source(file)
    assert list(source.scan(40, 40)) == []
    assert file.reads == []


def test_one_checkpoint_before_every_page_read():
    file = CountingFile(6)
    source, _context = _source(
        file, checkpoint=lambda: file.log.append(("check", None))
    )
    list(source.scan(5, 17))
    kinds = [kind for kind, _page in file.log]
    assert kinds == ["check", "read"] * len(file.reads)
    assert file.reads == [1, 2, 3, 4]


def test_corrupt_page_is_skipped_once_and_keeps_rows_aligned():
    file = CountingFile(5, corrupt={2})
    source, context = _source(file, strict=False)
    pages = list(source.scan(0, 20))
    assert [row for row, _decoded in pages] == [0, 4, 8, 12, 16]
    assert [decoded is None for _row, decoded in pages] == [
        False, False, True, False, False,
    ]
    np.testing.assert_array_equal(pages[3][1][1]["a"], np.arange(12, 16))
    report = context.corruption
    assert [(f.file, f.page, f.rows_lost) for f in report.faults] == [
        ("fake", 2, ROWS_PER_PAGE)
    ]
    assert report.pages_scanned == 4


def test_corrupt_page_aborts_under_strict_integrity():
    source, context = _source(CountingFile(5, corrupt={1}))
    with pytest.raises(ChecksumError):
        list(source.scan(0, 20))
    assert context.corruption.is_clean


def test_positions_visit_each_page_once_in_order():
    file = CountingFile(10)
    source, _context = _source(file)
    positions = np.array([1, 2, 5, 9, 10, 11, 30])
    seen = []

    def decode(raw, page_id, start, stop):
        seen.append((page_id, start, stop))
        return _decode(raw)[1]["a"][positions[start:stop] - page_id * ROWS_PER_PAGE]

    groups = list(source.read_positions(positions // ROWS_PER_PAGE, decode))
    assert file.reads == [0, 1, 2, 7]
    assert [group[:3] for group in groups] == seen == [
        (0, 0, 2), (1, 2, 3), (2, 3, 6), (7, 6, 7),
    ]
    np.testing.assert_array_equal(
        np.concatenate([values for *_rest, values in groups]), positions
    )
    assert list(source.read_positions(np.zeros(0, dtype=np.int64), decode)) == []


def test_dropped_position_page_is_charged_the_positions_it_held():
    file = CountingFile(10, corrupt={2})
    source, context = _source(file, strict=False)
    positions = np.array([1, 9, 10, 11, 30])
    groups = list(
        source.read_positions(positions // ROWS_PER_PAGE, lambda raw, *_: raw)
    )
    assert [decoded is None for *_rest, decoded in groups] == [False, True, False]
    [fault] = context.corruption.faults
    assert (fault.page, fault.rows_lost) == (2, 3)
    assert context.corruption.pages_scanned == 2


def test_normalize_row_range():
    assert normalize_row_range(None, 10) == (0, 10)
    assert normalize_row_range((3, 50), 10) == (3, 10)
    for bad in ((-1, 4), (5, 4)):
        with pytest.raises(PlanError):
            normalize_row_range(bad, 10)


# --- the index scan reads through the page source ----------------------------


def _index_scan(orders_data, orders_row, context):
    predicate = Predicate(
        "O_CUSTKEY", ComparisonOp.LE, int(np.median(orders_data.column("O_CUSTKEY")))
    )
    index = SecondaryIndex("O_CUSTKEY", orders_data.column("O_CUSTKEY"))
    return IndexScan(context, orders_row, index, predicate, ("O_TOTALPRICE",))


def test_index_scan_salvages_a_corrupt_page(orders_data, orders_row):
    clean = execute_plan(_index_scan(orders_data, orders_row, ExecutionContext()))
    plan = FaultPlan(seed=3).schedule_bit_flip(page=1, byte=100, bit=2)
    original = orders_row.file
    plan.wrap_table(orders_row)
    try:
        with pytest.raises(ChecksumError):
            execute_plan(_index_scan(orders_data, orders_row, ExecutionContext()))
        context = ExecutionContext(strict_integrity=False)
        result = execute_plan(_index_scan(orders_data, orders_row, context))
    finally:
        orders_row.file = original
    per_page = orders_row.page_codec.tuples_per_page
    lost = clean.positions // per_page == 1
    np.testing.assert_array_equal(result.positions, clean.positions[~lost])
    np.testing.assert_array_equal(
        result.column("O_TOTALPRICE"), clean.column("O_TOTALPRICE")[~lost]
    )
    [fault] = context.corruption.faults
    assert (fault.page, fault.rows_lost) == (1, int(lost.sum()))
    assert context.events.values_copied == clean.events.values_copied - lost.sum()


def test_index_scan_checks_governance_per_page(orders_data, orders_row):
    context = ExecutionContext(governance=QueryContext.start())
    scan = _index_scan(orders_data, orders_row, context)
    result = execute_plan(scan)
    pages = len(np.unique(result.positions // orders_row.page_codec.tuples_per_page))
    assert pages > 1
    # One checkpoint per next() call (each block, then the end of the
    # stream) plus one per page read.
    next_calls = -(-result.num_tuples // context.block_size) + 1
    assert context.governance.ticks == next_calls + pages
