"""Fused (single-iterator) column scanner — the Section 4.2 extension.

The paper notes that instead of a pipeline of position-driven scan
nodes, a column system can fetch the pages of *all* scanned columns
into memory and iterate over entire rows through memory offsets,
"similarly to a row store" (the PAX / MonetDB approach).  This scanner
implements that optimization: every accessed column is read densely, a
combined predicate mask is computed once, and qualifying tuples are
projected in a single pass.

Compared with the pipelined scanner it trades position-list bookkeeping
for dense decodes of every accessed column — cheaper at high
selectivity, more expensive at very low selectivity.  I/O behaviour is
identical (same files are read).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.cpusim.cache import page_lines
from repro.engine.blocks import Block, split_into_blocks
from repro.engine.context import ExecutionContext
from repro.engine.operators.base import Operator
from repro.engine.pages import (
    PageSource,
    apply_predicates,
    describe_scan,
    normalize_row_range,
    project,
)
from repro.engine.predicate import Predicate
from repro.errors import PlanError
from repro.storage.table import ColumnTable


class FusedColumnScanner(Operator):
    """Row-at-a-time iteration over in-memory column pages."""

    def __init__(
        self,
        context: ExecutionContext,
        table: ColumnTable,
        select: tuple[str, ...],
        predicates: tuple[Predicate, ...] = (),
        row_range: tuple[int, int] | None = None,
    ):
        super().__init__(context)
        if not select:
            raise PlanError("fused scanner needs a non-empty select list")
        self.table = table
        self.select = tuple(select)
        self.predicates = tuple(predicates)
        self.row_range = normalize_row_range(row_range, table.num_rows)
        self._attrs = list(dict.fromkeys([p.attr for p in predicates] + list(select)))
        for name in self._attrs:
            self.table.schema.attribute(name)
        self._ready: deque[Block] = deque()
        self._done = False

    def scan_attribute_order(self) -> list[str]:
        """The columns read (all densely)."""
        return list(self._attrs)

    def describe(self) -> str:
        return describe_scan(self.table, self.select, self.predicates, self.row_range)

    def _open(self) -> None:
        self._ready.clear()
        self._done = False

    def _next(self) -> Block | None:
        if not self._ready and not self._done:
            self._execute()
            self._done = True
        if not self._ready:
            return None
        return self._ready.popleft()

    def _execute(self) -> None:
        events = self.events
        calibration = self.context.calibration
        schema = self.table.schema
        lo, hi = self.row_range
        window = hi - lo
        # Rows (within the scan window) whose every accessed page
        # decoded; salvage mode clears the spans of skipped pages so the
        # dense columns stay aligned.
        intact = np.ones(window, dtype=bool)
        columns: dict[str, np.ndarray] = {}
        for page_file in self.table.page_files(self._attrs):
            [name] = page_file.attrs
            attr = schema.attribute(name)
            attr_dtype = attr.attr_type.numpy_dtype()
            kind = attr.spec.kind
            bits = self.table.column_file(name).page_codec.codec.bits_per_value
            source = PageSource.for_reader(self, page_file)
            chunks = []
            covered = lo  # window rows [lo, covered) are assembled
            for row_base, decoded in source.scan(lo, hi) if window else ():
                if decoded is None:
                    continue
                if row_base > covered:
                    # Salvage skipped the page(s) before this one: a
                    # placeholder keeps this column's offsets aligned
                    # with the others, and the rows are masked out.
                    chunks.append(np.zeros(row_base - covered, dtype=attr_dtype))
                    intact[covered - lo : row_base - lo] = False
                count, values = decoded
                # Pages are decoded (and charged) whole; only the slice
                # overlapping the row window joins the dense columns.
                start = max(0, lo - row_base)
                stop = max(start, min(count, hi - row_base))
                chunks.append(values[name][start:stop])
                covered = row_base + stop
                events.pages_touched += 1
                events.count_decode(kind, count)
                events.mem_seq_lines += page_lines(
                    count, bits, calibration.l2_line_bytes
                )
                events.l1_lines += page_lines(count, bits, calibration.l1_line_bytes)
            if covered < hi:
                # Skipped trailing pages, or a truncated column file
                # (salvage open): pad and mask.
                chunks.append(np.zeros(hi - covered, dtype=attr_dtype))
                intact[covered - lo :] = False
            if chunks:
                columns[name] = np.concatenate(chunks)
            else:
                columns[name] = np.zeros(0, dtype=attr_dtype)

        # Row-at-a-time iteration across the resident pages.
        events.tuples_examined += window
        mask = apply_predicates(
            events,
            self.predicates,
            columns,
            intact,
            window,
            schema,
        )
        block = project(events, schema, self.select, columns, mask, lo)
        self._ready.extend(split_into_blocks(block, self.context.block_size))
