"""PAX-table scanner.

Reads whole pages (row-store I/O) but only decodes — and only streams
through the cache — the minipages of the attributes the query accesses.
This is the "increased spatial locality to improve cache performance"
of PAX, with I/O identical to a row store (Section 6).
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
    empty_block,
    normalize_row_range,
    project,
    window_mask,
)
from repro.engine.predicate import Predicate
from repro.errors import PlanError
from repro.storage.table import PaxTable


class PaxScanner(Operator):
    """Scan a :class:`PaxTable`, touching only the accessed minipages."""

    def __init__(
        self,
        context: ExecutionContext,
        table: PaxTable,
        select: tuple[str, ...],
        predicates: tuple[Predicate, ...] = (),
        row_range: tuple[int, int] | None = None,
    ):
        super().__init__(context)
        if not select:
            raise PlanError("PAX scanner needs a non-empty select list")
        self.table = table
        self.select = tuple(select)
        self.predicates = tuple(predicates)
        self.row_range = normalize_row_range(row_range, table.num_rows)
        [page_file] = table.page_files(
            dict.fromkeys([p.attr for p in predicates] + list(select))
        )
        self._attrs = list(page_file.attrs)
        self._source = PageSource.for_reader(self, page_file)
        self._pages = iter(())
        self._ready: deque[Block] = deque()
        self._emitted_any = False

    def scan_attribute_order(self) -> list[str]:
        """The minipages this scan decodes."""
        return list(self._attrs)

    def describe(self) -> str:
        return describe_scan(self.table, self.select, self.predicates, self.row_range)

    def _open(self) -> None:
        self._pages = self._source.scan(*self.row_range)
        self._ready.clear()
        self._emitted_any = False

    def _next(self) -> Block | None:
        while not self._ready:
            page = next(self._pages, None)
            if page is None:
                if not self._emitted_any:
                    self._emitted_any = True
                    return empty_block(self.table.schema, self.select)
                return None
            row_base, decoded = page
            if decoded is not None:
                self._process_page(row_base, *decoded)
        self._emitted_any = True
        return self._ready.popleft()

    def _process_page(self, row_base: int, count: int, columns: dict) -> None:
        events = self.events
        calibration = self.context.calibration
        codec = self.table.page_codec
        schema = self.table.schema
        for name in self._attrs:
            events.count_decode(schema.attribute(name).spec.kind, count)
            bits = codec.attribute_bits(name)
            # Only the accessed minipages move through the caches.
            events.mem_seq_lines += page_lines(count, bits, calibration.l2_line_bytes)
            events.l1_lines += page_lines(count, bits, calibration.l1_line_bytes)

        mask, in_range = window_mask(count, row_base, *self.row_range)
        events.pages_touched += 1
        events.tuples_examined += in_range
        mask = apply_predicates(
            events,
            self.predicates,
            columns,
            mask,
            in_range,
            schema,
        )
        if np.count_nonzero(mask):
            block = project(events, schema, self.select, columns, mask, row_base)
            self._ready.extend(split_into_blocks(block, self.context.block_size))
