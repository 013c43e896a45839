"""Row-table scanner.

Iterates over the pages of the single row file and, per page, over the
tuples: applies the predicates, projects qualifying tuples onto the
selected attributes, and emits blocks (Section 2.2.2).  The row store
reads — and therefore streams through the memory hierarchy — every byte
of every page regardless of the projection, which is why its cost
curves are flat in projectivity.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.compression.base import CodecKind
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
from repro.storage.table import RowTable

_WHOLE_PAGE_KINDS = (CodecKind.FOR_DELTA,)


class RowScanner(Operator):
    """Scan a :class:`RowTable`, applying predicates and projecting."""

    def __init__(
        self,
        context: ExecutionContext,
        table: RowTable,
        select: tuple[str, ...],
        predicates: tuple[Predicate, ...] = (),
        row_range: tuple[int, int] | None = None,
    ):
        super().__init__(context)
        self.table = table
        # Unknown attributes raise SchemaError before the empty check.
        [page_file] = table.page_files(
            dict.fromkeys([p.attr for p in predicates] + list(select))
        )
        if not select:
            raise PlanError("row scanner needs a non-empty select list")
        self.select = tuple(select)
        self.predicates = tuple(predicates)
        self.row_range = normalize_row_range(row_range, table.num_rows)
        self._source = PageSource.for_reader(self, page_file)
        self._pages = iter(())
        self._ready: deque[Block] = deque()
        self._emitted_any = False
        self._schema_compressed = any(
            attr.spec.is_compressed for attr in table.schema
        )

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
                    # Emit one empty block so the output schema survives
                    # a scan with no qualifying tuples.
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
        schema = self.table.schema
        mask, in_range = window_mask(count, row_base, *self.row_range)

        events.pages_touched += 1
        events.tuples_examined += in_range
        # The row store touches the whole page front to back: purely
        # sequential memory traffic.
        events.mem_seq_lines += self.table.page_size // calibration.l2_line_bytes
        events.l1_lines += self.table.page_size // calibration.l1_line_bytes

        decoded_attrs: set[str] = set()
        for predicate in self.predicates:
            self._count_decodes(predicate.attr, count, count, decoded_attrs)
        mask = apply_predicates(
            events,
            self.predicates,
            columns,
            mask,
            in_range,
            schema,
        )

        qualified = int(np.count_nonzero(mask))
        if qualified:
            for name in self.select:
                self._count_decodes(name, count, qualified, decoded_attrs)
            block = project(events, schema, self.select, columns, mask, row_base)
            self._ready.extend(split_into_blocks(block, self.context.block_size))

    def _count_decodes(
        self,
        attr_name: str,
        page_count: int,
        accessed: int,
        decoded_attrs: set[str],
    ) -> None:
        """Charge decompression work for touching one attribute."""
        if not self._schema_compressed or attr_name in decoded_attrs:
            return
        spec = self.table.schema.attribute(attr_name).spec
        if not spec.is_compressed:
            return
        decoded_attrs.add(attr_name)
        if spec.kind in _WHOLE_PAGE_KINDS:
            self.events.count_decode(spec.kind, page_count)
        else:
            self.events.count_decode(spec.kind, accessed)
