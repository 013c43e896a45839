"""Index-scan operator: probe the index, fetch tuples by sorted RID.

Produces exactly the same blocks a table scanner would for the same
predicate, so the two access paths are interchangeable above the disk
layer — the property the paper's engine design insists on.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.engine.blocks import Block, split_into_blocks
from repro.engine.context import ExecutionContext
from repro.engine.operators.base import Operator
from repro.engine.pages import PageSource, charge_copies, empty_block
from repro.engine.predicate import Predicate
from repro.errors import PlanError
from repro.index.secondary import SecondaryIndex
from repro.storage.table import RowTable


class IndexScan(Operator):
    """Fetch the tuples qualifying under one indexed predicate."""

    def __init__(
        self,
        context: ExecutionContext,
        table: RowTable,
        index: SecondaryIndex,
        predicate: Predicate,
        select: tuple[str, ...],
    ):
        super().__init__(context)
        if not select:
            raise PlanError("index scan needs a non-empty select list")
        if index.num_rows != table.num_rows:
            raise PlanError(
                f"index covers {index.num_rows} rows, table has {table.num_rows}"
            )
        self.table = table
        self.index = index
        self.predicate = predicate
        self.select = tuple(select)
        [page_file] = table.page_files(self.select)
        self._source = PageSource.for_reader(self, page_file)
        self._ready: deque[Block] = deque()
        self._done = False

    def _open(self) -> None:
        self._ready.clear()
        self._done = False

    def _next(self) -> Block | None:
        if not self._done:
            self._execute()
            self._done = True
        if not self._ready:
            return None
        return self._ready.popleft()

    def _execute(self) -> None:
        events = self.events
        calibration = self.context.calibration
        rids = self.index.lookup_predicate(self.predicate)
        # Probing the index and sorting the RID list.
        events.positions_processed += int(rids.size)

        per_page = self.table.page_codec.tuples_per_page

        def fetch(raw, page_id, start, stop):
            _count, columns = self._source.page_file.decode(raw)
            in_page = rids[start:stop] - page_id * per_page
            return {name: columns[name][in_page] for name in self.select}

        keep = np.ones(rids.size, dtype=bool)
        chunks = []
        for _page_id, start, stop, fetched in self._source.read_positions(
            rids // per_page, fetch
        ):
            if fetched is None:
                # Salvage: the page's RIDs are dropped from the result.
                keep[start:stop] = False
                continue
            chunks.append(fetched)
            events.pages_touched += 1
            # A fetched page streams through the caches whole.
            events.mem_seq_lines += self.table.page_size // calibration.l2_line_bytes
            events.l1_lines += self.table.page_size // calibration.l1_line_bytes

        if chunks:
            columns = {
                name: np.concatenate([chunk[name] for chunk in chunks])
                for name in self.select
            }
        else:
            columns = empty_block(self.table.schema, self.select).columns
        block = Block(columns=columns, positions=rids[keep])
        charge_copies(events, self.table.schema, self.select, len(block))
        self._ready.extend(split_into_blocks(block, self.context.block_size))
