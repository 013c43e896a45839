"""Pipelined column scanner (Section 2.2.2, Figure 4).

One scan node per accessed column.  The deepest node reads its whole
column, applies the query's predicates for that attribute, and produces
``{position, value}`` pairs for qualifying tuples.  Each later node is
*driven by the position list*: it only examines the values at incoming
positions, evaluates its own predicates (if any), and either rewrites
the resulting tuples (predicate nodes) or merely attaches its values
(predicate-free nodes).  Blocks are exchanged between nodes in the same
block-iterator format the rest of the engine uses.

The cost consequences the paper measures all live here:

* later nodes do work proportional to the *qualifying* tuples, so at
  0.1 % selectivity extra columns are nearly free (Figure 7);
* at high selectivity every extra node adds per-position bookkeeping
  and copying, which is the column store's CPU overhead (Figure 6);
* a sparse position list turns a column's memory traffic from
  prefetched-sequential into random misses, while FOR-delta columns
  must decode whole pages no matter how few positions arrive
  (Figure 9).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.compression.base import CodecKind
from repro.cpusim.cache import classify_page_access, page_lines
from repro.engine.blocks import Block, split_into_blocks
from repro.engine.context import ExecutionContext
from repro.engine.operators.base import Operator
from repro.engine.pages import (
    PageSource,
    apply_predicates,
    describe_scan,
    normalize_row_range,
    window_mask,
)
from repro.engine.predicate import Predicate
from repro.errors import PlanError
from repro.storage.table import ColumnFile, ColumnTable

#: Bytes to charge for the position (Record ID) in a {position, value} pair.
_POSITION_BYTES = 4


@dataclass
class _ScanNode:
    """One column's scan node: its file, predicates, and role."""

    attr: str
    column_file: ColumnFile
    predicates: tuple[Predicate, ...]
    selected: bool
    width: int


class ColumnScanner(Operator):
    """Scan a :class:`ColumnTable` through a pipeline of scan nodes."""

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
            raise PlanError("column scanner needs a non-empty select list")
        self.table = table
        self.select = tuple(select)
        self.predicates = tuple(predicates)
        self.row_range = normalize_row_range(row_range, table.num_rows)
        self._nodes = self._build_nodes()
        self._ready: deque[Block] = deque()
        self._done = False

    # --- node construction ---------------------------------------------------

    def _build_nodes(self) -> list[_ScanNode]:
        """Scan nodes in pipeline order: predicate attributes deepest."""
        schema = self.table.schema
        order: list[str] = []
        for predicate in self.predicates:
            if predicate.attr not in order:
                order.append(predicate.attr)
        for name in self.select:
            if name not in order:
                order.append(name)
        nodes = []
        for name in order:
            attr = schema.attribute(name)
            nodes.append(
                _ScanNode(
                    attr=name,
                    column_file=self.table.column_file(name),
                    predicates=tuple(p for p in self.predicates if p.attr == name),
                    selected=name in self.select,
                    width=attr.width,
                )
            )
        return nodes

    def scan_attribute_order(self) -> list[str]:
        """The columns read, deepest node first."""
        return [node.attr for node in self._nodes]

    # --- execution -------------------------------------------------------------

    def describe(self) -> str:
        detail = describe_scan(self.table, self.select, self.predicates, self.row_range)
        return f"{detail} | {len(self._nodes)} scan node(s)"

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
        """Run the node pipeline over the whole table.

        Nodes logically exchange 100-tuple blocks; the work and the
        block handoffs are accounted per node, while the computation is
        vectorized page-at-a-time for speed.
        """
        first, rest = self._nodes[0], self._nodes[1:]
        positions, collected = self._run_first_node(first)
        for node in rest:
            positions, collected = self._run_inner_node(node, positions, collected)
        # The final node's output blocks are the scanner's own output,
        # which the base class already counts on emission.
        self.events.blocks_produced -= self._block_count(positions.size)
        self._emit(positions, collected)

    def _source(self, node: _ScanNode, decode=None) -> PageSource:
        page_file = node.column_file.page_file(self.table.num_rows)
        if decode is not None:
            page_file = page_file._replace(decode=decode)
        return PageSource.for_reader(self, page_file)

    def _run_first_node(self, node: _ScanNode) -> tuple[np.ndarray, dict]:
        """Dense scan of the deepest column."""
        events = self.events
        calibration = self.context.calibration
        spec = self.table.schema.attribute(node.attr).spec
        page_codec = node.column_file.page_codec
        codec = page_codec.codec
        bits = codec.bits_per_value
        code_predicates = self._code_predicates(node, codec)
        decode = None
        if code_predicates is not None:

            def decode(raw):
                _pid, count, payload, _state = page_codec.decode_raw(raw)
                return count, {node.attr: codec.decode_codes(payload, count)}

        lo, hi = self.row_range
        qualified_positions = []
        qualified_values = []
        for row_base, decoded in self._source(node, decode).scan(lo, hi):
            if decoded is None:
                # Salvage: the page's rows vanish from the position
                # list; every later node's position→page mapping stays
                # aligned because the page source advances by its span.
                continue
            count, columns = decoded
            mask, in_range = window_mask(count, row_base, lo, hi)

            events.pages_touched += 1
            events.values_examined += count
            events.mem_seq_lines += page_lines(count, bits, calibration.l2_line_bytes)
            events.l1_lines += page_lines(count, bits, calibration.l1_line_bytes)

            if code_predicates is not None:
                # Compressed execution: compare the packed codes; the
                # only work per value is the bit extraction, and the
                # comparison operand is the narrow code, not the value.
                codes = columns[node.attr]
                events.count_decode(CodecKind.PACK, count)
                code_bytes = max(1, codec.bits_per_value // 8)
                for index, code_predicate in enumerate(code_predicates):
                    candidates = in_range if index == 0 else int(np.count_nonzero(mask))
                    events.predicate_evals += candidates
                    events.predicate_eval_bytes += candidates * code_bytes
                    mask &= code_predicate.evaluate(codes)
                qualified = int(np.count_nonzero(mask))
                if node.selected:
                    # Only qualifying values are ever looked up.
                    values = codec.dictionary[codes[mask]]
                    events.count_decode(spec.kind, qualified)
                else:
                    values = np.zeros(0, dtype=codec.attr_type.numpy_dtype())
            else:
                events.count_decode(spec.kind, count)
                mask = apply_predicates(
                    events,
                    node.predicates,
                    columns,
                    mask,
                    in_range,
                    self.table.schema,
                )
                qualified = int(np.count_nonzero(mask))
                values = columns[node.attr][mask]
            if qualified:
                events.values_copied += qualified
                events.bytes_copied += qualified * (node.width + _POSITION_BYTES)
                qualified_positions.append(row_base + np.flatnonzero(mask))
                qualified_values.append(values)

        if qualified_positions:
            positions = np.concatenate(qualified_positions)
            values = np.concatenate(qualified_values)
        else:
            positions = np.zeros(0, dtype=np.int64)
            values = np.zeros(0, dtype=codec.attr_type.numpy_dtype())
        events.blocks_produced += self._block_count(positions.size)
        collected = {node.attr: values} if node.selected else {}
        return positions, collected

    def _code_predicates(self, node: _ScanNode, codec):
        """Rewritten code predicates when compressed execution applies."""
        if not self.context.compressed_execution or not node.predicates:
            return None
        from repro.compression.dictionary import DictionaryCodec
        from repro.engine.compressed_exec import rewrite_all

        if not isinstance(codec, DictionaryCodec):
            return None
        return rewrite_all(node.predicates, codec)

    def _run_inner_node(
        self,
        node: _ScanNode,
        positions: np.ndarray,
        collected: dict,
    ) -> tuple[np.ndarray, dict]:
        """Position-driven scan of one later column."""
        events = self.events
        calibration = self.context.calibration
        spec = self.table.schema.attribute(node.attr).spec
        codec = node.column_file.page_codec.codec
        bits = codec.bits_per_value

        events.positions_processed += positions.size

        column_file = node.column_file
        page_codec = column_file.page_codec

        def decode(raw, page_id, start, stop):
            in_page = positions[start:stop] - column_file.first_row_of_page(page_id)
            _pid, count, payload, state = page_codec.decode_raw(raw)
            page_values, decoded = codec.decode_positions(
                payload, count, state, in_page
            )
            return count, page_values, decoded, in_page

        keep = np.ones(positions.size, dtype=bool)
        chunks = []
        page_ids = column_file.page_of_positions(positions)
        for _page_id, start, stop, result in self._source(node).read_positions(
            page_ids, decode
        ):
            if result is None:
                # Salvage: this column cannot supply these rows, so
                # they are dropped from the pipeline — the position
                # list and every already-collected column shrink in
                # lockstep below.
                keep[start:stop] = False
                continue
            count, page_values, decoded, in_page = result
            chunks.append(page_values)

            events.pages_touched += 1
            events.count_decode(spec.kind, decoded)
            seq, rand = classify_page_access(
                in_page, count, bits, calibration.l2_line_bytes
            )
            events.mem_seq_lines += seq
            events.mem_rand_lines += rand
            l1_seq, l1_rand = classify_page_access(
                in_page, count, bits, calibration.l1_line_bytes
            )
            events.l1_lines += l1_seq + l1_rand
        if not keep.all():
            positions = positions[keep]
            collected = {name: col[keep] for name, col in collected.items()}
        if chunks:
            values = np.concatenate(chunks)
        else:
            values = np.zeros(0, dtype=codec.attr_type.numpy_dtype())

        mask = apply_predicates(
            events,
            node.predicates,
            {node.attr: values},
            np.ones(positions.size, dtype=bool),
            positions.size,
            self.table.schema,
        )

        if node.predicates:
            # Rewrite: qualifying tuples are copied whole to new blocks.
            qualified = int(np.count_nonzero(mask))
            positions = positions[mask]
            values = values[mask]
            collected = {name: col[mask] for name, col in collected.items()}
            carried_bytes = sum(
                self.table.schema.attribute(name).width for name in collected
            )
            events.values_copied += qualified * (len(collected) + 2)
            events.bytes_copied += qualified * (
                carried_bytes + node.width + _POSITION_BYTES
            )
        else:
            # Attach: values are appended without rewriting the tuples.
            events.values_copied += positions.size
            events.bytes_copied += positions.size * node.width

        if node.selected:
            collected = dict(collected)
            collected[node.attr] = values
        events.blocks_produced += self._block_count(positions.size)
        return positions, collected

    def _emit(self, positions: np.ndarray, collected: dict) -> None:
        block = Block(
            columns={name: collected[name] for name in self.select},
            positions=positions,
        )
        self._ready.extend(split_into_blocks(block, self.context.block_size))

    def _block_count(self, tuples: int) -> int:
        if tuples <= 0:
            return 0
        block_size = self.context.block_size
        return (tuples + block_size - 1) // block_size
