"""Shared scans: many queries riding one circular table scan.

Section 2.1.1 of the paper notes that concurrent queries over the same
table can be served off a *single* reading stream (Teradata, RedBrick,
QPipe); Figure 11 measures the competing-scans regime this avoids.  The
engine-side implementation lives here:

* :class:`SharedScanStream` — one circular pass over a table's needed
  column set, advanced a *segment* (one driving page's worth of rows)
  at a time.  Whoever pumps the stream drives it; every attached
  consumer receives each decoded segment.  The stream's I/O (pages
  touched, bytes read) is accounted **once** on the stream's own
  :class:`~repro.cpusim.events.CostEvents`, mirroring the iosim
  shared-stream model (:mod:`repro.iosim.sharing`), while decode and
  predicate CPU is charged **per consumer** — each query still pays to
  process the delivered values.
* :class:`SharedScanConsumer` — an :class:`~repro.engine.operators.base.
  Operator` view of one query's ride on the stream.  A consumer
  attaches *mid-flight* at the stream's current position, rides to the
  end, wraps around for the prefix it missed (circular scan), and
  detaches after exactly one full pass.  Output is re-assembled into
  global Record-ID order before emission, so the result is
  byte-identical to a cold serial scan.
* :class:`ScanShareManager` — the attach point: queries over the same
  table, column set, and integrity mode join the in-progress stream;
  everything else gets a fresh one.

Salvage mode drops the union of corrupt-page row spans across the
needed columns — exactly the rows a serial salvage scan would lose —
and records the damage per consumer.  Under strict integrity a decode
error fails the whole stream with the same typed error every rider
would have hit scanning alone.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.cpusim.events import CostEvents
from repro.engine.blocks import Block, concat_blocks, split_into_blocks
from repro.engine.context import ExecutionContext
from repro.engine.operators.base import Operator
from repro.engine.pages import (
    SALVAGEABLE_ERRORS,
    PageSource,
    apply_predicates,
    describe_scan,
    empty_block,
    project,
)
from repro.engine.query import ScanQuery
from repro.errors import EngineError, PlanError
from repro.obs import metrics as obs_metrics
from repro.obs import recorder as flight
from repro.storage.table import Table

__all__ = [
    "ScanShareManager",
    "SharedScanConsumer",
    "SharedScanStream",
    "share_key",
]


def share_key(table: Table, query: ScanQuery, strict_integrity: bool) -> tuple:
    """The attach-compatibility key: same table, column set, integrity."""
    return (id(table), frozenset(query.scan_attributes()), strict_integrity)


class _SegmentData:
    """One decoded segment: full-width values plus a validity mask."""

    __slots__ = ("lo", "hi", "columns", "valid", "pages")

    def __init__(self, lo, hi, columns, valid, pages):
        self.lo = lo
        self.hi = hi
        #: attr name -> values for rows [lo, hi) (zero-filled where invalid).
        self.columns = columns
        #: Boolean mask over [lo, hi): False where a corrupt page's span fell.
        self.valid = valid
        #: ``((file_name, page_id), fault)`` per page read; ``fault`` is
        #: the :class:`~repro.storage.scrub.PageFault` of a corrupt page,
        #: else ``None``.
        self.pages = pages


class SharedScanStream:
    """One circular scan over ``attrs`` of ``table``, shared by consumers.

    The needed columns live in one file (row and PAX layouts) or one
    file each (column layout).  Segments are the pages of the file with
    the *most* pages: its pages bound the finest row spans, so every
    other file is swept sequentially alongside it through a small
    rolling page cache and each page still decodes once per pass.
    """

    #: Rolling decoded-page cache entries kept per file.
    _CACHE_PAGES = 4

    def __init__(self, table: Table, attrs: tuple[str, ...], strict_integrity: bool):
        self.table = table
        self.attrs = tuple(attrs)
        self.strict_integrity = strict_integrity
        #: I/O accounted once for the whole stream, not per consumer.
        self.io_events = CostEvents()
        self._consumers: list[SharedScanConsumer] = []
        self._cursor = 0
        self._failed: Exception | None = None
        #: The stream's own integrity policy; its report collects every
        #: corrupt page once, whichever consumers it is delivered to.
        self._integrity = ExecutionContext(strict_integrity=strict_integrity)
        #: ``(file_name, page_id) -> PageFault`` for pages that failed to
        #: decode (salvage mode keeps going; consumers each record the
        #: damage once).
        self._corrupt: dict[tuple, object] = {}
        #: Per-file rolling cache of decoded pages.
        self._page_cache: dict[str, dict[int, dict]] = {}
        #: ``(page source, first row of each page)`` per needed file.
        self._files = []
        for page_file in table.page_files(self.attrs):
            spans = [page_file.row_span(p) for p in range(page_file.file.num_pages)]
            first_rows = np.concatenate([[0], np.cumsum(spans, dtype=np.int64)])
            self._files.append((PageSource(page_file, self._integrity), first_rows))
        self._segments = self._build_segments()
        #: Lifetime totals (survive consumer detach; feed scheduler stats).
        self.total_attached = 0

    # --- geometry ---------------------------------------------------------

    def _build_segments(self) -> list[tuple[int, int]]:
        """``(row lo, row hi)`` per segment, in row order."""
        if not self._files:
            return []
        # The file with the most pages; ties go to the first in name order.
        _source, first_rows = max(
            sorted(self._files, key=lambda entry: entry[0].page_file.attrs),
            key=lambda entry: entry[0].page_file.file.num_pages,
        )
        return [
            (int(lo), int(hi))
            for lo, hi in zip(first_rows[:-1], first_rows[1:])
            if hi > lo
        ]

    @property
    def num_segments(self) -> int:
        return len(self._segments)

    @property
    def cursor(self) -> int:
        """The segment index the stream will serve next."""
        return self._cursor

    @property
    def consumers(self) -> tuple:
        return tuple(self._consumers)

    @property
    def failed(self) -> Exception | None:
        return self._failed

    # --- attach / detach --------------------------------------------------

    def attach(self, consumer: "SharedScanConsumer") -> set[int]:
        """Join the stream mid-flight; one full circular pass serves you."""
        if self._failed is not None:
            raise self._failed
        self._consumers.append(consumer)
        self.total_attached += 1
        return set(range(len(self._segments)))

    def detach(self, consumer: "SharedScanConsumer") -> None:
        """Leave the stream (end of pass, failure, or cancellation)."""
        if consumer in self._consumers:
            self._consumers.remove(consumer)
            flight.record(
                "share.detach",
                consumer._flight_label(),
                table=self.table.schema.name,
                riders=len(self._consumers),
            )

    @property
    def idle(self) -> bool:
        """True when no attached consumer still needs a segment."""
        return not any(c._remaining for c in self._consumers)

    # --- the circular pump ------------------------------------------------

    def step(self) -> bool:
        """Decode and deliver the next needed segment (circularly).

        Returns False when no attached consumer needs anything.  Raises
        the stream's terminal error (strict-integrity decode failure)
        to whoever pumps after it tripped.
        """
        if self._failed is not None:
            raise self._failed
        total = len(self._segments)
        if total == 0 or self.idle:
            return False
        for offset in range(total):
            index = (self._cursor + offset) % total
            takers = [c for c in self._consumers if index in c._remaining]
            if not takers:
                continue
            try:
                data = self._decode_segment(index)
            except SALVAGEABLE_ERRORS as exc:
                # Strict integrity: the whole stream dies with the typed
                # error every rider would have hit scanning alone.
                self._failed = exc
                raise
            self._cursor = (index + 1) % total
            if index + 1 == total:
                # The circular pass wrapped back to segment 0.
                flight.record(
                    "share.wrap",
                    table=self.table.schema.name,
                    riders=len(takers),
                )
            for consumer in takers:
                consumer._receive(index, data)
            return True
        return False

    # --- decoding ---------------------------------------------------------

    def _decode_segment(self, index: int) -> _SegmentData:
        """Assemble rows [lo, hi) of every needed column."""
        lo, hi = self._segments[index]
        span = hi - lo
        valid = np.ones(span, dtype=bool)
        columns: dict[str, np.ndarray] = {}
        pages: list[tuple] = []
        schema = self.table.schema
        for source, first_rows in self._files:
            attrs = source.page_file.attrs
            file = source.page_file.file
            for name in attrs:
                dtype = schema.attribute(name).attr_type.numpy_dtype()
                columns[name] = np.zeros(span, dtype=dtype)
            page_id = int(np.searchsorted(first_rows, lo, side="right")) - 1
            row = lo
            while row < hi:
                if page_id >= file.num_pages:
                    raise EngineError(
                        f"file {file.name!r} ran out of pages at row "
                        f"{row} of [{lo}, {hi})"
                    )
                page_first = int(first_rows[page_id])
                page_end = int(first_rows[page_id + 1])
                take_lo = max(row, page_first)
                take_hi = min(hi, page_end)
                if take_hi <= row:
                    page_id += 1
                    continue
                key = (file.name, page_id)
                values = self._page_values(source, key, page_end - page_first)
                if values is None:
                    pages.append((key, self._corrupt[key]))
                    valid[take_lo - lo : take_hi - lo] = False
                else:
                    pages.append((key, None))
                    for name in attrs:
                        columns[name][take_lo - lo : take_hi - lo] = values[name][
                            take_lo - page_first : take_hi - page_first
                        ]
                row = take_hi
                page_id += 1
        return _SegmentData(lo, hi, columns, valid, pages)

    def _page_values(self, source: PageSource, key: tuple, row_span: int):
        """One page's decoded columns, through the rolling per-pass cache.

        ``key`` is ``(file name, page id)``.  The I/O is charged to the
        stream exactly once per page read; a corrupt page is remembered
        so re-deliveries don't re-read it.  Returns ``None`` for a
        corrupt page (salvage mode).
        """
        if key in self._corrupt:
            return None
        name, page_id = key
        cache = self._page_cache.setdefault(name, {})
        if page_id in cache:
            return cache[page_id]
        self.io_events.pages_touched += 1
        self.io_events.bytes_read += self.table.page_size
        obs_metrics.SCHEDULER_SHARED_PAGES.inc()
        decoded = source.read(page_id, row_span)
        if decoded is None:
            self._corrupt[key] = self._integrity.corruption.faults[-1]
            return None
        while len(cache) >= self._CACHE_PAGES:
            cache.pop(next(iter(cache)))
        cache[page_id] = decoded[1]
        return decoded[1]


class SharedScanConsumer(Operator):
    """One query's ride on a :class:`SharedScanStream`.

    Applies its *own* predicates and projection to every delivered
    segment (per-consumer CPU), buffers qualifying rows keyed by
    segment index, and — once its full circular pass completes — emits
    them re-assembled into global Record-ID order, split into
    engine-sized blocks.  Byte-identical to a cold serial scan of the
    same query.
    """

    def __init__(
        self,
        context: ExecutionContext,
        share: SharedScanStream,
        query: ScanQuery,
    ):
        super().__init__(context)
        query.validate_against(share.table.schema)
        missing = set(query.scan_attributes()) - set(share.attrs)
        if missing:
            raise PlanError(
                f"shared stream lacks attributes {sorted(missing)} "
                f"(carries {sorted(share.attrs)})"
            )
        self.share = share
        self.query = query
        self.select = tuple(query.select)
        self.predicates = tuple(query.predicates)
        #: Segment the stream was at when we attached (for EXPLAIN).
        self.attach_cursor = share.cursor
        self._remaining = share.attach(self)
        flight.record(
            "share.attach",
            self._flight_label(),
            table=share.table.schema.name,
            cursor=self.attach_cursor,
            segments=share.num_segments,
            riders=len(share.consumers),
        )
        self._buffered: list[tuple[int, Block]] = []
        self._output: deque[Block] = deque()
        self._finalized = False
        self._seen_pages: set[tuple[str, int]] = set()
        self._schema_compressed = any(
            attr.spec.is_compressed for attr in share.table.schema
        )

    def describe(self) -> str:
        return (
            f"{describe_scan(self.share.table, self.select, self.predicates)} | "
            f"shared, attached@segment {self.attach_cursor}/"
            f"{self.share.num_segments}"
        )

    @property
    def finished(self) -> bool:
        """True once this consumer's full pass is assembled."""
        return self._finalized

    def _flight_label(self) -> str | None:
        """This rider's query label for flight-recorder attribution."""
        governance = self.context.governance
        return governance.label if governance is not None else None

    # --- stream side ------------------------------------------------------

    def _receive(self, index: int, data: _SegmentData) -> None:
        """Process one delivered segment (called by the stream).

        Deliveries run during *whoever pumps* — often a peer's
        timeslice — yet mutate this consumer's own ``context.events``.
        So the work is wrapped in a span window on this consumer's own
        tracer (billed to its ``next`` bucket): per-query span totals
        stay exactly equal to the per-query plan totals even when every
        segment arrived off peers' pumps.  Nesting is safe when the
        delivery happens inside this consumer's own traced ``next()``
        drain — both frames belong to the same span.
        """
        tracer = self.context.tracer
        if tracer is None:
            self._receive_inner(index, data)
            return
        frame = tracer.enter(self, "receive")
        try:
            self._receive_inner(index, data)
        finally:
            tracer.exit(frame, self.context.events)

    def _receive_inner(self, index: int, data: _SegmentData) -> None:
        self._remaining.discard(index)
        events = self.events
        span = data.hi - data.lo
        corruption = self.context.corruption
        for key, fault in data.pages:
            if key in self._seen_pages:
                continue
            self._seen_pages.add(key)
            if fault is None:
                corruption.pages_scanned += 1
            else:
                corruption.record(fault.file, fault.page, fault.rows_lost, fault.error)

        schema = self.share.table.schema
        events.values_examined += span
        decoded_attrs: set[str] = set()
        for predicate in self.predicates:
            self._count_decodes(predicate.attr, span, decoded_attrs)
        mask = apply_predicates(
            events,
            self.predicates,
            data.columns,
            data.valid.copy(),
            int(np.count_nonzero(data.valid)),
            schema,
        )
        if not np.count_nonzero(mask):
            return
        for name in self.select:
            self._count_decodes(name, span, decoded_attrs)
        block = project(events, schema, self.select, data.columns, mask, data.lo)
        self._buffered.append((index, block))

    def _count_decodes(self, attr_name: str, span: int, decoded_attrs: set) -> None:
        """Per-consumer decode CPU: each rider pays to process values."""
        if not self._schema_compressed or attr_name in decoded_attrs:
            return
        spec = self.share.table.schema.attribute(attr_name).spec
        if not spec.is_compressed:
            return
        decoded_attrs.add(attr_name)
        self.events.count_decode(spec.kind, span)

    # --- operator side ----------------------------------------------------

    def advance(self) -> bool:
        """One cooperative timeslice: pump the stream one segment.

        Returns True while more pumping is needed for *this* consumer;
        once its pass is complete the output is finalized and False is
        returned (drain the blocks with ``next()``).  Deliveries made
        while a *peer* pumps shrink ``_remaining`` too, so a consumer
        may finish without ever pumping itself.
        """
        if self._finalized:
            return False
        if self.share.failed is not None:
            raise self.share.failed
        self._governance_check()
        if not self._remaining:
            self._finalize()
            return False
        if not self.share.step():
            raise EngineError(
                "shared scan stream stalled with segments outstanding"
            )
        if not self._remaining:
            self._finalize()
            return False
        return True

    def _finalize(self) -> None:
        self._finalized = True
        self.share.detach(self)
        self._buffered.sort(key=lambda pair: pair[0])
        blocks = [block for _index, block in self._buffered]
        self._buffered = []
        merged = concat_blocks(blocks)
        if not len(merged):
            self._output.append(empty_block(self.share.table.schema, self.select))
            return
        self._output.extend(split_into_blocks(merged, self.context.block_size))

    def _next(self) -> Block | None:
        while not self._finalized:
            self.advance()
        if not self._output:
            return None
        return self._output.popleft()

    def _close(self) -> None:
        self.share.detach(self)


class ScanShareManager:
    """The attach point: route each query to a live compatible stream.

    Streams are keyed by (table identity, needed column set, integrity
    mode); a query matching a stream that still has riders attaches to
    it mid-flight (share *hit*), anything else starts a fresh stream
    (share *miss*).  Streams with no riders left are dropped — their
    I/O totals are kept for workload-level accounting.
    """

    def __init__(self) -> None:
        self._streams: dict[tuple, SharedScanStream] = {}
        self._history: list[SharedScanStream] = []
        self.hits = 0
        self.misses = 0

    def acquire(
        self, table: Table, query: ScanQuery, context: ExecutionContext
    ) -> SharedScanConsumer:
        """A consumer for ``query``, shared with compatible live scans."""
        key = share_key(table, query, context.strict_integrity)
        stream = self._streams.get(key)
        if stream is not None and stream.failed is None and stream.consumers:
            self.hits += 1
            obs_metrics.SCHEDULER_SHARE_HITS.inc()
        else:
            stream = SharedScanStream(
                table, query.scan_attributes(), context.strict_integrity
            )
            self._streams[key] = stream
            self._history.append(stream)
            self.misses += 1
            obs_metrics.SCHEDULER_SHARE_MISSES.inc()
        obs_metrics.SHARE_HIT_RATIO.set(self.hits / (self.hits + self.misses))
        return SharedScanConsumer(context, stream, query)

    def discard(self, consumer: SharedScanConsumer) -> None:
        """Detach a failed/cancelled rider without touching its peers."""
        consumer.share.detach(consumer)

    def live_streams(self) -> list[SharedScanStream]:
        """Streams that still have riders attached."""
        return [
            stream for stream in self._streams.values() if stream.consumers
        ]

    def board(self) -> list[dict]:
        """Live-stream summaries for the scheduler dashboard."""
        return [
            {
                "table": stream.table.schema.name,
                "cursor": stream.cursor,
                "segments": stream.num_segments,
                "riders": [
                    consumer._flight_label() or "?"
                    for consumer in stream.consumers
                ],
            }
            for stream in self.live_streams()
        ]

    def io_bytes(self) -> int:
        """Bytes read by every stream ever created, each counted once."""
        return sum(stream.io_events.bytes_read for stream in self._history)

    def io_pages(self) -> int:
        return sum(stream.io_events.pages_touched for stream in self._history)

    def stats(self) -> dict:
        return {
            "share_hits": self.hits,
            "share_misses": self.misses,
            "shared_io_bytes": self.io_bytes(),
            "shared_io_pages": self.io_pages(),
        }
