"""One page source for every reader.

Every scan in the engine reads pages the same way, whatever it does
with them afterwards: the four scanners, the shared-scan stream and the
index scan all go through a :class:`PageSource`.  It owns

* the row window: :func:`normalize_row_range` clamps it, and
  :meth:`PageSource.scan` skips pages before ``lo`` without I/O and
  stops at ``hi``;
* one governance checkpoint per page read;
* the read itself — retry and CRC through
  :meth:`~repro.storage.pagefile.PagedFile.read_page`, then the
  layout's decode (:meth:`~repro.storage.table.Table.page_files`);
* the salvage policy: under strict integrity a bad page aborts the
  query, otherwise it is recorded once in the context's
  :class:`~repro.storage.scrub.CorruptionReport` and skipped;
* position-driven reads (:meth:`PageSource.read_positions`), which
  visit each page holding a sorted position list once, in order.

The readers keep what differs between the architectures: which pages
they need, and the per-architecture cost accounting.  The small helpers
at the bottom are the row-level steps several readers share.
"""

from __future__ import annotations

import time
from typing import Callable, Iterator

import numpy as np

from repro.engine.blocks import Block
from repro.errors import CompressionError, PlanError, StorageError
from repro.obs import metrics as obs_metrics
from repro.obs import recorder as flight
from repro.storage.table import PageFile

#: What salvage mode treats as "this page is corrupt, skip it": checksum
#: mismatches, malformed page bytes, codec failures, missing pages, and
#: transient faults whose retry budget is exhausted.
SALVAGEABLE_ERRORS = (StorageError, CompressionError)


def normalize_row_range(
    row_range: tuple[int, int] | None, num_rows: int
) -> tuple[int, int]:
    """Clamp a half-open ``[lo, hi)`` row window to the table.

    ``None`` means the whole table.  The window is what horizontal
    partitioning (``repro.storage.partition``) hands each parallel
    worker; positions emitted under a window stay *global* Record IDs.
    """
    if row_range is None:
        return (0, num_rows)
    lo, hi = row_range
    if lo < 0 or hi < lo:
        raise PlanError(f"invalid row range: [{lo}, {hi})")
    return (min(lo, num_rows), min(hi, num_rows))


class PageSource:
    """The pages of one file, read on behalf of one reader.

    ``context`` supplies the integrity mode, the corruption report and
    the governance label; it is read on every page, never cached, so a
    context whose report is replaced between executions stays right.
    ``checkpoint`` runs once before every page read.
    """

    __slots__ = ("page_file", "context", "checkpoint")

    def __init__(
        self,
        page_file: PageFile,
        context,
        checkpoint: Callable[[], None] | None = None,
    ):
        self.page_file = page_file
        self.context = context
        self.checkpoint = checkpoint

    @classmethod
    def for_reader(cls, reader, page_file: PageFile) -> "PageSource":
        """A source reading for one operator: its context and checkpoint."""
        return cls(page_file, reader.context, reader._governance_check)

    def read(self, page_id: int, rows_lost: int, decode=None):
        """Read and decode one page under the integrity policy.

        ``decode`` defaults to the file's own.  Returns the decoded page,
        or ``None`` when salvage skips it: the fault is recorded with
        ``rows_lost`` as the estimate of the rows it held.
        """
        if self.checkpoint is not None:
            self.checkpoint()
        decode = decode or self.page_file.decode
        file = self.page_file.file
        context = self.context
        try:
            if obs_metrics.enabled():
                started = time.perf_counter()
                result = decode(file.read_page(page_id))
                obs_metrics.PAGE_DECODE_SECONDS.observe(time.perf_counter() - started)
            else:
                result = decode(file.read_page(page_id))
        except SALVAGEABLE_ERRORS as exc:
            if context.strict_integrity:
                raise
            obs_metrics.PAGES_SALVAGED.inc()
            governance = context.governance
            flight.record(
                "storage.salvage",
                governance.label if governance is not None else None,
                file=file.name,
                page=page_id,
                error=type(exc).__name__,
            )
            context.corruption.record(file.name, page_id, rows_lost, exc)
            return None
        context.corruption.pages_scanned += 1
        return result

    def scan(self, lo: int, hi: int) -> Iterator[tuple[int, object]]:
        """``(first_row, decoded)`` for each page overlapping ``[lo, hi)``.

        Pages wholly before ``lo`` are skipped without I/O.  ``decoded``
        is ``(count, ...)`` or ``None`` for a page salvage skipped; the
        next page's first row then advances by the skipped page's
        nominal span, so later Record IDs stay aligned.
        """
        row_span = self.page_file.row_span
        row_base = 0
        for page_id in range(self.page_file.file.num_pages):
            if row_base >= hi:
                return
            span = row_span(page_id)
            if row_base + span <= lo:
                row_base += span
                continue
            decoded = self.read(page_id, span)
            yield row_base, decoded
            row_base += span if decoded is None else decoded[0]

    def read_positions(
        self, page_ids: np.ndarray, decode
    ) -> Iterator[tuple[int, int, int, object]]:
        """Read each page a sorted position list falls on, once, in order.

        ``page_ids[i]`` is the page of the i-th position.  Yields
        ``(page_id, start, stop, decoded)``: positions ``[start, stop)``
        lie on ``page_id`` and ``decoded`` is ``decode(raw, page_id,
        start, stop)``, or ``None`` for a page salvage dropped — it is
        charged the ``stop - start`` rows it held.
        """
        if not len(page_ids):
            return
        pages, starts = np.unique(page_ids, return_index=True)
        stops = np.append(starts[1:], len(page_ids))
        for page_id, start, stop in zip(
            pages.tolist(), starts.tolist(), stops.tolist()
        ):
            decoded = self.read(
                page_id,
                stop - start,
                lambda raw: decode(raw, page_id, start, stop),
            )
            yield page_id, start, stop, decoded


# --- row-level steps the readers share ---------------------------------------


def window_mask(
    count: int, first_row: int, lo: int, hi: int
) -> tuple[np.ndarray, int]:
    """The rows of a ``count``-row page inside ``[lo, hi)``, and how many.

    Pages are decoded (and charged) whole; rows outside the window are
    never examined.
    """
    start = max(0, lo - first_row)
    stop = max(start, min(count, hi - first_row))
    if stop - start == count:
        return np.ones(count, dtype=bool), count
    mask = np.zeros(count, dtype=bool)
    mask[start:stop] = True
    return mask, stop - start


def apply_predicates(
    events, predicates, columns, mask, candidates, schema
) -> np.ndarray:
    """AND each predicate into ``mask``, charging the rows it compares.

    The first predicate compares ``candidates`` rows; each later one
    only the rows still qualifying.  Each comparison reads one value of
    the attribute's width.
    """
    for index, predicate in enumerate(predicates):
        if index:
            candidates = int(np.count_nonzero(mask))
        events.predicate_evals += candidates
        width = schema.attribute(predicate.attr).width
        events.predicate_eval_bytes += candidates * width
        mask &= predicate.evaluate(columns[predicate.attr])
    return mask


def charge_copies(events, schema, select, qualified: int) -> None:
    """Charge copying ``qualified`` tuples' selected attributes out."""
    events.values_copied += qualified * len(select)
    events.bytes_copied += qualified * sum(
        schema.attribute(name).width for name in select
    )


def project(events, schema, select, columns, mask, first_row: int) -> Block:
    """The qualifying rows' selected attributes as one charged block."""
    charge_copies(events, schema, select, int(np.count_nonzero(mask)))
    return Block(
        columns={name: columns[name][mask] for name in select},
        positions=first_row + np.flatnonzero(mask),
    )


def empty_block(schema, select) -> Block:
    """A no-row block that still carries the output columns' dtypes."""
    return Block(
        columns={
            name: np.zeros(0, dtype=schema.attribute(name).attr_type.numpy_dtype())
            for name in select
        },
        positions=np.zeros(0, dtype=np.int64),
    )


def describe_scan(table, select, predicates, row_range=None) -> str:
    """The EXPLAIN detail shared by the scanners."""
    detail = f"{table.schema.name}: {', '.join(select)}"
    if predicates:
        detail += f" | {len(predicates)} predicate(s)"
    if row_range is not None and tuple(row_range) != (0, table.num_rows):
        detail += f" | rows [{row_range[0]}, {row_range[1]})"
    return detail
