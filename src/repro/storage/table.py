"""Row and column tables: schema + paged files.

A :class:`RowTable` stores the whole relation in one file of row pages;
a :class:`ColumnTable` stores one file of column pages per attribute
(Figure 3).  Both expose the file-size arithmetic the I/O simulator
needs to model paper-scale scans without materializing paper-scale data.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from repro.compression.registry import build_codec
from repro.errors import SchemaError, StorageError
from repro.storage.layout import Layout
from repro.storage.page import DEFAULT_PAGE_SIZE, ColumnPageCodec, RowPageCodec
from repro.storage.pagefile import PagedFile
from repro.storage.rowz import CompressedRowPageCodec, schema_is_compressed
from repro.types.schema import TableSchema


def make_row_page_codec(
    schema: TableSchema, page_size: int = DEFAULT_PAGE_SIZE
) -> "RowPageCodec | CompressedRowPageCodec":
    """Pick the plain or bit-packed row page codec for a schema."""
    if schema_is_compressed(schema):
        return CompressedRowPageCodec(schema, page_size)
    return RowPageCodec(schema, page_size)


class PageFile(NamedTuple):
    """One paged file of a table and how to read its pages.

    ``decode(raw)`` turns one page's bytes into ``(count, columns)``:
    the page's value count and ``{attr: values}`` for ``attrs``.
    ``row_span(page_id)`` is the page's nominal row count, known without
    reading it (skipping pages, estimating the rows a corrupt page held).
    """

    attrs: tuple[str, ...]
    file: PagedFile
    row_span: Callable[[int], int]
    decode: Callable[[bytes], tuple[int, dict[str, np.ndarray]]]


class Table(abc.ABC):
    """Common interface for the two physical layouts."""

    def __init__(self, schema: TableSchema, num_rows: int, page_size: int):
        self.schema = schema
        self.num_rows = num_rows
        self.page_size = page_size

    @property
    @abc.abstractmethod
    def layout(self) -> Layout:
        """Physical layout of this table."""

    @property
    @abc.abstractmethod
    def total_bytes(self) -> int:
        """Total on-disk size of the materialized table."""

    @abc.abstractmethod
    def file_sizes_for(self, attrs: list[str], cardinality: int | None = None) -> dict[str, int]:
        """Bytes that a scan selecting ``attrs`` must read, per file.

        ``cardinality`` overrides the materialized row count so the I/O
        simulator can be driven at paper scale (60 M rows) while the
        engine executes on a small materialized table.
        """

    @abc.abstractmethod
    def page_files(self, attrs) -> list[PageFile]:
        """The files a reader of ``attrs`` reads, each with its decode."""

    def read_column(self, name: str) -> np.ndarray:
        """Materialize one full column (testing/verification path)."""
        [page_file] = self.page_files((name,))
        chunks = [
            page_file.decode(page)[1][name] for page in page_file.file.iter_pages()
        ]
        if not chunks:
            attr = self.schema.attribute(name)
            return np.zeros(0, dtype=attr.attr_type.numpy_dtype())
        return np.concatenate(chunks)

    def columns_dict(self) -> dict[str, np.ndarray]:
        """Materialize every column (testing/verification path)."""
        return {name: self.read_column(name) for name in self.schema.attribute_names}


class _SingleFileTable(Table):
    """One file of pages that each hold every attribute of their rows."""

    def __init__(
        self,
        schema: TableSchema,
        file: PagedFile,
        num_rows: int,
        page_size: int,
        page_codec,
    ):
        super().__init__(schema, num_rows, page_size)
        self.file = file
        self.page_codec = page_codec

    @property
    def total_bytes(self) -> int:
        return self.file.size_bytes

    def pages_for_rows(self, cardinality: int) -> int:
        return math.ceil(cardinality / self.page_codec.tuples_per_page)

    def row_span_of_page(self, page_id: int) -> int:
        """Rows one page covers (corruption accounting; see ColumnFile)."""
        capacity = self.page_codec.tuples_per_page
        return max(0, min(capacity, self.num_rows - page_id * capacity))

    def file_sizes_for(self, attrs: list[str], cardinality: int | None = None) -> dict[str, int]:
        # Every page holds whole rows, so a scan reads the whole file no
        # matter the projection (PAX included: it only regroups a page).
        for name in attrs:
            self.schema.attribute(name)  # raises SchemaError when unknown
        rows = self.num_rows if cardinality is None else cardinality
        return {self.schema.name: self.pages_for_rows(rows) * self.page_size}

    @abc.abstractmethod
    def decode_page(self, raw: bytes, attrs) -> tuple[int, dict[str, np.ndarray]]:
        """``(count, {attr: values})`` of one page for ``attrs``."""

    def page_files(self, attrs) -> list[PageFile]:
        attrs = tuple(attrs)
        for name in attrs:
            self.schema.attribute(name)
        return [
            PageFile(
                attrs,
                self.file,
                self.row_span_of_page,
                lambda raw: self.decode_page(raw, attrs),
            )
        ]


class RowTable(_SingleFileTable):
    """One file of dense row pages."""

    def __init__(
        self,
        schema: TableSchema,
        file: PagedFile,
        num_rows: int,
        page_size: int = DEFAULT_PAGE_SIZE,
    ):
        super().__init__(
            schema, file, num_rows, page_size, make_row_page_codec(schema, page_size)
        )

    @property
    def layout(self) -> Layout:
        return Layout.ROW

    @property
    def row_stride(self) -> int:
        return self.page_codec.stride

    def decode_page(self, raw: bytes, attrs) -> tuple[int, dict[str, np.ndarray]]:
        """A row page decodes every attribute; ``attrs`` are returned."""
        _page_id, count, columns = self.page_codec.decode_columns(raw)
        return count, {name: columns[name] for name in attrs}


@dataclass
class ColumnFile:
    """One column's paged file plus its page codec.

    Variable-capacity codecs (RLE) carry a *page directory*:
    ``first_rows[i]`` is the global row id of page ``i``'s first value,
    so positional lookups stay O(log pages) regardless of how the data
    compressed.
    """

    name: str
    file: PagedFile
    page_codec: ColumnPageCodec
    first_rows: np.ndarray | None = None
    #: Measured average stored bits per value (variable codecs only);
    #: drives paper-scale size extrapolation.
    effective_bits: float | None = None

    @property
    def values_per_page(self) -> int:
        return self.page_codec.values_per_page

    @property
    def is_variable(self) -> bool:
        return self.page_codec.codec.is_variable

    def page_of_positions(self, positions: np.ndarray) -> np.ndarray:
        """Page index containing each global row position."""
        if self.first_rows is None:
            return positions // self.values_per_page
        return (
            np.searchsorted(self.first_rows, positions, side="right") - 1
        ).astype(np.int64)

    def first_row_of_page(self, page_id: int) -> int:
        """Global row id of a page's first value."""
        if self.first_rows is None:
            return page_id * self.values_per_page
        return int(self.first_rows[page_id])

    def row_span_of_page(self, page_id: int, num_rows: int) -> int:
        """How many of the table's rows one page covers.

        Used by salvage scans and :mod:`repro.storage.scrub` to estimate
        the rows lost with an undecodable page without trusting its
        (possibly corrupt) entry count.
        """
        start = self.first_row_of_page(page_id)
        if self.first_rows is not None:
            if page_id + 1 < len(self.first_rows):
                end = int(self.first_rows[page_id + 1])
            else:
                end = num_rows
        else:
            end = min(num_rows, start + self.values_per_page)
        return max(0, end - start)

    def page_file(self, num_rows: int) -> PageFile:
        """This column's file, each page fully decoded."""
        page_codec = self.page_codec
        name = self.name

        def decode(raw: bytes) -> tuple[int, dict[str, np.ndarray]]:
            _page_id, count, payload, state = page_codec.decode_raw(raw)
            return count, {name: page_codec.codec.decode_page(payload, count, state)}

        return PageFile(
            (self.name,),
            self.file,
            lambda page_id: self.row_span_of_page(page_id, num_rows),
            decode,
        )


class ColumnTable(Table):
    """One file of dense column pages per attribute."""

    def __init__(
        self,
        schema: TableSchema,
        column_files: dict[str, ColumnFile],
        num_rows: int,
        page_size: int = DEFAULT_PAGE_SIZE,
    ):
        super().__init__(schema, num_rows, page_size)
        missing = set(schema.attribute_names) - set(column_files)
        if missing:
            raise StorageError(f"missing column files: {sorted(missing)}")
        self.column_files = column_files

    @property
    def layout(self) -> Layout:
        return Layout.COLUMN

    @property
    def total_bytes(self) -> int:
        return sum(cf.file.size_bytes for cf in self.column_files.values())

    def column_file(self, name: str) -> ColumnFile:
        if name not in self.column_files:
            raise SchemaError(f"no column {name!r} in table {self.schema.name!r}")
        return self.column_files[name]

    def pages_for_rows(self, name: str, cardinality: int) -> int:
        column_file = self.column_file(name)
        if column_file.is_variable and column_file.effective_bits is not None:
            # Variable-capacity codecs: extrapolate from the measured
            # stored-bits-per-value density.
            from repro.storage.page import page_payload_bytes

            payload_bits = page_payload_bytes(self.page_size) * 8
            total_bits = cardinality * column_file.effective_bits
            return max(1, math.ceil(total_bits / payload_bits))
        return math.ceil(cardinality / column_file.values_per_page)

    def file_sizes_for(self, attrs: list[str], cardinality: int | None = None) -> dict[str, int]:
        rows = self.num_rows if cardinality is None else cardinality
        return {
            name: self.pages_for_rows(name, rows) * self.page_size
            for name in attrs
        }

    def page_files(self, attrs) -> list[PageFile]:
        return [self.column_file(name).page_file(self.num_rows) for name in attrs]


class PaxTable(_SingleFileTable):
    """One file of PAX pages: row-store I/O, minipage-grouped contents."""

    def __init__(
        self,
        schema: TableSchema,
        file: PagedFile,
        num_rows: int,
        page_size: int = DEFAULT_PAGE_SIZE,
    ):
        from repro.storage.pax import PaxPageCodec

        super().__init__(
            schema, file, num_rows, page_size, PaxPageCodec(schema, page_size)
        )

    @property
    def layout(self) -> Layout:
        return Layout.PAX

    def decode_page(self, raw: bytes, attrs) -> tuple[int, dict[str, np.ndarray]]:
        """Only the minipages of ``attrs`` are decoded."""
        count = 0
        columns = {}
        for name in attrs:
            _page_id, count, columns[name] = self.page_codec.decode_attribute(
                raw, name
            )
        return count, columns


def build_column_file(
    schema: TableSchema, name: str, page_size: int = DEFAULT_PAGE_SIZE
) -> ColumnFile:
    """An empty column file with its codec built from the schema spec."""
    attr = schema.attribute(name)
    codec = build_codec(attr.spec, attr.attr_type)
    page_codec = ColumnPageCodec(codec, page_size)
    file = PagedFile(f"{schema.name}.{name}", page_size=page_size)
    return ColumnFile(name=name, file=file, page_codec=page_codec)
