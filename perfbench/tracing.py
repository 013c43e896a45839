"""Span tracing installed from outside the program.

For the traced run the benchmark replaces the public functions and
methods at each layer boundary with thin wrappers that record a span:
its name, start, end, parent span and the request (benchmark op) that
caused it.  Methods are replaced on their class; a module-level
function is replaced in every loaded ``repro`` module that binds it,
so a caller that imported it by name still goes through the wrapper.
Nothing inside the program is changed on disk, and the untraced runs
never see a wrapper.

A layer's self time is the sum, over its spans, of the span's
duration minus the durations of its direct child spans.  The program
is single-threaded here (the scheduler interleaves generators on one
thread), so child spans never overlap and that difference is exactly
the part of the span no child covers.  Work done inside forked
parallel workers is not traced: it shows up as the parent's wait.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


class SpanRecorder:
    """Spans kept in memory as parallel arrays; written out at the end."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # Typed arrays: a scan_matrix pass records millions of spans.
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.requests = array("q")
        self.stack: list[int] = []
        #: Benchmark op currently running; every span records it.
        self.request = -1
        #: Attributes the current op's query reads (for decode.useful_ratio).
        self.query_attrs: frozenset = frozenset()
        #: Work counts taken at the same boundaries as the spans.
        self.counts: dict[str, float] = defaultdict(float)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def by_name(self) -> dict[str, tuple[int, float]]:
        """``{span name: (calls, self seconds)}``."""
        if not self.starts:
            return {}
        names = np.frombuffer(self.name_ids, dtype=np.int32)
        dur = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        child = np.bincount(
            parents[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - child
        calls = np.bincount(names, minlength=len(self.names))
        seconds = np.bincount(names, weights=self_time, minlength=len(self.names))
        return {
            name: (int(calls[i]), float(seconds[i]))
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        """Write every span; times as microseconds from the first start."""
        starts = np.frombuffer(self.starts)
        origin = starts[0] if len(starts) else 0.0

        def micros(times):
            return np.round((np.frombuffer(times) - origin) * 1e6).astype(np.uint32)

        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name_id=np.frombuffer(self.name_ids, dtype=np.int32),
            start_us=micros(self.starts),
            end_us=micros(self.ends),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            request=np.frombuffer(self.requests, dtype=np.int64),
        )


def _wrap(fn, rec: SpanRecorder, name, count=None):
    """``fn`` recording one span per call.

    ``name`` is a span name or a callable ``(args, kwargs) -> name``;
    ``count``, when given, is called as ``count(rec, args, kwargs,
    result)`` after the call to add work counts.
    """
    perf = time.perf_counter
    fixed = None if callable(name) else rec.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        nid = fixed if fixed is not None else rec.name_id(name(args, kwargs))
        stack = rec.stack
        index = len(rec.starts)
        rec.name_ids.append(nid)
        rec.parents.append(stack[-1] if stack else -1)
        rec.requests.append(rec.request)
        rec.ends.append(0.0)
        stack.append(index)
        rec.starts.append(perf())
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.ends[index] = perf()
            stack.pop()
        if count is not None:
            count(rec, args, kwargs, result)
        return result

    return wrapper


class Instrumentation:
    """Installs wrappers and puts every original back on ``remove``."""

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec
        self._undo: list[tuple[object, str, object]] = []

    def method(self, cls, attr: str, name, count=None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, _wrap(original, self.rec, name, count))
        self._undo.append((cls, attr, original))

    def own_methods(self, root, attr: str, name, count=None) -> None:
        """Wrap ``attr`` on ``root`` and every subclass that defines it."""
        for cls in _subclasses(root):
            if attr in cls.__dict__ and not getattr(
                cls.__dict__[attr], "__isabstractmethod__", False
            ):
                label = name(cls) if callable(name) else name
                self.method(cls, attr, label, count)

    def function(self, module, attr: str, name, count=None) -> None:
        """Wrap a module function wherever a ``repro`` module binds it."""
        original = getattr(module, attr)
        wrapper = _wrap(original, self.rec, name, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _subclasses(root) -> list:
    seen, todo = [], [root]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


# --- the layer map -------------------------------------------------------


def _scan_arch(table, column_scanner) -> str:
    from repro.engine.plan import ColumnScannerKind
    from repro.storage.table import ColumnTable, PaxTable, RowTable

    if isinstance(table, RowTable):
        return "row"
    if isinstance(table, PaxTable):
        return "pax"
    if isinstance(table, ColumnTable):
        return "fused" if column_scanner is ColumnScannerKind.FUSED else "pipelined"
    return "other"


def _run_scan_name(args, kwargs) -> str:
    from repro.engine.plan import ColumnScannerKind

    scanner = args[3] if len(args) > 3 else kwargs.get(
        "column_scanner", ColumnScannerKind.PIPELINED
    )
    return "scan." + _scan_arch(args[0], scanner)


def _operator_layer(cls) -> str:
    return {
        "RowScanner": "scan.row",
        "PaxScanner": "scan.pax",
        "ColumnScanner": "scan.pipelined",
        "FusedColumnScanner": "scan.fused",
        "SharedScanConsumer": "sharing.consumer",
        "HybridUnion": "hybrid.operator",
        "DeltaScan": "hybrid.operator",
    }.get(cls.__name__, "operator.other")


def _count_predicate(rec, args, kwargs, result) -> None:
    rec.counts["predicate.values"] += len(args[1])


def _count_blocks(rec, args, kwargs, result) -> None:
    rec.counts["blocks.emitted"] += len(result)


def _count_row_attr(rec, args, kwargs, result) -> None:
    rec.counts["decode.attrs"] += 1
    if args[2] in rec.query_attrs:
        rec.counts["decode.useful_attrs"] += 1


def _count_useful_attr(rec, args, kwargs, result) -> None:
    rec.counts["decode.attrs"] += 1
    rec.counts["decode.useful_attrs"] += 1


def _count_inserted(rec, args, kwargs, result) -> None:
    rec.counts["write.insert_many.rows"] += len(args[1])


def _count_deleted(rec, args, kwargs, result) -> None:
    rec.counts["write.delete.rows"] += result


def _count_overlay(rec, args, kwargs, result) -> None:
    rec.counts["hybrid.delta_rows"] += len(result.delta_positions)


def _count_partitions(rec, args, kwargs, result) -> None:
    rec.counts["parallel.partitions"] += (
        kwargs.get("partitions") or kwargs.get("workers", 2)
    )


def install(rec: SpanRecorder) -> Instrumentation:
    """Wrap every traced layer boundary; returns the handle to undo it."""
    import repro.cpusim.cache as cache
    import repro.engine.blocks as blocks
    import repro.engine.executor as executor
    import repro.engine.hybrid as hybrid
    import repro.engine.parallel as parallel
    import repro.obs.recorder as recorder
    import repro.storage.loader as loader
    import repro.storage.page as page
    import repro.storage.write_store as write_store
    from repro.compression.base import Codec
    from repro.cpusim.events import CostEvents
    from repro.database import Database
    from repro.engine.operators.base import Operator
    from repro.engine.predicate import Predicate
    from repro.engine.scheduler import Scheduler
    from repro.engine.sharing import SharedScanStream
    from repro.obs.metrics import Counter, Histogram
    from repro.storage.pagefile import PagedFile
    from repro.storage.pax import PaxPageCodec

    ins = Instrumentation(rec)
    # storage
    ins.method(PagedFile, "read_page", "storage.read_page")
    ins.function(page, "page_checksum", "storage.crc")
    # decode
    ins.method(page.RowPageCodec, "decode_columns", "decode.row_page")
    ins.method(page.RowPageCodec, "column_from_rows", "decode.column_from_rows",
               _count_row_attr)
    ins.method(PaxPageCodec, "decode_attribute", "decode.pax_page",
               _count_useful_attr)
    ins.method(page.ColumnPageCodec, "decode", "decode.column_page",
               _count_useful_attr)
    ins.method(page.ColumnPageCodec, "decode_raw", "decode.column_page",
               _count_useful_attr)
    for attr in ("decode_page", "decode_codes", "decode_positions"):
        ins.own_methods(Codec, attr, "decode.codec")
    # predicate
    ins.method(Predicate, "evaluate", "predicate", _count_predicate)
    # cpusim
    ins.function(cache, "classify_page_access", "cpusim.classify_page_access")
    ins.function(cache, "lines_touched", "cpusim.lines_touched")
    ins.method(CostEvents, "count_decode", "cpusim.count_decode")
    # scanners, blocks and the per-block checkpoint
    ins.function(executor, "run_scan", _run_scan_name)
    ins.own_methods(Operator, "_next", _operator_layer)
    ins.own_methods(Operator, "_open", _operator_layer)
    ins.own_methods(Operator, "next", "operator.next")
    ins.function(blocks, "split_into_blocks", "blocks.split", _count_blocks)
    # parallel, scheduler, sharing
    ins.function(parallel, "parallel_query", "parallel", _count_partitions)
    ins.method(Scheduler, "run", "scheduler")
    ins.method(Scheduler, "run_until", "scheduler")
    ins.method(SharedScanStream, "step", "sharing.step")
    # hybrid read path
    ins.function(hybrid, "build_overlay", "hybrid.build_overlay", _count_overlay)
    ins.method(hybrid.HybridOverlay, "apply", "hybrid.apply")
    ins.function(hybrid, "run_scan_with_store", "hybrid.run_scan_with_store")
    # write store, delete vector and merge
    ins.method(write_store.WriteOptimizedStore, "insert_many",
               "write.insert_many", _count_inserted)
    ins.method(write_store.WriteOptimizedStore, "delete", "write.delete",
               _count_deleted)
    ins.method(write_store.WriteOptimizedStore, "merged_data", "merge.merged_data")
    ins.function(write_store, "build_codec_for_values", "merge.codec_refresh")
    ins.function(loader, "load_table", "merge.load_table")
    # database routing
    for attr in ("query", "submit", "run_workload"):
        ins.method(Database, attr, f"database.{attr}")
    # always-on telemetry
    ins.function(recorder, "record", "obs.record")
    ins.method(Counter, "inc", "obs.inc")
    ins.method(Histogram, "observe", "obs.observe")
    return ins
