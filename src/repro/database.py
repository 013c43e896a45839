"""A small facade tying the subsystems together.

:class:`Database` is the entry point a downstream user wants: register
generated data once, get both physical layouts (plus optional
compression and materialized views), run queries without touching the
plan builders, and ask the analytical model which layout a workload
should use.

    >>> from repro import Database, generate_orders
    >>> db = Database()
    >>> db.create_table(generate_orders(10_000, seed=1))
    >>> result = db.query("ORDERS", select=("O_ORDERDATE", "O_TOTALPRICE"))
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import time

import numpy as np

from repro.compression.advisor import CompressionAdvisor
from repro.data.generator import GeneratedTable
from repro.design.materialize import MaterializedView, ViewRouter, materialize_view
from repro.engine.context import ExecutionContext
from repro.engine.executor import QueryResult, run_scan
from repro.engine.hybrid import HybridOverlay, build_overlay
from repro.engine.governance import (
    CancellationToken,
    CircuitBreaker,
    QueryContext,
    SupervisionPolicy,
)
from repro.engine.plan import ColumnScannerKind
from repro.engine.predicate import Predicate, predicate_for_selectivity
from repro.engine.query import ScanQuery
from repro.engine.scheduler import JobHandle, QueryHandle, Scheduler, WorkloadQuery
from repro.errors import ChecksumError, PlanError, StorageError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ScanMeasurement, measure_scan
from repro.obs import metrics as obs_metrics
from repro.obs import recorder as flight
from repro.obs.export import QueryProfile
from repro.obs.provenance import provenance
from repro.obs.recorder import FlightRecorder
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import SpanTracer
from repro.storage.layout import Layout
from repro.storage.loader import load_table
from repro.storage.scrub import CorruptionReport, scrub_table
from repro.storage.table import Table
from repro.storage.write_store import WriteOptimizedStore


@dataclass
class _TableEntry:
    data: GeneratedTable
    tables: dict[Layout, Table]
    router: ViewRouter
    #: Staged inserts + delete vector feeding the hybrid read path.
    store: WriteOptimizedStore
    #: Arguments of every :meth:`Database.create_view` call, replayed
    #: after a merge so views stay consistent with the new base.
    view_defs: list[dict]


class Database:
    """Registered tables in every layout, with query routing on top."""

    def __init__(
        self,
        layouts: tuple[Layout, ...] = (Layout.ROW, Layout.COLUMN),
        page_size: int = 4096,
    ):
        if not layouts:
            raise StorageError("a database needs at least one layout")
        self.layouts = tuple(layouts)
        self.page_size = page_size
        self._tables: dict[str, _TableEntry] = {}
        #: Remembers repeatedly-failing partitions across this
        #: instance's parallel queries and routes them straight to
        #: salvage-mode serial scans (see :mod:`repro.engine.governance`).
        self.breaker = CircuitBreaker()
        #: Lazily-created persistent scheduler behind :meth:`submit`.
        self._scheduler: Scheduler | None = None

    # --- DDL -------------------------------------------------------------

    def create_table(
        self,
        data: GeneratedTable,
        compress: bool = False,
        sort_key: str | None = None,
        write_budget: int | None = None,
    ) -> None:
        """Register one generated table, materialized in every layout.

        ``sort_key`` declares the clustering attribute: merges re-sort
        the combined data on it (stable, so duplicate-key rows keep
        insertion order).  ``write_budget`` caps the bytes the table's
        write store may stage before an insert raises
        :class:`~repro.errors.MemoryBudgetExceeded` (merge to drain).
        """
        name = data.schema.name
        if name in self._tables:
            raise StorageError(f"table {name!r} already exists")
        if compress:
            advisor = CompressionAdvisor()
            attr_types = {a.name: a.attr_type for a in data.schema}
            specs = advisor.advise(attr_types, data.columns)
            data = data.with_schema(data.schema.with_codecs(specs))
        tables = {
            layout: load_table(data, layout, page_size=self.page_size)
            for layout in self.layouts
        }
        router = ViewRouter(tables[self.layouts[0]])
        store = WriteOptimizedStore(
            data.schema, sort_key=sort_key, memory_budget=write_budget
        )
        store.attach_base(data.num_rows)
        self._tables[name] = _TableEntry(
            data=data, tables=tables, router=router, store=store, view_defs=[]
        )

    def create_view(
        self,
        table: str,
        attributes: tuple[str, ...],
        name: str | None = None,
        sort_key: str | None = None,
        compress: bool = True,
        use_rle: bool = False,
    ) -> MaterializedView:
        """Materialize a vertical partition and register it for routing."""
        entry = self._entry(table)
        view = materialize_view(
            entry.data,
            attributes,
            name=name,
            sort_key=sort_key,
            layout=(
                Layout.COLUMN if Layout.COLUMN in self.layouts else self.layouts[0]
            ),
            compress=compress,
            use_rle=use_rle,
            page_size=self.page_size,
        )
        entry.router.add_view(view)
        entry.view_defs.append(
            {
                "attributes": tuple(attributes),
                "name": view.name,
                "sort_key": sort_key,
                "compress": compress,
                "use_rle": use_rle,
            }
        )
        return view

    def _rematerialize_views(self, entry: _TableEntry) -> None:
        """Rebuild every view of a table after its base data changed."""
        entry.router = ViewRouter(entry.tables[self.layouts[0]])
        for spec in entry.view_defs:
            view = materialize_view(
                entry.data,
                spec["attributes"],
                name=spec["name"],
                sort_key=spec["sort_key"],
                layout=(
                    Layout.COLUMN
                    if Layout.COLUMN in self.layouts
                    else self.layouts[0]
                ),
                compress=spec["compress"],
                use_rle=spec["use_rle"],
                page_size=self.page_size,
            )
            entry.router.add_view(view)

    # --- catalog -----------------------------------------------------------

    def table(self, name: str, layout: Layout | None = None) -> Table:
        """One materialized table (default: the first configured layout)."""
        entry = self._entry(name)
        layout = layout or self.layouts[0]
        if layout not in entry.tables:
            raise StorageError(f"table {name!r} not loaded as {layout}")
        return entry.tables[layout]

    def tables(self) -> list[str]:
        return sorted(self._tables)

    def _entry(self, name: str) -> _TableEntry:
        if name not in self._tables:
            raise StorageError(f"no table {name!r}; have {self.tables()}")
        return self._tables[name]

    # --- writes (the Figure 1 write-optimized store) -------------------------

    def write_store(self, table: str) -> WriteOptimizedStore:
        """The staging store behind one table's hybrid read path."""
        return self._entry(table).store

    def insert(self, table: str, row: tuple) -> None:
        """Stage one tuple; visible to queries immediately (hybrid scan)."""
        self.insert_many(table, [row])

    def insert_many(self, table: str, rows: list[tuple]) -> None:
        """Stage a batch of tuples atomically-in-memory.

        Validation and the write budget are enforced row-by-row; on
        failure the already-staged prefix remains (idempotent retries
        should re-derive the batch from the caller's source of truth).
        """
        entry = self._entry(table)
        entry.store.insert_many(rows)
        if obs_metrics.enabled():
            obs_metrics.WRITE_STAGED_ROWS.inc(len(rows))
            obs_metrics.WRITE_STAGED_BYTES.set(self._staged_bytes())
        flight.record(
            "write.stage",
            None,
            table=table,
            rows=len(rows),
            staged=len(entry.store),
        )

    def delete(
        self,
        table: str,
        predicates: tuple[Predicate, ...] = (),
        positions=None,
    ) -> int:
        """Mark rows deleted in the table's delete vector.

        Either by explicit global ``positions`` or by ``predicates``
        (both base rows and staged rows are matched; no predicates
        means *all* rows).  Deletes are logical until the next merge;
        queries stop seeing the rows immediately.  Returns how many
        rows were newly deleted (re-deleting is idempotent).
        """
        entry = self._entry(table)
        store = entry.store
        if positions is not None:
            if predicates:
                raise PlanError("pass predicates or positions, not both")
            newly = store.delete(positions)
        else:
            # The probe scan runs the *base* table directly: delete
            # positions are global (un-remapped), so the hybrid path
            # (which renumbers around prior deletes) must not be used.
            probe_attr = predicates[0].attr if predicates else (
                entry.data.schema.attribute_names[0]
            )
            scan = ScanQuery(
                table, select=(probe_attr,), predicates=tuple(predicates)
            )
            base = entry.tables[self.layouts[0]]
            matched = list(run_scan(base, scan).positions)
            staged = store.staged_columns()
            if staged:
                live = np.ones(len(store), dtype=bool)
                for predicate in predicates:
                    live &= predicate.evaluate(staged[predicate.attr])
                matched.extend(
                    (store.base_rows + np.flatnonzero(live)).tolist()
                )
            newly = store.delete(matched) if matched else 0
        if obs_metrics.enabled() and newly:
            obs_metrics.WRITE_DELETED_ROWS.inc(newly)
        flight.record(
            "write.delete",
            None,
            table=table,
            newly=newly,
            deleted=store.deletes.count(),
        )
        return newly

    def merge(
        self, table: str, verify: bool = False, background: bool = False
    ) -> JobHandle | None:
        """Drain the write store into freshly rebuilt read-store tables.

        Foreground (default): rebuild every materialized layout with
        deletes reclaimed and staged rows appended (re-clustered on the
        declared ``sort_key``, stable), swap them in, re-materialize
        views, and clear the staging area.  ``verify=True`` sweeps the
        rebuilt pages before the swap, so a merge can never install
        corrupt pages.

        Background: the same work proceeds incrementally on the
        database's scheduler (one layout per step) — returns a
        :class:`~repro.engine.scheduler.JobHandle`; drive it with
        ``db.scheduler.run()`` (or interleave your own submits).
        Queries in flight finish on the old snapshot; writes are frozen
        until the merge commits.
        """
        if background:
            return self.start_merge(table, verify=verify)
        entry = self._entry(table)
        store = entry.store
        label = f"merge {table}"
        flight.record(
            "write.merge.begin",
            label,
            table=table,
            staged=len(store),
            deleted=store.deletes.count(),
        )
        started = time.perf_counter()
        staged = len(store)
        reclaimed = store.deletes.count()
        store.begin_merge()
        try:
            new_data = store.merged_data(entry.data.schema, entry.data.columns)
            new_tables = {
                layout: load_table(
                    new_data, layout, page_size=self.page_size, verify=verify
                )
                for layout in self.layouts
            }
        except BaseException as exc:
            store.end_merge()
            flight.record(
                "write.merge.abort", label, table=table, error=type(exc).__name__
            )
            if flight.enabled():
                flight.RECORDER.dump_blackbox(label, error=exc)
            if obs_metrics.enabled():
                obs_metrics.WRITE_MERGE_ABORTS.inc()
            raise
        store.end_merge()
        entry.data = new_data
        entry.tables = new_tables
        self._rematerialize_views(entry)
        store.reset(new_data.num_rows)
        if obs_metrics.enabled():
            obs_metrics.WRITE_MERGES.inc()
            obs_metrics.WRITE_MERGE_SECONDS.observe(time.perf_counter() - started)
            obs_metrics.WRITE_MERGED_ROWS.inc(staged)
            obs_metrics.WRITE_RECLAIMED_ROWS.inc(reclaimed)
            obs_metrics.WRITE_STAGED_BYTES.set(self._staged_bytes())
        flight.record(
            "write.merge.commit", label, table=table, rows=new_data.num_rows
        )
        return None

    def start_merge(self, table: str, verify: bool = False) -> JobHandle:
        """Kick off an incremental merge on the database's scheduler.

        The merge advances one step per scheduler round (rebuild, then
        one layout load per step, then an atomic in-memory swap), so
        queries submitted before the swap finish on the old snapshot
        and queries submitted after it see the merged table.  The write
        store is frozen for the duration.
        """
        entry = self._entry(table)
        store = entry.store
        label = f"background merge {table}"
        staged = len(store)
        reclaimed = store.deletes.count()
        started = time.perf_counter()

        def steps():
            store.begin_merge()
            flight.record(
                "write.merge.begin",
                label,
                table=table,
                staged=staged,
                deleted=reclaimed,
            )
            try:
                new_data = store.merged_data(
                    entry.data.schema, entry.data.columns
                )
                yield
                new_tables = {}
                for layout in self.layouts:
                    new_tables[layout] = load_table(
                        new_data, layout, page_size=self.page_size, verify=verify
                    )
                    yield
                # The swap is one step: queries never see a half-merged
                # catalog entry.
                entry.data = new_data
                entry.tables = new_tables
                self._rematerialize_views(entry)
            except BaseException as exc:
                store.end_merge()
                flight.record(
                    "write.merge.abort",
                    label,
                    table=table,
                    error=type(exc).__name__,
                )
                if obs_metrics.enabled():
                    obs_metrics.WRITE_MERGE_ABORTS.inc()
                raise
            store.end_merge()
            store.reset(new_data.num_rows)
            if obs_metrics.enabled():
                obs_metrics.WRITE_MERGES.inc()
                obs_metrics.WRITE_MERGE_SECONDS.observe(
                    time.perf_counter() - started
                )
                obs_metrics.WRITE_MERGED_ROWS.inc(staged)
                obs_metrics.WRITE_RECLAIMED_ROWS.inc(reclaimed)
                obs_metrics.WRITE_STAGED_BYTES.set(self._staged_bytes())
            flight.record(
                "write.merge.commit", label, table=table, rows=new_data.num_rows
            )
            return new_data.num_rows

        return self.scheduler.submit_job(steps(), label=label)

    def _staged_bytes(self) -> int:
        return sum(entry.store.staged_bytes for entry in self._tables.values())

    def write_board(self) -> dict:
        """Per-table write-store state for the dashboard panel."""
        return {
            name: {
                "staged": len(entry.store),
                "staged_bytes": entry.store.staged_bytes,
                "deleted": entry.store.deletes.count(),
                "base_rows": entry.store.base_rows,
                "budget": entry.store.memory_budget,
                "merging": entry.store.merging,
            }
            for name, entry in sorted(self._tables.items())
        }

    # --- queries ------------------------------------------------------------

    def query(
        self,
        table: str,
        select: tuple[str, ...],
        predicates: tuple[Predicate, ...] = (),
        layout: Layout | None = None,
        use_views: bool = True,
        context: ExecutionContext | None = None,
        salvage: bool = False,
        workers: int = 1,
        partitions: int | None = None,
        timeout: float | None = None,
        memory_budget: int | None = None,
        cancellation: CancellationToken | None = None,
        policy: SupervisionPolicy | None = None,
        column_scanner: ColumnScannerKind = ColumnScannerKind.PIPELINED,
    ) -> QueryResult:
        """Execute a scan, optionally routed to a covering view.

        When the table has staged writes or logical deletes, the scan
        runs the *hybrid* path (base minus delete vector, plus staged
        rows) and its result is byte-identical to re-running the query
        against a freshly merged table.  Views are bypassed while the
        write store is dirty — they reflect the last merge.

        Strict by default: a corrupt page aborts the query with
        :class:`~repro.errors.ChecksumError`.  With ``salvage=True`` the
        scan skips corrupt pages and reports them through
        ``QueryResult.corruption`` instead.

        ``workers > 1`` fans the scan out over row-range partitions
        (``partitions``, default one per worker) in a multiprocessing
        pool — see :func:`repro.engine.parallel.parallel_query`.  The
        worker count is clamped to ``os.cpu_count()``: oversubscribing
        the fork pool only adds scheduling latency.  Plans the parallel
        executor cannot decompose fall back to the serial engine
        transparently.

        ``timeout`` (seconds), ``memory_budget`` (bytes), and
        ``cancellation`` opt the query into lifecycle governance (see
        :mod:`repro.engine.governance`): it then either completes,
        degrades gracefully, or raises a typed
        :class:`~repro.errors.GovernanceError` subclass — it never
        hangs and never returns a partial result.  They require a
        ``context`` without a governance of its own (or none).
        """
        scan = ScanQuery(table, select=select, predicates=predicates)
        target, overlay = self._resolve_target(table, scan, layout, use_views)
        if timeout is not None or memory_budget is not None or cancellation is not None:
            context = context or ExecutionContext()
            if context.governance is not None:
                raise PlanError(
                    "pass either a governed context or timeout/budget/"
                    "cancellation arguments, not both"
                )
            context.governance = QueryContext.start(
                timeout=timeout,
                memory_budget=memory_budget,
                token=cancellation,
                label=f"query on {table}",
            )
        result = None
        if workers > 1:
            workers = max(1, min(workers, os.cpu_count() or 1))
        if workers > 1:
            from repro.engine.parallel import parallel_query

            try:
                result = parallel_query(
                    target,
                    scan,
                    workers=workers,
                    partitions=partitions,
                    context=context,
                    salvage=salvage,
                    policy=policy,
                    breaker=self.breaker,
                )
            except PlanError:
                # Not decomposable: run the plain serial scan instead.
                pass
        if result is None:
            result = run_scan(
                target, scan, context, column_scanner=column_scanner, salvage=salvage
            )
        # The overlay was snapshotted before the scan (and any fan-out),
        # so a concurrent merge cannot skew the remapping.
        return overlay.apply(result) if overlay is not None else result

    # --- concurrent workloads ------------------------------------------------

    def _resolve_target(
        self,
        table: str,
        scan: ScanQuery,
        layout: Layout | None,
        use_views: bool,
    ) -> tuple[Table, HybridOverlay | None]:
        """The table a scan runs against plus its write-store overlay.

        The one routing decision every entry point shares: an explicit
        ``layout``, else a covering view while the write store is clean
        (views reflect the last merge), else the default layout.  The
        overlay is ``None`` for a clean table; otherwise it is applied
        to the finished :class:`QueryResult` (delete filtering, position
        remapping, staged-row append).  It snapshots the write store
        *now* — at submit time for a scheduled query — so the query sees
        a consistent image even if writes or a merge land meanwhile.
        """
        entry = self._entry(table)
        hybrid = entry.store.has_changes
        if layout is not None:
            target = self.table(table, layout)
        elif use_views and not hybrid:
            target, _source = entry.router.route(scan)
        else:
            target = entry.tables[self.layouts[0]]
        if not hybrid:
            return target, None
        if obs_metrics.enabled():
            obs_metrics.WRITE_HYBRID_QUERIES.inc()
        return target, build_overlay(entry.store, scan)

    def submit(
        self,
        table: str,
        select: tuple[str, ...],
        predicates: tuple[Predicate, ...] = (),
        layout: Layout | None = None,
        use_views: bool = True,
        salvage: bool = False,
        timeout: float | None = None,
        memory_budget: int | None = None,
        cancellation: CancellationToken | None = None,
        label: str = "",
    ) -> QueryHandle:
        """Enqueue a scan on the database's concurrent scheduler.

        Returns a :class:`~repro.engine.scheduler.QueryHandle`
        immediately; call ``handle.value()`` for the result (driving
        the scheduler cooperatively) or submit more queries first so
        co-running scans of the same table share one stream.  The
        governance deadline starts now — queue time counts against
        ``timeout``.
        """
        scan = ScanQuery(table, select=select, predicates=predicates)
        target, overlay = self._resolve_target(table, scan, layout, use_views)
        return self.scheduler.submit(
            target,
            scan,
            timeout=timeout,
            memory_budget=memory_budget,
            cancellation=cancellation,
            salvage=salvage,
            post=overlay.apply if overlay is not None else None,
            # Empty label falls through to the scheduler's unique
            # per-submission default (black-box slices key on it).
            label=label,
        )

    @property
    def scheduler(self) -> Scheduler:
        """The persistent scheduler behind :meth:`submit` (lazy)."""
        if self._scheduler is None:
            self._scheduler = Scheduler()
        return self._scheduler

    def run_workload(
        self,
        requests: list,
        max_inflight: int = 8,
        share_scans: bool = True,
        layout: Layout | None = None,
        use_views: bool = True,
        column_scanner: ColumnScannerKind = ColumnScannerKind.PIPELINED,
        trace: bool = False,
        info: dict | None = None,
        slowlog: SlowQueryLog | None = None,
    ) -> list[QueryHandle]:
        """Run a batch of scans concurrently and return their handles.

        Each element of ``requests`` is a
        :class:`~repro.engine.scheduler.WorkloadQuery` (or a dict of
        its fields).  A fresh scheduler executes the batch with
        admission control (``max_inflight``), cooperative
        time-slicing, and — with ``share_scans`` — shared circular
        scans for co-running queries over the same table and column
        set.  Handles come back in submission order; failed queries
        carry their typed error on ``handle.error`` instead of
        raising.  ``info``, when given, receives the scheduler's
        workload stats (queue depth, share hit-rate, modeled I/O) plus
        the batch's :class:`~repro.obs.slowlog.SlowQueryLog` under
        ``"slowlog"`` (pass your own via ``slowlog=`` to set the
        threshold/top-K).
        """
        scheduler = Scheduler(
            max_inflight=max_inflight,
            share_scans=share_scans,
            column_scanner=column_scanner,
            trace=trace,
            slowlog=slowlog,
        )
        for index, request in enumerate(requests):
            if isinstance(request, dict):
                request = WorkloadQuery(**request)
            scan = ScanQuery(
                request.table,
                select=tuple(request.select),
                predicates=tuple(request.predicates),
            )
            target, overlay = self._resolve_target(
                request.table, scan, layout, use_views
            )
            scheduler.submit(
                target,
                scan,
                timeout=request.timeout,
                memory_budget=request.memory_budget,
                salvage=request.salvage,
                post=overlay.apply if overlay is not None else None,
                # Unique per submission: the flight recorder slices
                # black-box events by label.
                label=request.label
                or f"workload query #{index} on {request.table}",
            )
        scheduler.run()
        if info is not None:
            info.update(scheduler.stats())
            info["slowlog"] = scheduler.slowlog
            if trace and scheduler.tracer is not None:
                info["tracer"] = scheduler.tracer
        return scheduler.handles()

    # --- observability -------------------------------------------------------

    def flight_recorder(self) -> FlightRecorder:
        """The process-wide flight recorder (lifecycle event ring).

        One recorder serves the whole process — every Database, every
        scheduler batch — so post-mortems see cross-workload context.
        """
        return flight.RECORDER

    def dump_blackbox(self, directory=None):
        """The black boxes captured so far (each one failed query).

        With ``directory`` they are written as one JSON file apiece
        (``blackbox-<seq>.json``) and the paths returned; without it
        the raw dicts are returned newest-last.
        """
        if directory is None:
            return list(flight.RECORDER.blackboxes)
        return flight.RECORDER.write_blackboxes(directory)

    def profile(
        self,
        table: str,
        select: tuple[str, ...],
        predicates: tuple[Predicate, ...] = (),
        layout: Layout | None = None,
        use_views: bool = True,
        salvage: bool = False,
        workers: int = 1,
        partitions: int | None = None,
        timeout: float | None = None,
        memory_budget: int | None = None,
        cancellation: CancellationToken | None = None,
        policy: SupervisionPolicy | None = None,
    ) -> QueryProfile:
        """Execute a scan under span tracing.

        Returns a :class:`~repro.obs.export.QueryProfile`: the
        materialized result plus the per-operator span tree, from which
        the EXPLAIN ANALYZE text (``.explain_text()``), a Chrome/
        Perfetto trace (``.chrome_trace()``/``.save_chrome_trace()``),
        and a provenance-stamped flat profile (``.to_dict()``) derive.

        With ``workers > 1`` worker-process span trees are stitched
        into the parent trace (one Perfetto track per worker).  With a
        ``timeout``/``memory_budget``/``cancellation`` the profile
        carries a governance snapshot and ``explain_text()`` appends
        the governance outcomes (why the query degraded).
        """
        context = ExecutionContext(tracer=SpanTracer())
        result = self.query(
            table,
            select,
            predicates,
            layout=layout,
            use_views=use_views,
            context=context,
            salvage=salvage,
            workers=workers,
            partitions=partitions,
            timeout=timeout,
            memory_budget=memory_budget,
            cancellation=cancellation,
            policy=policy,
        )
        return QueryProfile(
            result=result,
            tracer=context.tracer,
            provenance=provenance(context.calibration),
            governance=(
                context.governance.snapshot() if context.governance else None
            ),
        )

    def explain(self, table: str, select: tuple[str, ...], *args, **kwargs) -> str:
        """EXPLAIN ANALYZE: execute the scan traced, render the plan.

        Takes the arguments of :meth:`profile`.  Every plan node is
        annotated with its wall time, ``next()`` call/block/row counts,
        and its exclusive share of the query's
        :class:`~repro.cpusim.events.CostEvents`.  Governed queries get
        a trailing governance section (see :meth:`profile`).
        """
        return self.profile(table, select, *args, **kwargs).explain_text()

    def predicate(self, table: str, attr: str, selectivity: float) -> Predicate:
        """A selectivity-calibrated predicate over registered data."""
        entry = self._entry(table)
        return predicate_for_selectivity(
            attr, entry.data.column(attr), selectivity
        )

    # --- integrity -----------------------------------------------------------

    def scrub(self, table: str | None = None) -> dict[str, CorruptionReport]:
        """Sweep every page of every stored table (and view).

        Decodes each page of each materialized layout and of every
        registered materialized view, returning one
        :class:`~repro.storage.scrub.CorruptionReport` per swept
        relation, keyed ``TABLE:layout`` / ``VIEW:view``.
        """
        names = [table] if table is not None else self.tables()
        reports: dict[str, CorruptionReport] = {}
        for name in names:
            entry = self._entry(name)
            for layout, materialized in entry.tables.items():
                reports[f"{name}:{layout.value}"] = scrub_table(materialized)
            for view in entry.router.views:
                reports[f"{name}:{view.name}"] = scrub_table(view.table)
        return reports

    def verify(self, table: str | None = None) -> int:
        """Strict sweep: raises ChecksumError if any page is corrupt.

        Returns the total number of pages verified when clean.
        """
        reports = self.scrub(table)
        dirty = {key: report for key, report in reports.items() if not report.is_clean}
        if dirty:
            details = "; ".join(
                f"{key}: {report.summary()}" for key, report in dirty.items()
            )
            raise ChecksumError(f"database verification failed: {details}")
        return sum(report.pages_scanned for report in reports.values())

    # --- what-if -------------------------------------------------------------

    def estimate(
        self,
        table: str,
        select: tuple[str, ...],
        predicates: tuple[Predicate, ...] = (),
        layout: Layout = Layout.COLUMN,
        config: ExperimentConfig | None = None,
    ) -> ScanMeasurement:
        """Paper-scale performance estimate for one scan."""
        if layout not in self.layouts:
            raise PlanError(f"layout {layout} not materialized")
        scan = ScanQuery(table, select=select, predicates=predicates)
        return measure_scan(self.table(table, layout), scan, config)

    def compare_layouts(
        self,
        table: str,
        select: tuple[str, ...],
        predicates: tuple[Predicate, ...] = (),
        config: ExperimentConfig | None = None,
    ) -> dict[Layout, ScanMeasurement]:
        """Estimate the same scan under every materialized layout."""
        scan = ScanQuery(table, select=select, predicates=predicates)
        return {
            layout: measure_scan(self.table(table, layout), scan, config)
            for layout in self.layouts
        }
