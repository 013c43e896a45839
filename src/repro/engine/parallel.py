"""Multi-core parallel query execution over horizontal partitions.

The engine stays single-threaded *per plan* (the paper's Section 4
design); parallelism comes from running one plan per row-range
partition in a ``multiprocessing`` worker pool and merging the
materialized partials in the parent:

* plain selections: concatenate worker blocks in partition order
  (already global Record-ID order), fixing up positions of physically
  partitioned shards by their ``row_start``;
* aggregates: each worker computes decomposed partials
  (count/sum/min/max, sum+count for AVG — see
  :func:`repro.engine.plan.decompose_aggregate`) and
  :class:`~repro.engine.operators.gather.MergePartials` reduces them
  with the serial ``HashAggregate``'s arithmetic;
* sorted output: per-partition sorted runs, k-way merged by
  :class:`~repro.engine.operators.gather.MergeSortedRuns`;
* LIMIT / top-N: each worker keeps its first/best ``k``, the parent
  applies the same operator over the recombined candidates (for top-N,
  candidates are re-ordered by global position first so tie-breaking
  matches the serial stable sort).

Cost accounting is exactly-once: each worker runs under a fresh
:class:`~repro.engine.context.ExecutionContext` and its
:class:`~repro.cpusim.events.CostEvents` /
:class:`~repro.storage.scrub.CorruptionReport` are merged into the
parent context one time, before the (traced) merge plan runs.
Boundary pages decoded by two adjacent workers are deduplicated by
``(file, page)`` so a salvage scan's fault list matches the serial
scan's.  Worker span trees are stitched into the parent trace under
the gather node (per-worker Perfetto tracks); the tracer invariant
``total_events() == plan total`` survives stitching.

Failure policy is a **supervision ladder** (see
:mod:`repro.engine.governance`), not discard-all-or-nothing:

1. *kill-and-retry one partition* — a worker exception re-runs only
   that partition inline (the completed partitions' results are kept;
   the retried partition's events are counted exactly once because the
   failed attempt produced no output to merge);
2. *stall detection* — supervised workers write heartbeats into a
   shared board; a silent worker past the policy's stall timeout gets
   its pool evicted (the only way to reap a wedged fork worker) and the
   unfinished partitions move down the ladder;
3. *degrade workers 4→2→1→serial* — each pool-level failure halves the
   worker count; the last rung runs the remaining partitions inline;
4. *circuit breaker* — a partition that keeps failing (per
   :class:`~repro.database.Database` instance) is routed straight to a
   salvage-mode serial scan without burning another worker on it.

A parent- or worker-side deadline/cancellation surfaces as a typed
:class:`~repro.errors.GovernanceError` (never a hang); the pool is
evicted first so stragglers die with the query.  ``KeyboardInterrupt``
terminates and joins every pool — workers are reaped and their pipes
closed, no zombies survive Ctrl-C.
"""

from __future__ import annotations

import atexit
import multiprocessing
import multiprocessing.pool
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.cpusim.calibration import Calibration, DEFAULT_CALIBRATION
from repro.cpusim.events import CostEvents
from repro.engine.blocks import Block, concat_blocks
from repro.engine.context import ExecutionContext
from repro.engine.executor import QueryResult, execute_plan
from repro.engine.governance import (
    CircuitBreaker,
    GovernanceError,
    QueryContext,
    SupervisionPolicy,
)
from repro.engine.operators.base import Operator
from repro.engine.operators.gather import (
    GatherOperator,
    MergePartials,
    MergeSortedRuns,
)
from repro.engine.operators.limit import Limit, TopN
from repro.engine.operators.sort import SortOperator
from repro.engine.plan import (
    ColumnScannerKind,
    aggregate_plan,
    decompose_aggregate,
    scan_plan,
)
from repro.engine.query import AggregateSpec, ScanQuery
from repro.errors import PlanError
from repro.obs import metrics as obs_metrics
from repro.obs import recorder as flight
from repro.obs.trace import SpanTracer
from repro.storage.partition import PartitionedTable, partition_ranges
from repro.storage.scrub import CorruptionReport
from repro.storage.table import Table

__all__ = [
    "WorkerCrash",
    "parallel_query",
    "shutdown_pools",
]

#: Logical-partition queries over tables at least this large share the
#: table with fork-inherited memory instead of pickling it per task.
_FORK_SHARE_ROWS = 100_000

#: Governance tick on which an injected chaos action (kill/stall) fires
#: inside the worker — late enough to be genuinely mid-scan.
_CHAOS_ACTION_TICK = 3

#: Exit code of a chaos hard-kill (``os._exit``), distinguishable from
#: a Python crash in pool diagnostics.
_CHAOS_KILL_EXIT = 17


class WorkerCrash(RuntimeError):
    """Injected worker failure (test hook for the degradation path)."""


@dataclass(frozen=True)
class WorkerTask:
    """Everything one worker needs to run its partition's plan."""

    index: int
    table: Table | None          #: ``None``: use the fork-inherited table
    query: ScanQuery
    row_range: tuple[int, int] | None
    position_offset: int
    column_scanner: ColumnScannerKind
    calibration: Calibration
    block_size: int
    compressed_execution: bool
    strict_integrity: bool
    trace: bool
    aggregate: AggregateSpec | None = None
    sort_based: bool = False
    order_by: tuple[str, ...] = ()
    limit: int | None = None
    topn: tuple[str, int, bool] | None = None
    crash: bool = False          #: test hook: raise instead of executing
    # --- governance (see repro.engine.governance) ----------------------
    deadline: float | None = None     #: absolute ``time.monotonic()`` s
    memory_budget: int | None = None  #: this partition's budget share
    heartbeat: object | None = None   #: Manager dict proxy, index → beat
    heartbeat_interval: float = 0.05
    kill: bool = False                #: chaos hook: hard-exit mid-scan
    stall_seconds: float = 0.0        #: chaos hook: sleep mid-scan once


@dataclass
class WorkerOutput:
    """One worker's materialized partial result plus its accounting."""

    index: int
    columns: dict[str, np.ndarray]
    positions: np.ndarray
    events: CostEvents
    corruption: CorruptionReport
    span_roots: list = field(default_factory=list)
    slices: list = field(default_factory=list)
    epoch_ns: int = 0
    #: Governance outcomes recorded inside the worker (narrowing, etc.).
    outcomes: list = field(default_factory=list)
    memory_peak: int = 0


#: Fork-share slot: set in the parent right before forking a dedicated
#: pool, inherited by the children, consulted when ``task.table is None``.
_FORK_TABLE: Table | None = None


def _worker_governance(task: WorkerTask) -> QueryContext | None:
    """The worker-side lifecycle context for one partition, if any.

    The deadline is an absolute ``time.monotonic()`` value: under the
    fork start method parent and child share the clock, so the parent's
    deadline is enforced inside the worker too.  The tick hook writes
    the heartbeat board and fires the chaos injections (hard kill /
    stall) a few ticks in — i.e. genuinely mid-scan.
    """
    if not (
        task.deadline is not None
        or task.memory_budget is not None
        or task.heartbeat is not None
        or task.kill
        or task.stall_seconds
    ):
        return None
    governance = QueryContext(
        deadline=task.deadline,
        memory_budget=task.memory_budget,
        label=f"partition {task.index}",
    )
    state = {"beat": 0.0, "acted": False}

    def on_tick(gov: QueryContext) -> None:
        now = time.monotonic()
        if (
            task.heartbeat is not None
            and now - state["beat"] >= task.heartbeat_interval
        ):
            state["beat"] = now
            try:
                task.heartbeat[task.index] = now
            except Exception:
                # Heartbeat board gone (parent tearing down): keep
                # scanning; the supervisor will reap us either way.
                pass
        if not state["acted"] and gov.ticks >= _CHAOS_ACTION_TICK:
            state["acted"] = True
            if task.kill:
                os._exit(_CHAOS_KILL_EXIT)
            if task.stall_seconds:
                time.sleep(task.stall_seconds)

    governance.on_tick = on_tick
    return governance


def _execute_task(
    task: WorkerTask, governance: QueryContext | None = None
) -> WorkerOutput:
    """Run one partition's plan (in a worker process or inline).

    ``governance`` overrides the task-derived worker context: inline
    execution in the parent passes the query's own
    :class:`~repro.engine.governance.QueryContext` so the shared
    cancellation token and budget accounting stay live.
    """
    if task.crash:
        raise WorkerCrash(f"injected crash in worker {task.index}")
    table = task.table if task.table is not None else _FORK_TABLE
    if table is None:
        raise PlanError("worker has neither a pickled nor a fork-shared table")
    owned = governance is None
    if owned:
        governance = _worker_governance(task)
    tracer = SpanTracer() if task.trace else None
    context = ExecutionContext(
        calibration=task.calibration,
        block_size=task.block_size,
        compressed_execution=task.compressed_execution,
        strict_integrity=task.strict_integrity,
        tracer=tracer,
        governance=governance,
    )
    if task.aggregate is not None:
        partial_results = [
            execute_plan(
                aggregate_plan(
                    context,
                    table,
                    task.query,
                    partial_spec,
                    sort_based=task.sort_based,
                    column_scanner=task.column_scanner,
                    row_range=task.row_range,
                )
            )
            for partial_spec in decompose_aggregate(task.aggregate)
        ]
        columns = dict(partial_results[0].columns)
        for extra in partial_results[1:]:
            for name, values in extra.columns.items():
                columns.setdefault(name, values)
        positions = partial_results[0].positions
    else:
        plan: Operator = scan_plan(
            context, table, task.query, task.column_scanner, row_range=task.row_range
        )
        for key in reversed(task.order_by):
            plan = SortOperator(context, plan, key=key)
        if task.topn is not None:
            key, count, descending = task.topn
            plan = TopN(context, plan, key=key, count=count, descending=descending)
        elif task.limit is not None:
            plan = Limit(context, plan, task.limit)
        result = execute_plan(plan)
        columns = result.columns
        positions = result.positions
        if task.position_offset:
            positions = positions + task.position_offset
    return WorkerOutput(
        index=task.index,
        columns=columns,
        positions=positions,
        events=context.events,
        corruption=context.corruption,
        span_roots=tracer.roots if tracer else [],
        slices=tracer.slices if tracer else [],
        epoch_ns=tracer.epoch_ns if tracer else 0,
        # With an overriding (parent) governance the outcomes already
        # live on the caller's object — don't report them twice.
        outcomes=list(governance.outcomes) if owned and governance else [],
        memory_peak=governance.memory_peak if owned and governance else 0,
    )


# --- worker pools ----------------------------------------------------------------


_POOLS: dict[int, multiprocessing.pool.Pool] = {}


def _mp_context():
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _cached_pool(workers: int) -> multiprocessing.pool.Pool:
    pool = _POOLS.get(workers)
    if pool is None:
        pool = _mp_context().Pool(processes=workers)
        _POOLS[workers] = pool
    return pool


def _evict_pool(workers: int) -> None:
    pool = _POOLS.pop(workers, None)
    if pool is not None:
        pool.terminate()
        pool.join()


def shutdown_pools() -> None:
    """Terminate every cached worker pool (atexit / test teardown)."""
    for workers in list(_POOLS):
        _evict_pool(workers)


atexit.register(shutdown_pools)


#: Lazily started ``multiprocessing.Manager`` backing the heartbeat
#: board (a Manager forks a server process — only pay for it when a
#: query is actually supervised with heartbeats).
_MANAGER = None


def _heartbeat_board():
    """A fresh Manager dict workers write ``index → monotonic()`` into."""
    global _MANAGER
    if _MANAGER is None:
        _MANAGER = _mp_context().Manager()
    return _MANAGER.dict()


# --- supervision ladder ----------------------------------------------------------


def _run_rung(
    pending: dict[int, WorkerTask],
    outputs: dict[int, WorkerOutput],
    submit: dict[int, WorkerTask],
    base: dict[int, WorkerTask],
    rung: int,
    fork_table: Table | None,
    governance: QueryContext | None,
    policy: SupervisionPolicy,
    breaker: CircuitBreaker | None,
    keys: dict[int, tuple],
    heartbeat,
    notes: list[str],
    tainted: set[int],
) -> tuple[str | None, int]:
    """One rung of the ladder: a ``rung``-sized pool plus supervision.

    Completed partitions move from ``pending`` to ``outputs``.  A
    single-task exception is recovered immediately by re-running just
    that partition inline (kill-and-retry).  Returns ``(degrade_reason,
    pool_successes)``; a non-``None`` reason means the pool was evicted
    (stall, pool-level error, guard expiry) and the still-pending
    partitions should move down the ladder.
    """
    global _FORK_TABLE
    dedicated = fork_table is not None
    if dedicated:
        # Dedicated pool forked with the table already in memory: the
        # children inherit it copy-on-write instead of unpickling it.
        _FORK_TABLE = fork_table
        try:
            pool = _mp_context().Pool(processes=rung)
        finally:
            _FORK_TABLE = None
    else:
        pool = _cached_pool(rung)

    evicted = False

    def evict() -> None:
        nonlocal evicted
        if evicted:
            return
        evicted = True
        if dedicated:
            pool.terminate()
            pool.join()
        else:
            _evict_pool(rung)

    started = time.monotonic()
    pool_successes = 0
    if heartbeat is not None:
        for index in pending:
            heartbeat[index] = started
    try:
        if governance is not None:
            # An already-expired query sends the pool nothing: evicting a
            # pool while its task feeder is still writing a pickled table
            # into a worker pipe can block the feeder, and the eviction
            # with it, for good.
            governance.check("parallel supervisor")
        results = {
            index: pool.apply_async(_execute_task, (submit[index],))
            for index in sorted(pending)
        }
        while results:
            if governance is not None:
                try:
                    governance.check("parallel supervisor")
                except GovernanceError:
                    # Kill the stragglers along with the query.
                    evict()
                    raise
            for index in sorted(results):
                handle = results[index]
                if not handle.ready():
                    continue
                del results[index]
                try:
                    output = handle.get()
                except GovernanceError:
                    # A worker hit its own deadline/budget: typed, final.
                    evict()
                    raise
                except Exception as exc:
                    # Kill-and-retry of only the failed partition; its
                    # crashed attempt produced no output, so re-running
                    # it inline keeps the accounting exactly-once.
                    reason = f"{type(exc).__name__}: {exc}"
                    tainted.add(index)
                    if breaker is not None:
                        breaker.record_failure(keys[index])
                    obs_metrics.GOVERNANCE_PARTITION_RETRIES.inc()
                    flight.record(
                        "parallel.retry",
                        governance.label if governance is not None else None,
                        partition=index,
                        reason=reason,
                    )
                    notes.append(
                        f"partition {index} failed ({reason}); retried inline"
                    )
                    inline = replace(base[index], heartbeat=None)
                    try:
                        outputs[index] = _execute_task(inline, governance)
                    except BaseException:
                        evict()
                        raise
                    del pending[index]
                else:
                    outputs[index] = output
                    del pending[index]
                    pool_successes += 1
                    # A success only closes the breaker if this
                    # partition ran clean the whole query — recovering
                    # on retry must not erase the failure it recovered
                    # from, or a flaky partition could never trip.
                    if breaker is not None and index not in tainted:
                        breaker.record_success(keys[index])
            if not results:
                break
            now = time.monotonic()
            if heartbeat is not None:
                for index in sorted(results):
                    beat = heartbeat.get(index, started)
                    if now - beat > policy.stall_timeout:
                        obs_metrics.GOVERNANCE_STALLS.inc()
                        flight.record(
                            "parallel.stall",
                            governance.label if governance is not None else None,
                            partition=index,
                            silent_s=round(now - beat, 3),
                        )
                        tainted.add(index)
                        if breaker is not None:
                            breaker.record_failure(keys[index])
                        evict()
                        return (
                            f"partition {index} stalled "
                            f"(no heartbeat for {now - beat:.2f}s)",
                            pool_successes,
                        )
            elif now - started > policy.max_dispatch_seconds:
                evict()
                return (
                    "dispatch guard expired after "
                    f"{policy.max_dispatch_seconds:.0f}s",
                    pool_successes,
                )
            time.sleep(policy.poll_interval)
        return None, pool_successes
    except KeyboardInterrupt:
        # Reap every child and close its pipes before surfacing Ctrl-C:
        # terminate() kills the workers, join() waits them out — no
        # zombies survive an interrupt mid-query.
        evict()
        shutdown_pools()
        raise
    except OSError as exc:
        evict()
        return f"pool failure ({type(exc).__name__}: {exc})", pool_successes
    finally:
        if dedicated and not evicted:
            pool.terminate()
            pool.join()


def _dispatch_ladder(
    base: dict[int, WorkerTask],
    first: dict[int, WorkerTask],
    workers: int,
    fork_table: Table | None,
    governance: QueryContext | None,
    policy: SupervisionPolicy,
    breaker: CircuitBreaker | None,
    keys: dict[int, tuple],
    heartbeat,
    notes: list[str],
) -> tuple[dict[int, WorkerOutput], bool]:
    """Supervised dispatch of every partition; returns outputs by index.

    ``base`` holds the clean (re-runnable) task per partition; ``first``
    overlays chaos/test injections applied on the first rung only, so a
    retried partition runs clean.  The second return value reports
    whether any partition completed in a pool worker (mode reporting).
    """
    outputs: dict[int, WorkerOutput] = {}
    pending = dict(base)

    # Breaker-open partitions never reach the pool: they are served by
    # salvage-mode serial scans (skip-don't-crash) straight away.
    if breaker is not None:
        for index in sorted(pending):
            if breaker.is_open(keys[index]):
                task = replace(
                    base[index], heartbeat=None, strict_integrity=False
                )
                outputs[index] = _execute_task(task, governance)
                del pending[index]
                notes.append(
                    f"breaker open: partition {index} routed to "
                    "salvage serial scan"
                )

    pool_ran = False
    first_rung = True
    tainted: set[int] = set()
    rung = min(workers, len(pending)) if pending else 0
    while pending and rung >= 1:
        submit = {}
        for index in pending:
            task = first.get(index, base[index]) if first_rung else base[index]
            if fork_table is not None:
                task = replace(task, table=None)
            submit[index] = task
        reason, successes = _run_rung(
            pending,
            outputs,
            submit,
            base,
            rung,
            fork_table,
            governance,
            policy,
            breaker,
            keys,
            heartbeat,
            notes,
            tainted,
        )
        first_rung = False
        pool_ran = pool_ran or successes > 0
        if reason is None:
            break
        next_rung = rung // 2
        obs_metrics.GOVERNANCE_DEGRADATIONS.inc()
        flight.record(
            "parallel.degrade",
            governance.label if governance is not None else None,
            workers_from=rung,
            workers_to=next_rung,
            reason=reason,
        )
        notes.append(
            f"degraded workers {rung}→{next_rung or 'serial'}: {reason}"
        )
        rung = next_rung
    for index in sorted(pending):
        outputs[index] = _execute_task(
            replace(base[index], heartbeat=None), governance
        )
    pending.clear()
    return outputs, pool_ran


# --- merging ---------------------------------------------------------------------


def _merge_accounting(context: ExecutionContext, outputs: list[WorkerOutput]) -> None:
    """Fold worker events and corruption into the parent, exactly once.

    Adjacent workers both decode the pages straddling their boundary,
    so a corrupt boundary page would be reported twice; deduplicating
    by ``(file, page)`` keeps the merged fault list identical to a
    serial salvage scan's.
    """
    seen = {(fault.file, fault.page) for fault in context.corruption.faults}
    for out in outputs:
        context.events.merge(out.events)
        context.corruption.pages_scanned += out.corruption.pages_scanned
        for fault in out.corruption.faults:
            key = (fault.file, fault.page)
            if key in seen:
                continue
            seen.add(key)
            context.corruption.faults.append(fault)


def _merge_plan(
    context: ExecutionContext,
    outputs: list[WorkerOutput],
    aggregate: AggregateSpec | None,
    order_by: tuple[str, ...],
    limit: int | None,
    topn: tuple[str, int, bool] | None,
    notes: list[str] | None = None,
) -> tuple[Operator, Operator]:
    """The parent-side merge plan; returns ``(plan root, gather anchor)``.

    The anchor is the node worker span trees are attached under.
    Supervision ``notes`` are folded into the gather node's detail so
    EXPLAIN ANALYZE shows *why* a query degraded.
    """
    blocks = [
        Block(columns=out.columns, positions=out.positions) for out in outputs
    ]
    detail = f"{len(blocks)} partition output(s)"
    if notes:
        detail += " | " + "; ".join(notes)
    if aggregate is not None:
        gather = GatherOperator(context, blocks, detail=detail)
        return MergePartials(context, gather, aggregate), gather
    if order_by:
        merge: Operator = MergeSortedRuns(context, blocks, order_by, detail=detail)
        anchor = merge
        if limit is not None:
            merge = Limit(context, merge, limit)
        return merge, anchor
    if topn is not None:
        key, count, descending = topn
        merged = concat_blocks([block for block in blocks if len(block)] or blocks)
        # Candidates arrive in per-worker key order; re-ordering by
        # global position makes the parent's stable tie-breaking see
        # the same input order the serial TopN did.
        order = np.argsort(merged.positions)
        candidates = Block(
            columns={name: col[order] for name, col in merged.columns.items()},
            positions=merged.positions[order],
        )
        gather = GatherOperator(context, [candidates], detail=detail)
        return TopN(context, gather, key=key, count=count, descending=descending), gather
    gather = GatherOperator(context, blocks, detail=detail)
    if limit is not None:
        return Limit(context, gather, limit), gather
    return gather, gather


# --- public API ------------------------------------------------------------------


def parallel_query(
    table: Table | PartitionedTable,
    query: ScanQuery,
    *,
    workers: int = 2,
    partitions: int | None = None,
    context: ExecutionContext | None = None,
    column_scanner: ColumnScannerKind = ColumnScannerKind.PIPELINED,
    salvage: bool = False,
    aggregate: AggregateSpec | None = None,
    sort_based: bool = False,
    order_by: tuple[str, ...] = (),
    limit: int | None = None,
    topn: tuple[str, int, bool] | None = None,
    share: str = "auto",
    policy: SupervisionPolicy | None = None,
    breaker: CircuitBreaker | None = None,
    inject_crash: int | None = None,
    inject_kill: int | None = None,
    inject_stall: tuple[int, float] | None = None,
    info: dict | None = None,
) -> QueryResult:
    """Execute one decomposable query across row-range partitions.

    ``table`` may be a plain table (split logically into ``partitions``
    contiguous row ranges, default one per worker) or a
    :class:`~repro.storage.partition.PartitionedTable` (its physical
    shards are used as-is).  ``workers <= 1`` runs the same
    partition-and-merge machinery in-process, which keeps the merge
    path — and its cost accounting — testable without a pool.

    Exactly one result shape may be requested: a plain selection,
    ``aggregate``, ``order_by`` (optionally with ``limit``), plain
    ``limit``, or ``topn``.  Non-decomposable shapes raise
    :class:`~repro.errors.PlanError`; callers (``Database.query``)
    fall back to the serial engine instead.

    ``share`` controls how workers see the table: ``"pickle"`` ships it
    with each task, ``"fork"`` forks a dedicated pool that inherits it,
    ``"auto"`` picks by table size.  ``info``, when given a dict, is
    filled with execution diagnostics (``mode``, ``partitions``,
    ``workers``, ``fallback_reason``, ``governance`` notes).

    When ``context.governance`` is set, its deadline is enforced inside
    every worker (shared monotonic clock under fork), its memory budget
    is split evenly across the partitions, and the supervisor polls the
    parent-side token/deadline between heartbeats.  ``policy`` tunes
    the supervision ladder; ``breaker`` is the per-``Database`` circuit
    breaker that routes repeat-offender partitions straight to salvage
    serial scans.  ``inject_crash``/``inject_kill``/``inject_stall``
    are fault hooks (exception, hard ``os._exit``, mid-scan sleep) used
    by the chaos harness; injections apply to the first dispatch only,
    so recovery paths always run clean.
    """
    if workers < 1:
        raise PlanError(f"worker count must be positive: {workers}")
    if share not in ("auto", "pickle", "fork"):
        raise PlanError(f"unknown share mode: {share!r}")
    shapes = sum(
        [aggregate is not None, bool(order_by), topn is not None]
    )
    if shapes > 1:
        raise PlanError(
            "parallel query supports one result shape at a time "
            "(aggregate | order_by | topn)"
        )
    if limit is not None and (aggregate is not None or topn is not None):
        raise PlanError("parallel limit composes only with plain or sorted scans")

    context = context or ExecutionContext()
    if salvage:
        context.strict_integrity = False
    trace = context.tracer is not None
    governance = context.governance
    policy = policy or SupervisionPolicy()

    # Partition list: (table, row_range, position_offset) per task.
    if isinstance(table, PartitionedTable):
        shards = [
            (partition.table, None, partition.row_start)
            for partition in table.partitions
        ]
        schema_table: Table = table.partitions[0].table
        fork_candidate = None
    else:
        count = partitions if partitions is not None else workers
        shards = [
            (table, (lo, hi), 0)
            for lo, hi in partition_ranges(table.num_rows, count)
        ]
        schema_table = table
        fork_candidate = table
    query.validate_against(schema_table.schema)

    # Each partition gets an even share of the query's memory budget —
    # its materializing working set is ~1/N of the serial one.
    budget_share = None
    if governance is not None and governance.memory_budget is not None:
        budget_share = max(1, governance.memory_budget // len(shards))
    tasks = [
        WorkerTask(
            index=index,
            table=shard_table,
            query=query,
            row_range=row_range,
            position_offset=offset,
            column_scanner=column_scanner,
            calibration=context.calibration,
            block_size=context.block_size,
            compressed_execution=context.compressed_execution,
            strict_integrity=context.strict_integrity,
            trace=trace,
            aggregate=aggregate,
            sort_based=sort_based,
            order_by=order_by,
            limit=limit,
            topn=topn,
            deadline=governance.deadline if governance else None,
            memory_budget=budget_share,
        )
        for index, (shard_table, row_range, offset) in enumerate(shards)
    ]

    mode = "inline"
    notes: list[str] = []
    if workers > 1 and len(tasks) > 1:
        use_fork = share == "fork" or (
            share == "auto"
            and fork_candidate is not None
            and fork_candidate.num_rows >= _FORK_SHARE_ROWS
            and "fork" in multiprocessing.get_all_start_methods()
        )
        # Heartbeats need a Manager process — only supervised queries
        # (governance, a breaker, or injected worker faults) pay for one.
        heartbeat = None
        if (
            governance is not None
            or breaker is not None
            or inject_kill is not None
            or inject_stall is not None
        ):
            heartbeat = _heartbeat_board()
        base = {
            task.index: replace(
                task,
                heartbeat=heartbeat,
                heartbeat_interval=policy.heartbeat_interval,
            )
            for task in tasks
        }
        first = {}
        if inject_crash is not None and inject_crash in base:
            first[inject_crash] = replace(base[inject_crash], crash=True)
        if inject_kill is not None and inject_kill in base:
            first[inject_kill] = replace(
                first.get(inject_kill, base[inject_kill]), kill=True
            )
        if inject_stall is not None and inject_stall[0] in base:
            index, seconds = inject_stall
            first[index] = replace(
                first.get(index, base[index]), stall_seconds=float(seconds)
            )
        keys = {
            task.index: (schema_table.schema.name, task.index, task.row_range)
            for task in tasks
        }
        by_index, pool_ran = _dispatch_ladder(
            base,
            first,
            min(workers, len(tasks)),
            fork_candidate if use_fork else None,
            governance,
            policy,
            breaker,
            keys,
            heartbeat,
            notes,
        )
        outputs = list(by_index.values())
        if not pool_ran:
            mode = "fallback-serial"
        elif notes:
            mode = "parallel-degraded"
        else:
            mode = "parallel"
    else:
        outputs = [_execute_task(task, governance) for task in tasks]

    outputs.sort(key=lambda out: out.index)
    _merge_accounting(context, outputs)
    if governance is not None:
        for out in outputs:
            for event in out.outcomes:
                governance.note(f"partition {out.index}: {event}")
        for event in notes:
            governance.note(event)

    plan, anchor = _merge_plan(
        context, outputs, aggregate, order_by, limit, topn, notes=notes
    )
    result = execute_plan(plan)

    if trace:
        tracer = context.tracer
        anchor_span = tracer.span_for(anchor)
        for out in outputs:
            tracer.attach_subtree(
                out.span_roots,
                out.slices,
                track=out.index + 1,
                under=anchor_span,
                epoch_ns=out.epoch_ns or None,
            )

    if info is not None:
        info["mode"] = mode
        info["workers"] = workers
        info["partitions"] = len(tasks)
        info["fallback_reason"] = notes[0] if notes else None
        info["governance"] = list(notes)
    return result
