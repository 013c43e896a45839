"""The benchmark's three closed-loop workloads.

Each workload is driven from one process through public ``repro``
entry points only (``Database.query``, ``submit``, ``run_workload``,
``insert_many``, ``delete``, ``merge``).  Its inputs and its whole op
sequence come from the seed and the run length before anything is
timed; the sequence is replayed from start to finish and never depends
on the clock.  Every op is checked against an independent numpy
reference outside the timed region.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

from measure import (
    PROBE_REFERENCE_S,
    fast_mean,
    geometric_mean,
    latency_summary,
    probe_seconds,
)

#: A run stops replaying (and says so) once this much wall time has
#: passed since the process started, so that it always exits in time
#: even on a host many times slower than the reference box.
HARD_DEADLINE_S = 140.0
_PROCESS_START = time.monotonic()


def past_deadline() -> bool:
    return time.monotonic() - _PROCESS_START > HARD_DEADLINE_S


@dataclass
class Op:
    """One timed (or warm-up) operation and whether its result was right."""

    kind: str
    seconds: float
    ok: bool
    #: Table rows the op scanned (queries) or wrote (writes).
    rows: int = 0
    #: Result tuples (queries only).
    qualified: int = 0
    timed: bool = True
    #: The result's simulated cost events (queries only).
    events: dict | None = None


def _timed(fn):
    """``(result, seconds, error)`` of one call."""
    started = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # an op that raises is a failed op
        return None, time.perf_counter() - started, exc
    return result, time.perf_counter() - started, None


def _expected(columns: dict, predicate, select) -> tuple[np.ndarray, dict]:
    """Reference positions and values of a filtered projection."""
    positions = np.flatnonzero(predicate.evaluate(columns[predicate.attr]))
    return positions, {name: columns[name][positions] for name in select}


def _matches(result, positions: np.ndarray, values: dict) -> bool:
    if result is None or set(result.columns) != set(values):
        return False
    if not np.array_equal(np.asarray(result.positions), positions):
        return False
    return all(np.array_equal(result.columns[n], v) for n, v in values.items())


def _check_selectivity(predicate, values: np.ndarray, target: float) -> None:
    """Refuse inputs whose achieved selectivity is far from the target."""
    achieved = np.count_nonzero(predicate.evaluate(values)) / len(values)
    if abs(achieved - target) > 0.05 * target + 2.0 / len(values):
        raise RuntimeError(
            f"predicate {predicate.describe()} selects {achieved:.5f}, "
            f"target {target}"
        )


def _rng(seed: int, stream: int) -> np.random.Generator:
    """An op-sequence generator independent of the data generator's."""
    return np.random.default_rng([seed, stream])


class Workload:
    """Common driver: set-up, warm-up and the fixed, timed op replay."""

    name = ""
    #: Nominal seconds one unit of the op sequence takes on a 2-vCPU
    #: reference box; ``--seconds`` is turned into a unit count with it.
    unit_seconds = 1.0
    #: True when the op sequence changes the database (a second pass
    #: needs a fresh one).
    mutates = False
    #: Host-speed probes per pass, spread evenly over the probe slots.
    PROBES = 40
    #: Probe slots per unit (the places in a unit a probe may run).
    probe_slots = 1

    def __init__(self, seed: int, scale: float, seconds: float):
        self.seed = seed
        self.scale = scale
        self.units = max(1, round(seconds / self.unit_seconds))
        self.truncated = False
        slots = self.units * self.probe_slots
        self._probe_at = set(
            np.linspace(0, slots - 1, min(slots, self.PROBES)).round().astype(int)
        )
        self.probes: list[float] = []

    def _slot_start(self, slot: int) -> bool:
        """Probe host speed at fixed slots; False once past the deadline."""
        if slot == 0:
            self.probes = []
        if slot in self._probe_at:
            self.probes.append(probe_seconds())
        if past_deadline():
            self.truncated = True
            return False
        return True

    def rows(self, full: int) -> int:
        return max(200, int(full * self.scale))

    def speed_factor(self) -> float:
        """How much slower than the reference box the host was when
        undisturbed during this pass: the probes' fast mean, like the
        ops' kind times."""
        return fast_mean(self.probes) / PROBE_REFERENCE_S

    def normalize(self, ops: list[Op], factor: float) -> None:
        """Divide every timing of a pass by the host's speed factor."""
        for op in ops:
            op.seconds /= factor

    def setup(self) -> tuple[float, float]:
        """Build the database once; returns (generate_s, create_s)."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Derive predicates, references and the op sequence."""
        raise NotImplementedError

    def warmup(self) -> list[Op]:
        """The untimed first ops (checked like every other op)."""
        raise NotImplementedError

    def replay(self, tracer=None) -> list[Op]:
        """The whole timed op sequence; ``tracer`` gets each op's id."""
        raise NotImplementedError

    def end_to_end(self, ops: list[Op]) -> dict:
        raise NotImplementedError

    def details(self, ops: list[Op]) -> dict:
        """The workload's own metrics, as named in the layer map."""
        return {}

    @staticmethod
    def kind_seconds(ops: list[Op]) -> dict[str, tuple[int, float]]:
        """``{kind: (repeats, time)}``, the time being the mean of the
        kind's fastest tenth of repeats (see ``measure.fast_mean``)."""
        kinds: dict[str, list[float]] = {}
        for op in ops:
            kinds.setdefault(op.kind, []).append(op.seconds)
        return {kind: (len(t), fast_mean(t)) for kind, t in kinds.items()}

    def ops_per_second(self, ops: list[Op]) -> float:
        """Ops over the time they take with each kind at its fast time."""
        kinds = self.kind_seconds(ops)
        return sum(n for n, _ in kinds.values()) / sum(
            n * t for n, t in kinds.values()
        )

    def query_ms(self, ops: list[Op]) -> float:
        """Geometric mean over query kinds of each kind's time, in ms:
        every kind weighs the same however slow it is."""
        kinds = self.kind_seconds(ops)
        return 1000.0 * geometric_mean(
            t for kind, (_, t) in kinds.items() if kind in self.query_kinds()
        )

    def query_kinds(self) -> set[str]:
        raise NotImplementedError


# --- scan_matrix -----------------------------------------------------------


class ScanMatrix(Workload):
    """Serial ``Database.query`` over LINEITEM in every scanner arm.

    One unit is one round: the 15 (arm, selectivity) queries in a
    seeded order, so host drift during a run falls on every arm alike.
    """

    name = "scan_matrix"
    unit_seconds = 5.0
    #: A round is long: probe before any of its queries, not just the first.
    probe_slots = 15
    SELECT = ("L_ORDERKEY", "L_QUANTITY", "L_EXTENDEDPRICE", "L_SHIPDATE")
    #: Continuous, so 0.1 % really selects 0.1 % (L_QUANTITY has 50 values).
    PREDICATE_ATTR = "L_EXTENDEDPRICE"
    SELECTIVITIES = (0.001, 0.1, 1.0)
    ARMS = ("row", "pax", "pipelined", "fused", "parallel")
    FULL_ROWS = 200_000

    def __init__(self, seed, scale, seconds, frozen_events=None):
        super().__init__(seed, scale, seconds)
        #: ``{kind: events}`` the default seed must reproduce, if given.
        self.frozen_events = frozen_events
        self.events: dict[str, dict] = {}
        self.event_mismatches: list[str] = []

    def setup(self):
        from repro import Database, Layout, generate_lineitem

        started = time.perf_counter()
        data = generate_lineitem(self.rows(self.FULL_ROWS), seed=self.seed)
        generated = time.perf_counter()
        db = Database(layouts=(Layout.ROW, Layout.PAX, Layout.COLUMN))
        db.create_table(data)
        created = time.perf_counter()
        self.data, self.db = data, db
        return generated - started, created - generated

    def prepare(self) -> None:
        """Predicates, references and the op order (outside any timing)."""
        from repro import Layout, predicate_for_selectivity
        from repro.engine.plan import ColumnScannerKind

        values = self.data.column(self.PREDICATE_ATTR)
        self.predicates, self.reference = {}, {}
        for sel in self.SELECTIVITIES:
            pred = predicate_for_selectivity(self.PREDICATE_ATTR, values, sel)
            _check_selectivity(pred, values, sel)
            self.predicates[sel] = pred
            self.reference[sel] = _expected(self.data.columns, pred, self.SELECT)
        self.arm_args = {
            "row": {"layout": Layout.ROW},
            "pax": {"layout": Layout.PAX},
            "pipelined": {"layout": Layout.COLUMN},
            "fused": {
                "layout": Layout.COLUMN,
                "column_scanner": ColumnScannerKind.FUSED,
            },
            "parallel": {"layout": Layout.COLUMN, "workers": 2},
        }
        pairs = [(a, s) for a in self.ARMS for s in self.SELECTIVITIES]
        rng = _rng(self.seed, 1)
        self.rounds = [
            [pairs[i] for i in rng.permutation(len(pairs))]
            for _ in range(self.units)
        ]

    @staticmethod
    def kind(arm: str, sel: float) -> str:
        return f"{arm}@{sel * 100:g}%"

    def query_kinds(self):
        return {self.kind(a, s) for a in self.ARMS for s in self.SELECTIVITIES}

    def _run(self, arm: str, sel: float, timed: bool) -> Op:
        kind = self.kind(arm, sel)
        pred = self.predicates[sel]
        result, seconds, error = _timed(
            lambda: self.db.query(
                "LINEITEM", self.SELECT, (pred,), **self.arm_args[arm]
            )
        )
        ok = error is None and _matches(result, *self.reference[sel])
        events = None if result is None else result.events.as_dict()
        if ok:
            ok = self._check_events(kind, events)
        return Op(kind, seconds, ok, rows=self.data.num_rows,
                  qualified=0 if result is None else result.num_tuples,
                  timed=timed, events=events)

    def _check_events(self, kind: str, events: dict) -> bool:
        """Simulated cost events must repeat exactly (and match the
        frozen default-seed totals when those are given)."""
        expected = self.events.setdefault(kind, events)
        if self.frozen_events is not None:
            expected = self.frozen_events.get(kind)
        if events != expected:
            self.event_mismatches.append(kind)
            return False
        return True

    def warmup(self):
        # The first query of each arm (fork-pool start for `parallel`).
        return [self._run(arm, self.SELECTIVITIES[0], False) for arm in self.ARMS]

    def replay(self, tracer=None):
        ops = []
        for unit, round_ in enumerate(self.rounds):
            for index, (arm, sel) in enumerate(round_):
                if not self._slot_start(unit * self.probe_slots + index):
                    return ops
                if tracer is not None:
                    tracer.request = len(ops)
                    tracer.query_attrs = frozenset(self.SELECT)
                ops.append(self._run(arm, sel, True))
        return ops

    def space_amp(self) -> float:
        width = self.data.schema.tuple_width * self.data.num_rows
        tables = [self.db.table("LINEITEM", layout) for layout in self.db.layouts]
        return sum(t.total_bytes for t in tables) / (len(tables) * width)

    def end_to_end(self, ops):
        return {
            "ops_s": (self.ops_per_second(ops), "1/s"),
            "query_ms": (self.query_ms(ops), "ms"),
            "space_amp": (self.space_amp(), "ratio"),
        }

    def details(self, ops):
        """Each arm's throughput: table rows over its summed query times."""
        kinds = self.kind_seconds(ops)
        out = {}
        for arm in self.ARMS:
            seconds = sum(kinds[self.kind(arm, s)][1] for s in self.SELECTIVITIES)
            rows = self.data.num_rows * len(self.SELECTIVITIES)
            out[f"{arm}_mrows_s"] = (rows / 1e6 / seconds, "Mrows/s")
        return out


# --- concurrent_scans ------------------------------------------------------


class ConcurrentScans(Workload):
    """Closed-loop batches of 16 clients through ``run_workload``.

    One unit is one batch; the next batch is sent only after the last
    one has finished.  All queries read the same column set, so they
    ride shared circular scans.
    """

    name = "concurrent_scans"
    unit_seconds = 0.07
    SELECT = ("O_ORDERKEY", "O_ORDERDATE", "O_TOTALPRICE")
    PREDICATE_ATTR = "O_TOTALPRICE"
    SELECTIVITIES = (0.01, 0.1, 0.3)
    CLIENTS = 16
    MAX_INFLIGHT = 8
    FULL_ROWS = 60_000

    def setup(self):
        from repro import Database, Layout, generate_orders

        started = time.perf_counter()
        data = generate_orders(self.rows(self.FULL_ROWS), seed=self.seed)
        generated = time.perf_counter()
        db = Database(layouts=(Layout.COLUMN,))
        db.create_table(data)
        created = time.perf_counter()
        self.data, self.db = data, db
        return generated - started, created - generated

    def prepare(self):
        from repro import predicate_for_selectivity

        values = self.data.column(self.PREDICATE_ATTR)
        self.predicates, self.reference = {}, {}
        for sel in self.SELECTIVITIES:
            pred = predicate_for_selectivity(self.PREDICATE_ATTR, values, sel)
            _check_selectivity(pred, values, sel)
            self.predicates[sel] = pred
            self.reference[sel] = _expected(self.data.columns, pred, self.SELECT)
        rng = _rng(self.seed, 2)
        # Batch 0 is the untimed warm-up.
        self.batches = [
            [self.SELECTIVITIES[i] for i in rng.integers(0, 3, self.CLIENTS)]
            for _ in range(self.units + 1)
        ]

    def query_kinds(self):
        return {f"scan@{s * 100:g}%" for s in self.SELECTIVITIES}

    def _batch(self, sels, timed: bool) -> tuple[list[Op], float]:
        from repro import WorkloadQuery

        requests = [
            WorkloadQuery("ORDERS", self.SELECT, (self.predicates[s],))
            for s in sels
        ]
        info: dict = {}
        handles, seconds, error = _timed(
            lambda: self.db.run_workload(
                requests, max_inflight=self.MAX_INFLIGHT, share_scans=True,
                info=info,
            )
        )
        if error is not None:
            return [Op("batch", seconds, False, timed=timed)], seconds
        # Keep only what the per-layer report needs: holding the
        # handles would hold every result.
        self.modeled_io_bytes += info["modeled_io_bytes"]
        self.slices += sum(h.slices for h in handles)
        self.queue_waits.extend(
            h.queue_seconds for h in handles if h.queue_seconds is not None
        )
        ops = []
        for sel, handle in zip(sels, handles):
            ok = handle.error is None and _matches(
                handle.result, *self.reference[sel]
            )
            ops.append(Op(
                f"scan@{sel * 100:g}%", handle.latency or 0.0, ok,
                rows=self.data.num_rows,
                qualified=0 if handle.result is None else handle.result.num_tuples,
                timed=timed,
                events=None if handle.result is None
                else handle.result.events.as_dict(),
            ))
        return ops, seconds

    def _reset_counts(self) -> None:
        self.modeled_io_bytes = 0
        self.slices = 0
        self.queue_waits: list[float] = []

    def warmup(self):
        self._reset_counts()
        ops, _ = self._batch(self.batches[0], False)
        return ops

    def replay(self, tracer=None):
        ops = []
        self.batch_seconds = []
        self._reset_counts()
        for unit, sels in enumerate(self.batches[1:]):
            if not self._slot_start(unit):
                break
            if tracer is not None:
                tracer.request = len(self.batch_seconds)
                tracer.query_attrs = frozenset(self.SELECT)
            batch_ops, seconds = self._batch(sels, True)
            ops.extend(batch_ops)
            self.batch_seconds.append(seconds)
        return ops

    def normalize(self, ops, factor):
        super().normalize(ops, factor)
        self.batch_seconds = [b / factor for b in self.batch_seconds]

    def end_to_end(self, ops):
        width = self.data.schema.tuple_width * self.data.num_rows
        return {
            # Queries overlap within a batch, so the batch is the unit.
            "ops_s": (self.CLIENTS / fast_mean(self.batch_seconds), "1/s"),
            "query_ms": (self.query_ms(ops), "ms"),
            "space_amp": (self.db.table("ORDERS").total_bytes / width, "ratio"),
        }

    def details(self, ops):
        summary = latency_summary([op.seconds for op in ops])
        return {"query_tail_ms": (summary["tail_ms"] or 0.0, "ms")}


# --- write_hybrid ----------------------------------------------------------


class WriteHybrid(Workload):
    """Staged writes, hybrid reads on both overlay forms, and merges.

    One unit is one cycle: 8 steps of (insert 500 rows, delete 100 live
    rows, the same 10 % query via ``query`` and via ``submit``), then a
    delete of the cycle's net growth and a foreground ``merge``.  The benchmark keeps its own mirror of the
    live rows to check every result.
    """

    name = "write_hybrid"
    unit_seconds = 1.0
    mutates = True
    SELECT = ("O_ORDERKEY", "O_ORDERDATE", "O_TOTALPRICE", "O_CUSTKEY")
    PREDICATE_ATTR = "O_TOTALPRICE"
    SELECTIVITY = 0.1
    STEPS = 8
    INSERTS = 500
    DELETES = 100
    FULL_ROWS = 100_000
    TABLE = "ORDERS"
    SORT_KEY = "O_ORDERKEY"

    def setup(self):
        from repro import Database, Layout, generate_orders

        started = time.perf_counter()
        data = generate_orders(self.rows(self.FULL_ROWS), seed=self.seed)
        generated = time.perf_counter()
        db = Database(layouts=(Layout.COLUMN,))
        db.create_table(data, compress=True, sort_key=self.SORT_KEY)
        created = time.perf_counter()
        self.data, self.db = data, db
        return generated - started, created - generated

    def prepare(self):
        from repro import generate_orders, predicate_for_selectivity

        values = self.data.column(self.PREDICATE_ATTR)
        self.predicate = predicate_for_selectivity(
            self.PREDICATE_ATTR, values, self.SELECTIVITY
        )
        _check_selectivity(self.predicate, values, self.SELECTIVITY)
        inserts = self.units * self.STEPS * self.INSERTS
        self.pool = generate_orders(inserts, seed=self.seed + 1_000_003).columns
        self.names = self.data.schema.attribute_names
        self.rng_stream = 3
        self.reset_mirror()

    def reset_mirror(self) -> None:
        """Mirror of the live rows: base, staged, and what is alive."""
        self.base = dict(self.data.columns)
        self.staged: dict[str, list] = {n: [] for n in self.names}
        self.alive = np.ones(self.data.num_rows, dtype=bool)
        self.rng = _rng(self.seed, self.rng_stream)
        self.pool_next = 0
        self.staged_bytes = 0
        self.bytes_rewritten = 0

    def query_kinds(self):
        return {"query", "submit"}

    def _live(self) -> dict:
        columns = {
            n: np.concatenate([self.base[n], *self.staged[n]]) for n in self.names
        }
        return {n: c[self.alive] for n, c in columns.items()}

    def _queries(self, timed: bool) -> list[Op]:
        expected = _expected(self._live(), self.predicate, self.SELECT)
        rows = int(self.alive.sum())
        pred = (self.predicate,)
        ops = []
        for kind, call in (
            ("query", lambda: self.db.query(self.TABLE, self.SELECT, pred)),
            ("submit",
             lambda: self.db.submit(self.TABLE, self.SELECT, pred).value()),
        ):
            result, seconds, error = _timed(call)
            ok = error is None and _matches(result, *expected)
            ops.append(Op(kind, seconds, ok, rows=rows,
                          qualified=0 if result is None else result.num_tuples,
                          timed=timed,
                          events=None if result is None
                          else result.events.as_dict()))
        return ops

    def _step(self) -> list[Op]:
        lo, hi = self.pool_next, self.pool_next + self.INSERTS
        self.pool_next = hi
        chunk = {n: self.pool[n][lo:hi] for n in self.names}
        rows = list(zip(*(chunk[n].tolist() for n in self.names)))
        _, seconds, error = _timed(lambda: self.db.insert_many(self.TABLE, rows))
        ops = [Op("insert", seconds, error is None, rows=len(rows))]
        for n in self.names:
            self.staged[n].append(chunk[n])
        self.alive = np.concatenate([self.alive, np.ones(len(rows), dtype=bool)])

        return [*ops, self._delete(self.DELETES, "delete"), *self._queries(True)]

    def _delete(self, count: int, kind: str) -> Op:
        """Delete ``count`` live rows, drawn from the seeded stream."""
        victims = np.sort(
            self.rng.choice(np.flatnonzero(self.alive), count, replace=False)
        )
        newly, seconds, error = _timed(
            lambda: self.db.delete(self.TABLE, positions=victims.tolist())
        )
        self.alive[victims] = False
        return Op(kind, seconds, error is None and newly == count, rows=count)

    def _merge(self) -> Op:
        self.staged_bytes += self.db.write_store(self.TABLE).staged_bytes
        _, seconds, error = _timed(lambda: self.db.merge(self.TABLE))
        live = self._live()
        order = np.argsort(live[self.SORT_KEY], kind="stable")
        self.base = {n: c[order] for n, c in live.items()}
        self.staged = {n: [] for n in self.names}
        self.alive = np.ones(len(order), dtype=bool)
        ok = error is None
        if ok:
            table = self.db.table(self.TABLE)
            self.bytes_rewritten += table.total_bytes
            ok = table.num_rows == len(order) and all(
                np.array_equal(table.read_column(n), self.base[n])
                for n in self.names
            )
        return Op("merge", seconds, ok)

    def warmup(self):
        return self._queries(False)

    def replay(self, tracer=None):
        ops = []
        for cycle in range(self.units):
            if not self._slot_start(cycle):
                break
            for step in range(self.STEPS):
                if tracer is not None:
                    tracer.request = cycle * (self.STEPS + 1) + step
                    tracer.query_attrs = frozenset(self.SELECT)
                ops.extend(self._step())
            if tracer is not None:
                tracer.request = cycle * (self.STEPS + 1) + self.STEPS
            # Trim the cycle's net growth so that every cycle starts from
            # a table of the same size: otherwise late cycles cost about
            # twice what early ones do and their kinds stop being one kind.
            ops.append(
                self._delete(self.STEPS * (self.INSERTS - self.DELETES), "trim")
            )
            ops.append(self._merge())
        return ops

    def end_to_end(self, ops):
        table = self.db.table(self.TABLE)
        width = self.data.schema.tuple_width * table.num_rows
        return {
            "ops_s": (self.ops_per_second(ops), "1/s"),
            "query_ms": (self.query_ms(ops), "ms"),
            "space_amp": (table.total_bytes / width, "ratio"),
        }

    def details(self, ops):
        writes = [op for op in ops if op.kind in ("insert", "delete", "trim")]
        queries = [op.seconds for op in ops if op.kind in ("query", "submit")]
        summary = latency_summary(queries)
        return {
            "query_tail_ms": (summary["tail_ms"] or 0.0, "ms"),
            "ingest_krows_s": (
                sum(op.rows for op in writes) / 1e3
                / sum(op.seconds for op in writes),
                "krows/s",
            ),
            "merge_ms": (1000.0 * statistics.median(
                op.seconds for op in ops if op.kind == "merge"), "ms"),
        }


WORKLOADS = {w.name: w for w in (ScanMatrix, ConcurrentScans, WriteHybrid)}
