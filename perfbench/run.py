"""Benchmark of the repro data path: one workload per invocation.

    python3 perfbench/run.py --workload scan_matrix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported from that
checkout's ``src/`` directory and nowhere else; without it the command
fails without printing a result.

``--trace 0`` prints the end-to-end metrics, measured with nothing
wrapped.  ``--trace 1`` runs the same op sequence twice, first
untraced and then with span wrappers at every layer boundary
(``tracing.py``), and prints the per-layer metrics plus the tracing
overhead.  Either way every op's result is checked, human-readable
lines come first and the last line of standard output is one JSON
object; the exit code is 1 when any op was wrong.

See ``perfbench/README.md`` for the workloads, the metrics and the
noise rules behind them.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
FROZEN_EVENTS = HERE / "frozen_events.json"
#: Raw op times and traced spans land here (ignored by git).
OUT_DIR = ROOT / ".perfbench"
#: Set-ups per run: at least SETUP_REPEATS, more while they add up to
#: less than SETUP_MIN_S; ``setup_s`` is their median.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 25
#: Seed used when none is given; FROZEN_EVENTS records its scan_matrix events.
DEFAULT_SEED = 1

sys.path.insert(0, str(HERE))


def import_program() -> None:
    """Import ``repro`` from this checkout's sources, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {src}")
    sys.path.insert(0, str(src))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def _metric(value, unit) -> dict:
    return {"value": float(value), "unit": unit}


def run(args) -> tuple[dict, int, int, list[str]]:
    """Run one workload; returns (metrics, attempted, failed, notes)."""
    from measure import HostHealth, peak_rss_mb
    from workloads import WORKLOADS, ScanMatrix

    cls = WORKLOADS[args.workload]
    extra = {}
    if cls is ScanMatrix and FROZEN_EVENTS.is_file() and not args.write_frozen:
        frozen = json.loads(FROZEN_EVENTS.read_text())
        if frozen["seed"] == args.seed and frozen["scale"] == args.scale:
            extra["frozen_events"] = frozen["events"]
    workload = cls(args.seed, args.scale, args.seconds, **extra)
    notes = []

    with HostHealth() as host:
        generate, create = setup_repeats(workload)
        setup = [g + c for g, c in zip(generate, create)]
        workload.prepare()
        checked = workload.warmup()
        ops = workload.replay()
        checked += ops
        save_raw(workload, ops)
        factor = workload.speed_factor()
        workload.normalize(ops, factor)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            **workload.end_to_end(ops),
        }
        details = workload.details(ops)
        host_probe = {
            "host.probe_ms": (1000.0 * statistics.median(workload.probes), "ms"),
            "host.speed_factor": (factor, "ratio"),
        }
        if args.trace:
            traced_ops, layer = traced_pass(workload)
            checked += traced_ops
            untraced = sum(op.seconds for op in ops)
            traced = sum(op.seconds for op in traced_ops if op.timed)
            layer["trace.overhead_ratio"] = (traced / untraced, "ratio")
            layer["data.generate_s"] = (statistics.median(generate), "s")
            layer["storage.load_table_s"] = (statistics.median(create), "s")
    failed = sum(not op.ok for op in checked)
    metrics["success_rate"] = ((len(checked) - failed) / len(checked), "ratio")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    if getattr(workload, "event_mismatches", None):
        notes.append(f"cost events changed for {sorted(set(workload.event_mismatches))}")
    if workload.truncated:
        notes.append("op sequence cut short at the hard deadline")
    if args.write_frozen:
        FROZEN_EVENTS.write_text(json.dumps(
            {"seed": args.seed, "scale": args.scale, "events": workload.events},
            indent=1, sort_keys=True) + "\n")
        notes.append(f"wrote {FROZEN_EVENTS.name}")

    host_metrics = {**host.metrics(), **host_probe}
    report_human(workload, ops, metrics, details, host_metrics, len(setup))
    if args.trace:
        out = {**layer, **details, **host_metrics}
    else:
        out = metrics
    return out, len(checked), failed, notes


def save_raw(workload, ops) -> None:
    """Keep the untraced pass's raw op times and probes for inspection."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"ops-{workload.name}-seed{workload.seed}.json"
    path.write_text(json.dumps({
        "probes_s": workload.probes,
        "batches_s": getattr(workload, "batch_seconds", []),
        "ops": [[op.kind, op.seconds] for op in ops],
    }))


def setup_repeats(workload) -> tuple[list[float], list[float]]:
    """Generate and load the data several times; host-normalized times.

    Each set-up is divided by the host factor of the probes taken just
    before and just after it, since set-up runs before the op replay
    that the run-level factor comes from.
    """
    from measure import PROBE_REFERENCE_S, probe_seconds

    generate, create = [], []
    probe = probe_seconds()
    while len(generate) < SETUP_REPEATS or (
        sum(generate) + sum(create) < SETUP_MIN_S
        and len(generate) < SETUP_MAX_REPEATS
    ):
        gen_s, create_s = workload.setup()
        after = probe_seconds()
        factor = (probe + after) / 2 / PROBE_REFERENCE_S
        generate.append(gen_s / factor)
        create.append(create_s / factor)
        probe = after
    return generate, create


def traced_pass(workload):
    """Replay the op sequence again with every layer boundary wrapped."""
    import tracing
    from repro.obs import metrics as obs_metrics

    checked = []
    if workload.mutates:
        workload.setup()
        workload.reset_mirror()
        checked = workload.warmup()
    rec = tracing.SpanRecorder()
    registry = {
        "retries": obs_metrics.RETRY_ATTEMPTS,
        "partition_retries": obs_metrics.GOVERNANCE_PARTITION_RETRIES,
        "share_hits": obs_metrics.SCHEDULER_SHARE_HITS,
        "share_misses": obs_metrics.SCHEDULER_SHARE_MISSES,
    }
    before = {k: c.value for k, c in registry.items()}
    instrumentation = tracing.install(rec)
    try:
        ops = workload.replay(tracer=rec)
    finally:
        instrumentation.remove()
    factor = workload.speed_factor()
    workload.normalize(ops, factor)
    delta = {k: c.value - before[k] for k, c in registry.items()}
    OUT_DIR.mkdir(exist_ok=True)
    rec.save(OUT_DIR / f"spans-{workload.name}-seed{workload.seed}.npz")
    return checked + ops, layer_metrics(workload, ops, rec, delta, factor)


def layer_metrics(workload, ops, rec, registry: dict, factor: float) -> dict:
    """The per-layer metrics of one traced pass (zero where unused).

    Self times are divided by the pass's host speed factor, like every
    other timing the benchmark reports.
    """
    from measure import percentile
    from workloads import ConcurrentScans, WriteHybrid

    spans = rec.by_name()
    counts = rec.counts

    def calls(name):
        return spans.get(name, (0, 0.0))[0]

    def self_s(name):
        return spans.get(name, (0, 0.0))[1] / factor

    out = {}
    for name in (
        "storage.read_page", "storage.crc", "decode.row_page",
        "decode.column_from_rows", "decode.pax_page", "decode.column_page",
        "decode.codec", "predicate", "cpusim.classify_page_access",
        "cpusim.lines_touched", "cpusim.count_decode", "operator.next",
        "parallel", "scheduler", "sharing.step", "hybrid.build_overlay",
        "hybrid.apply", "hybrid.run_scan_with_store", "database.query",
        "database.submit", "database.run_workload", "obs.record", "obs.inc",
        "obs.observe",
    ):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_s"] = (self_s(name), "s")
    for name in (
        "scan.row", "scan.pax", "scan.pipelined", "scan.fused",
        "sharing.consumer", "hybrid.operator", "write.insert_many",
        "write.delete", "merge.merged_data", "merge.codec_refresh",
        "merge.load_table",
    ):
        out[f"{name}.self_s"] = (self_s(name), "s")
    out["storage.retry.attempts"] = (registry["retries"], "count")
    attrs = counts["decode.attrs"]
    out["decode.useful_ratio"] = (
        counts["decode.useful_attrs"] / attrs if attrs else 0.0, "ratio"
    )
    out["predicate.values"] = (counts["predicate.values"], "count")
    out["blocks.split.calls"] = (calls("blocks.split"), "count")
    out["blocks.emitted"] = (counts["blocks.emitted"], "count")
    out["parallel.partitions"] = (counts["parallel.partitions"], "count")
    out["parallel.retries"] = (registry["partition_retries"], "count")
    out["hybrid.delta_rows"] = (counts["hybrid.delta_rows"], "count")
    out["write.insert_many.rows"] = (counts["write.insert_many.rows"], "count")
    out["write.delete.rows"] = (counts["write.delete.rows"], "count")

    queries = [op for op in ops if op.events is not None]
    out["scan.tuples_examined"] = (sum(op.rows for op in queries), "count")
    out["scan.tuples_qualified"] = (sum(op.qualified for op in queries), "count")

    events = {}
    for op in queries:
        for key, value in op.events.items():
            events[key] = events.get(key, 0) + value
    for field in EVENT_FIELDS:
        out[f"cpusim.events.{field}"] = (events.get(field, 0), "count")
    out["cpusim.events.values_decoded"] = (
        sum(v for k, v in events.items() if k.startswith("decoded_")), "count"
    )

    slices, waits, modeled = 0, [], 0
    if isinstance(workload, ConcurrentScans):
        slices = workload.slices
        waits = [1000.0 * w for w in workload.queue_waits]
        modeled = workload.modeled_io_bytes
    out["scheduler.slices"] = (slices, "count")
    out["scheduler.queue_wait_p50_ms"] = (percentile(waits, 50) if waits else 0.0, "ms")
    out["scheduler.queue_wait_p90_ms"] = (percentile(waits, 90) if waits else 0.0, "ms")
    hits, misses = registry["share_hits"], registry["share_misses"]
    out["sharing.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    out["sharing.modeled_io_bytes"] = (modeled, "bytes")

    staged = rewritten = 0
    if isinstance(workload, WriteHybrid):
        staged, rewritten = workload.staged_bytes, workload.bytes_rewritten
    out["write.staged_bytes"] = (staged, "bytes")
    out["merge.bytes_rewritten"] = (rewritten, "bytes")
    out["trace.spans"] = (len(rec.starts), "count")
    for name, unit in DETAIL_METRICS:
        out.setdefault(name, (0.0, unit))
    return out


#: CostEvents fields reported as ``cpusim.events.<field>``.
EVENT_FIELDS = (
    "tuples_examined", "values_examined", "predicate_evals",
    "predicate_eval_bytes", "positions_processed", "values_copied",
    "bytes_copied", "pages_touched", "blocks_produced", "mem_seq_lines",
    "mem_rand_lines", "l1_lines",
)

#: Workload-specific metrics of the layer map; zero where they do not apply.
DETAIL_METRICS = (
    ("row_mrows_s", "Mrows/s"), ("pax_mrows_s", "Mrows/s"),
    ("pipelined_mrows_s", "Mrows/s"), ("fused_mrows_s", "Mrows/s"),
    ("parallel_mrows_s", "Mrows/s"), ("query_tail_ms", "ms"),
    ("ingest_krows_s", "krows/s"), ("merge_ms", "ms"),
)


def report_human(workload, ops, metrics, details, host_metrics, setups) -> None:
    from measure import latency_summary

    print(f"# {workload.name}: seed {workload.seed}, {len(ops)} timed ops in "
          f"{workload.units} units, {setups} set-ups; timings are divided by "
          f"the host speed factor")
    for name, (value, unit) in {**metrics, **details, **host_metrics}.items():
        print(f"{name:>22} = {value:12.4f} {unit}")
    kinds: dict[str, list[float]] = {}
    for op in ops:
        kinds.setdefault(op.kind, []).append(op.seconds)
    for kind, seconds in sorted(kinds.items()):
        s = latency_summary(seconds)
        tail = ("n/a (fewer than 11 samples)" if s["tail_pct"] is None
                else f"p{s['tail_pct']:g} {s['tail_ms']:.2f} ms")
        print(f"  {kind:>16}: n={s['count']:<5} p50 {s['p50_ms']:9.2f} ms  tail {tail}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("scan_matrix", "concurrent_scans", "write_hybrid"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="nominal run length; fixes the op count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="table-size factor (self-tests use a tiny one)")
    parser.add_argument("--write-frozen", action="store_true",
                        help="record scan_matrix cost events as the frozen reference")
    args = parser.parse_args(argv)
    import_program()
    from repro.engine.parallel import shutdown_pools

    started = time.monotonic()
    try:
        metrics, attempted, failed, notes = run(args)
    finally:
        shutdown_pools()
    for note in notes:
        print(f"# note: {note}")
    print(f"# wall {time.monotonic() - started:.1f} s")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: _metric(v, u) for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
