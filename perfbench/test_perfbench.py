"""Self-tests of the benchmark, at a tiny table size.

    python3 -m pytest -q perfbench/test_perfbench.py

They run the real command in a subprocess from the checkout root, so
they need the program's sources in ``src/``.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = ["--scale", "0.02", "--seconds", "1"]


sys.path.insert(0, str(HERE))


def bench(workload: str, trace: int, seed: int = 5) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), *TINY],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return {w: bench(w, 1) for w in WORKLOADS}


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    code, out = bench(workload, 0)
    assert code == 0 and out["correct"] and out["failed"] == 0
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    assert got == _units("end_to_end")
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload, traced):
    code, out = traced[workload]
    assert code == 0 and out["correct"]
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    assert got == _units("per_layer")
    assert out["metrics"]["trace.overhead_ratio"]["value"] > 0


def _counts(out: dict) -> dict:
    """Every per-layer metric that is a count, not a time."""
    return {
        name: m["value"] for name, m in out["metrics"].items()
        if m["unit"] in ("count", "bytes")
        and not name.startswith(("host.", "trace."))
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_per_layer_counts(workload, traced):
    _, first = traced[workload]
    _, second = bench(workload, 1)
    assert _counts(first) == _counts(second)


ZERO_CALLS = {
    "scan_matrix": ("scheduler.calls", "hybrid.build_overlay.calls",
                    "hybrid.apply.calls", "hybrid.run_scan_with_store.calls"),
    "concurrent_scans": ("parallel.calls", "hybrid.build_overlay.calls",
                         "hybrid.apply.calls",
                         "hybrid.run_scan_with_store.calls"),
    "write_hybrid": ("parallel.calls",),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layers_a_workload_bypasses_record_zero_calls(workload, traced):
    metrics = traced[workload][1]["metrics"]
    for name in ZERO_CALLS[workload]:
        assert metrics[name]["value"] == 0, name
    assert metrics["storage.read_page.calls"]["value"] > 0


def test_a_wrong_result_is_counted_as_a_failure(monkeypatch, capsys):
    """A program that returns one wrong value fails the run."""
    import run

    run.import_program()
    from repro.database import Database

    original = Database.query

    def off_by_one(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        first = next(iter(result.columns.values()))
        if len(first):
            first[0] += 1
        return result

    monkeypatch.setattr(Database, "query", off_by_one)
    code = run.main(["--workload", "scan_matrix", "--seed", "5", *TINY])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not out["correct"] and out["failed"] > 0
    assert out["metrics"]["success_rate"]["value"] < 1


def test_without_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan_matrix",
         "--seed", "1", "--trace", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    from measure import tail_percentile

    assert tail_percentile(10) is None
    assert tail_percentile(20) == 50.0
    assert tail_percentile(40) == 75.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(20_000) == 99.9


def test_self_time_subtracts_only_direct_children():
    from tracing import SpanRecorder

    rec = SpanRecorder()
    # outer [0, 10) holds mid [1, 7), which holds inner [2, 5).
    for name, start, end, parent in (
        ("outer", 0.0, 10.0, -1), ("mid", 1.0, 7.0, 0), ("inner", 2.0, 5.0, 1),
    ):
        rec.name_ids.append(rec.name_id(name))
        rec.starts.append(start)
        rec.ends.append(end)
        rec.parents.append(parent)
        rec.requests.append(0)
    assert rec.by_name() == {
        "outer": (1, 4.0), "mid": (1, 3.0), "inner": (1, 3.0),
    }


def test_cost_events_that_differ_from_the_frozen_ones_fail_the_op():
    import run

    run.import_program()
    from repro.engine.parallel import shutdown_pools
    from workloads import ScanMatrix

    frozen = {kind: {"tuples_examined": -1} for kind in ScanMatrix(
        5, 0.02, 1).query_kinds()}
    workload = ScanMatrix(5, 0.02, 1, frozen_events=frozen)
    try:
        workload.setup()
        workload.prepare()
        ops = workload.warmup()
    finally:
        shutdown_pools()
    assert ops and not any(op.ok for op in ops)
    assert set(workload.event_mismatches) == {op.kind for op in ops}
