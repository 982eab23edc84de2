"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DETERMINISTIC = (
    "samples", "breaches", "events", "txlog_entries", "_calls", "sequences", "fuzz_ops",
    "ledgers_created",
)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def quick(workload: str, trace: int) -> dict:
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_mode_emits_every_end_to_end_metric(workload):
    metrics = quick(workload, trace=0)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    assert all(m["value"] > 0 for m in metrics.values())
    assert metrics["txlog_bytes"] == quick(workload, trace=0)["txlog_bytes"]


def test_quick_traced_mode_emits_every_layer_metric_and_counts_repeat():
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    first, second = quick("penalty_heavy", trace=1), quick("penalty_heavy", trace=1)
    assert {name: m["unit"] for name, m in first.items()} == expected
    for name, metric in first.items():
        if name.endswith(DETERMINISTIC):
            assert metric["value"] == second[name]["value"], name
    assert first["verify.verify.fuzz_ops"]["value"] > 0
    assert first["run.traffic.samples"]["value"] == 10 * 60


def test_tampered_txlog_counts_as_failed_op(tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(run.workloads.penalty_heavy(5, scps=2, periods=10)))
    out = tmp_path / "out"
    ran = run.invoke(["run", "--config", str(config), "--out", str(out)], tmp_path)
    figures = run.check_run(ran, out, None)
    assert not ran.failed

    log = out / "txlog.jsonl"
    lines = log.read_text().splitlines()
    for i, line in enumerate(lines[1:], start=1):
        entry = json.loads(line)
        if entry["op"] == "record_traffic":
            entry["kb"] += 1
            lines[i] = json.dumps(entry, sort_keys=True)
            break
    log.write_text("\n".join(lines) + "\n")

    replayed = run.invoke(["replay", "--log", str(log)], tmp_path)
    run.check_replay(replayed, figures["digest"])
    assert replayed.failed
    assert replayed.code != 0 and replayed.problems


def test_wrong_csv_digest_counts_as_failed_op(tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(run.workloads.smoke(5)))
    out = tmp_path / "out"
    ran = run.invoke(["run", "--config", str(config), "--out", str(out)], tmp_path)
    run.check_run(ran, out, "0" * 64)
    assert ran.failed and "SHA-256" in ran.problems[0]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "verify_oracles", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
