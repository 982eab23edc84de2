"""The slasim benchmark: host time of ``run``, ``replay`` and ``verify``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from the root of a checkout.  The benchmark writes the workload's scenario
JSON from ``--seed`` (see ``workloads.py``), then drives the ``slasim`` CLI of
``src/`` as a closed loop with one client: one child process at a time, each
started only after the previous one ended.  One cycle is a user session on
the scenario::

    slasim run --config scenario.json --out OUT
    slasim replay --log OUT/txlog.jsonl
    slasim verify --bound 10        (five times)

Cycles repeat until ``--seconds`` have passed; every figure is the median over
the cycles of the run.  Times are host wall time of the child process, from
spawn to exit, so they include interpreter start-up as a user sees it; peak
RSS comes from ``os.wait4``.

Every invocation's outputs are checked (see ``check_run``, ``check_replay`` and
``check_verify``); an invocation that exits non-zero or fails a check counts
as failed, and the reason is logged on stderr.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.  With
``--trace 1`` the run alternates untraced and traced cycles; the traced ones
run each child under the layer tracer (``tracer.py``) and give the per-layer
metrics, named ``<command>.<module>.<metric>``, and the untraced ones give the
tracing overhead.  Spans of the last traced cycle are left in
``.bench_work/spans/<workload>/``.

``--quick`` shrinks every scenario and the verify bound so that the whole
metric set can be produced in a few seconds; it is for the benchmark's tests,
not for measuring.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SHIM = BENCH_DIR / "shim.py"
BASELINE = BENCH_DIR / "baseline.json"
WORK = ROOT / ".bench_work"

VERIFY_BOUND = 10
# verify is an order of magnitude shorter than run and replay of the large
# scenarios, so each cycle repeats it to give its median as many samples
VERIFY_REPEATS = 5
QUICK_VERIFY_BOUND = 3
CHILD_TIMEOUT_S = 150

SCENARIOS = {
    "traffic_heavy": (workloads.traffic_heavy, dict(scps=3, periods=30)),
    "penalty_heavy": (workloads.penalty_heavy, dict(periods=60)),
    "verify_oracles": (workloads.smoke, {}),
}

CONTRACT_TIMED = ("record_traffic", "throughput_breach", "close_period", "withdraw", "register_scp")

# A text in a metric's name picks its unit; the first match wins.
UNITS = (
    ("_p99_us", "us"),
    ("_ratio", "ratio"),
    ("_mb", "MiB"),
    ("_bytes", "bytes"),
    ("_s", "s"),
)


def unit_of(name: str) -> str:
    for suffix, unit in UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# --- child invocations -------------------------------------------------------


@dataclass
class Invocation:
    command: str
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str
    stats: dict
    problems: List[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.code != 0 or bool(self.problems)


def invoke(argv: List[str], work: Path, spans: Optional[Path] = None) -> Invocation:
    """Run one ``slasim`` command in a child process and wait for it to end."""
    command = argv[0]
    out_path, err_path = work / f"{command}.stdout", work / f"{command}.stderr"
    stats_path = work / f"{command}.stats.json"
    stats_path.unlink(missing_ok=True)
    shim = [sys.executable, str(SHIM), "--stats", str(stats_path)]
    if spans is not None:
        shim += ["--spans", str(spans)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(shim + ["--"] + argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall_s = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    stats = json.loads(stats_path.read_text()) if stats_path.exists() else {}
    return Invocation(
        command=command,
        code=proc.returncode,
        wall_s=wall_s,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        stats=stats,
    )


# --- output checks -----------------------------------------------------------


def exit_problem(inv: Invocation) -> str:
    last = inv.stderr.strip().splitlines()[-1:] or ["no diagnostics"]
    return f"exit code {inv.code}: {last[0]}"


def check_run(inv: Invocation, out: Path, csv_sha256: Optional[str]) -> dict:
    """Check a ``run``'s outputs; returns the figures later steps need."""
    if inv.code != 0:
        inv.problems.append(exit_problem(inv))
        return {}
    try:
        report = json.loads((out / "report.json").read_text())
        with open(out / "txlog.jsonl", "rb") as fh:
            header = json.loads(fh.readline())
        csv_sha = hashlib.sha256((out / "report.csv").read_bytes()).hexdigest()
        summary, rows = report["summary"], report["scps"]
        if header["digest"] != report["digest"]:
            inv.problems.append(
                f"txlog header digest {header['digest']} != report digest {report['digest']}"
            )
        for row in rows:
            if row["earned"] - row["penalized"] - row["withdrawn"] != row["final_credit"]:
                inv.problems.append(f"report row {row['scp']} does not close: {row}")
        if summary["total_deposits"] != (
            summary["escrow_remaining"] + summary["total_withdrawn"] + summary["total_recovered"]
        ):
            inv.problems.append(f"funds not conserved: {summary}")
        if csv_sha256 is not None and csv_sha != csv_sha256:
            inv.problems.append(f"report.csv SHA-256 {csv_sha} != recorded {csv_sha256}")
        return {
            "digest": report["digest"],
            "events": summary["num_events"],
            "txlog_entries": header["entries"],
            "txlog_bytes": (out / "txlog.jsonl").stat().st_size,
        }
    except (OSError, ValueError, KeyError, TypeError) as exc:
        inv.problems.append(f"unreadable output: {exc!r}")
        return {}


def check_replay(inv: Invocation, digest: str) -> None:
    if inv.code != 0:
        inv.problems.append(exit_problem(inv))
    elif inv.stdout.strip() != digest:
        inv.problems.append(f"replay digest {inv.stdout.strip()!r} != run digest {digest}")


def check_verify(inv: Invocation, bound: int) -> None:
    if inv.code != 0:
        inv.problems.append(exit_problem(inv))
        return
    for line in (
        f"strike rule: all sequences up to length {bound} match the oracle",
        r"conservation: \d+ fuzzed operations hold exactly",
    ):
        if not re.search(f"^{line}$", inv.stderr, re.MULTILINE):
            inv.problems.append(f"verify did not print {line!r}")


# --- cycles ------------------------------------------------------------------


@dataclass
class Cycle:
    invocations: List[Invocation]
    figures: dict


def run_cycle(
    config: Path, work: Path, bound: int, csv_sha256: Optional[str], spans: Optional[Path]
) -> Cycle:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)

    def span_file(command):
        return None if spans is None else spans / f"{command}.spans.jsonl"

    run = invoke(["run", "--config", str(config), "--out", str(out)], work, span_file("run"))
    figures = check_run(run, out, csv_sha256)
    invocations = [run]
    if not run.failed:
        replay = invoke(["replay", "--log", str(out / "txlog.jsonl")], work, span_file("replay"))
        check_replay(replay, figures["digest"])
        invocations.append(replay)
    for _ in range(VERIFY_REPEATS):
        verify = invoke(["verify", "--bound", str(bound)], work, span_file("verify"))
        check_verify(verify, bound)
        invocations.append(verify)
    for inv in invocations:
        for problem in inv.problems:
            log(f"FAILED {inv.command}: {problem}")
    return Cycle(invocations, figures)


# --- metrics -----------------------------------------------------------------


def median_of(values: List[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def end_to_end(cycles: List[Cycle]) -> Dict[str, List[float]]:
    """Samples of every end-to-end metric over the successful invocations."""
    samples: Dict[str, List[float]] = {
        name: []
        for name in (
            "run_s",
            "replay_s",
            "setup_s",
            "verify_s",
            "run_peak_rss_mb",
            "replay_peak_rss_mb",
            "txlog_bytes",
        )
    }
    for cycle in cycles:
        for inv in cycle.invocations:
            if inv.failed:
                continue
            samples[f"{inv.command}_s"].append(inv.wall_s)
            if inv.command == "run":
                samples["setup_s"].append(inv.stats["setup_s"])
                samples["run_peak_rss_mb"].append(inv.peak_rss_mb)
                samples["txlog_bytes"].append(cycle.figures["txlog_bytes"])
            elif inv.command == "replay":
                samples["replay_peak_rss_mb"].append(inv.peak_rss_mb)
    return samples


def layer_metrics(inv: Invocation, figures: dict) -> Dict[str, float]:
    """Per-layer figures of one traced invocation, prefixed with its command."""
    stats = inv.stats
    total, self_s, calls = stats["total_s"], stats["self_s"], stats["calls"]
    items = stats["items"]
    m: Dict[str, float] = {}
    if inv.command == "run":
        m["config.load_s"] = total["config.load"]
        m["cli.setup_run_s"] = total["cli.setup_run"]
        m["traffic.generate_trace_s"] = total["traffic.generate_trace"]
        m["traffic.samples"] = items["traffic.generate_trace"]
        m["rng.splitmix64_calls"] = calls.get("rng.splitmix64", 0)
        m["traffic.drive_self_s"] = self_s["traffic.drive"]
        m["traffic.detect_breaches_s"] = total["traffic.detect_breaches"]
        m["traffic.breaches"] = items["traffic.detect_breaches"]
        m["ledger.state_digest_s"] = total["ledger.state_digest"]
        m["ledger.state_digest_calls"] = calls["ledger.state_digest"]
        m["ledger.export_txlog_s"] = total["ledger.export_txlog"]
        m["ledger.txlog_entries"] = figures["txlog_entries"]
        m["ledger.events"] = figures["events"]
        m["report.write_json_s"] = total["report.write_json"]
        m["report.write_csv_s"] = total["report.write_csv"]
    elif inv.command == "replay":
        m["replay.load_txlog_s"] = total["replay.load_txlog"]
        m["replay.replay_entries_s"] = total["replay.replay_entries"]
        m["replay.digest_s"] = total["ledger.state_digest"]
    else:
        m["verify.check_strike_equivalence_s"] = total["verify.check_strike_equivalence"]
        m["verify.sequences"] = calls["verify.contract_removal_period"]
        m["verify.conservation_fuzz_s"] = total["verify.conservation_fuzz"]
        m["verify.fuzz_ops"] = items["verify.conservation_fuzz"]
        m["verify.ledgers_created"] = calls["ledger.Ledger"]
    for op in CONTRACT_TIMED:
        m[f"contract.{op}_s"] = total.get(f"contract.{op}", 0.0)
        m[f"contract.{op}_calls"] = calls.get(f"contract.{op}", 0)
    m["contract.close_period_p99_us"] = stats["p99_s"].get("contract.close_period", 0.0) * 1e6
    m["contract.rejected_calls"] = sum(stats["rejected"].values())
    m["runtime.gc_pause_s"] = stats["gc_pause_s"]
    m["runtime.gc_gen2_collections"] = stats["gc_gen2_collections"]
    # interpreter start-up, imports and teardown: the child outside cli.main
    m["runtime.outside_main_s"] = inv.wall_s - total["cli.main"]
    m["unattributed_s"] = self_s["cli.main"]
    return {f"{inv.command}.{name}": value for name, value in m.items()}


def per_layer(traced: List[Cycle], untraced: List[Cycle]) -> Dict[str, List[float]]:
    samples: Dict[str, List[float]] = {}
    for cycle in traced:
        for inv in cycle.invocations:
            if not inv.failed:
                for name, value in layer_metrics(inv, cycle.figures).items():
                    samples.setdefault(name, []).append(value)
    plain, with_tracer = end_to_end(untraced), end_to_end(traced)
    for command in ("run", "replay", "verify"):
        base, traced_s = median_of(plain[f"{command}_s"]), median_of(with_tracer[f"{command}_s"])
        if base and traced_s:
            samples[f"{command}.trace_overhead_ratio"] = [traced_s / base - 1.0]
    return samples


# --- reporting ---------------------------------------------------------------


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "loadavg_1m": os.getloadavg()[0],
    }


def summarize(name: str, values: List[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    line = f"{name:44s} {statistics.median(values):14.6f} {unit_of(name):6s} n={len(values)}"
    if len(values) >= 20:
        pct = int(100 * (1 - 10 / len(values)))
        line += f" p{pct}={statistics.quantiles(values, n=100)[pct - 1]:.6f}"
    return line


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="slasim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(SCENARIOS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")
    if not (ROOT / "src" / "slasim" / "cli.py").is_file():
        log(f"no slasim sources under {ROOT / 'src'}; run from the root of a full checkout")
        return 2

    env = environment()
    baseline = json.loads(BASELINE.read_text())
    make, quick_sizes = SCENARIOS[args.workload]
    scenario = make(args.seed, **quick_sizes) if args.quick else make(args.seed)
    bound = QUICK_VERIFY_BOUND if args.quick else VERIFY_BOUND
    csv_sha256 = None
    if not args.quick and args.seed == baseline.get("default_seed"):
        csv_sha256 = baseline["report_csv_sha256"][args.workload]

    work = WORK / f"{args.workload}-{os.getpid()}"
    spans = WORK / "spans" / args.workload if args.trace else None
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if spans is not None:
        spans.mkdir(parents=True, exist_ok=True)
    try:
        config = work / "scenario.json"
        config.write_text(json.dumps(scenario))
        # compile the sources to bytecode once, so no timed child pays for it
        invoke(["verify", "--bound", "0"], work)
        untraced: List[Cycle] = []
        traced: List[Cycle] = []
        # with --trace 1, untraced and traced cycles alternate
        kinds = [(untraced, None), (traced, spans)] if args.trace else [(untraced, None)]
        started = time.perf_counter()
        for i in itertools.count():
            if i >= len(kinds) and time.perf_counter() - started >= args.seconds:
                break
            cycles, span_dir = kinds[i % len(kinds)]
            cycles.append(run_cycle(config, work, bound, csv_sha256, span_dir))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    invocations = [inv for cycle in untraced + traced for inv in cycle.invocations]
    attempted, failed = len(invocations), sum(inv.failed for inv in invocations)
    samples = per_layer(traced, untraced) if args.trace else end_to_end(untraced)

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} quick={args.quick}")
    print("# environment " + json.dumps(env, sort_keys=True))
    print(f"# cycles: {len(untraced)} untraced, {len(traced)} traced; closed loop, one client")
    metrics = {}
    for name, values in samples.items():
        if values:
            print(summarize(name, values))
            metrics[name] = {"value": statistics.median(values), "unit": unit_of(name)}
        else:
            print(f"{name:44s} {'n/a':>14s} {unit_of(name):6s} n=0")
            metrics[name] = {"value": None, "unit": unit_of(name)}
    print(f"{'failed_ops_ratio':44s} {failed / attempted:14.6f} ratio  base={attempted} CLI invocations")
    if not args.trace and args.workload == "traffic_heavy" and metrics["run_s"]["value"]:
        gate = 2 * metrics["run_s"]["value"] + metrics["replay_s"]["value"]
        print(f"# 2*run_s + replay_s = {gate:.3f} s beside the tier-1 gate of 10 s (information only)")
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
