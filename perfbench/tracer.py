"""In-memory tracer for one slasim CLI invocation.

The tracer wraps the public functions each slasim module exposes, at the
name the caller looks them up under (``cli`` imports ``load_config``,
``drive``, ``replay_file``, ``check_strike_equivalence`` and
``conservation_fuzz`` by name; ``traffic`` imports ``splitmix64`` by name;
methods are looked up on their class).  No file of the program changes.

Every wrapped call updates per-name totals: calls, inclusive time, self time
(duration minus the time its wrapped children took; calls are strictly nested
in this single-threaded program, so child coverage is the sum of the
children's durations), and rejected calls.  Coarse calls, the ones made a
handful of times per invocation, are also kept as spans (id, parent, name,
start, end) and written out when the invocation ends; hot calls such as
``record_traffic`` are aggregated only, so that a 450k-sample run does not
hold 450k span objects.  Garbage-collector pauses are observed through
``gc.callbacks``.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
from collections import defaultdict
from time import perf_counter

from slasim import cli, contract, ledger, replay, report, rng, traffic, verify
from slasim.errors import ContractError

CONTRACT_OPS = (
    "register_scp",
    "deposit",
    "record_traffic",
    "throughput_breach",
    "close_period",
    "withdraw",
    "failsafe_disable",
    "recover_escrow",
)


def _nearest_rank(values, fraction):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * fraction) - 1)] if ordered else 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans = []  # (id, parent id, name, start, end)
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.rejected = defaultdict(int)
        self.items = defaultdict(int)
        self.durations = defaultdict(list)
        self.gc_pause_s = 0.0
        self.gc_gen2_collections = 0
        self._gc_started = 0.0
        self._stack = []  # frames: [span id, start, time covered by children]
        self._ids = itertools.count()

    # --- wrapping -----------------------------------------------------------

    def timed(self, fn, name, span=False, durations=False, items=None):
        """Wrap ``fn`` so each call is timed and attributed to ``name``."""
        stack, ids = self._stack, self._ids
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        rejected, spans = self.rejected, self.spans
        kept = self.durations[name] if durations else None
        counted = self.items

        def traced(*args, **kwargs):
            frame = [next(ids), perf_counter(), 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except ContractError:
                rejected[name] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - frame[1]
                calls[name] += 1
                total_s[name] += elapsed
                self_s[name] += elapsed - frame[2]
                if stack:
                    stack[-1][2] += elapsed
                if span:
                    spans.append((frame[0], parent, name, frame[1], end))
                if kept is not None:
                    kept.append(elapsed)
            if items is not None:
                counted[name] += items(args, result)
            return result

        return traced

    def counted(self, fn, name):
        """Wrap ``fn`` so its calls are counted but not timed."""
        calls = self.calls

        def count(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return count

    def install(self) -> None:
        """Wrap every layer function of the slasim package in place."""

        def patch(owner, attr, wrapper, *args, **kwargs):
            setattr(owner, attr, wrapper(getattr(owner, attr), *args, **kwargs))

        timed, counted = self.timed, self.counted
        patch(cli, "main", timed, "cli.main", span=True)
        patch(cli, "load_config", timed, "config.load", span=True)
        patch(cli, "setup_run", timed, "cli.setup_run", span=True)
        patch(cli, "drive", timed, "traffic.drive", span=True)
        patch(
            traffic,
            "generate_trace",
            timed,
            "traffic.generate_trace",
            span=True,
            items=lambda args, trace: sum(len(p) for p in trace.periods),
        )
        patch(
            traffic,
            "detect_breaches",
            timed,
            "traffic.detect_breaches",
            items=lambda args, breaches: len(breaches),
        )
        patch(traffic, "splitmix64", counted, "rng.splitmix64")
        patch(rng, "splitmix64", counted, "rng.splitmix64")
        for op in CONTRACT_OPS:
            patch(
                contract.SlaContract,
                op,
                timed,
                f"contract.{op}",
                durations=(op == "close_period"),
            )
        patch(ledger.Ledger, "__init__", counted, "ledger.Ledger")
        patch(ledger.Ledger, "state_digest", timed, "ledger.state_digest", span=True)
        patch(ledger.Ledger, "export_txlog", timed, "ledger.export_txlog", span=True)
        patch(report.RunReport, "write_json", timed, "report.write_json", span=True)
        patch(report.RunReport, "write_csv", timed, "report.write_csv", span=True)
        patch(cli, "replay_file", timed, "replay.replay_file", span=True)
        patch(replay, "load_txlog", timed, "replay.load_txlog", span=True)
        patch(replay, "replay_entries", timed, "replay.replay_entries", span=True)
        patch(
            cli,
            "check_strike_equivalence",
            timed,
            "verify.check_strike_equivalence",
            span=True,
        )
        patch(verify, "contract_removal_period", counted, "verify.contract_removal_period")
        patch(
            cli,
            "conservation_fuzz",
            timed,
            "verify.conservation_fuzz",
            span=True,
            items=lambda args, violation: args[0],
        )
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
            return
        self.gc_pause_s += perf_counter() - self._gc_started
        if info["generation"] == 2:
            self.gc_gen2_collections += 1

    # --- output -------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "rejected": dict(self.rejected),
            "items": dict(self.items),
            "p99_s": {
                name: _nearest_rank(values, 0.99)
                for name, values in self.durations.items()
            },
            "gc_pause_s": self.gc_pause_s,
            "gc_gen2_collections": self.gc_gen2_collections,
        }

    def write_spans(self, path) -> None:
        origin = min((span[3] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in sorted(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                        }
                    )
                    + "\n"
                )
