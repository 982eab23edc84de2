"""Traffic/QoS monitoring simulator: plays the MNO's measurement role.

Generates per-period, per-provider, per-QCI served traffic and measured
average throughput from a scenario, detects throughput breaches against the
agreed levels, and drives the contract through record/breach/close cycles.

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
from operator import add, mod
from typing import Dict, List, Optional, Sequence, Tuple

from .config import ScenarioConfig
from .contract import SlaContract, SlaTerms
from .errors import UnknownQci
from .ledger import Ledger
from .report import RowFold, RunReport, rows_from_events
# splitmix64 is not called here: the benchmark's tracer counts calls through this name
from .rng import splitmix64, splitmix64_lanes, stream_key


@dataclass
class TrafficTrace:
    """Deterministic per-period measurements, fixed by (config, seed).

    ``streams`` holds every stream's ``(label, qci)`` once, in (label, qci)
    order.  ``periods[p]`` holds period ``p``'s measured kb, one value per
    stream in that order, as an ``array('q')``: a trace of 450,000 samples is
    about 4 MiB of values rather than 45 MiB of tuples.  With every label
    registered as its address and active, that order is the contract's stream
    order, so a period's values are a ``record_traffic`` vector as they are.
    """

    seed: int
    num_periods: int
    streams: List[Tuple[str, int]] = field(default_factory=list)
    periods: List[array] = field(default_factory=list)


def generate_trace(config: ScenarioConfig) -> TrafficTrace:
    config.validate()
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
    # every period's values, by (label, qci); validate() leaves at least one
    streams.sort()
    labels, qcis, keys, lows, spans, windows = zip(*streams)
    trace = TrafficTrace(
        seed=config.seed, num_periods=config.num_periods, streams=list(zip(labels, qcis))
    )
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
        # validate() keeps nominal_kb below 2**62, so a value (at most twice
        # that) fits a signed 64-bit slot
        trace.periods.append(array("q", values))
    return trace


def agreed_levels(
    streams: Sequence[Tuple[str, int]], terms_by_label: Dict[str, SlaTerms]
) -> List[int]:
    """Each stream's agreed throughput, in the order of ``streams``."""
    for label, qci in streams:
        if qci not in terms_by_label[label].agreed_throughput:
            raise UnknownQci(f"QCI {qci} is not part of {label!r}'s agreement")
    return [terms_by_label[label].agreed_throughput[qci] for label, qci in streams]


def detect_breaches(
    streams: Sequence[Tuple[str, int]], kb: Sequence[int], agreed: Sequence[int]
) -> List[Tuple[str, int, int]]:
    """Breach entries (label, qci, deficit) for every measured < agreed.

    ``kb`` and ``agreed`` (see ``agreed_levels``) hold one value per stream.
    Strict inequality: meeting the agreed average exactly is not a breach.
    Output follows the order of ``streams``, a trace's (label, qci) order.
    """
    return [
        (label, qci, level - measured)
        for (label, qci), measured, level in zip(streams, kb, agreed)
        if measured < level
    ]


def drive(
    ledger: Ledger,
    contract: SlaContract,
    config: ScenarioConfig,
    trace: Optional[TrafficTrace] = None,
    fold: Optional[RowFold] = None,
) -> RunReport:
    """Run the full scenario against an already funded, registered contract.

    Expects every scenario SCP registered under its label as its ledger
    address and the owner's deposit already made.  After the last period,
    every provider with positive credit withdraws.  The report's rows are
    those of ``fold``, a ``RowFold`` that has seen every event (as the
    ledger's sink ``fold.add`` does), else the fold of ``ledger.events``.
    Propagates contract errors (notably InsufficientEscrowForAccrual).
    """
    if trace is None:
        trace = generate_trace(config)
    owner = contract.owner
    terms_by_label = {scp.label: scp.terms for scp in config.scps}
    agreed = agreed_levels(trace.streams, terms_by_label)
    registry = contract.registry
    # the trace columns of the active streams, once a removal leaves some out;
    # until then a period's values are the contract's vector as they are
    columns: Optional[List[int]] = None

    for period in range(config.num_periods):
        kb = trace.periods[period]
        active_kb = kb if columns is None else [kb[i] for i in columns]
        if active_kb:
            contract.record_traffic(owner, active_kb)
        for label, qci, deficit in detect_breaches(trace.streams, kb, agreed):
            record = registry[label]
            if record.active:
                contract.throughput_breach(owner, label, qci, deficit)
                if not record.active:
                    columns = [
                        i for i, (name, _) in enumerate(trace.streams) if registry[name].active
                    ]
        contract.close_period(owner)

    for label in sorted(terms_by_label):
        if contract.registry[label].credit > 0:
            contract.withdraw(label)

    periods = config.num_periods
    rows = rows_from_events(ledger.events, periods) if fold is None else fold.rows(periods)
    return RunReport(
        seed=config.seed,
        config_echo=config.to_dict(),
        rows=rows,
        total_deposits=contract.total_deposits,
        escrow_remaining=contract.escrow,
        total_withdrawn=contract.total_withdrawn,
        total_recovered=contract.total_recovered,
        num_events=ledger.num_events,
        digest=ledger.state_digest(),
    )
