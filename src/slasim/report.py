"""Run reports: per-provider settlement rows plus contract summary.

The rows are a fold of the ledger's event stream (``RowFold``), as
off-chain readers learn an on-chain contract's outcome from its logs.  Both
output formats (JSON and CSV) encode exactly the same numbers; CSV column
order and header names are frozen so golden-file comparisons stay stable
across releases.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set

from .fileio import atomic_write
from .ledger import EventKind, EventRecord

REPORT_SCHEMA = "slasim-report.v1"

CSV_COLUMNS = [
    "scp",
    "earned",
    "penalized",
    "withdrawn",
    "final_credit",
    "strikes_timeline",
    "removal_period",
]


# A row's strike timeline sits at depth 4 of report.json: the indented encoder
# puts each of its items on a line indented by 8 spaces, and its closing
# bracket by 6.  While the rest is encoded, a NaN holds each timeline's place:
# no other report value encodes to the bare token NaN.
_TIMELINE_SLOT = float("nan")
_TIMELINE_SEPARATOR = ",\n        "
_TIMELINE_PIECE = 1024  # items per C-encoder call, so the text held at once stays small


def _write_timeline(fh, timeline: List[int]) -> None:
    """Write ``timeline`` as the indented encoder does in a row, by the C encoder."""
    if not timeline:
        fh.write("[]")
        return
    fh.write("[\n        ")
    for start in range(0, len(timeline), _TIMELINE_PIECE):
        piece = timeline[start:start + _TIMELINE_PIECE]
        if start:
            fh.write(_TIMELINE_SEPARATOR)
        fh.write(json.dumps(piece, separators=(_TIMELINE_SEPARATOR, ": "))[1:-1])
    fh.write("\n      ]")


@dataclass
class ScpRow:
    """One provider's settlement row; its fields are ``CSV_COLUMNS``, in order."""

    scp: str
    earned: int = 0
    penalized: int = 0
    withdrawn: int = 0
    final_credit: int = 0
    strikes_timeline: List[int] = field(default_factory=list)
    removal_period: Optional[int] = None

    def to_dict(self) -> dict:
        return {column: getattr(self, column) for column in CSV_COLUMNS}


class RowFold:
    """One settlement row per registered provider, folded one event at a time.

    Payouts add to ``earned``, breach debits to ``penalized`` and withdrawals
    to ``withdrawn``; ``final_credit`` is the running credit.  Each payout
    applies the strike reset and appends the strike count to the timeline.
    ``ScpRegistered`` starts afresh; the positive credit of the row it
    replaces is the archived credit that the label's next withdrawal also
    pays, and that share is left out of the new row.
    """

    def __init__(self) -> None:
        self._rows: Dict[str, ScpRow] = {}
        self._strikes: Dict[str, int] = {}
        self._breached: Set[str] = set()
        self._archived: Dict[str, int] = {}  # positive credit of replaced rows

    def add(self, event: EventRecord) -> None:
        kind, scp = event.kind, event.subject
        row, strikes, breached = self._rows.get(scp), self._strikes, self._breached
        if kind is EventKind.PERIODIC_PAYOUT:
            payout = event.values[0]  # (payout, period)
            row.earned += payout
            row.final_credit += payout
            if scp in breached:
                breached.remove(scp)
            else:
                strikes[scp] = 0
            row.strikes_timeline.append(strikes[scp])
        elif kind is EventKind.INSUFFICIENT_THROUGHPUT:
            debit = event.values[1]  # (deficit, debit)
            row.penalized += debit
            row.final_credit -= debit
            if scp not in breached:
                breached.add(scp)
                strikes[scp] += 1
        elif kind is EventKind.WITHDRAWAL:
            amount = event.values[0] - self._archived.pop(scp, 0)  # (amount,)
            row.withdrawn += amount
            row.final_credit -= amount
        elif kind is EventKind.SCP_REMOVED:
            row.removal_period = event.period
        elif kind is EventKind.SCP_REGISTERED:
            if row is not None and row.final_credit > 0:
                self._archived[scp] = self._archived.get(scp, 0) + row.final_credit
            self._rows[scp] = ScpRow(scp=scp)
            strikes[scp] = 0
            breached.discard(scp)

    def rows(self, num_periods: int) -> Dict[str, ScpRow]:
        """The rows so far.  A removed provider gets no more payouts, so its
        timeline is padded to ``num_periods`` with its frozen count."""
        rows = {}
        for scp, row in self._rows.items():
            padding = [self._strikes[scp]] * (num_periods - len(row.strikes_timeline))
            rows[scp] = replace(row, strikes_timeline=row.strikes_timeline + padding)
        return rows


@dataclass
class RunReport:
    seed: int
    config_echo: dict
    rows: Dict[str, ScpRow]
    total_deposits: int = 0
    escrow_remaining: int = 0
    total_withdrawn: int = 0
    total_recovered: int = 0
    num_events: int = 0
    digest: str = ""

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "seed": self.seed,
            "config": self.config_echo,
            "scps": [self.rows[label].to_dict() for label in sorted(self.rows)],
            "summary": {
                "total_deposits": self.total_deposits,
                "escrow_remaining": self.escrow_remaining,
                "total_withdrawn": self.total_withdrawn,
                "total_recovered": self.total_recovered,
                "num_events": self.num_events,
            },
            "digest": self.digest,
        }

    def write_json(self, path) -> None:
        """Write the report as ``json.dump(..., indent=2, sort_keys=True)`` does.

        That encoder is pure Python.  The strike timelines, most of the
        bytes, go through the C encoder instead: each is written where the
        indented encoding of the rest yields its slot.
        """
        report = self.to_dict()
        timelines = iter([row["strikes_timeline"] for row in report["scps"]])
        for row in report["scps"]:
            row["strikes_timeline"] = _TIMELINE_SLOT
        with atomic_write(path) as fh:
            for chunk in json.JSONEncoder(indent=2, sort_keys=True).iterencode(report):
                if chunk == "NaN":
                    _write_timeline(fh, next(timelines))
                else:
                    fh.write(chunk)
            fh.write("\n")

    def write_csv(self, path) -> None:
        with atomic_write(path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for label in sorted(self.rows):
                entry = self.rows[label].to_dict()
                entry["strikes_timeline"] = ";".join(map(str, entry["strikes_timeline"]))
                # csv writes a None removal_period as an empty field
                writer.writerow([entry[column] for column in CSV_COLUMNS])
