"""Run reports: per-provider settlement rows plus contract summary.

Both output formats (JSON and CSV) encode exactly the same numbers; CSV
column order and header names are frozen so golden-file comparisons stay
stable across releases.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .fileio import atomic_write

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


@dataclass
class ScpRow:
    label: str
    earned: int = 0
    penalized: int = 0
    withdrawn: int = 0
    final_credit: int = 0
    strikes_timeline: List[int] = field(default_factory=list)
    removal_period: Optional[int] = None

    def arithmetic_closes(self) -> bool:
        return self.earned - self.penalized - self.withdrawn == self.final_credit

    def to_dict(self) -> dict:
        return {
            "scp": self.label,
            "earned": self.earned,
            "penalized": self.penalized,
            "withdrawn": self.withdrawn,
            "final_credit": self.final_credit,
            "strikes_timeline": list(self.strikes_timeline),
            "removal_period": self.removal_period,
        }


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

    def validate(self) -> None:
        for row in self.rows.values():
            if not row.arithmetic_closes():
                raise AssertionError(
                    f"report row for {row.label!r} does not close: "
                    f"{row.earned} - {row.penalized} - {row.withdrawn} "
                    f"!= {row.final_credit}"
                )

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
        with atomic_write(path) as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def write_csv(self, path) -> None:
        with atomic_write(path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for label in sorted(self.rows):
                row = self.rows[label]
                writer.writerow(
                    [
                        row.label,
                        row.earned,
                        row.penalized,
                        row.withdrawn,
                        row.final_credit,
                        ";".join(str(s) for s in row.strikes_timeline),
                        "" if row.removal_period is None else row.removal_period,
                    ]
                )
