"""Seeded scenario generators for the benchmark workloads.

Each generator takes the benchmark seed and returns the scenario JSON object
that ``slasim run`` reads; the simulator only ever sees the generated file.
The seed becomes the scenario's traffic seed, so the shape (SCPs, QCIs,
periods, terms) is fixed per workload and the volumes stay comparable across
seeds while the measured values differ.
"""

from __future__ import annotations


def traffic_heavy(seed: int, scps: int = 50, periods: int = 1000) -> dict:
    """The tier-1 acceptance shape: 50 SCPs x 9 QCIs x 1000 periods.

    At seed 99 this is exactly ``big_scenario_dict`` of the acceptance tests.
    """
    qcis = [str(q) for q in range(1, 10)]
    return {
        "seed": seed,
        "num_periods": periods,
        "escrow_deposit": 6_000_000_000,
        "scps": [
            {
                "label": f"scp-{i:03d}",
                "terms": {
                    "payment_mode": "per_traffic",
                    "price_per_kb": {q: 1 + int(q) % 3 for q in qcis},
                    "agreed_throughput": {q: 900 for q in qcis},
                    "penalty_rate": [3, 2],
                    "strike_limit": 3,
                },
                "traffic": {
                    q: {
                        "nominal_kb": 1000,
                        "variability": [1, 20],
                        "degradations": [
                            {"start": start, "end": start + 1, "multiplier": [3, 4]}
                            for start in (100 + 3 * i, 600 + 3 * i)
                            if start + 1 < periods
                        ],
                    }
                    for q in qcis
                },
            }
            for i in range(scps)
        ],
    }


def penalty_heavy(seed: int, scps: int = 10, periods: int = 10_000) -> dict:
    """10 SCPs x 1 QCI x 10,000 periods with ~40% of samples breaching.

    Even-indexed SCPs are paid per kb, odd-indexed ones a flat rate.  SCPs 0
    and 5 carry the 3-strike limit and are removed early; the rest carry a
    limit longer than the run, so they keep breaching and being paid to the
    end.  Nominal traffic is 1000 kb +-50% against an agreed 900 kb.
    """
    return {
        "seed": seed,
        "num_periods": periods,
        "escrow_deposit": 10**12,
        "scps": [
            {
                "label": f"scp-{i:03d}",
                "terms": {
                    "payment_mode": "per_traffic" if i % 2 == 0 else "flat_rate",
                    "price_per_kb": {"1": 2} if i % 2 == 0 else {},
                    "flat_rate_per_period": 0 if i % 2 == 0 else 1_500,
                    "agreed_throughput": {"1": 900},
                    "penalty_rate": [3, 2],
                    "strike_limit": 3 if i in (0, 5) else periods + 1,
                },
                "traffic": {"1": {"nominal_kb": 1000, "variability": [1, 2]}},
            }
            for i in range(scps)
        ],
    }


def smoke(seed: int) -> dict:
    """A tiny scenario: 2 SCPs x 9 QCIs x 20 periods, none of them breaching.

    Its cost is mostly CLI start-up.  With no breach and no removal its txlog
    has the same entries whatever the seed.
    """
    return traffic_heavy(seed, scps=2, periods=20)
