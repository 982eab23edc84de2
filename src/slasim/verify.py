"""Built-in verification suites: strike-rule oracle, conservation and
liveness fuzz.

These are the independent cross-checks behind the ``verify`` CLI command and
the acceptance tests.  The strike oracle deliberately knows nothing about the
contract implementation: it is a plain counter over breach/clean period
sequences.
"""

from __future__ import annotations

import random
from contextlib import suppress
from itertools import product
from typing import Dict, Optional, Sequence, Tuple

from .config import PER_TRAFFIC
from .contract import SlaContract
from .errors import ContractError
from .ledger import Ledger


# --- 3-strike oracle ---------------------------------------------------------

def strike_oracle_removal_period(seq: Sequence[bool], limit: int = 3) -> Optional[int]:
    """Brute-force counter: limit consecutive breach periods, reset on clean."""
    strikes = 0
    for period, breached in enumerate(seq):
        if breached:
            strikes += 1
            if strikes >= limit:
                return period
        else:
            strikes = 0
    return None


def contract_removal_period(seq: Sequence[bool], limit: int = 3) -> Optional[int]:
    """Removal period reported by a real contract run over the same sequence."""
    ledger = Ledger()
    owner = ledger.create_account(10_000, "mno")
    contract = SlaContract(ledger, owner)
    terms = {
        "payment_mode": PER_TRAFFIC,
        "agreed_throughput": {"1": 100},
        "price_per_kb": {"1": 0},
        "penalty_rate": [1, 1],
        "strike_limit": limit,
    }
    scp = ledger.create_account(0, "scp")
    contract.register_scp(owner, scp, terms)
    contract.deposit(owner, 10_000)
    for breached in seq:
        if breached and contract.registry[scp].active:
            contract.throughput_breach(owner, [(0, 10)])
        if not contract.registry[scp].active:
            return ledger.current_period  # the breach just removed it
        contract.close_period(owner)
    return None


def check_strike_equivalence(max_len: int, limit: int = 3) -> Optional[dict]:
    """Compare contract vs oracle over every sequence up to max_len.

    A contract run over a sequence makes the same calls as the first steps of
    a run over any extension of it, so one run per length-``max_len``
    sequence answers for all of its prefixes: a prefix of length L is removed
    where its extension is, if that is before period L.  Each prefix takes
    the extension padded with clean periods, run when first needed.

    Returns None when all agree, else the first counterexample.
    """
    runs: Dict[Tuple[bool, ...], Optional[int]] = {}
    for length in range(max_len + 1):
        padding = (False,) * (max_len - length)
        for bits in product([False, True], repeat=length):
            extended = bits + padding
            if extended not in runs:
                runs[extended] = contract_removal_period(extended, limit)
            removal = runs[extended]
            expected = strike_oracle_removal_period(bits, limit)
            actual = removal if removal is not None and removal < length else None
            if expected != actual:
                return {
                    "sequence": list(bits),
                    "oracle": expected,
                    "contract": actual,
                }
    return None


# --- conservation fuzz -------------------------------------------------------

def _conservation_holds(contract: SlaContract) -> bool:
    return (
        contract.total_deposits
        == contract.escrow + contract.total_withdrawn + contract.total_recovered
    )


def conservation_fuzz(num_ops: int, seed: int = 0) -> Optional[dict]:
    """Random valid operations; checks exact conservation and solvency
    (``escrow >= positive_credit_sum()``) after every step.

    The escrow is topped up only after a refused close, so the fuzz meets
    ``close_period``'s cover check both ways.  The last ~1% of the budget
    disables the contract and exercises
    withdraw/recover in the disabled state.  Then every provider withdraws
    and the owner recovers, which must empty the escrow (liveness).  Returns
    None on success, else a description of the first violation.
    """
    rng = random.Random(seed)
    ledger = Ledger()
    owner = ledger.create_account(10**12, "mno")
    contract = SlaContract(ledger, owner)
    terms = {
        "payment_mode": PER_TRAFFIC,
        "agreed_throughput": {"1": 1_000, "2": 500},
        "price_per_kb": {"1": 2, "2": 3},
        "penalty_rate": [rng.randrange(1, 7), rng.randrange(1, 4)],
        "strike_limit": 3,
    }
    scps = [ledger.create_account(0, f"scp-{i}") for i in range(6)]
    streams = list(product(scps, [1, 2]))
    for scp in scps:
        contract.register_scp(owner, scp, terms)
    contract.deposit(owner, 10_000)

    initial_total = ledger.total_balance()
    disable_at = max(num_ops - num_ops // 100 - 1, 1)
    ops_done = 0
    step = 0
    refused = False  # whether the last close was refused
    while ops_done < num_ops:
        step += 1
        if ops_done == disable_at and not contract.disabled:
            action = "disable"
        elif contract.disabled:
            action = rng.choice(["withdraw", "recover"])
        else:
            action = rng.choice(
                ["deposit", "traffic", "traffic", "breach", "close", "withdraw", "register"]
            )
        try:
            if action == "deposit":
                # a top-up only after a refused close: the escrow runs dry between
                # them, so closes are both accepted and refused
                contract.deposit(owner, rng.randrange(0, 20_000) if refused else 0)
            elif action == "traffic":
                # one stream's kb; the other active streams record 0
                scp, qci, kb = rng.choice(scps), rng.choice([1, 2]), rng.randrange(0, 2_000)
                stream = contract.stream_of(scp, qci)
                contract.record_traffic(
                    owner, [kb if i == stream else 0 for i in range(contract.num_streams)]
                )
            elif action == "breach":
                # 1-3 distinct streams; stream_of raises for a removed provider's
                picked = rng.sample(streams, rng.randint(1, 3))
                contract.throughput_breach(
                    owner,
                    sorted((contract.stream_of(*s), rng.randrange(1, 800)) for s in picked),
                )
            elif action == "close":
                contract.close_period(owner)
                refused = False
            elif action == "withdraw":
                contract.withdraw(rng.choice(scps))
            elif action == "register":
                contract.register_scp(owner, rng.choice(scps), terms)
            elif action == "disable":
                contract.failsafe_disable(owner)
            elif action == "recover":
                contract.recover_escrow(owner)
        except ContractError:
            # removed SCPs, empty credits, an uncovered close etc.; the attempt
            # must not move funds
            refused = refused or action == "close"
        ops_done += 1
        if not _conservation_holds(contract):
            return {
                "step": step,
                "action": action,
                "deposits": contract.total_deposits,
                "escrow": contract.escrow,
                "withdrawn": contract.total_withdrawn,
                "recovered": contract.total_recovered,
            }
        if ledger.total_balance() != initial_total:
            return {"step": step, "action": action, "error": "ledger total changed"}
        if any(balance < 0 for balance in ledger.balances.values()):
            return {"step": step, "action": action, "error": "negative balance"}
        if contract.escrow < contract.positive_credit_sum():
            return {"step": step, "action": action, "error": "escrow below positive credits"}
    if not contract.disabled:  # a budget too small to reach disable_at
        contract.failsafe_disable(owner)
    for scp in scps:
        with suppress(ContractError):  # nothing owed
            contract.withdraw(scp)
    contract.recover_escrow(owner)
    if contract.escrow != 0:
        return {"step": step, "error": "funds stranded in escrow", "escrow": contract.escrow}
    return None
