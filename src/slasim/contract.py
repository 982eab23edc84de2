"""SLA state machine between one MNO (the owner) and many small-cell providers.

Settlement model, all in exact integers:

  * Per-traffic mode pays price_per_kb[qci] * kb served, accrued as credit at
    each period close; flat-rate mode pays a fixed amount per period.
  * Payouts use the withdrawal pattern: the contract only accrues credit and
    the provider pulls funds itself.
  * A throughput breach debits floor(num * deficit / den) from credit, which
    may go negative (debt repaid by future payouts).
  * At most one strike per accounting period; a period with no breach resets
    the counter at close; reaching the strike limit deactivates the provider
    in the same call.
  * The owner can disable the contract (fail-safe) and recover the escrow
    that is not owed to providers.

Escrow is held in a dedicated ledger account owned by the contract, so fund
conservation on the ledger is structural, not bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import (
    AlreadyDisabled,
    AlreadyRegistered,
    ContractDisabled,
    InactiveScp,
    InsufficientEscrow,
    InsufficientEscrowForAccrual,
    NotDisabled,
    NothingToWithdraw,
    NotOwner,
    UnknownQci,
    UnknownScp,
    ZeroDeficit,
)
from .ledger import EventKind, Ledger

PER_TRAFFIC = "per_traffic"
FLAT_RATE = "flat_rate"


@dataclass
class SlaTerms:
    """Commercial terms of one provider's agreement.

    ``penalty_rate`` is a rational (numerator, denominator): monetary units
    debited per kb/period of throughput deficit, floor-rounded.
    """

    payment_mode: str
    agreed_throughput: Dict[int, int]
    price_per_kb: Dict[int, int] = field(default_factory=dict)
    flat_rate_per_period: int = 0
    penalty_rate: Tuple[int, int] = (1, 1)
    strike_limit: int = 3

    def validate(self) -> None:
        if self.payment_mode not in (PER_TRAFFIC, FLAT_RATE):
            raise ValueError(f"unknown payment_mode {self.payment_mode!r}")
        if not self.agreed_throughput:
            raise ValueError("agreed_throughput must declare at least one QCI")
        if self.payment_mode == PER_TRAFFIC and set(self.price_per_kb) != set(
            self.agreed_throughput
        ):
            raise ValueError("price_per_kb and agreed_throughput must share one QCI set")
        num, den = self.penalty_rate
        if den <= 0 or num < 0:
            raise ValueError(f"bad penalty_rate {self.penalty_rate!r}")
        if self.strike_limit < 1:
            raise ValueError("strike_limit must be >= 1")
        for mapping in (self.agreed_throughput, self.price_per_kb):
            for qci, value in mapping.items():
                if qci < 0 or value < 0:
                    raise ValueError(f"negative QCI term {qci}: {value}")
        if self.flat_rate_per_period < 0:
            raise ValueError("flat_rate_per_period must be >= 0")

    @property
    def qci_set(self):
        return set(self.agreed_throughput)

    def penalty_debit(self, deficit_kbps: int) -> int:
        num, den = self.penalty_rate
        return num * deficit_kbps // den

    def to_dict(self) -> dict:
        return {
            "payment_mode": self.payment_mode,
            "price_per_kb": {str(q): self.price_per_kb[q] for q in sorted(self.price_per_kb)},
            "flat_rate_per_period": self.flat_rate_per_period,
            "agreed_throughput": {
                str(q): self.agreed_throughput[q] for q in sorted(self.agreed_throughput)
            },
            "penalty_rate": list(self.penalty_rate),
            "strike_limit": self.strike_limit,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SlaTerms":
        terms = cls(
            payment_mode=data["payment_mode"],
            agreed_throughput={int(q): v for q, v in data["agreed_throughput"].items()},
            price_per_kb={int(q): v for q, v in data.get("price_per_kb", {}).items()},
            flat_rate_per_period=data.get("flat_rate_per_period", 0),
            penalty_rate=tuple(data.get("penalty_rate", (1, 1))),
            strike_limit=data.get("strike_limit", 3),
        )
        terms.validate()
        return terms


@dataclass
class ScpRecord:
    """Live state of one provider under the contract."""

    address: str
    terms: SlaTerms
    active: bool = True
    credit: int = 0  # signed; negative = debt
    consecutive_strikes: int = 0
    breached_this_period: bool = False
    served: Dict[int, int] = field(default_factory=dict)  # per-QCI kb this period

    def canonical_state(self) -> dict:
        return {
            "address": self.address,
            "active": self.active,
            "credit": self.credit,
            "consecutive_strikes": self.consecutive_strikes,
            "breached_this_period": self.breached_this_period,
            "served": {str(q): self.served[q] for q in sorted(self.served)},
            "terms": self.terms.to_dict(),
        }


class SlaContract:
    """One MNO's SLA contract instance executing on a simulated ledger."""

    def __init__(self, ledger: Ledger, owner: str, contract_id: Optional[str] = None):
        ledger.balance(owner)  # raises UnknownAddress for a bad owner
        self.ledger = ledger
        self.owner = owner
        self.id = contract_id or f"sla-{len(ledger.contracts)}"
        self.account = ledger._new_account(0, f"{self.id}:escrow")
        self.registry: Dict[str, ScpRecord] = {}
        self.archived: List[ScpRecord] = []
        self.escrow = 0
        self.disabled = False
        self.total_deposits = 0
        self.total_withdrawn = 0
        self.total_recovered = 0
        ledger.attach_contract(self)
        ledger._log("create_contract", contract=self.id, owner=owner)

    # --- guards -------------------------------------------------------------

    def _require_owner(self, caller: str) -> None:
        if caller != self.owner:
            raise NotOwner(f"{caller!r} is not the contract owner")

    def _require_enabled(self) -> None:
        if self.disabled:
            raise ContractDisabled("contract has been disabled by its fail-safe")

    def _active_record(self, scp: str) -> ScpRecord:
        record = self.registry.get(scp)
        if record is None:
            raise UnknownScp(f"{scp!r} is not in the register")
        if not record.active:
            raise InactiveScp(f"{scp!r} has been removed from the register")
        return record

    def _traffic_record(self, scp: str, qci: int, kb: int) -> ScpRecord:
        """The record a served-traffic sample may be added to, once checked."""
        record = self._active_record(scp)
        if qci not in record.terms.agreed_throughput:
            raise UnknownQci(f"QCI {qci} is not part of {scp!r}'s agreement")
        if kb < 0:
            raise ValueError("kb must be >= 0")
        return record

    # --- registration and funding -------------------------------------------

    def register_scp(self, caller: str, scp: str, terms: SlaTerms) -> None:
        self._require_owner(caller)
        self._require_enabled()
        terms.validate()
        self.ledger.balance(scp)
        existing = self.registry.get(scp)
        if existing is not None:
            if existing.active:
                raise AlreadyRegistered(f"{scp!r} is already active in the register")
            # removed providers may re-enter under fresh terms; the old record
            # is archived with its credit/debt frozen, never merged
            self.archived.append(existing)
        self.registry[scp] = ScpRecord(address=scp, terms=terms)
        self.ledger.append_event(EventKind.SCP_REGISTERED, scp)
        self.ledger._log(
            "register_scp", contract=self.id, caller=caller, scp=scp, terms=terms.to_dict()
        )

    def deposit(self, caller: str, amount: int) -> None:
        self._require_owner(caller)
        self._require_enabled()
        self.ledger.transfer(caller, self.account, amount)
        self.escrow += amount
        self.total_deposits += amount
        self.ledger.append_event(
            EventKind.DEPOSIT, caller, payload=(("amount", amount),)
        )
        self.ledger._log("deposit", contract=self.id, caller=caller, amount=amount)

    # --- per-period flow ------------------------------------------------------

    def record_traffic(self, caller: str, scp: str, qci: int, kb: int) -> None:
        self._require_owner(caller)
        self._require_enabled()
        record = self._traffic_record(scp, qci, kb)
        record.served[qci] = record.served.get(qci, 0) + kb
        self.ledger._log(
            "record_traffic", contract=self.id, caller=caller, scp=scp, qci=qci, kb=kb
        )

    def record_traffic_batch(
        self, caller: str, samples: Iterable[Tuple[str, int, int]]
    ) -> None:
        """Record one period's ``(scp, qci, kb)`` samples as one txlog entry.

        Checks every sample as ``record_traffic`` does before any ``served``
        counter changes, so a bad batch fails atomically.  The entry logs the
        samples as a tuple of tuples, which the caller cannot change
        afterwards; samples passed as tuples are logged as they are.
        """
        self._require_owner(caller)
        self._require_enabled()
        logged = tuple(map(tuple, samples))
        records = [self._traffic_record(scp, qci, kb) for scp, qci, kb in logged]
        for record, (_, qci, kb) in zip(records, logged):
            record.served[qci] = record.served.get(qci, 0) + kb
        self.ledger._log(
            "record_traffic_batch", contract=self.id, caller=caller, samples=logged
        )

    def throughput_breach(self, caller: str, scp: str, qci: int, deficit: int) -> None:
        self._require_owner(caller)
        self._require_enabled()
        record = self._active_record(scp)
        if qci not in record.terms.agreed_throughput:
            raise UnknownQci(f"QCI {qci} is not part of {scp!r}'s agreement")
        if deficit < 1:
            raise ZeroDeficit("a zero deficit is not a breach")
        debit = record.terms.penalty_debit(deficit)
        record.credit -= debit
        self.ledger.append_event(
            EventKind.INSUFFICIENT_THROUGHPUT,
            scp,
            qci=qci,
            payload=(("deficit", deficit), ("debit", debit)),
        )
        if not record.breached_this_period:
            record.breached_this_period = True
            record.consecutive_strikes += 1
            if record.consecutive_strikes >= record.terms.strike_limit:
                record.active = False
                self.ledger.append_event(
                    EventKind.SCP_REMOVED,
                    scp,
                    payload=(("strikes", record.consecutive_strikes),),
                )
        self.ledger._log(
            "throughput_breach", contract=self.id, caller=caller, scp=scp, qci=qci, deficit=deficit
        )

    def _payout_for(self, record: ScpRecord) -> int:
        terms = record.terms
        if terms.payment_mode == FLAT_RATE:
            return terms.flat_rate_per_period
        return sum(
            terms.price_per_kb[qci] * record.served.get(qci, 0)
            for qci in terms.price_per_kb
        )

    def close_period(self, caller: str) -> None:
        """Accrue payouts, apply the strike-reset rule, advance the clock.

        Fails atomically (no state change) if the accrual would promise more
        than the escrow holds.
        """
        self._require_owner(caller)
        self._require_enabled()
        payouts = [
            (addr, self._payout_for(self.registry[addr]))
            for addr in sorted(self.registry)
            if self.registry[addr].active
        ]
        prospective = {addr: payout for addr, payout in payouts}
        positive_after = sum(
            max(rec.credit + prospective.get(addr, 0), 0)
            for addr, rec in self.registry.items()
        ) + sum(max(rec.credit, 0) for rec in self.archived)
        if self.escrow < positive_after:
            raise InsufficientEscrowForAccrual(
                f"escrow {self.escrow} cannot cover accrued credits {positive_after} "
                f"in period {self.ledger.current_period}"
            )
        period = self.ledger.current_period
        for addr, payout in payouts:
            record = self.registry[addr]
            record.credit += payout
            self.ledger.append_event(
                EventKind.PERIODIC_PAYOUT,
                addr,
                payload=(("payout", payout), ("period", period)),
            )
        for record in self.registry.values():
            if record.active and not record.breached_this_period:
                record.consecutive_strikes = 0
            record.breached_this_period = False
            record.served.clear()
        self.ledger.advance_period()
        self.ledger._log("close_period", contract=self.id, caller=caller)

    # --- settlement -----------------------------------------------------------

    def withdraw(self, caller: str) -> int:
        """Withdrawal-pattern settlement; allowed even after the fail-safe."""
        record = self.registry.get(caller)
        if record is None:
            raise UnknownScp(f"{caller!r} is not in the register")
        if record.credit <= 0:
            raise NothingToWithdraw(f"{caller!r} has credit {record.credit}")
        amount = record.credit
        if self.escrow < amount:
            raise InsufficientEscrow(
                f"escrow {self.escrow} cannot settle credit {amount}"
            )
        self.ledger.transfer(self.account, caller, amount)
        self.escrow -= amount
        record.credit = 0
        self.total_withdrawn += amount
        self.ledger.append_event(
            EventKind.WITHDRAWAL, caller, payload=(("amount", amount),)
        )
        self.ledger._log("withdraw", contract=self.id, caller=caller)
        return amount

    def failsafe_disable(self, caller: str) -> None:
        self._require_owner(caller)
        if self.disabled:
            raise AlreadyDisabled("contract is already disabled")
        self.disabled = True
        self.ledger.append_event(EventKind.CONTRACT_DISABLED, caller)
        self.ledger._log("failsafe_disable", contract=self.id, caller=caller)

    def recover_escrow(self, caller: str) -> int:
        """Return the escrow net of provider credits to the owner (fail-safe only)."""
        self._require_owner(caller)
        if not self.disabled:
            raise NotDisabled("recover_escrow requires the contract to be disabled")
        recoverable = self.escrow - self.positive_credit_sum()
        if recoverable < 0:
            recoverable = 0
        self.ledger.transfer(self.account, caller, recoverable)
        self.escrow -= recoverable
        self.total_recovered += recoverable
        self.ledger.append_event(
            EventKind.ESCROW_RECOVERED, caller, payload=(("amount", recoverable),)
        )
        self.ledger._log("recover_escrow", contract=self.id, caller=caller)
        return recoverable

    # --- reads ----------------------------------------------------------------

    def positive_credit_sum(self) -> int:
        """Outstanding obligations: positive credits of live and archived records."""
        total = sum(max(rec.credit, 0) for rec in self.registry.values())
        total += sum(max(rec.credit, 0) for rec in self.archived)
        return total

    def get_scp_status(self, scp: str) -> Tuple[bool, int, int]:
        record = self.registry.get(scp)
        if record is None:
            raise UnknownScp(f"{scp!r} is not in the register")
        return record.active, record.credit, record.consecutive_strikes

    def canonical_state(self) -> dict:
        return {
            "owner": self.owner,
            "account": self.account,
            "escrow": self.escrow,
            "disabled": self.disabled,
            "total_deposits": self.total_deposits,
            "total_withdrawn": self.total_withdrawn,
            "total_recovered": self.total_recovered,
            "registry": {
                addr: self.registry[addr].canonical_state()
                for addr in sorted(self.registry)
            },
            "archived": [rec.canonical_state() for rec in self.archived],
        }
