"""SLA state machine between one MNO (the owner) and many small-cell providers.

Settlement model, all in exact integers:

  * Served traffic is recorded by one op, ``record_traffic``, which takes a
    period's kb values, one per active stream in the contract's stream order,
    and logs them as one txlog entry.  The stream order is the active records
    in address order and, within each, its agreed QCIs in ascending order:
    the contract already stores every address and QCI, so the entry carries
    none of them.
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

Escrow is held in a dedicated ledger account owned by the contract, and
``SlaContract.escrow`` is that account's balance, not a second counter, so
fund conservation on the ledger is structural, not bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
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


def _is_int(value: object) -> bool:
    """Settlement is integer arithmetic: a term is an ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def qci_from_key(key: str, name: str) -> int:
    """The QCI number a per-QCI JSON object key names.

    Only the canonical decimal form is read ("1", never "01", " 1", "+1" or
    "1_0"), so two keys of one object cannot name the same QCI.
    """
    try:
        qci = int(key)
    except (TypeError, ValueError):
        qci = None
    if qci is None or str(qci) != key:
        raise ValueError(f"{name}: QCI key {key!r} is not a canonical integer")
    return qci


def _qci_map(value: object, name: str) -> Dict[int, int]:
    """A per-QCI JSON object with its string keys read as QCI numbers."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {value!r}")
    return {qci_from_key(q, name): v for q, v in value.items()}


@dataclass
class SlaTerms:
    """Commercial terms of one provider's agreement.

    ``penalty_rate`` is a rational (numerator, denominator): monetary units
    debited per kb/period of throughput deficit, floor-rounded.  Every amount,
    rate and limit is an ``int``; ``validate`` rejects floats and booleans.
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
        rate = self.penalty_rate
        if len(rate) != 2 or not all(map(_is_int, rate)) or rate[1] <= 0 or rate[0] < 0:
            raise ValueError(f"bad penalty_rate {rate!r}")
        if not _is_int(self.strike_limit) or self.strike_limit < 1:
            raise ValueError(f"strike_limit must be an integer >= 1, got {self.strike_limit!r}")
        for name, mapping in (
            ("agreed_throughput", self.agreed_throughput),
            ("price_per_kb", self.price_per_kb),
        ):
            for qci, value in mapping.items():
                if not (_is_int(qci) and _is_int(value)):
                    raise ValueError(f"{name} must map QCIs to integers, got {qci!r}: {value!r}")
                if qci < 0 or value < 0:
                    raise ValueError(f"negative QCI term {qci}: {value}")
        if not _is_int(self.flat_rate_per_period) or self.flat_rate_per_period < 0:
            raise ValueError(
                f"flat_rate_per_period must be an integer >= 0, got {self.flat_rate_per_period!r}"
            )

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
        if not isinstance(data, dict):
            raise ValueError(f"must be a JSON object, got {data!r}")
        known = {f.name for f in fields(cls)}
        for key in data:
            if key not in known:
                raise ValueError(f"{key}: unknown field")
        terms = cls(
            payment_mode=data["payment_mode"],
            agreed_throughput=_qci_map(data["agreed_throughput"], "agreed_throughput"),
            price_per_kb=_qci_map(data.get("price_per_kb", {}), "price_per_kb"),
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
        if contract_id is not None and not isinstance(contract_id, str):
            raise ValueError(f"contract ids are strings, got {contract_id!r}")
        self.ledger = ledger
        self.owner = owner
        self.id = contract_id or f"sla-{len(ledger.contracts)}"
        self.account = ledger._new_account(0, f"{self.id}:escrow")
        self.registry: Dict[str, ScpRecord] = {}  # in address order
        self.archived: List[ScpRecord] = []
        # the stream order record_traffic reads; derived from the registry,
        # so it is rebuilt when a record joins or leaves the active set and
        # is not part of canonical_state
        self._streams: List[Tuple[ScpRecord, int]] = []
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

    def _rebuild_streams(self) -> None:
        self._streams = [
            (record, qci)
            for record in self.registry.values()
            if record.active
            for qci in sorted(record.terms.agreed_throughput)
        ]

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
        if existing is None:
            # a new address: keep the registry in address order, the order in
            # which close_period and canonical_state walk it
            records = sorted(self.registry.items())
            self.registry.clear()
            self.registry.update(records)
        self._rebuild_streams()
        self.ledger.append_event(EventKind.SCP_REGISTERED, scp)
        self.ledger._log(
            "register_scp", contract=self.id, caller=caller, scp=scp, terms=terms.to_dict()
        )

    def deposit(self, caller: str, amount: int) -> None:
        self._require_owner(caller)
        self._require_enabled()
        self.ledger.transfer(caller, self.account, amount)
        self.total_deposits += amount
        self.ledger.append_event(
            EventKind.DEPOSIT, caller, payload=(("amount", amount),)
        )
        self.ledger._log("deposit", contract=self.id, caller=caller, amount=amount)

    # --- per-period flow ------------------------------------------------------

    @property
    def stream_order(self) -> List[Tuple[str, int]]:
        """The ``(scp, qci)`` stream that each ``record_traffic`` value is for."""
        return [(record.address, qci) for record, qci in self._streams]

    def record_traffic(self, caller: str, kb: Iterable[int]) -> None:
        """Record one period's served kb, one value per stream of ``stream_order``.

        The whole vector is checked before any ``served`` counter changes, so
        a bad call changes nothing.  The entry logs the values as a tuple,
        which the caller cannot change afterwards.
        """
        self._require_owner(caller)
        self._require_enabled()
        logged = tuple(kb)
        streams = self._streams
        if len(logged) != len(streams):
            raise ValueError(
                f"expected {len(streams)} kb values, one per active stream, got {len(logged)}"
            )
        if set(map(type, logged)) - {int} or min(logged, default=0) < 0:
            bad = next(value for value in logged if type(value) is not int or value < 0)
            raise ValueError(f"kb values must be integers >= 0, got {bad!r}")
        for (record, qci), value in zip(streams, logged):
            served = record.served
            served[qci] = served.get(qci, 0) + value
        self.ledger._log("record_traffic", contract=self.id, caller=caller, kb=logged)

    def throughput_breach(self, caller: str, scp: str, qci: int, deficit: int) -> None:
        self._require_owner(caller)
        self._require_enabled()
        record = self._active_record(scp)
        if type(qci) is not int or type(deficit) is not int:
            raise ValueError(f"qci and deficit must be integers, got {qci!r} and {deficit!r}")
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
                self._rebuild_streams()
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
        # one pass in address order: the payouts to active providers, the
        # removed providers (their period flags are cleared too) and the
        # positive credit owed once the payouts accrue
        payouts: List[Tuple[ScpRecord, int]] = []
        removed: List[ScpRecord] = []
        owed = sum(max(rec.credit, 0) for rec in self.archived)
        for record in self.registry.values():
            if record.active:
                payout = self._payout_for(record)
                payouts.append((record, payout))
                owed += max(record.credit + payout, 0)
            else:
                removed.append(record)
                owed += max(record.credit, 0)
        if self.escrow < owed:
            raise InsufficientEscrowForAccrual(
                f"escrow {self.escrow} cannot cover accrued credits {owed} "
                f"in period {self.ledger.current_period}"
            )
        period = self.ledger.current_period
        for record, payout in payouts:
            record.credit += payout
            self.ledger.append_event(
                EventKind.PERIODIC_PAYOUT,
                record.address,
                payload=(("payout", payout), ("period", period)),
            )
            if not record.breached_this_period:
                record.consecutive_strikes = 0
            record.breached_this_period = False
            record.served.clear()
        for record in removed:
            record.breached_this_period = False
            record.served.clear()
        self.ledger.advance_period()
        self.ledger._log("close_period", contract=self.id, caller=caller)

    # --- settlement -----------------------------------------------------------

    def withdraw(self, caller: str) -> int:
        """Withdrawal-pattern settlement; allowed even after the fail-safe.

        Pays the positive credit of the caller's live record and of its
        archived records, the same credits ``positive_credit_sum`` counts.
        Debt is not netted against it: an archived record's debt stays frozen.
        """
        record = self.registry.get(caller)
        if record is None:
            raise UnknownScp(f"{caller!r} is not in the register")
        paid = [
            rec for rec in (*self.archived, record) if rec.address == caller and rec.credit > 0
        ]
        amount = sum(rec.credit for rec in paid)
        if amount == 0:
            raise NothingToWithdraw(f"{caller!r} has credit {record.credit}")
        if self.escrow < amount:
            raise InsufficientEscrow(
                f"escrow {self.escrow} cannot settle credit {amount}"
            )
        self.ledger.transfer(self.account, caller, amount)
        for rec in paid:
            rec.credit = 0
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
        self.total_recovered += recoverable
        self.ledger.append_event(
            EventKind.ESCROW_RECOVERED, caller, payload=(("amount", recoverable),)
        )
        self.ledger._log("recover_escrow", contract=self.id, caller=caller)
        return recoverable

    # --- reads ----------------------------------------------------------------

    @property
    def escrow(self) -> int:
        """The balance of the contract's ledger account; nothing else records it."""
        return self.ledger.balances[self.account]

    def positive_credit_sum(self) -> int:
        """Outstanding obligations: positive credits of live and archived records."""
        total = sum(max(rec.credit, 0) for rec in self.registry.values())
        total += sum(max(rec.credit, 0) for rec in self.archived)
        return total

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
                addr: record.canonical_state() for addr, record in self.registry.items()
            },
            "archived": [rec.canonical_state() for rec in self.archived],
        }
