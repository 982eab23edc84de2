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
  * A period's throughput breaches are reported by one op,
    ``throughput_breach``, as ``(stream, deficit)`` pairs, where ``stream``
    indexes the same stream order as ``record_traffic``'s values.  Each
    breach debits floor(num * deficit / den) from credit, which may go
    negative (debt repaid by future payouts).
  * At most one strike per accounting period; a period with no breach resets
    the counter at close; reaching the strike limit deactivates the provider
    in the same call; a provider removed by one pair of a call takes no
    debit from its later pairs.
  * The owner can disable the contract (fail-safe) and recover the escrow
    that is not owed to providers.

Escrow is held in a dedicated ledger account owned by the contract, and
``SlaContract.escrow`` is that account's balance, not a second counter, so
fund conservation on the ledger is structural, not bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add, mul
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .config import FLAT_RATE, SlaTerms, read, to_json
from .errors import (
    AlreadyDisabled,
    AlreadyRegistered,
    ContractDisabled,
    ContractError,
    InactiveScp,
    InsufficientEscrowForAccrual,
    NotDisabled,
    NothingToWithdraw,
    NotOwner,
    UnknownQci,
    UnknownScp,
    ZeroDeficit,
)
from .ledger import EventKind, Ledger


@dataclass
class ScpRecord:
    """Live state of one provider under the contract."""

    address: str
    terms: SlaTerms
    logged_terms: dict  # the terms' JSON echo as logged; the digest's copy of them
    active: bool = True
    credit: int = 0  # signed; negative = debt
    consecutive_strikes: int = 0
    breached_this_period: bool = False
    # this period's kb, one value per QCI of ``qcis``; None until traffic is recorded
    kb: Optional[List[int]] = None
    # read once from the terms, which are the contract's own copy and never change
    qcis: Tuple[int, ...] = field(init=False)  # the agreed QCIs, ascending
    prices: Tuple[int, ...] = field(init=False)  # price_per_kb per QCI of ``qcis``

    def __post_init__(self) -> None:
        self.qcis = tuple(sorted(self.terms.agreed_throughput))
        self.prices = tuple(self.terms.price_per_kb.get(qci, 0) for qci in self.qcis)

    @property
    def served(self) -> Dict[int, int]:
        """Per-QCI kb this period.  Every ``record_traffic`` call covers each
        agreed QCI of an active record, so the map holds all of them or none."""
        return {} if self.kb is None else dict(zip(self.qcis, self.kb))

    def canonical_state(self) -> dict:
        return {
            "address": self.address,
            "active": self.active,
            "credit": self.credit,
            "consecutive_strikes": self.consecutive_strikes,
            "breached_this_period": self.breached_this_period,
            "served": {str(qci): kb for qci, kb in self.served.items()},  # QCIs ascending
            "terms": self.logged_terms,
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
        # the stream order record_traffic reads, as one (record, start, end)
        # slice of the kb vector per active record; derived from the registry,
        # so it is rebuilt when a record joins or leaves the active set and
        # is not part of canonical_state
        self._spans: List[Tuple[ScpRecord, int, int]] = []
        self.disabled = False
        self.total_deposits = 0
        self.total_withdrawn = 0
        self.total_recovered = 0
        ledger.contracts[self.id] = self  # so the ledger's digest covers its state
        ledger._log("create_contract", contract=self.id, owner=owner)

    # --- guards -------------------------------------------------------------

    def _require_owner(self, caller: str) -> None:
        if caller != self.owner:
            raise NotOwner(f"{caller!r} is not the contract owner")

    def _require_enabled(self) -> None:
        if self.disabled:
            raise ContractDisabled("contract has been disabled by its fail-safe")

    def _rebuild_streams(self) -> None:
        spans = []
        end = 0
        for record in self.registry.values():
            if record.active:
                start, end = end, end + len(record.qcis)
                spans.append((record, start, end))
        self._spans = spans

    # --- registration and funding -------------------------------------------

    def register_scp(self, caller: str, scp: str, terms: dict) -> None:
        self._require_owner(caller)
        self._require_enabled()
        self.ledger.balance(scp)
        if any(scp == contract.account for contract in self.ledger.contracts.values()):
            # a withdrawal would pay into an escrow, this one or another
            # contract's, and still count as withdrawn
            raise ContractError(f"the escrow account {scp!r} cannot be a provider")
        existing = self.registry.get(scp)
        if existing is not None and existing.active:
            raise AlreadyRegistered(f"{scp!r} is already active in the register")
        # ``terms`` is call data, the terms' JSON object: read once, as a contract
        # on a chain decodes its transaction's input, and kept only as read
        stored = read(SlaTerms, terms, "terms: ")
        logged = to_json(stored)
        self.registry[scp] = ScpRecord(address=scp, terms=stored, logged_terms=logged)
        if existing is not None:
            # removed providers may re-enter under fresh terms; the old record
            # is archived with its credit/debt frozen, never merged
            self.archived.append(existing)
        else:
            # a new address: keep the registry in address order, the order in
            # which close_period and canonical_state walk it
            records = sorted(self.registry.items())
            self.registry.clear()
            self.registry.update(records)
        self._rebuild_streams()
        self.ledger.append_event(EventKind.SCP_REGISTERED, scp)
        self.ledger._log("register_scp", contract=self.id, caller=caller, scp=scp, terms=logged)

    def deposit(self, caller: str, amount: int) -> None:
        self._require_owner(caller)
        self._require_enabled()
        self.ledger.transfer(caller, self.account, amount)
        self.total_deposits += amount
        self.ledger.append_event(EventKind.DEPOSIT, caller, None, amount)
        self.ledger._log("deposit", contract=self.id, caller=caller, amount=amount)

    # --- per-period flow ------------------------------------------------------

    @property
    def stream_order(self) -> List[Tuple[str, int]]:
        """The ``(scp, qci)`` stream that each ``record_traffic`` value is for."""
        return [(record.address, qci) for record, _, _ in self._spans for qci in record.qcis]

    @property
    def num_streams(self) -> int:
        """The length of ``stream_order``."""
        return self._spans[-1][2] if self._spans else 0

    def stream_of(self, scp: str, qci: int) -> int:
        """The index of ``scp``'s ``qci`` stream in ``stream_order``."""
        record = self.registry.get(scp)
        if record is None:
            raise UnknownScp(f"{scp!r} is not in the register")
        if not record.active:
            raise InactiveScp(f"{scp!r} has been removed from the register")
        if type(qci) is not int or qci not in record.qcis:
            raise UnknownQci(f"QCI {qci!r} is not part of {scp!r}'s agreement")
        start = next(start for rec, start, _ in self._spans if rec is record)
        return start + record.qcis.index(qci)

    def record_traffic(self, caller: str, kb: Iterable[int]) -> None:
        """Record one period's served kb, one value per stream of ``stream_order``.

        The whole vector is checked before any record's ``kb`` changes, so a
        bad call changes nothing.  Each active record then takes its slice of
        the vector, added to what the period has recorded so far.  The entry
        logs the values as a tuple, which the caller cannot change afterwards.
        """
        self._require_owner(caller)
        self._require_enabled()
        logged = tuple(kb)
        width = self.num_streams
        if len(logged) != width:
            raise ValueError(
                f"expected {width} kb values, one per active stream, got {len(logged)}"
            )
        if set(map(type, logged)) - {int} or min(logged, default=0) < 0:
            bad = next(value for value in logged if type(value) is not int or value < 0)
            raise ValueError(f"kb values must be integers >= 0, got {bad!r}")
        for record, start, end in self._spans:
            part = logged[start:end]
            record.kb = list(part) if record.kb is None else list(map(add, record.kb, part))
        self.ledger._log("record_traffic", contract=self.id, caller=caller, kb=logged)

    def throughput_breach(self, caller: str, breaches: Iterable[Sequence[int]]) -> None:
        """Report one period's breaches as ``(stream, deficit)`` pairs.

        ``stream`` indexes ``stream_order`` as it stands when the call begins,
        and the streams strictly ascend.  The whole batch is checked before
        any record changes, so a bad call changes nothing.  Each pair then
        debits its record, in order; the record's first breach of the period
        is a strike, and reaching the strike limit removes it, after which its
        later pairs in the call take no debit.  The call's events, each
        breach's and each removal's in that order, are appended together.
        """
        self._require_owner(caller)
        self._require_enabled()
        width = self.num_streams
        logged = []
        previous = -1
        for pair in breaches:
            if (
                type(pair) not in (tuple, list)
                or len(pair) != 2
                or type(pair[0]) is not int
                or type(pair[1]) is not int
            ):
                raise ValueError(
                    f"breaches are (stream, deficit) pairs of integers, got {pair!r}"
                )
            stream, deficit = pair
            if not 0 <= stream < width:
                raise ValueError(f"stream {stream} is not one of the {width} active streams")
            if stream <= previous:
                raise ValueError(
                    f"breach streams must strictly ascend, got {stream} after {previous}"
                )
            if deficit < 1:
                raise ZeroDeficit(f"a deficit of {deficit} is not a breach")
            previous = stream
            logged.append((stream, deficit))
        events = []
        removed = False
        spans_left = iter(self._spans)
        end = 0
        for stream, deficit in logged:
            while stream >= end:
                record, start, end = next(spans_left)
            if not record.active:
                continue  # removed by an earlier pair of this call
            debit = record.terms.penalty_debit(deficit)
            record.credit -= debit
            address, qci = record.address, record.qcis[stream - start]
            events.append((EventKind.INSUFFICIENT_THROUGHPUT, address, qci, (deficit, debit)))
            if not record.breached_this_period:
                record.breached_this_period = True
                record.consecutive_strikes += 1
                if record.consecutive_strikes >= record.terms.strike_limit:
                    record.active = False
                    removed = True
                    strikes = (record.consecutive_strikes,)
                    events.append((EventKind.SCP_REMOVED, record.address, None, strikes))
        if removed:
            self._rebuild_streams()
        self.ledger.append_events(events)
        self.ledger._log("throughput_breach", contract=self.id, caller=caller, breaches=logged)

    def _payout_for(self, record: ScpRecord) -> int:
        if record.terms.payment_mode == FLAT_RATE:
            return record.terms.flat_rate_per_period
        return 0 if record.kb is None else sum(map(mul, record.prices, record.kb))

    def close_period(self, caller: str) -> None:
        """Accrue payouts, apply the strike-reset rule, advance the clock.

        Fails atomically (no state change) if the accrual would promise more
        than the escrow holds: this cover check is the contract's one
        solvency guard.
        """
        self._require_owner(caller)
        self._require_enabled()
        # one pass in address order: each record's payout, 0 for a removed
        # one, and the positive credit owed once the payouts accrue
        settled: List[Tuple[ScpRecord, int]] = []
        owed = sum(max(rec.credit, 0) for rec in self.archived)
        for record in self.registry.values():
            payout = self._payout_for(record) if record.active else 0
            settled.append((record, payout))
            owed += max(record.credit + payout, 0)
        if self.escrow < owed:
            raise InsufficientEscrowForAccrual(
                f"escrow {self.escrow} cannot cover accrued credits {owed} "
                f"in period {self.ledger.current_period}"
            )
        period, kind = self.ledger.current_period, EventKind.PERIODIC_PAYOUT
        events = []
        for record, payout in settled:
            if record.active:
                record.credit += payout
                if not record.breached_this_period:
                    record.consecutive_strikes = 0
                events.append((kind, record.address, None, (payout, period)))
            record.breached_this_period = False
            record.kb = None
        self.ledger.append_events(events)
        self.ledger.advance_period()
        self.ledger._log("close_period", contract=self.id, caller=caller)

    # --- settlement -----------------------------------------------------------

    def withdraw(self, caller: str) -> int:
        """Withdrawal-pattern settlement; allowed even after the fail-safe.

        Pays the positive credit of the caller's live record and of its
        archived records, the same credits ``positive_credit_sum`` counts.
        Debt is not netted against it: an archived record's debt stays frozen.
        The escrow covers it: ``escrow >= positive_credit_sum()`` after every
        operation, and only ``close_period``, the one op that raises a credit,
        has to check it.
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
        self.ledger.transfer(self.account, caller, amount)
        for rec in paid:
            rec.credit = 0
        self.total_withdrawn += amount
        self.ledger.append_event(EventKind.WITHDRAWAL, caller, None, amount)
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
        """Return the escrow net of provider credits to the owner (fail-safe only).

        Never negative, as ``escrow >= positive_credit_sum()`` after every
        operation; the escrow left holds exactly the positive credits.
        """
        self._require_owner(caller)
        if not self.disabled:
            raise NotDisabled("recover_escrow requires the contract to be disabled")
        recoverable = self.escrow - self.positive_credit_sum()
        self.ledger.transfer(self.account, caller, recoverable)
        self.total_recovered += recoverable
        self.ledger.append_event(EventKind.ESCROW_RECOVERED, caller, None, recoverable)
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
