"""Minimal simulated ledger: accounts, event log, period clock, replayable tx log.

The ledger is the execution substrate for the SLA contract.  It keeps integer
account balances (never negative, never fractional), an append-only indexed
event log, and a monotone period counter.

The transactions are ``create_account`` and the contract's operations.  Each
one appends a single entry to the transaction log through ``Ledger._log``:
its name as ``op`` plus its keyword arguments, so replay calls the same method
with the same arguments.  The primitives a transaction calls (``transfer``,
``append_event``, ``advance_period``) are not logged, just as calls made
inside a smart-contract transaction are not.  An exported log replays
byte-for-byte, and the canonical state digest makes replay determinism
checkable as plain string equality.

Not thread-safe; one ledger instance belongs to one scenario run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

from .errors import DuplicateAddress, InsufficientFunds, UnknownAddress
from .fileio import atomic_write

TXLOG_FORMAT = "slasim-txlog"
TXLOG_VERSION = 3  # 3: events enter the digest as a running SHA-256

# Events folded into the digest per encoder call.  Fewer than the garbage
# collector's default first-generation threshold (700), so each batch's row
# lists are freed before a collection can promote them and trigger a full
# collection of the whole heap; the hash does not depend on the batch size.
_FOLD_BATCH = 256


class EventKind(str, Enum):
    PERIODIC_PAYOUT = "PeriodicPayout"
    INSUFFICIENT_THROUGHPUT = "InsufficientThroughput"
    SCP_REGISTERED = "ScpRegistered"
    SCP_REMOVED = "ScpRemoved"
    CONTRACT_DISABLED = "ContractDisabled"
    WITHDRAWAL = "Withdrawal"
    DEPOSIT = "Deposit"
    ESCROW_RECOVERED = "EscrowRecovered"


@dataclass(frozen=True)
class EventRecord:
    """One immutable, indexed log entry.  Payload is ordered (name, value) pairs."""

    index: int
    period: int
    kind: EventKind
    subject: str
    qci: Optional[int] = None
    payload: Tuple[Tuple[str, int], ...] = ()

    def payload_value(self, name: str) -> int:
        for key, value in self.payload:
            if key == name:
                return value
        raise KeyError(name)


def _check_amount(amount: int) -> None:
    if not isinstance(amount, int) or isinstance(amount, bool) or amount < 0:
        raise ValueError(f"amounts are non-negative integers, got {amount!r}")


class Ledger:
    """Accounts, events and the period clock for one simulation run."""

    def __init__(self) -> None:
        self.balances: Dict[str, int] = {}
        self.events: List[EventRecord] = []
        self.current_period: int = 0
        self.txlog: List[dict] = []
        # contracts attach themselves so the digest covers their state too
        self.contracts: Dict[str, object] = {}
        self._anon_counter = 0
        # running SHA-256 over self.events[:self._events_hashed]
        self._events_hash = hashlib.sha256()
        self._events_hashed = 0

    # --- accounts ---------------------------------------------------------

    def create_account(self, balance: int = 0, label: Optional[str] = None) -> str:
        address = self._new_account(balance, label)
        self._log("create_account", label=address, balance=balance)
        return address

    def _new_account(self, balance: int, label: Optional[str]) -> str:
        """Open an account without logging it, for accounts a transaction opens."""
        _check_amount(balance)
        if label is None:
            label = f"acct-{self._anon_counter}"
            self._anon_counter += 1
        if label in self.balances:
            raise DuplicateAddress(f"address {label!r} already exists")
        self.balances[label] = balance
        return label

    def balance(self, address: str) -> int:
        try:
            return self.balances[address]
        except KeyError:
            raise UnknownAddress(f"unknown address {address!r}") from None

    def transfer(self, src: str, dst: str, amount: int) -> None:
        _check_amount(amount)
        if src not in self.balances:
            raise UnknownAddress(f"unknown address {src!r}")
        if dst not in self.balances:
            raise UnknownAddress(f"unknown address {dst!r}")
        if self.balances[src] < amount:
            raise InsufficientFunds(
                f"{src!r} holds {self.balances[src]}, cannot send {amount}"
            )
        self.balances[src] -= amount
        self.balances[dst] += amount

    def total_balance(self) -> int:
        return sum(self.balances.values())

    # --- events -----------------------------------------------------------

    def append_event(
        self,
        kind: EventKind,
        subject: str,
        qci: Optional[int] = None,
        payload: Tuple[Tuple[str, int], ...] = (),
    ) -> int:
        record = EventRecord(
            index=len(self.events),
            period=self.current_period,
            kind=kind,
            subject=subject,
            qci=qci,
            payload=tuple(payload),
        )
        self.events.append(record)
        return record.index

    def query_events(
        self,
        kind: Optional[EventKind] = None,
        subject: Optional[str] = None,
        period_range: Optional[Tuple[int, int]] = None,
    ) -> List[EventRecord]:
        """Filtered view of the log, ascending index order, filters ANDed.

        ``period_range`` bounds are inclusive on both ends.
        """
        out = []
        for record in self.events:
            if kind is not None and record.kind is not kind:
                continue
            if subject is not None and record.subject != subject:
                continue
            if period_range is not None:
                first, last = period_range
                if not (first <= record.period <= last):
                    continue
            out.append(record)
        return out

    # --- period clock -----------------------------------------------------

    def advance_period(self) -> int:
        self.current_period += 1
        return self.current_period

    # --- transaction log and digest ----------------------------------------

    def _log(self, op: str, **fields: object) -> None:
        """Record one transaction: its method name and its keyword arguments."""
        self.txlog.append({"op": op, **fields})

    def attach_contract(self, contract) -> None:
        if contract.id in self.contracts:
            raise DuplicateAddress(f"contract id {contract.id!r} already attached")
        self.contracts[contract.id] = contract

    def _events_sha256(self) -> str:
        """Fold the events not yet hashed into the running SHA-256, in index order.

        Each event enters as the compact JSON array
        ``[index, period, kind, subject, qci, [[name, value], ...]]`` followed
        by a comma, so the hash is the same however many reads split the log.
        An event once folded is never read again, which relies on the log
        being append-only.
        """
        events = self.events
        while self._events_hashed < len(events):
            start = self._events_hashed
            rows = [
                [r.index, r.period, r.kind.value, r.subject, r.qci, r.payload]
                for r in events[start : start + _FOLD_BATCH]
            ]
            blob = json.dumps(rows, separators=(",", ":"))[1:-1] + ","
            self._events_hash.update(blob.encode("utf-8"))
            self._events_hashed += len(rows)
        return self._events_hash.hexdigest()

    def canonical_state(self) -> dict:
        """Deterministic, fully sorted representation of the whole world state.

        Events are represented by their count and running SHA-256 rather than
        listed, so taking a digest does not re-encode the whole log.
        """
        return {
            "accounts": {addr: self.balances[addr] for addr in sorted(self.balances)},
            "period": self.current_period,
            "events": {"count": len(self.events), "sha256": self._events_sha256()},
            "contracts": {
                cid: self.contracts[cid].canonical_state()
                for cid in sorted(self.contracts)
            },
        }

    def state_digest(self) -> str:
        blob = json.dumps(
            self.canonical_state(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def export_txlog(self, path, digest: Optional[str] = None) -> str:
        """Write the tx log as JSON lines; header carries the final digest.

        ``digest`` lets callers reuse an already computed digest of the
        current state instead of recomputing it.
        """
        if digest is None:
            digest = self.state_digest()
        header = {
            "format": TXLOG_FORMAT,
            "version": TXLOG_VERSION,
            "digest": digest,
            "entries": len(self.txlog),
        }
        with atomic_write(path) as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            fh.writelines(
                json.dumps(entry, sort_keys=True) + "\n" for entry in self.txlog
            )
        return digest
