"""Minimal simulated ledger: accounts, event log, period clock, replayable tx log.

The ledger is the execution substrate for the SLA contract.  It keeps integer
account balances (never negative, never fractional), an append-only stream of
indexed events, and a monotone period counter.  It folds each full batch of
events into its digest and drops it, as an Ethereum node commits to logs by
hash and need not keep them; a caller that wants the records passes a sink.

The transactions are ``create_account`` and the contract's operations.  Each
one is logged once, through ``Ledger._log``, as a single entry: its name as
``op`` plus its keyword arguments, so replay calls the same method with the
same arguments.  The ledger counts every entry and writes each, as one JSON
line, to the text file its caller passes; given none, it keeps no log, as a
node that only re-executes a log to check it need not.  The primitives a
transaction calls (``transfer``, ``append_event``, ``advance_period``) are
not logged, just as calls made inside a smart-contract transaction are not.
An exported log replays byte-for-byte, and the canonical state digest makes
replay determinism checkable as plain string equality.

Not thread-safe; one ledger instance belongs to one scenario run.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from enum import Enum
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, TextIO, Tuple

from .errors import DuplicateAddress, InsufficientFunds, UnknownAddress
from .fileio import atomic_write

TXLOG_FORMAT = "slasim-txlog"
TXLOG_VERSION = 6  # 6: throughput_breach takes one period's (stream, deficit) pairs
TXLOG_HEADER_KEYS = frozenset({"format", "version", "digest", "entries"})

# One encoder for every log entry: ``json.dumps`` would build a new one per call
_encode_entry = json.JSONEncoder(sort_keys=True).encode

# Events the digest lets build up before it folds them in one encoder call, so
# the rows and JSON text held at once stay small.  Rows are encoded as they are
# (a tuple is a JSON array and EventKind a str), so a fold allocates only its
# text; the hash does not depend on how many rows each fold takes.
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


class EventRecord(NamedTuple):
    """One immutable, indexed log entry.  Payload is ordered (name, value) pairs.

    Its fields are the row the state digest folds (``Ledger._events_sha256``),
    the JSON array ``[index, period, kind, subject, qci, [[name, value], ...]]``.
    The ledger keeps rows as plain tuples and builds a record only for a sink.
    """

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


EventSink = Callable[[EventRecord], None]  # handed each event as it is appended
# one event of an ``append_events`` batch: (subject, qci, payload)
EventItem = Tuple[str, Optional[int], Tuple[Tuple[str, int], ...]]


def _check_amount(amount: int) -> None:
    if not isinstance(amount, int) or isinstance(amount, bool) or amount < 0:
        raise ValueError(f"amounts are non-negative integers, got {amount!r}")


class Ledger:
    """Accounts, events and the period clock for one simulation run.

    ``txlog``, if given, is a text file that each logged entry is written to
    as one JSON line; without it the ledger counts its entries but keeps none.
    ``events``, if given, is a sink handed each event as it is appended; the
    ledger keeps only the rows its digest has not folded (< ``_FOLD_BATCH``).
    """

    def __init__(
        self, txlog: Optional[TextIO] = None, events: Optional[EventSink] = None
    ) -> None:
        self.balances: Dict[str, int] = {}
        self.num_events = 0
        self._events: List[tuple] = []  # the rows the digest has not folded
        self._sink = events
        self.current_period: int = 0
        self.txlog = txlog
        self.num_entries = 0  # transactions logged, with or without a file
        # contracts attach themselves so the digest covers their state too
        self.contracts: Dict[str, object] = {}
        self._anon_counter = 0
        # running SHA-256 over every event before the tail
        self._events_hash = hashlib.sha256()

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
        elif not isinstance(label, str):
            raise ValueError(f"account labels are strings, got {label!r}")
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
        return self.append_events(kind, [(subject, qci, tuple(payload))])

    def append_events(self, kind: EventKind, items: Iterable[EventItem]) -> int:
        """Append one ``kind`` event per ``(subject, qci, payload)`` item, in order.

        Returns the index of the first.  Each event is held as its plain digest
        row; a sink, if any, is handed it as an ``EventRecord``.  Once the rows
        not yet folded reach ``_FOLD_BATCH``, all of them are folded.
        """
        first = self.num_events
        period = self.current_period
        rows = [
            (index, period, kind, subject, qci, payload)
            for index, (subject, qci, payload) in enumerate(items, first)
        ]
        self.num_events = first + len(rows)
        if self._sink is not None:
            for row in rows:
                self._sink(EventRecord._make(row))
        self._events += rows
        if len(self._events) >= _FOLD_BATCH:
            self._events_sha256()
        return first

    # --- period clock -----------------------------------------------------

    def advance_period(self) -> int:
        self.current_period += 1
        return self.current_period

    # --- transaction log and digest ----------------------------------------

    def _log(self, op: str, **fields: object) -> None:
        """Record one transaction: its method name and its keyword arguments.

        The entry is encoded here, once, as the JSON line ``export_txlog``
        copies behind its header.
        """
        self.num_entries += 1
        if self.txlog is not None:
            self.txlog.write(_encode_entry({"op": op, **fields}) + "\n")

    def attach_contract(self, contract) -> None:
        if contract.id in self.contracts:
            raise DuplicateAddress(f"contract id {contract.id!r} already attached")
        self.contracts[contract.id] = contract

    def _events_sha256(self) -> str:
        """Fold the unfolded rows, if any, into the running SHA-256 and drop them.

        Each event enters as the compact JSON array
        ``[index, period, kind, subject, qci, [[name, value], ...]]`` followed
        by a comma, so the hash is the same however many reads split the log.
        """
        events = self._events
        if events:
            blob = json.dumps(events, separators=(",", ":"))[1:-1] + ","
            self._events_hash.update(blob.encode("utf-8"))
            events.clear()
        return self._events_hash.hexdigest()

    def canonical_state(self) -> dict:
        """Deterministic, fully sorted representation of the whole world state.

        Events are represented by their count and running SHA-256 rather than
        listed, so taking a digest does not re-encode the whole log.
        """
        return {
            "accounts": {addr: self.balances[addr] for addr in sorted(self.balances)},
            "period": self.current_period,
            "events": {"count": self.num_events, "sha256": self._events_sha256()},
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
        current state instead of recomputing it.  The entries are already
        encoded in the ``txlog`` file, so they are copied behind the header as
        they are; the ledger must have been given one.
        """
        if digest is None:
            digest = self.state_digest()
        header = {
            "format": TXLOG_FORMAT,
            "version": TXLOG_VERSION,
            "digest": digest,
            "entries": self.num_entries,
        }
        with atomic_write(path) as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            self.txlog.seek(0)
            shutil.copyfileobj(self.txlog, fh)
        return digest
