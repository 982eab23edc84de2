"""Minimal simulated ledger: accounts, event log, period clock, replayable tx log.

The ledger is the execution substrate for the SLA contract.  It keeps integer
account balances (never negative, never fractional), an append-only stream of
indexed events, and a monotone period counter.  Each event kind declares its
value names once (``EVENT_FIELDS``), as a Solidity event declares its
parameters, and each event enters the digest's running SHA-256 when its
operation appends it, as an Ethereum node commits to logs by hash and need not
keep them; a caller that wants the records passes a sink.

The transactions are ``create_account`` and the contract's operations.  Each
one is logged once, through ``Ledger._log``, as a single entry: its name as
``op`` plus its keyword arguments, so replay calls the same method with the
same arguments.  The ledger counts every entry and writes each, as one compact
JSON line with sorted keys, to the text file its caller passes; given none, it
keeps no log, as a node that only re-executes a log to check it need not.
Whitespace between JSON values carries no meaning, so a log written with
spaces after ``,`` and ``:`` reads the same.  The primitives a
transaction calls (``transfer``, ``append_events``, ``advance_period``) are
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
from typing import Callable, Dict, Iterable, NamedTuple, Optional, TextIO, Tuple

from .errors import DuplicateAddress, InsufficientFunds, UnknownAddress
from .fileio import atomic_write

TXLOG_FORMAT = "slasim-txlog"
TXLOG_VERSION = 6  # 6: throughput_breach takes one period's (stream, deficit) pairs
TXLOG_HEADER_KEYS = frozenset({"format", "version", "digest", "entries"})

# One compact encoder for the state digest, the log header and every logged
# value that is not a string: ``json.dumps`` would build a new one per call
_encode_value = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class EventKind(str, Enum):
    PERIODIC_PAYOUT = "PeriodicPayout"
    INSUFFICIENT_THROUGHPUT = "InsufficientThroughput"
    SCP_REGISTERED = "ScpRegistered"
    SCP_REMOVED = "ScpRemoved"
    CONTRACT_DISABLED = "ContractDisabled"
    WITHDRAWAL = "Withdrawal"
    DEPOSIT = "Deposit"
    ESCROW_RECOVERED = "EscrowRecovered"


# The names of each kind's integer values, in the order an event carries them
EVENT_FIELDS: Dict[EventKind, Tuple[str, ...]] = {
    EventKind.PERIODIC_PAYOUT: ("payout", "period"),
    EventKind.INSUFFICIENT_THROUGHPUT: ("deficit", "debit"),
    EventKind.SCP_REGISTERED: (),
    EventKind.SCP_REMOVED: ("strikes",),
    EventKind.CONTRACT_DISABLED: (),
    EventKind.WITHDRAWAL: ("amount",),
    EventKind.DEPOSIT: ("amount",),
    EventKind.ESCROW_RECOVERED: ("amount",),
}


# Each kind's digest row, the compact JSON ``[index,period,"Kind",subject,qci,
# [["name",value],...]],``, as a ``%`` template: the index, period and values
# as ``%d``, the subject and qci as the ``%s`` of their JSON text
_ROW_TEMPLATES = {
    kind: f"[%d,%d,{json.dumps(kind.value)},%s,%s,["
    + ",".join(f"[{json.dumps(name)},%d]" for name in names)
    + "]],"
    for kind, names in EVENT_FIELDS.items()
}


def _line_template(op: str, names: Tuple[str, ...]) -> Tuple[str, Tuple[str, ...]]:
    """The ``%`` template of ``op``'s log line, and the names in the order it takes them.

    The keys are ``names`` and ``"op"``, sorted; ``op``'s value is its JSON text
    and each name's value a ``%s``.
    """
    order = tuple(sorted(names))
    values = dict.fromkeys(order, "%s")
    values["op"] = json.dumps(op).replace("%", "%%")
    pairs = (json.dumps(key).replace("%", "%%") + ":" + values[key] for key in sorted(values))
    return "{" + ",".join(pairs) + "}\n", order


class EventRecord(NamedTuple):
    """One immutable, indexed event: ``values[i]`` is ``EVENT_FIELDS[kind][i]``.

    The ledger builds a record only for a sink.
    """

    index: int
    period: int
    kind: EventKind
    subject: str
    qci: Optional[int] = None
    values: Tuple[int, ...] = ()


EventSink = Callable[[EventRecord], None]  # handed each event as it is appended


def _check_amount(amount: int) -> None:
    if not isinstance(amount, int) or isinstance(amount, bool) or amount < 0:
        raise ValueError(f"amounts are non-negative integers, got {amount!r}")


class Ledger:
    """Accounts, events and the period clock for one simulation run.

    ``txlog``, if given, is a text file that each logged entry is written to
    as one JSON line; without it the ledger counts its entries but keeps none.
    ``events``, if given, is a sink handed each event as it is appended; the
    ledger keeps no event, only the running SHA-256 of their rows.
    """

    def __init__(
        self, txlog: Optional[TextIO] = None, events: Optional[EventSink] = None
    ) -> None:
        self.balances: Dict[str, int] = {}
        self.num_events = 0
        self._subject_json: Dict[str, str] = {}  # each logged or event string's JSON text
        # each op's log line template and its argument names, in the order
        # the template takes their values, keyed by the op and the names as called
        self._line_templates: Dict[Tuple[str, ...], Tuple[str, Tuple[str, ...]]] = {}
        self._sink = events
        self.current_period: int = 0
        self.txlog = txlog
        self.num_entries = 0  # transactions logged, with or without a file
        # each contract adds itself, by id, so the digest covers its state too
        self.contracts: Dict[str, object] = {}
        # running SHA-256 over every event's digest row
        self._events_hash = hashlib.sha256()

    # --- accounts ---------------------------------------------------------

    def create_account(self, balance: int, label: str) -> str:
        """Open the account ``label``, which is its address, holding ``balance``."""
        address = self._new_account(balance, label)
        self._log("create_account", label=address, balance=balance)
        return address

    def _new_account(self, balance: int, label: str) -> str:
        """Open an account without logging it, for accounts a transaction opens."""
        _check_amount(balance)
        if not isinstance(label, str):
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
        self, kind: EventKind, subject: str, qci: Optional[int] = None, *values: int
    ) -> int:
        return self.append_events([(kind, subject, qci, values)])

    def append_events(
        self, events: Iterable[Tuple[EventKind, str, Optional[int], Tuple[int, ...]]]
    ) -> int:
        """Append one operation's ``(kind, subject, qci, values)`` events, in order.

        Returns the index of the first.  Each row is its kind's template filled
        in (the values must be ints: ``%d`` prints a bool or a float unlike
        JSON), and the rows enter the running SHA-256 together; a sink, if
        any, is handed each event as an ``EventRecord``.
        """
        first = index = self.num_events
        period, subject_json, sink = self.current_period, self._subject_json, self._sink
        rows = []
        for kind, subject, qci, values in events:
            text = subject_json.get(subject)
            if text is None:
                text = subject_json[subject] = json.dumps(subject)
            qci_json = "null" if qci is None else qci
            rows.append(_ROW_TEMPLATES[kind] % (index, period, text, qci_json, *values))
            if sink is not None:
                sink(EventRecord(index, period, kind, subject, qci, values))
            index += 1
        self.num_events = index
        self._events_hash.update("".join(rows).encode())
        return first

    # --- period clock -----------------------------------------------------

    def advance_period(self) -> int:
        self.current_period += 1
        return self.current_period

    # --- transaction log and digest ----------------------------------------

    def _log(self, op: str, **fields: object) -> None:
        """Record one transaction: its method name and its keyword arguments.

        The entry is written here, once, as the compact JSON line
        ``_encode_entry`` makes, which ``export_txlog`` copies behind its header.
        """
        self.num_entries += 1
        if self.txlog is not None:
            self.txlog.write(self._encode_entry(op, fields))

    def _encode_entry(self, op: str, fields: Dict[str, object]) -> str:
        """The entry's JSON line: ``{"op": op, **fields}``, compact, keys sorted.

        The line is the op's template with each value's JSON text filled in: a
        string's from the JSON texts the ledger keeps, any other value's from
        the compact encoder.  The template is built on the op's first entry.
        """
        key = (op, *fields)
        cached = self._line_templates.get(key)
        if cached is None:
            cached = self._line_templates[key] = _line_template(op, tuple(fields))
        template, names = cached
        texts = []
        subject_json = self._subject_json
        for name in names:
            value = fields[name]
            if isinstance(value, str):
                text = subject_json.get(value)
                if text is None:
                    text = subject_json[value] = json.dumps(value)
            else:
                text = _encode_value(value)
            texts.append(text)
        return template % tuple(texts)

    def canonical_state(self) -> dict:
        """Deterministic, fully sorted representation of the whole world state.

        Events are represented by their count and running SHA-256 rather than
        listed: each event enters the hash as its compact JSON row
        ``[index,period,"Kind",subject,qci,[["name",value],...]]`` followed by
        a comma, when its operation appends it.
        """
        return {
            "accounts": {addr: self.balances[addr] for addr in sorted(self.balances)},
            "period": self.current_period,
            "events": {"count": self.num_events, "sha256": self._events_hash.hexdigest()},
            "contracts": {
                cid: self.contracts[cid].canonical_state()
                for cid in sorted(self.contracts)
            },
        }

    def state_digest(self) -> str:
        blob = _encode_value(self.canonical_state())
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def export_txlog(self, path) -> str:
        """Write the tx log as JSON lines; the header carries the state digest.

        The entries are already encoded in the ``txlog`` file, so they are
        copied behind the header as they are.  A ledger given no ``txlog``
        keeps no log, and raises ``ValueError`` before ``path`` is opened.
        Returns the digest.
        """
        if self.txlog is None:
            raise ValueError("cannot export a transaction log: this ledger keeps no log")
        digest = self.state_digest()
        header = {
            "format": TXLOG_FORMAT,
            "version": TXLOG_VERSION,
            "digest": digest,
            "entries": self.num_entries,
        }
        with atomic_write(path) as fh:
            fh.write(_encode_value(header) + "\n")
            self.txlog.seek(0)
            shutil.copyfileobj(self.txlog, fh)
        return digest
