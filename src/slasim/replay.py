"""Re-execute an exported transaction log on a fresh ledger.

A log is one JSON header line (format, version, final digest, entry count)
followed by one JSON object per transaction, in execution order.  Each entry is
``{"op": <method name>, **<its keyword arguments>}``; contract operations also
name their contract.  Replay calls that method with those arguments, so
replaying an unmodified log reproduces the exact final state, and the digest
check is byte equality.  The replaying ledger is given no log file, so it
keeps no log: each replayed entry is one logged operation, and its count is
checked against the header's.
"""

from __future__ import annotations

import json
from contextlib import closing
from typing import Dict, Iterable, Iterator, Tuple

from .config import SlaTerms, read
from .contract import SlaContract
from .errors import DigestMismatch, MalformedLog, SimError
from .ledger import TXLOG_FORMAT, TXLOG_HEADER_KEYS, TXLOG_VERSION, Ledger

# SlaContract methods a log entry may name.  Each is looked up on the contract
# when its entry is replayed, not bound here, so a wrapper installed on the
# class at run time (as perfbench/tracer.py does) is the method called.
CONTRACT_OPS = frozenset(
    {
        "register_scp",
        "deposit",
        "record_traffic",
        "throughput_breach",
        "close_period",
        "withdraw",
        "failsafe_disable",
        "recover_escrow",
    }
)


def _read_log(path) -> Iterator[dict]:
    """Yield the checked header, then each entry as it is decoded.

    A header with a key other than those ``export_txlog`` writes is rejected
    before any entry is read, so a misspelt key is named, not replayed past.

    The file stays open until the last entry is read or the generator is
    closed; a bad line is reported when iteration reaches it.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            first = fh.readline()
            if not first:
                raise MalformedLog("empty transaction log file")
            header = json.loads(first)
            if not isinstance(header, dict) or header.get("format") != TXLOG_FORMAT:
                raise MalformedLog("missing or unrecognized transaction log header")
            for key in header:
                if key not in TXLOG_HEADER_KEYS:
                    raise MalformedLog(f"unknown header key {key!r}")
            version = header.get("version")
            if type(version) is not int or version != TXLOG_VERSION:
                raise MalformedLog(
                    f"unsupported log version {version!r}"
                    f" (expected {TXLOG_VERSION})"
                )
            yield header
            for line in fh:
                if line.strip():
                    yield json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedLog(f"invalid JSON in transaction log: {exc}") from exc
    except OSError as exc:
        raise MalformedLog(f"cannot read {path}: {exc}") from exc


def load_txlog(path) -> Tuple[dict, Iterator[dict]]:
    """Read and check the header line; return it and an iterator of the entries.

    The entries are decoded one line at a time as the iterator is advanced.
    It holds the file open: exhaust it or close it.
    """
    lines = _read_log(path)
    header = next(lines)
    return header, lines


def replay_entries(entries: Iterable[dict]) -> Ledger:
    """Apply logged transactions, in order, to a fresh ledger.

    ``create_contract`` constructs a contract; every other entry calls the
    method it names with its remaining fields as keyword arguments.  The
    entries are consumed: ``op`` and ``contract`` are popped from each, and
    ``terms`` is replaced by the terms it decodes to.  The returned ledger
    holds the rebuilt state and, as every ledger does, fewer than 256 events;
    it was given no log file, so it counts its entries in ``num_entries`` but
    keeps none.
    """
    ledger = Ledger()
    contracts: Dict[str, SlaContract] = {}
    for pos, fields in enumerate(entries):
        if not isinstance(fields, dict) or "op" not in fields:
            raise MalformedLog(f"entry {pos}: not an operation object")
        op = fields.pop("op")
        try:
            if op == "create_contract":
                contract = SlaContract(ledger, contract_id=fields.pop("contract"), **fields)
                contracts[contract.id] = contract
                continue
            if op == "create_account":
                target = ledger
            elif op in CONTRACT_OPS:
                cid = fields.pop("contract", None)
                if cid not in contracts:
                    raise MalformedLog(f"operation references unknown contract {cid!r}")
                target = contracts[cid]
            else:
                raise MalformedLog(f"entry {pos}: unknown operation {op!r}")
            if "terms" in fields:
                fields["terms"] = read(SlaTerms, fields["terms"])
            getattr(target, op)(**fields)
        except MalformedLog:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedLog(f"entry {pos} ({op}): bad fields: {exc}") from exc
        except SimError as exc:
            raise MalformedLog(f"entry {pos} ({op}): rejected on replay: {exc}") from exc
    return ledger


def replay_file(path) -> Tuple[str, str]:
    """Replay a log file; returns (recomputed digest, digest from header).

    Entries are replayed as they are read, so none is held.  Each replayed
    entry is one logged operation, so the ledger's ``num_entries`` is the
    number replayed.  Raises DigestMismatch when the two digests differ, then
    MalformedLog when the header's entry count differs from the entries
    replayed.
    """
    header, entries = load_txlog(path)
    with closing(entries):  # closes the file if replay stops partway
        expected = header.get("digest")
        if not isinstance(expected, str):
            raise MalformedLog("header is missing its digest")
        ledger = replay_entries(entries)
    digest = ledger.state_digest()
    if digest != expected:
        raise DigestMismatch(f"replay digest {digest} != recorded {expected}")
    replayed = ledger.num_entries
    if type(header.get("entries")) is not int or header["entries"] != replayed:
        raise MalformedLog(
            f"header counts {header.get('entries')!r} entries, the log holds {replayed}"
        )
    return digest, expected
