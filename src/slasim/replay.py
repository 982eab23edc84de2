"""Re-execute an exported transaction log on a fresh ledger.

A log is one JSON header line (format, version, final digest, entry count)
followed by one JSON object per transaction, in execution order.  Each entry is
``{"op": <method name>, **<its keyword arguments>}``; contract operations also
name their contract.  Replay calls that method with those arguments, so
replaying an unmodified log reproduces the exact final state, and the digest
check is byte equality.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from .contract import SlaContract, SlaTerms
from .errors import DigestMismatch, MalformedLog, SimError
from .ledger import TXLOG_FORMAT, TXLOG_VERSION, Ledger

# SlaContract methods a log entry may name.  Each is looked up on the contract
# when its entry is replayed, not bound here, so a wrapper installed on the
# class at run time (as perfbench/tracer.py does) is the method called.
CONTRACT_OPS = frozenset(
    {
        "register_scp",
        "deposit",
        "record_traffic",
        "record_traffic_batch",
        "throughput_breach",
        "close_period",
        "withdraw",
        "failsafe_disable",
        "recover_escrow",
    }
)


def _decode_entry(line: str):
    """Decode one operation line, turning batch samples into tuples.

    JSON arrays decode as lists, which the garbage collector tracks for as
    long as the log is held; it stops tracking tuples of plain values, so
    collections during replay do not rescan every sample.  Samples that are
    not lists are left for ``replay_entries`` to reject.
    """
    entry = json.loads(line)
    if isinstance(entry, dict) and entry.get("op") == "record_traffic_batch":
        samples = entry.get("samples")
        if isinstance(samples, list):
            entry["samples"] = tuple(tuple(s) if isinstance(s, list) else s for s in samples)
    return entry


def load_txlog(path) -> Tuple[dict, List[dict]]:
    """Read and check the header line, then decode the entries line by line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            first = fh.readline()
            if not first:
                raise MalformedLog("empty transaction log file")
            header = json.loads(first)
            if not isinstance(header, dict) or header.get("format") != TXLOG_FORMAT:
                raise MalformedLog("missing or unrecognized transaction log header")
            if header.get("version") != TXLOG_VERSION:
                raise MalformedLog(
                    f"unsupported log version {header.get('version')!r}"
                    f" (expected {TXLOG_VERSION})"
                )
            entries = [_decode_entry(line) for line in fh if line.strip()]
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedLog(f"invalid JSON in transaction log: {exc}") from exc
    except OSError as exc:
        raise MalformedLog(f"cannot read {path}: {exc}") from exc
    return header, entries


def replay_entries(entries: List[dict]) -> Ledger:
    """Apply logged transactions, in order, to a fresh ledger.

    ``create_contract`` constructs a contract; every other entry calls the
    method it names with its remaining fields as keyword arguments.
    """
    ledger = Ledger()
    contracts: Dict[str, SlaContract] = {}
    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict) or "op" not in entry:
            raise MalformedLog(f"entry {pos}: not an operation object")
        fields = dict(entry)
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
                fields["terms"] = SlaTerms.from_dict(fields["terms"])
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

    Raises DigestMismatch when the two differ, then MalformedLog when the
    header's entry count differs from the entries replayed.
    """
    header, entries = load_txlog(path)
    expected = header.get("digest")
    if not isinstance(expected, str):
        raise MalformedLog("header is missing its digest")
    ledger = replay_entries(entries)
    replayed = len(entries)
    del entries  # freed before the digest allocates, to lower peak memory
    digest = ledger.state_digest()
    if digest != expected:
        raise DigestMismatch(f"replay digest {digest} != recorded {expected}")
    if header.get("entries") != replayed:
        raise MalformedLog(
            f"header counts {header.get('entries')!r} entries, the log holds {replayed}"
        )
    return digest, expected
