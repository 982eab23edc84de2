"""Re-execute an exported transaction log on a fresh ledger.

A log is one JSON header line (format, version, final digest) followed by one
JSON object per operation, in execution order.  Replaying an unmodified log
reproduces the exact final state, so the digest check is byte equality.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from .contract import SlaContract, SlaTerms
from .errors import DigestMismatch, MalformedLog, SimError
from .ledger import TXLOG_FORMAT, TXLOG_VERSION, EventKind, Ledger


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
            try:
                header = json.loads(first)
                if not isinstance(header, dict) or header.get("format") != TXLOG_FORMAT:
                    raise MalformedLog("missing or unrecognized transaction log header")
                if header.get("version") != TXLOG_VERSION:
                    raise MalformedLog(
                        f"unsupported log version {header.get('version')!r}"
                        f" (expected {TXLOG_VERSION})"
                    )
                entries = [_decode_entry(line) for line in fh if line.strip()]
            except json.JSONDecodeError as exc:
                raise MalformedLog(f"invalid JSON in transaction log: {exc}") from exc
    except OSError as exc:
        raise MalformedLog(f"cannot read {path}: {exc}") from exc
    return header, entries


def replay_entries(entries: List[dict]) -> Ledger:
    """Apply logged operations, in order, to a fresh ledger."""
    ledger = Ledger()
    contracts: Dict[str, SlaContract] = {}

    def contract_for(entry: dict) -> SlaContract:
        cid = entry.get("contract")
        if cid not in contracts:
            raise MalformedLog(f"operation references unknown contract {cid!r}")
        return contracts[cid]

    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict) or "op" not in entry:
            raise MalformedLog(f"entry {pos}: not an operation object")
        op = entry["op"]
        try:
            if op == "record_traffic_batch":
                contract_for(entry).record_traffic_batch(entry["caller"], entry["samples"])
            elif op == "record_traffic":
                contract_for(entry).record_traffic(
                    entry["caller"], entry["scp"], entry["qci"], entry["kb"]
                )
            elif op == "create_account":
                ledger.create_account(entry["balance"], entry["label"])
            elif op == "transfer":
                ledger.transfer(entry["src"], entry["dst"], entry["amount"])
            elif op == "advance_period":
                ledger.advance_period()
            elif op == "append_event":
                ledger.append_event(
                    EventKind(entry["kind"]),
                    entry["subject"],
                    entry.get("qci"),
                    tuple((name, value) for name, value in entry.get("payload", [])),
                )
            elif op == "create_contract":
                contract = SlaContract(ledger, entry["owner"], entry["contract"])
                contracts[contract.id] = contract
            elif op == "register_scp":
                contract_for(entry).register_scp(
                    entry["caller"], entry["scp"], SlaTerms.from_dict(entry["terms"])
                )
            elif op == "deposit":
                contract_for(entry).deposit(entry["caller"], entry["amount"])
            elif op == "throughput_breach":
                contract_for(entry).throughput_breach(
                    entry["caller"], entry["scp"], entry["qci"], entry["deficit"]
                )
            elif op == "close_period":
                contract_for(entry).close_period(entry["caller"])
            elif op == "withdraw":
                contract_for(entry).withdraw(entry["caller"])
            elif op == "failsafe_disable":
                contract_for(entry).failsafe_disable(entry["caller"])
            elif op == "recover_escrow":
                contract_for(entry).recover_escrow(entry["caller"])
            else:
                raise MalformedLog(f"entry {pos}: unknown operation {op!r}")
        except MalformedLog:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedLog(f"entry {pos} ({op}): bad fields: {exc}") from exc
        except SimError as exc:
            raise MalformedLog(f"entry {pos} ({op}): rejected on replay: {exc}") from exc
    return ledger


def replay_file(path) -> Tuple[str, str]:
    """Replay a log file; returns (recomputed digest, digest from header).

    Raises DigestMismatch when the two differ.
    """
    header, entries = load_txlog(path)
    expected = header.get("digest")
    if not isinstance(expected, str):
        raise MalformedLog("header is missing its digest")
    ledger = replay_entries(entries)
    del entries  # freed before the digest allocates, to lower peak memory
    digest = ledger.state_digest()
    if digest != expected:
        raise DigestMismatch(f"replay digest {digest} != recorded {expected}")
    return digest, expected
