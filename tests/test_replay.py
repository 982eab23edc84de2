"""Transaction log export, replay and tamper detection."""

import json

import pytest

from conftest import make_terms
from test_config import valid_dict
from slasim import Ledger, SlaContract
from slasim.cli import setup_run
from slasim.config import config_from_dict
from slasim.errors import DigestMismatch, MalformedLog
from slasim.replay import load_txlog, replay_entries, replay_file
from slasim.traffic import drive


def busy_world():
    ledger = Ledger()
    owner = ledger.create_account(100_000, "mno")
    contract = SlaContract(ledger, owner)
    scp = ledger.create_account(0, "scp-1")
    contract.register_scp(owner, scp, make_terms())
    contract.deposit(owner, 80_000)
    for period in range(4):
        contract.record_traffic(owner, scp, 1, 500 + period)
        if period == 2:
            contract.throughput_breach(owner, scp, 1, 40)
        contract.close_period(owner)
    contract.withdraw(scp)
    return ledger


def test_empty_log_replays_to_fresh_digest(tmp_path):
    path = tmp_path / "empty.jsonl"
    Ledger().export_txlog(path)
    digest, expected = replay_file(path)
    assert digest == expected == Ledger().state_digest()


def test_roundtrip(tmp_path):
    ledger = busy_world()
    path = tmp_path / "log.jsonl"
    exported = ledger.export_txlog(path)
    digest, _ = replay_file(path)
    assert digest == exported


def test_replayed_state_matches_original(tmp_path):
    ledger = busy_world()
    path = tmp_path / "log.jsonl"
    ledger.export_txlog(path)
    _, entries = load_txlog(path)
    replayed = replay_entries(entries)
    assert replayed.canonical_state() == ledger.canonical_state()


def test_tampered_amount_is_detected(tmp_path):
    ledger = busy_world()
    path = tmp_path / "log.jsonl"
    ledger.export_txlog(path)
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines[1:], start=1):
        entry = json.loads(line)
        if entry["op"] == "record_traffic":
            entry["kb"] += 1
            lines[i] = json.dumps(entry, sort_keys=True)
            break
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DigestMismatch):
        replay_file(path)


def driven_log(tmp_path):
    """Export the log of a drive run: scp-1 is removed in period 3 of 5."""
    config = config_from_dict(valid_dict())
    ledger, contract = setup_run(config)
    report = drive(ledger, contract, config)
    path = tmp_path / "driven.jsonl"
    ledger.export_txlog(path)
    return path, report


def test_drive_logs_one_traffic_entry_per_period(tmp_path):
    path, report = driven_log(tmp_path)
    _, entries = load_txlog(path)
    ops = [entry["op"] for entry in entries]
    assert "record_traffic" not in ops
    # one batch per period while the provider is active, the removal period included
    assert ops.count("record_traffic_batch") == report.rows["scp-1"].removal_period + 1
    assert report.rows["scp-1"].removal_period == 3


def test_tampered_batch_kb_is_detected(tmp_path):
    path, _ = driven_log(tmp_path)
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines[1:], start=1):
        entry = json.loads(line)
        if entry["op"] == "record_traffic_batch":
            entry["samples"][0][2] += 1
            lines[i] = json.dumps(entry, sort_keys=True)
            break
    else:
        pytest.fail("the driven log has no record_traffic_batch entry")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DigestMismatch):
        replay_file(path)


@pytest.mark.parametrize(
    "bad",
    [["scp-1", 9, 100], ["scp-2", 1, 100], ["scp-1", 1, -1]],
    ids=["unknown-qci", "removed-scp", "negative-kb"],
)
def test_bad_batch_sample_rejected_on_replay(tmp_path, bad):
    ledger = Ledger()
    owner = ledger.create_account(100_000, "mno")
    contract = SlaContract(ledger, owner)
    for label in ("scp-1", "scp-2"):
        contract.register_scp(owner, ledger.create_account(0, label), make_terms())
    contract.deposit(owner, 80_000)
    for _ in range(3):  # scp-2 breaches three periods running and is removed
        contract.record_traffic_batch(owner, [("scp-1", 1, 500), ("scp-2", 1, 500)])
        contract.throughput_breach(owner, "scp-2", 1, 40)
        contract.close_period(owner)
    path = tmp_path / "log.jsonl"
    ledger.export_txlog(path)
    _, entries = load_txlog(path)
    entries.append(
        {
            "op": "record_traffic_batch",
            "contract": contract.id,
            "caller": owner,
            "samples": [["scp-1", 1, 100], bad],
        }
    )
    with pytest.raises(
        MalformedLog, match=r"\(record_traffic_batch\): (rejected on replay|bad fields)"
    ):
        replay_entries(entries)


@pytest.mark.parametrize("version", [1, 2])
def test_old_log_version_rejected(tmp_path, version):
    path = tmp_path / "log.jsonl"
    busy_world().export_txlog(path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["version"] = version
    lines[0] = json.dumps(header, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    expected = rf"unsupported log version {version} \(expected 3\)"
    with pytest.raises(MalformedLog, match=expected):
        replay_file(path)


def test_truncated_log_is_detected(tmp_path):
    ledger = busy_world()
    path = tmp_path / "log.jsonl"
    ledger.export_txlog(path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(DigestMismatch):
        replay_file(path)


def test_missing_header_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"op": "advance_period"}\n')
    with pytest.raises(MalformedLog):
        replay_file(path)


def test_unknown_op_rejected():
    with pytest.raises(MalformedLog, match="unknown operation"):
        replay_entries([{"op": "mint_gold"}])


def test_invalid_fields_rejected():
    with pytest.raises(MalformedLog, match="bad fields"):
        replay_entries([{"op": "transfer", "src": "a"}])


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(MalformedLog, match="empty transaction log file"):
        replay_file(path)


def test_garbage_file_rejected(tmp_path):
    path = tmp_path / "garbage.jsonl"
    path.write_text("not json at all\n")
    with pytest.raises(MalformedLog):
        replay_file(path)
