"""Transaction log export, replay and tamper detection."""

import hashlib
import json

import pytest

from conftest import make_flat_terms, make_terms
from test_config import valid_dict
from slasim import Ledger, SlaContract
from slasim.cli import EXIT_OK, cmd_run, setup_run
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


LOGGED_OPS = {
    "create_account",
    "create_contract",
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


def every_op_world():
    """A ledger whose log holds every logged operation, a re-registration included."""
    ledger = Ledger()
    owner = ledger.create_account(100_000, "mno")
    contract = SlaContract(ledger, owner)
    scp = ledger.create_account()  # no label: the ledger names it
    other = ledger.create_account(0, "scp-2")
    contract.register_scp(owner, scp, make_terms())
    contract.register_scp(owner, other, make_flat_terms())
    contract.deposit(owner, 80_000)
    for _ in range(3):  # scp breaches three periods running and is removed
        contract.record_traffic(owner, scp, 1, 500)
        contract.record_traffic_batch(owner, [(scp, 5, 200), (other, 1, 300)])
        contract.throughput_breach(owner, scp, 1, 40)
        contract.close_period(owner)
    contract.register_scp(owner, scp, make_terms(strike_limit=2))  # archives the old record
    contract.record_traffic(owner, scp, 1, 100)
    contract.close_period(owner)
    contract.withdraw(other)
    contract.failsafe_disable(owner)
    contract.withdraw(scp)
    contract.recover_escrow(owner)
    return ledger


def test_every_logged_op_round_trips(tmp_path):
    ledger = every_op_world()
    assert {entry["op"] for entry in ledger.txlog} == LOGGED_OPS
    assert ledger.contracts["sla-0"].archived
    path = tmp_path / "log.jsonl"
    ledger.export_txlog(path)
    _, entries = load_txlog(path)
    assert replay_entries(entries).canonical_state() == ledger.canonical_state()


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_wire_format_is_pinned(tmp_path):
    """The bytes of a run's outputs and of a log holding every op do not drift."""
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(valid_dict()))
    out = tmp_path / "out"
    assert cmd_run(str(config), str(out)) == EXIT_OK
    assert sha256_of(out / "txlog.jsonl") == "20d243d7ba6e1ed3fc0fc853d3e925a5749ccf722cf58952fbdff0bea70345f8"
    assert sha256_of(out / "report.csv") == "31d8e3dfffd1fefa528ec5d864f2387b1fff5205e94ef8b4495db6a27f9143d1"
    assert json.loads((out / "report.json").read_text())["digest"] == "b3f0d5456e375c4d4fe52ed25a10f3c3ed5cce489dc00ca9084dca3d09e2ed65"
    every_op_world().export_txlog(tmp_path / "every_op.jsonl")
    assert sha256_of(tmp_path / "every_op.jsonl") == "6bfacbccbd7ca22d41bf2994df717f5480ae4863d86b120137bf0985bf5f2d87"


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


@pytest.mark.parametrize(
    "entry",
    [
        {"op": "mint_gold"},
        # ledger primitives run inside transactions and are never logged
        {"op": "transfer", "src": "a", "dst": "b", "amount": 1},
        {"op": "append_event", "kind": "Deposit", "subject": "a"},
        {"op": "advance_period"},
    ],
    ids=lambda entry: entry["op"],
)
def test_unknown_op_rejected(entry):
    with pytest.raises(MalformedLog, match="unknown operation"):
        replay_entries([entry])


WORLD = [
    {"op": "create_account", "label": "mno", "balance": 100},
    {"op": "create_contract", "contract": "sla-0", "owner": "mno"},
]


@pytest.mark.parametrize(
    "entry",
    [
        {"op": "deposit", "contract": "sla-0"},
        {"op": "create_account", "label": "a", "balance": -1},
        {"op": "deposit", "contract": "sla-0", "caller": "mno", "amount": 1, "memo": "x"},
        {"op": "create_contract", "owner": "mno"},
    ],
    ids=["missing-field", "negative-balance", "extra-field", "contract-missing-id"],
)
def test_invalid_fields_rejected(entry):
    with pytest.raises(MalformedLog, match=rf"entry 2 \({entry['op']}\): bad fields"):
        replay_entries(WORLD + [entry])


@pytest.mark.parametrize("line", [0, 1], ids=["header", "entry"])
def test_non_utf8_log_rejected(tmp_path, line):
    path = tmp_path / "log.jsonl"
    busy_world().export_txlog(path)
    lines = path.read_bytes().splitlines()
    lines[line] = b"\xff\xfe"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(MalformedLog, match="invalid JSON"):
        replay_file(path)


@pytest.mark.parametrize("count", [999, "missing"])
def test_header_entry_count_is_checked(tmp_path, count):
    path = tmp_path / "log.jsonl"
    busy_world().export_txlog(path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    if count == "missing":
        del header["entries"]
    else:
        header["entries"] = count
    lines[0] = json.dumps(header, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedLog, match=f"the log holds {len(lines) - 1}"):
        replay_file(path)


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
