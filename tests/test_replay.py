"""Transaction log export, replay and tamper detection."""

import gc
import hashlib
import io
import json
import re
import warnings

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import breach, entries_of, folded_run, make_flat_terms, make_terms
from test_config import NON_CANONICAL_QCI_KEYS, NON_INTEGER_TERMS, valid_dict
from test_ledger import documented_events_state
import slasim.contract
from slasim import Ledger, SlaContract, replay
from slasim.cli import EXIT_ABORT, EXIT_OK, cmd_run
from slasim.config import ScenarioConfig, read, to_json
from slasim.errors import DigestMismatch, MalformedLog
from slasim.ledger import EventRecord
from slasim.replay import load_txlog, replay_entries, replay_file
from slasim.traffic import drive


def busy_world():
    ledger = Ledger(io.StringIO())
    owner = ledger.create_account(100_000, "mno")
    contract = SlaContract(ledger, owner)
    scp = ledger.create_account(0, "scp-1")
    contract.register_scp(owner, scp, to_json(make_terms()))
    contract.deposit(owner, 80_000)
    for period in range(4):
        contract.record_traffic(owner, [500 + period, 0])
        if period == 2:
            breach(contract, scp, 1, 40)
        contract.close_period(owner)
    contract.withdraw(scp)
    return ledger


def test_empty_log_replays_to_fresh_digest(tmp_path):
    path = tmp_path / "empty.jsonl"
    Ledger(io.StringIO()).export_txlog(path)
    assert replay_file(path) == Ledger().state_digest()


def test_ledger_without_log_exports_nothing(tmp_path):
    ledger = Ledger()
    ledger.create_account(10, "mno")
    with pytest.raises(ValueError, match="this ledger keeps no log"):
        ledger.export_txlog(tmp_path / "log.jsonl")
    assert list(tmp_path.iterdir()) == []  # neither the log nor a temporary file


def test_roundtrip(tmp_path):
    ledger = busy_world()
    path = tmp_path / "log.jsonl"
    exported = ledger.export_txlog(path)
    assert replay_file(path) == exported


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
            entry["kb"][0] += 1
            lines[i] = json.dumps(entry, sort_keys=True)
            break
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DigestMismatch):
        replay_file(path)


def test_tampered_deficit_is_detected(tmp_path):
    ledger = busy_world()
    path = tmp_path / "log.jsonl"
    ledger.export_txlog(path)
    lines = path.read_text().splitlines()
    [i] = [i for i, line in enumerate(lines) if json.loads(line).get("op") == "throughput_breach"]
    entry = json.loads(lines[i])
    assert entry["breaches"] == [[0, 40]]
    entry["breaches"][0][1] += 1
    lines[i] = json.dumps(entry, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DigestMismatch):
        replay_file(path)


def every_op_world(ledger=None):
    """A ledger whose log holds every logged operation, a re-registration included."""
    ledger = Ledger(io.StringIO()) if ledger is None else ledger
    owner = ledger.create_account(100_000, "mno")
    contract = SlaContract(ledger, owner)
    scp = ledger.create_account(0, "acct-0")
    other = ledger.create_account(0, "scp-2")
    contract.register_scp(owner, scp, to_json(make_terms()))
    contract.register_scp(owner, other, to_json(make_flat_terms()))
    contract.deposit(owner, 80_000)
    # streams: (scp, 1), (scp, 5), (other, 1); "acct-0" sorts before "scp-2"
    for _ in range(3):  # scp breaches three periods running and is removed
        contract.record_traffic(owner, [500, 0, 0])
        contract.record_traffic(owner, [0, 200, 300])
        breach(contract, scp, 1, 40)
        contract.close_period(owner)
    # archives the old record
    contract.register_scp(owner, scp, to_json(make_terms(strike_limit=2)))
    contract.record_traffic(owner, [100, 0, 0])
    contract.close_period(owner)
    contract.withdraw(other)
    contract.failsafe_disable(owner)
    contract.withdraw(scp)  # the fresh record's credit and the archived one's
    contract.recover_escrow(owner)
    assert contract.escrow == 0
    return ledger


def test_every_logged_op_round_trips(tmp_path):
    ledger = every_op_world()
    # every op replay dispatches is logged, and every logged op is dispatched
    logged = {entry["op"] for entry in entries_of(ledger)}
    assert logged == replay.CONTRACT_OPS | {"create_contract", "create_account"}
    assert ledger.contracts["sla-0"].archived
    path = tmp_path / "log.jsonl"
    ledger.export_txlog(path)
    _, entries = load_txlog(path)
    assert replay_entries(entries).canonical_state() == ledger.canonical_state()


def test_replay_reads_and_echoes_each_registration_once(tmp_path, monkeypatch):
    """Replay hands each logged ``terms`` to ``register_scp`` as it stands: the
    contract reads it once and echoes it once, and a state digest echoes nothing."""
    ledger = every_op_world()
    registrations = sum(entry["op"] == "register_scp" for entry in entries_of(ledger))
    assert registrations == 3  # two providers and one re-registration
    path = tmp_path / "log.jsonl"
    ledger.export_txlog(path)
    calls = dict.fromkeys(("read", "to_json"), 0)

    def counted(name):
        real = getattr(slasim.contract, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(slasim.contract, name, counted(name))
    header, entries = load_txlog(path)
    replayed = replay_entries(entries)
    assert calls == {"read": registrations, "to_json": registrations}
    assert replayed.state_digest() == header["digest"]
    assert calls == {"read": registrations, "to_json": registrations}


def test_replay_keeps_no_log(tmp_path):
    ledger = every_op_world()
    path = tmp_path / "log.jsonl"
    ledger.export_txlog(path)
    header, entries = load_txlog(path)
    replayed = replay_entries(entries)
    assert replayed.txlog is None
    assert replayed.num_entries == header["entries"] == ledger.num_entries
    assert replayed.canonical_state() == ledger.canonical_state()


def test_sink_ledger_equals_list_ledger_on_every_op():
    """A sink only hears the events: the ledger's log, state and digest are the same."""
    heard = []
    streamed, sinkless = every_op_world(Ledger(io.StringIO(), heard.append)), every_op_world()
    assert streamed.txlog.getvalue() == sinkless.txlog.getvalue() != ""
    assert streamed.canonical_state() == sinkless.canonical_state()
    assert streamed.state_digest() == sinkless.state_digest()
    assert sinkless.canonical_state()["events"] == documented_events_state(heard)


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_wire_format_is_pinned(tmp_path):
    """The bytes of a run's outputs and of a log holding every op do not drift."""
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(valid_dict()))
    out = tmp_path / "out"
    assert cmd_run(str(config), str(out)) == EXIT_OK
    assert sha256_of(out / "txlog.jsonl") == "af903522c1dc8608a4cb643793ad16d03dd77c66351d377ca5e5355f75ca9174"
    assert sha256_of(out / "report.csv") == "31d8e3dfffd1fefa528ec5d864f2387b1fff5205e94ef8b4495db6a27f9143d1"
    assert json.loads((out / "report.json").read_text())["digest"] == "b3f0d5456e375c4d4fe52ed25a10f3c3ed5cce489dc00ca9084dca3d09e2ed65"
    every_op_world().export_txlog(tmp_path / "every_op.jsonl")
    assert sha256_of(tmp_path / "every_op.jsonl") == "9ab53652bcb75e7c009d8d2208529c621f08e02595dcbef9cf7a3b10956a958b"


def test_spaced_log_of_the_same_version_replays(tmp_path):
    """A v6 log whose lines carry a space after each ``,`` and ``:`` replays the same."""
    ledger = every_op_world()
    path = tmp_path / "every_op.jsonl"
    digest = ledger.export_txlog(path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    spaced = tmp_path / "spaced.jsonl"
    spaced.write_text("".join(json.dumps(line, sort_keys=True) + "\n" for line in lines))
    # the bytes the ledger wrote before its lines were compact
    assert sha256_of(spaced) == "2d1610333e82742349ee9894f21827104836cc102004510d1b5dbdaf0c0d54b0"
    assert lines[0]["version"] == 6
    assert replay_file(spaced) == digest


class OracleLedger(Ledger):
    """A ledger that also keeps each entry as ``json.dumps`` encodes the call."""

    def __init__(self) -> None:
        super().__init__(io.StringIO())
        self.expected = []

    def _log(self, op, **fields):
        self.expected.append(
            json.dumps({"op": op, **fields}, sort_keys=True, separators=(",", ":"))
        )
        super()._log(op, **fields)


# quotes, backslashes, control characters, "%" and non-ASCII text
LABELS = st.text(
    st.sampled_from('"\\%\x00\x1f\n\x7f\u00e9\u2028\U0001f4e1a:'), min_size=1, max_size=6
)
AMOUNTS = st.integers(4, 2**63 - 1)


@settings(max_examples=60, deadline=None)
@given(
    labels=st.lists(LABELS, min_size=3, max_size=3, unique=True),
    contract_id=LABELS,
    amounts=st.lists(AMOUNTS, min_size=3, max_size=3).map(sorted),
    kb=st.integers(0, 2**63 - 1),
    deficit=AMOUNTS,
)
def test_every_line_is_the_compact_json_of_its_call(labels, contract_id, amounts, kb, deficit):
    owner_label, scp_label, other_label = labels
    assume(f"{contract_id}:escrow" not in labels)
    least, deposit, balance = amounts
    rate = min(least, deposit // 4)  # the escrow covers two periods' payouts
    ledger = OracleLedger()
    owner = ledger.create_account(balance, owner_label)
    contract = SlaContract(ledger, owner, contract_id=contract_id)
    scp = ledger.create_account(0, scp_label)
    other = ledger.create_account(0, other_label)
    contract.register_scp(owner, scp, to_json(make_flat_terms(rate)))
    contract.register_scp(owner, other, to_json(make_flat_terms(rate)))
    contract.deposit(owner, deposit)
    contract.record_traffic(owner, [kb] * contract.num_streams)
    contract.close_period(owner)
    contract.withdraw(scp)
    contract.record_traffic(owner, [kb] * contract.num_streams)
    breach(contract, scp, 1, deficit)
    contract.close_period(owner)
    contract.failsafe_disable(owner)
    contract.recover_escrow(owner)
    lines = ledger.txlog.getvalue().split("\n")
    assert lines.pop() == ""
    assert lines == ledger.expected
    logged = {json.loads(line)["op"] for line in lines}
    assert logged == replay.CONTRACT_OPS | {"create_contract", "create_account"}
    assert replay_entries(map(json.loads, lines)).state_digest() == ledger.state_digest()


def test_run_log_equals_in_memory_log(tmp_path):
    """``run`` logs to a temporary file; a ledger logging to memory exports the same bytes."""
    data = valid_dict()
    # no breach for 600 periods, so the log outgrows one copy chunk
    data["num_periods"] = 600
    data["escrow_deposit"] = 10**7
    data["scps"][0]["terms"]["agreed_throughput"] = {"1": 0}
    data["scps"][0]["traffic"]["1"]["degradations"] = []
    broke = valid_dict()
    broke["escrow_deposit"] = 10  # cannot cover the first accrual
    for name, scenario, code in (("full", data, EXIT_OK), ("broke", broke, EXIT_ABORT)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(scenario))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert cmd_run(str(path), str(tmp_path / name)) == code
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    config = read(ScenarioConfig, data)
    ledger, contract, fold = folded_run(config, io.StringIO())
    drive(ledger, contract, config, fold)
    ledger.export_txlog(tmp_path / "in_memory.jsonl")
    run_log = (tmp_path / "full" / "txlog.jsonl").read_bytes()
    assert len(run_log) > 2**16
    assert run_log == (tmp_path / "in_memory.jsonl").read_bytes()


def test_streamed_run_equals_in_memory_run(tmp_path):
    """``run`` logs to a temporary file and folds its events as they pass; a run
    logging to memory reports the same."""
    data = valid_dict()
    data["num_periods"] = 700
    data["escrow_deposit"] = 10**8
    for label in ("scp-2", "scp-3"):  # never breach: a payout every period
        scp = valid_dict()["scps"][0]
        scp["label"] = label
        scp["terms"]["agreed_throughput"] = {"1": 0}
        data["scps"].append(scp)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert cmd_run(str(path), str(tmp_path / "streamed")) == EXIT_OK
    config = read(ScenarioConfig, data)
    ledger, contract, fold = folded_run(config, io.StringIO())
    report = drive(ledger, contract, config, fold)
    assert report.rows["scp-1"].removal_period is not None
    assert report.num_events > 1000
    in_memory = tmp_path / "in_memory"
    in_memory.mkdir()
    report.digest = ledger.export_txlog(in_memory / "txlog.jsonl")
    assert report.digest == ledger.state_digest()
    report.write_json(in_memory / "report.json")
    report.write_csv(in_memory / "report.csv")
    for name in ("report.json", "report.csv", "txlog.jsonl"):
        assert (tmp_path / "streamed" / name).read_bytes() == (in_memory / name).read_bytes()
    # replay builds no EventRecord, since it passes no sink, and its running
    # SHA-256 covers every event when the last operation returns
    del ledger, contract, report
    gc.collect()
    before = sum(isinstance(o, EventRecord) for o in gc.get_objects())
    _, entries = load_txlog(tmp_path / "streamed" / "txlog.jsonl")
    replayed = replay_entries(entries)
    gc.collect()
    held = sum(isinstance(o, EventRecord) for o in gc.get_objects()) - before
    assert replayed.num_events == len(fold.events) > 1000
    assert replayed._events_hash.hexdigest() == documented_events_state(fold.events)["sha256"]
    assert held == 0


def driven_log(tmp_path):
    """Export the log of a drive run: scp-1 is removed in period 3 of 5."""
    config = read(ScenarioConfig, valid_dict())
    ledger, contract, fold = folded_run(config, io.StringIO())
    report = drive(ledger, contract, config, fold)
    path = tmp_path / "driven.jsonl"
    ledger.export_txlog(path)
    return path, report


def test_drive_logs_one_traffic_entry_per_period(tmp_path):
    path, report = driven_log(tmp_path)
    _, entries = load_txlog(path)
    ops = [entry["op"] for entry in entries]
    # one entry per period while the provider is active, the removal period included
    assert ops.count("record_traffic") == report.rows["scp-1"].removal_period + 1
    assert report.rows["scp-1"].removal_period == 3


def test_tampered_batch_kb_is_detected(tmp_path):
    path, _ = driven_log(tmp_path)
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines[1:], start=1):
        entry = json.loads(line)
        if entry["op"] == "record_traffic":
            entry["kb"][0] += 1
            lines[i] = json.dumps(entry, sort_keys=True)
            break
    else:
        pytest.fail("the driven log has no record_traffic entry")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DigestMismatch):
        replay_file(path)


# the stream order holds scp-1's QCIs 1 and 5 once scp-2 is removed
@pytest.mark.parametrize(
    "bad",
    [[100, 0, 100], [100, 0, 100, 0], [100, -1]],
    ids=["unknown-qci", "removed-scp", "negative-kb"],
)
def test_bad_batch_sample_rejected_on_replay(tmp_path, bad):
    ledger = Ledger(io.StringIO())
    owner = ledger.create_account(100_000, "mno")
    contract = SlaContract(ledger, owner)
    for label in ("scp-1", "scp-2"):
        contract.register_scp(owner, ledger.create_account(0, label), to_json(make_terms()))
    contract.deposit(owner, 80_000)
    for _ in range(3):  # scp-2 breaches three periods running and is removed
        contract.record_traffic(owner, [500, 0, 500, 0])
        breach(contract, "scp-2", 1, 40)
        contract.close_period(owner)
    path = tmp_path / "log.jsonl"
    ledger.export_txlog(path)
    _, entries = load_txlog(path)
    entries = list(entries)
    entries.append(
        {
            "op": "record_traffic",
            "contract": contract.id,
            "caller": owner,
            "kb": bad,
        }
    )
    with pytest.raises(MalformedLog, match=r"\(record_traffic\): bad fields"):
        replay_entries(entries)


# 6.0 == 6 and True == 1 in Python, but the header fields are integers
@pytest.mark.parametrize("version", [1, 2, 3, 4.0, 4, 5.0, 5, 6.0])
def test_old_log_version_rejected(tmp_path, version):
    path = tmp_path / "log.jsonl"
    busy_world().export_txlog(path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["version"] = version
    lines[0] = json.dumps(header, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    expected = rf"unsupported log version {version} \(expected 6\)"
    with pytest.raises(MalformedLog, match=expected):
        replay_file(path)


@pytest.mark.parametrize(
    "extra", [{"entriez": 7}, {"extra": {"x": 1}}], ids=["misspelt-entries", "extra"]
)
def test_unknown_header_key_rejected_before_any_entry(tmp_path, extra):
    path = tmp_path / "log.jsonl"
    one_entry_world().export_txlog(path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header.update(extra)
    lines[0] = json.dumps(header, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    [key] = extra
    with pytest.raises(MalformedLog, match=f"unknown header key '{key}'"):
        load_txlog(path)  # reads the header and no entry
    with pytest.raises(MalformedLog, match=f"unknown header key '{key}'"):
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


def decoded(entries):
    """Fresh copies of ``entries``, as a log file's lines decode to: replay consumes them."""
    return [json.loads(json.dumps(entry)) for entry in entries]


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
        replay_entries(decoded([entry]))


WORLD = [
    {"op": "create_account", "label": "mno", "balance": 100},
    {"op": "create_contract", "contract": "sla-0", "owner": "mno"},
]


@pytest.mark.parametrize(
    "entry",
    [
        {"op": "deposit", "contract": "sla-0"},
        {"op": "create_account", "label": "a", "balance": -1},
        # the digest sorts labels and contract ids; 5 does not sort beside a string
        {"op": "create_account", "label": 5, "balance": 0},
        {"op": "deposit", "contract": "sla-0", "caller": "mno", "amount": 1, "memo": "x"},
        {"op": "create_contract", "owner": "mno"},
        {"op": "create_contract", "contract": 5, "owner": "mno"},
        {
            "op": "register_scp", "contract": "sla-0", "caller": "mno", "scp": "mno",
            "terms": {"payment_mode": "flat_rate", "agreed_throughput": [1]},
        },
    ]
    + [
        {
            "op": "register_scp", "contract": "sla-0", "caller": "mno", "scp": "mno",
            "terms": {"payment_mode": "flat_rate", "agreed_throughput": {key: 1000}},
        }
        for key in NON_CANONICAL_QCI_KEYS
    ],
    ids=["missing-field", "negative-balance", "non-string-label", "extra-field",
         "contract-missing-id", "non-string-contract-id", "terms-not-object"]
    + [f"qci-key-{key!r}" for key in NON_CANONICAL_QCI_KEYS],
)
def test_invalid_fields_rejected(entry):
    with pytest.raises(MalformedLog, match=rf"entry 2 \({entry['op']}\): bad fields"):
        replay_entries(decoded(WORLD + [entry]))


@pytest.mark.parametrize(
    "name, value", NON_INTEGER_TERMS, ids=[name for name, _ in NON_INTEGER_TERMS]
)
def test_non_integer_term_rejected(name, value):
    terms = valid_dict()["scps"][0]["terms"]
    terms[name] = value
    entry = {"op": "register_scp", "contract": "sla-0", "caller": "mno", "scp": "mno",
             "terms": terms}
    with pytest.raises(MalformedLog, match=rf"entry 2 \(register_scp\): bad fields: .*{name}"):
        replay_entries(decoded(WORLD + [entry]))


def test_unknown_term_rejected():
    terms = valid_dict()["scps"][0]["terms"]
    terms["strike_limt"] = 1
    entry = {"op": "register_scp", "contract": "sla-0", "caller": "mno", "scp": "mno",
             "terms": terms}
    with pytest.raises(MalformedLog, match=r"bad fields: terms: strike_limt: unknown field"):
        replay_entries(decoded(WORLD + [entry]))


@pytest.mark.parametrize(
    "entry",
    [
        {"op": "deposit", "contract": "sla-1", "caller": "mno", "amount": 1},
        {"op": "deposit", "caller": "mno", "amount": 1},
    ],
    ids=["not-created", "none-named"],
)
def test_unknown_contract_rejected(entry):
    message = f"^operation references unknown contract {entry.get('contract')!r}$"
    with pytest.raises(MalformedLog, match=message):
        replay_entries(decoded(WORLD + [entry]))


def test_second_contract_replays(tmp_path):
    """Each contract an entry names is the one its ``create_contract`` built."""
    ledger = Ledger(io.StringIO())
    owner = ledger.create_account(100, "mno")
    SlaContract(ledger, owner)
    second = SlaContract(ledger, owner)
    assert second.id == "sla-1"
    second.deposit(owner, 40)
    path = tmp_path / "log.jsonl"
    ledger.export_txlog(path)
    assert replay_file(path) == ledger.state_digest()
    _, entries = load_txlog(path)
    replayed = replay_entries(entries).contracts
    assert (replayed["sla-0"].escrow, replayed["sla-1"].escrow) == (0, 40)


def test_escrow_account_registration_rejected_on_replay():
    entry = {"op": "register_scp", "contract": "sla-0", "caller": "mno", "scp": "sla-0:escrow",
             "terms": valid_dict()["scps"][0]["terms"]}
    reason = r"entry 2 \(register_scp\): rejected on replay: the escrow account"
    with pytest.raises(MalformedLog, match=reason):
        replay_entries(decoded(WORLD + [entry]))


SCP_WORLD = WORLD + [
    {"op": "create_account", "label": "scp-1", "balance": 0},
    {"op": "register_scp", "contract": "sla-0", "caller": "mno", "scp": "scp-1",
     "terms": valid_dict()["scps"][0]["terms"]},
]


@pytest.mark.parametrize(
    "entry",
    [
        {"op": "record_traffic", "kb": [1.5]},
        {"op": "throughput_breach", "breaches": [[True, 3]]},
        {"op": "throughput_breach", "breaches": [[0, 2.5]]},
        {"op": "record_traffic", "kb": [True]},
    ],
    ids=["float-kb", "bool-stream", "float-deficit", "bool-kb"],
)
def test_non_integer_traffic_rejected(entry):
    entry = {"contract": "sla-0", "caller": "mno", **entry}
    with pytest.raises(MalformedLog, match=rf"entry 4 \({entry['op']}\): bad fields: .*integers"):
        replay_entries(decoded(SCP_WORLD + [entry]))


def test_unsorted_breach_pairs_rejected():
    world = SCP_WORLD + [
        {"op": "create_account", "label": "scp-2", "balance": 0},
        {"op": "register_scp", "contract": "sla-0", "caller": "mno", "scp": "scp-2",
         "terms": valid_dict()["scps"][0]["terms"]},
    ]
    # streams (scp-1, 1) and (scp-2, 1), listed in descending order
    entry = {"op": "throughput_breach", "contract": "sla-0", "caller": "mno",
             "breaches": [[1, 3], [0, 3]]}
    with pytest.raises(MalformedLog, match=r"entry 6 \(throughput_breach\): bad fields: .*ascend"):
        replay_entries(decoded(world + [entry]))


@pytest.mark.parametrize("line", [0, 1], ids=["header", "entry"])
def test_non_utf8_log_rejected(tmp_path, line):
    path = tmp_path / "log.jsonl"
    busy_world().export_txlog(path)
    lines = path.read_bytes().splitlines()
    lines[line] = b"\xff\xfe"
    path.write_bytes(b"\n".join(lines) + b"\n")
    # each line is decoded alone, so the message names it, as for any other bad line
    with pytest.raises(MalformedLog, match=rf"^invalid JSON in transaction log: line {line + 1}: "
                                           r"'utf-8' codec can't decode byte 0xff"):
        replay_file(path)


def one_entry_world():
    ledger = Ledger(io.StringIO())
    ledger.create_account(5, "a")
    return ledger


@pytest.mark.parametrize(
    "world, count, named",
    [
        (busy_world, 999, False),
        (busy_world, "one-less", False),
        (busy_world, "missing", True),
        (busy_world, float, True),
        (one_entry_world, True, True),
    ],
    ids=["999", "one-less", "missing", "float", "true"],
)
def test_header_entry_count_is_checked(tmp_path, world, count, named):
    path = tmp_path / "log.jsonl"
    world().export_txlog(path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    if count == "missing":
        del header["entries"]
    elif count == "one-less":  # the true count minus one
        header["entries"] -= 1
    elif count is float:  # the right count, as a float
        header["entries"] = float(header["entries"])
    else:
        assert count is not True or header["entries"] == 1  # True == 1 in Python
        header["entries"] = count
    lines[0] = json.dumps(header, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    # a count that is no count is named with the header; a wrong count after the last entry
    if named:
        expected = f"header entries {header.get('entries')!r} is not a non-negative integer"
    else:
        expected = f"header counts {header['entries']} entries, the log holds {len(lines) - 1}"
    with pytest.raises(MalformedLog, match=f"^{re.escape(expected)}$"):
        replay_file(path)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("entries", "count", "header entries '{count}' is not a non-negative integer"),
        ("entries", -1, "header entries -1 is not a non-negative integer"),
        ("digest", 5, "header digest 5 is not a string"),
        ("digest", None, "header digest None is not a string"),
    ],
    ids=["entries-string", "entries-negative", "digest-int", "digest-null"],
)
def test_header_is_checked_before_the_first_entry(tmp_path, field, value, message):
    """The first entry names no operation, so only a header check can come first."""
    path = tmp_path / "log.jsonl"
    busy_world().export_txlog(path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    count = header["entries"]
    header[field] = str(count) if value == "count" else value
    lines[:2] = [json.dumps(header, sort_keys=True), json.dumps({"op": "nope"})]
    path.write_text("\n".join(lines) + "\n")
    expected = re.escape(message.format(count=count))
    with pytest.raises(MalformedLog, match=f"^{expected}$"):
        load_txlog(path)  # reads the header and no entry
    with pytest.raises(MalformedLog, match=f"^{expected}$"):
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


@pytest.mark.parametrize(
    "edit",
    [
        lambda line: "  " + line + " \t ",
        lambda line: line + "\n\n   ",  # blank lines after the entry
    ],
    ids=["spaces", "blank-lines"],
)
@pytest.mark.parametrize("final_newline", [True, False])
def test_entry_line_with_whitespace_replays(tmp_path, edit, final_newline):
    ledger = busy_world()
    path = tmp_path / "log.jsonl"
    ledger.export_txlog(path)
    lines = path.read_text().splitlines()
    for i in (1, len(lines) // 2, len(lines) - 1):
        lines[i] = edit(lines[i])
    path.write_text("\n".join(lines) + ("\n" if final_newline else ""))
    assert replay_file(path) == ledger.state_digest()


@pytest.mark.parametrize(
    "edit",
    [
        lambda line: line + " x",
        lambda line: line + "{}",
        lambda line: "\ufeff" + line,
        lambda line: line[:-1],
        lambda line: line[: len(line) // 2],
    ],
    ids=["trailing-garbage", "second-object", "bom", "no-closing-brace", "truncated"],
)
@pytest.mark.parametrize("last", [False, True], ids=["middle", "last-unterminated"])
def test_bad_entry_line_gives_the_json_loads_message(tmp_path, edit, last):
    """The message names what ``json.loads`` finds wrong with the line."""
    path = tmp_path / "log.jsonl"
    busy_world().export_txlog(path)
    lines = path.read_text().splitlines()
    bad = len(lines) - 1 if last else 2
    lines[bad] = edit(lines[bad])
    path.write_text("\n".join(lines) + ("" if last else "\n"))
    with pytest.raises(json.JSONDecodeError) as loads_error:
        json.loads(lines[bad] + ("" if last else "\n"))
    with pytest.raises(MalformedLog) as excinfo:
        replay_file(path)
    message = f"invalid JSON in transaction log: line {bad + 1}: {loads_error.value}"
    assert str(excinfo.value) == message


def test_invalid_json_on_last_line_is_reported_when_reached(tmp_path):
    path = tmp_path / "log.jsonl"
    busy_world().export_txlog(path)
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1][:-1]  # cut the closing brace
    path.write_text("\n".join(lines) + "\n")
    header, entries = load_txlog(path)  # only the header is read here
    assert header["entries"] == len(lines) - 1
    with pytest.raises(MalformedLog, match="invalid JSON in transaction log: "):
        for _ in entries:
            pass
    with pytest.raises(MalformedLog, match="invalid JSON in transaction log: "):
        replay_file(path)


@pytest.mark.parametrize("fault", ["rejected-op", "invalid-json"])
def test_log_rejected_partway_is_closed(tmp_path, monkeypatch, fault):
    path = tmp_path / "log.jsonl"
    busy_world().export_txlog(path)
    lines = path.read_text().splitlines()
    deposit = next(i for i, line in enumerate(lines) if json.loads(line).get("op") == "deposit")
    if fault == "rejected-op":  # more than the owner holds
        entry = json.loads(lines[deposit])
        entry["amount"] = 10**9
        lines[deposit] = json.dumps(entry, sort_keys=True)
        reason = rf"entry {deposit - 1} \(deposit\): rejected on replay"
    else:
        lines[deposit] = "{"
        reason = "invalid JSON in transaction log"
    assert deposit < len(lines) - 2  # entries follow the bad one
    path.write_text("\n".join(lines) + "\n")
    opened = []

    def tracking_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(replay, "open", tracking_open, raising=False)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(MalformedLog, match=reason) as excinfo:
            replay_file(path)
        # closed when replay_file raised, not when the garbage collector frees
        # the frames that the held traceback keeps alive
        assert len(opened) == 1 and opened[0].closed
        del excinfo
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
