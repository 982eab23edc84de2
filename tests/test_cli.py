"""CLI contract: commands, exit codes, output files."""

import csv
import errno
import itertools
import json
from types import SimpleNamespace

import pytest

from test_config import VALID
from slasim import ledger, report
from slasim.cli import (
    EXIT_ABORT,
    EXIT_INVALID,
    EXIT_OK,
    REPORT_CSV,
    REPORT_JSON,
    TXLOG_FILE,
    main,
)


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(VALID))
    return path


def run_cli(*args):
    return main([str(a) for a in args])


def test_run_writes_three_files(config_file, tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--config", config_file, "--out", out) == EXIT_OK
    for name in (REPORT_JSON, REPORT_CSV, TXLOG_FILE):
        assert (out / name).exists()


def test_malformed_config_names_field(tmp_path, capsys):
    bad = json.loads(json.dumps(VALID))
    del bad["escrow_deposit"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert run_cli("run", "--config", path, "--out", tmp_path / "out") == EXIT_INVALID
    assert "escrow_deposit" in capsys.readouterr().err


def test_wrongly_typed_config_field_is_invalid(tmp_path, capsys):
    bad = json.loads(json.dumps(VALID))
    bad["scps"][0]["traffic"] = [1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert run_cli("run", "--config", path, "--out", tmp_path / "out") == EXIT_INVALID
    assert "scps[0].traffic: must be an object" in capsys.readouterr().err


def test_non_integer_window_start_is_invalid(tmp_path, capsys):
    bad = json.loads(json.dumps(VALID))
    bad["scps"][0]["traffic"]["1"]["degradations"][0]["start"] = "1"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert run_cli("run", "--config", path, "--out", tmp_path / "out") == EXIT_INVALID
    err = capsys.readouterr().err
    assert "scps[0].traffic.1.degradations[0].start: must be a non-negative integer" in err


def test_seed_override_echoed(config_file, tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--config", config_file, "--out", out, "--seed", 777) == EXIT_OK
    report = json.loads((out / REPORT_JSON).read_text())
    assert report["seed"] == 777
    assert report["config"]["seed"] == 777


@pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "2**64"])
def test_seed_override_out_of_range_is_invalid(config_file, tmp_path, capsys, seed):
    out = tmp_path / "out"
    assert run_cli("run", "--config", config_file, "--out", out, "--seed", seed) == EXIT_INVALID
    assert "invalid config: seed:" in capsys.readouterr().err
    assert not out.exists()


def test_underfunded_scenario_aborts(tmp_path, capsys):
    broke = json.loads(json.dumps(VALID))
    broke["escrow_deposit"] = 10  # cannot cover the first accrual
    path = tmp_path / "broke.json"
    path.write_text(json.dumps(broke))
    assert run_cli("run", "--config", path, "--out", tmp_path / "out") == EXIT_ABORT
    assert "escrow" in capsys.readouterr().err
    # the temporary log has no name, so the aborted run leaves nothing behind
    assert list((tmp_path / "out").iterdir()) == []


def test_replay_unmodified_log(config_file, tmp_path, capsys):
    out = tmp_path / "out"
    run_cli("run", "--config", config_file, "--out", out)
    report = json.loads((out / REPORT_JSON).read_text())
    assert run_cli("replay", "--log", out / TXLOG_FILE) == EXIT_OK
    assert capsys.readouterr().out.strip() == report["digest"]


def test_replay_tampered_log(config_file, tmp_path):
    out = tmp_path / "out"
    run_cli("run", "--config", config_file, "--out", out)
    log = out / TXLOG_FILE
    lines = log.read_text().splitlines()
    for i, line in enumerate(lines[1:], start=1):
        entry = json.loads(line)
        if entry["op"] == "deposit":
            entry["amount"] -= 1
            lines[i] = json.dumps(entry, sort_keys=True)
            break
    log.write_text("\n".join(lines) + "\n")
    assert run_cli("replay", "--log", log) == EXIT_ABORT


def test_replay_tampered_traffic_batch(config_file, tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--config", config_file, "--out", out) == EXIT_OK
    log = out / TXLOG_FILE
    lines = log.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if '"op": "record_traffic"' in line)
    entry = json.loads(lines[i])
    entry["kb"][0] += 1
    lines[i] = json.dumps(entry, sort_keys=True)
    log.write_text("\n".join(lines) + "\n")
    assert run_cli("replay", "--log", log) == EXIT_ABORT


def test_replay_garbage_log(tmp_path):
    log = tmp_path / "junk.jsonl"
    log.write_text("junk\n")
    assert run_cli("replay", "--log", log) == EXIT_INVALID


def test_verify_passes(capsys):
    assert run_cli("verify", "--bound", 6) == EXIT_OK
    err = capsys.readouterr().err
    assert "strike rule" in err
    assert "conservation" in err


def test_verify_bound_zero_is_vacuous():
    assert run_cli("verify", "--bound", 0) == EXIT_OK


def test_verify_bound_over_max_rejected():
    assert run_cli("verify", "--bound", 11) == EXIT_INVALID


def test_csv_and_json_agree(config_file, tmp_path):
    out = tmp_path / "out"
    run_cli("run", "--config", config_file, "--out", out)
    report = json.loads((out / REPORT_JSON).read_text())
    with open(out / REPORT_CSV, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(report["scps"])
    for csv_row, json_row in zip(rows, report["scps"]):
        assert csv_row["scp"] == json_row["scp"]
        for column in ("earned", "penalized", "withdrawn", "final_credit"):
            assert int(csv_row[column]) == json_row[column]
        timeline = [int(s) for s in csv_row["strikes_timeline"].split(";") if s]
        assert timeline == json_row["strikes_timeline"]
        removal = csv_row["removal_period"]
        assert (None if removal == "" else int(removal)) == json_row["removal_period"]


def test_report_json_is_the_indented_encoding(tmp_path):
    """``write_json`` writes C-encoded timelines into the indented encoding of
    the rest; the bytes are those of one indented ``json.dump``."""
    long = [period % 4 for period in range(2 * report._TIMELINE_PIECE + 1)]
    tricky = '"NaN" NaN'  # a label holding the token that marks a timeline's slot
    timelines = {"a": [], "b": [0], tricky: [0, 1, 2], "\u00fc": long}
    rows = {label: report.ScpRow(label, strikes_timeline=t) for label, t in timelines.items()}
    written = report.RunReport(seed=1, config_echo={"scps": [{"label": tricky}]}, rows=rows)
    written.write_json(tmp_path / REPORT_JSON)
    expected = json.dumps(written.to_dict(), indent=2, sort_keys=True) + "\n"
    assert (tmp_path / REPORT_JSON).read_bytes() == expected.encode("utf-8")


def _disk_full():
    return OSError(errno.ENOSPC, "No space left on device")


def _timeline_failing(fh, timeline):
    raise _disk_full()


def _csv_writer_failing_partway(fh):
    fh.write("scp,earned,")
    raise _disk_full()


def _json_dumps_failing_after(allowed):
    calls = itertools.count()

    def dumps(obj, **kwargs):
        if next(calls) >= allowed:
            raise _disk_full()
        return json.dumps(obj, **kwargs)

    return dumps


@pytest.mark.parametrize("target", [REPORT_JSON, REPORT_CSV, TXLOG_FILE])
def test_failed_write_keeps_existing_output(config_file, tmp_path, monkeypatch, capsys, target):
    out = tmp_path / "out"
    assert run_cli("run", "--config", config_file, "--out", out) == EXIT_OK
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    # the encoder writes part of the file, then the disk fills up; report.json's
    # head is written before its first strike timeline
    module, name, encoder = {
        REPORT_JSON: (report, "_write_timeline", _timeline_failing),
        REPORT_CSV: (report, "csv", SimpleNamespace(writer=_csv_writer_failing_partway)),
        # each entry is written as it is logged: setup_run logs five entries and
        # the sixth, the first period's traffic, fails inside drive
        TXLOG_FILE: (ledger, "json", SimpleNamespace(dumps=_json_dumps_failing_after(5))),
    }[target]
    monkeypatch.setattr(module, name, encoder)
    assert run_cli("run", "--config", config_file, "--out", out) == EXIT_ABORT
    assert "cannot write outputs" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def _copy_failing_partway(src, dst):
    dst.write(src.read(100))
    raise _disk_full()


def test_failed_txlog_copy_keeps_existing_output(config_file, tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    assert run_cli("run", "--config", config_file, "--out", out) == EXIT_OK
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    # the logged entries are copied behind the header; the disk fills up partway
    monkeypatch.setattr(ledger, "shutil", SimpleNamespace(copyfileobj=_copy_failing_partway))
    assert run_cli("run", "--config", config_file, "--out", out) == EXIT_ABORT
    assert "cannot write outputs" in capsys.readouterr().err
    # byte-identical, and neither the half-written txlog.jsonl nor the unnamed log is left
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
