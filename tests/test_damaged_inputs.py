"""Damaged inputs: a smoke run's log and config, broken at random, through ``cli.main``.

Each example damages the file once or twice: it drops, duplicates or swaps
lines, truncates a line, flips one byte, splices a hostile value in for any
value (deep nesting, a 5,000-digit integer, ``NaN``, ``1e400``, ``-0``, a
lone surrogate, a duplicated key) or re-spaces a line.  Whatever the damage,
the command ends with a defined exit code and one line of diagnostics, never
a traceback; a damaged log replays only if it holds the original's entries.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import smoke_scenario
from slasim.cli import EXIT_ABORT, EXIT_INVALID, EXIT_OK, TXLOG_FILE, main

# each exit code's one line of stderr, by its start
REPLAY_DIAGNOSTICS = {EXIT_OK: "", EXIT_INVALID: "malformed log: ",
                      EXIT_ABORT: "digest mismatch: "}
RUN_DIAGNOSTICS = {EXIT_OK: "run complete: digest ", EXIT_INVALID: "invalid config: ",
                   EXIT_ABORT: "run aborted: "}

DUPLICATE_KEY = object()  # splices the value's key and value in once more
HOSTILE = [
    "[" * 100_000 + "]" * 100_000,
    "9" * 5_000,
    "NaN",
    "1e400",
    "-0",
    '"\\ud800"',
    DUPLICATE_KEY,
]


def outage_scenario():
    """The smoke scenario, with an outage of one stream that removes its
    provider, so the log holds every kind of entry ``run`` writes."""
    config = smoke_scenario()
    config["scps"][1]["traffic"]["1"]["degradations"] = [
        {"start": 5, "end": 9, "multiplier": [0, 1]}]
    return config


def cli(*args):
    """``main``'s exit code, stdout and stderr; an exception propagates as the traceback it is."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(arg) for arg in args])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """The smoke config's text, its run's log bytes, and a directory for damaged copies."""
    root = tmp_path_factory.mktemp("smoke")
    config = root / "scenario.json"
    config.write_text(json.dumps(outage_scenario(), indent=2) + "\n")
    code, _, err = cli("run", "--config", config, "--out", root / "out")
    assert code == EXIT_OK, err
    log = (root / "out" / TXLOG_FILE).read_bytes()
    assert {json.loads(line).get("op") for line in log.splitlines()} >= {
        "create_account", "create_contract", "register_scp", "deposit", "record_traffic",
        "throughput_breach", "close_period", "withdraw"}
    return config.read_bytes(), log, root


def value_paths(value, path=()):
    """The path of ``value`` and of every value inside it."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from value_paths(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from value_paths(item, path + (index,))


def splice(text, document, draw, indent):
    """``text``, the JSON value ``document``, with a hostile value in place of one inside it."""
    paths = list(value_paths(document))
    hostile = draw(st.sampled_from(HOSTILE))
    if hostile is DUPLICATE_KEY:
        paths = [path for path in paths if path and isinstance(path[-1], str)]
        if not paths:
            return text
    path = draw(st.sampled_from(paths))
    if not path:
        return hostile
    *parents, last = path
    holder = document
    for key in parents:
        holder = holder[key]
    if hostile is DUPLICATE_KEY:
        value = json.dumps(holder[last])
        hostile = f"{value},{json.dumps(last)}:{value}"
    slot = "\0slot\0"
    holder[last] = slot
    encoded = json.dumps(document, indent=indent, separators=None if indent else (",", ":"))
    return encoded.replace(json.dumps(slot), hostile, 1)


def damage(data, draw, indent):
    """``data`` damaged once in one of the ways the module lists."""
    lines = data.split(b"\n")
    way = draw(st.sampled_from(["drop", "duplicate", "swap", "truncate", "flip", "splice",
                                "respace"]))
    if way == "flip":
        position = draw(st.integers(0, len(data) - 1))
        flipped = bytes([data[position] ^ draw(st.integers(1, 255))])
        return data[:position] + flipped + data[position + 1:]
    i = draw(st.integers(0, len(lines) - 1))
    if way == "drop":
        del lines[i]
    elif way == "duplicate":
        lines.insert(i, lines[i])
    elif way == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    elif way == "truncate":
        lines[i] = lines[i][:draw(st.integers(0, max(len(lines[i]) - 1, 0)))]
    else:
        target = data if indent else lines[i]  # the config is one JSON value over many lines
        try:
            text = target.decode("utf-8")
            document = json.loads(text)
        except (ValueError, RecursionError):  # an earlier damage left no JSON value here
            return data
        if way == "splice":
            text = splice(text, document, draw, indent)
        else:  # whitespace between JSON values carries no meaning
            text = json.dumps(document, indent=2 * indent if indent else None)
        if indent:
            return text.encode()
        lines[i] = text.encode()
    return b"\n".join(lines)


def parsed(log):
    """Every JSON value of the log's non-blank lines, or None if one does not parse."""
    try:
        return [json.loads(line) for line in log.decode("utf-8").split("\n") if line.strip()]
    except (ValueError, RecursionError):
        return None


def unseen(entries, paid):
    """``entries`` as the header's state digest sees them, sorted.

    The digest commits to the final state, not to the log itself, so a swap
    of two entries that commute passes unseen (one provider's registration
    and the next one's account, or two periods' kb vectors), and so do kb
    values that no payout depends on: those of a stream whose provider the
    period's breach batch removes.  Only the outage's provider is removed,
    and its streams follow the other's ``paid`` streams in every kb vector,
    so only those leading values are kept.  Paid kb changes whose payouts
    cancel would pass unseen too; one or two damages all but never make them.
    """
    if entries is None:
        return None
    seen = []
    for entry in entries:
        if isinstance(entry, dict) and entry.get("op") == "record_traffic" and isinstance(
                entry.get("kb"), list):
            entry = {**entry, "kb": entry["kb"][:paid], "width": len(entry["kb"])}
        seen.append(json.dumps(entry, sort_keys=True))
    return sorted(seen)


def assert_one_line(code, err, diagnostics):
    """The exit code is defined, and stderr is its one line, or nothing if it has none."""
    assert code in diagnostics, err
    assert err.startswith(diagnostics[code]), err
    assert err.count("\n") == (1 if diagnostics[code] else 0) and "Traceback" not in err, err


# each example runs the CLI in-process on files the module fixture made
EXAMPLES = settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@EXAMPLES
@given(data=st.data())
def test_damaged_log_is_replayed_only_if_its_entries_are_the_originals(smoke, data):
    config, log, root = smoke
    damaged = log
    for _ in range(data.draw(st.integers(1, 2))):
        damaged = damage(damaged, data.draw, indent=None)
    path = root / "damaged.jsonl"
    path.write_bytes(damaged)
    code, out, err = cli("replay", "--log", path)
    assert_one_line(code, err, REPLAY_DIAGNOSTICS)
    if code == EXIT_OK:
        assert out == json.loads(log.split(b"\n")[0])["digest"] + "\n"
        paid = len(json.loads(config)["scps"][0]["traffic"])
        assert unseen(parsed(damaged), paid) == unseen(parsed(log), paid)


@EXAMPLES
@given(data=st.data())
def test_damaged_config_is_run_or_refused_in_one_line(smoke, data):
    config, _, root = smoke
    damaged = config
    for _ in range(data.draw(st.integers(1, 2))):
        damaged = damage(damaged, data.draw, indent=2)
    with tempfile.TemporaryDirectory(dir=root) as scratch:
        path, out = Path(scratch) / "damaged.json", Path(scratch) / "out"
        path.write_bytes(damaged)
        code, _, err = cli("run", "--config", path, "--out", out)
        assert_one_line(code, err, RUN_DIAGNOSTICS)
        # a run that fails leaves no directory it created
        assert out.exists() == (code == EXIT_OK)
