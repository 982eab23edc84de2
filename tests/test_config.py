"""Scenario file loading and validation diagnostics."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_acceptance import big_scenario_dict
from test_traffic import scenarios
from slasim.config import (
    FLAT_RATE,
    PER_TRAFFIC,
    DegradationWindow,
    ScenarioConfig,
    ScpScenario,
    SlaTerms,
    TrafficModel,
    load_config,
    read,
    to_json,
)
from slasim.errors import InvalidConfig

VALID = {
    "seed": 42,
    "num_periods": 5,
    "escrow_deposit": 100_000,
    "scps": [
        {
            "label": "scp-1",
            "terms": {
                "payment_mode": "per_traffic",
                "price_per_kb": {"1": 2},
                "agreed_throughput": {"1": 1000},
                "penalty_rate": [5, 1],
                "strike_limit": 3,
            },
            "traffic": {
                "1": {
                    "nominal_kb": 1000,
                    "variability": [1, 10],
                    "degradations": [{"start": 1, "end": 3, "multiplier": [1, 2]}],
                }
            },
        }
    ],
}


def valid_dict():
    return json.loads(json.dumps(VALID))


def test_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(VALID))
    config = load_config(path)
    assert config.seed == 42
    assert config.scps[0].terms.price_per_kb == {1: 2}
    assert config.scps[0].traffic[1].degradations[0].multiplier == (1, 2)
    # echo reproduces the semantic content
    assert to_json(config)["scps"][0]["label"] == "scp-1"


# QCIs at 10 and above sort before 9 as JSON keys
@settings(max_examples=60, deadline=None)
@given(config=scenarios(qcis=st.integers(0, 20)))
def test_echo_reads_back(config):
    assert read(ScenarioConfig, json.loads(json.dumps(to_json(config)))) == config


@pytest.mark.parametrize(
    "record", [ScenarioConfig, ScpScenario, TrafficModel, DegradationWindow, SlaTerms],
    ids=lambda record: record.__name__,
)
def test_every_field_is_read_by_a_check(record):
    unchecked = [name for name, spec in record.__dataclass_fields__.items()
                 if not callable(spec.metadata.get("check"))]
    assert unchecked == []


def records_of(config):
    """``(class, record)`` for ``config`` and every record it holds."""
    yield ScenarioConfig, config
    for scp in config.scps:
        yield ScpScenario, scp
        yield SlaTerms, scp.terms
        for model in scp.traffic.values():
            yield TrafficModel, model
            for window in model.degradations:
                yield DegradationWindow, window


def test_every_record_of_the_acceptance_config_reads_back():
    records = list(records_of(read(ScenarioConfig, big_scenario_dict())))
    assert {cls for cls, _ in records} == {
        ScenarioConfig, ScpScenario, SlaTerms, TrafficModel, DegradationWindow
    }
    for cls, record in records:
        assert read(cls, to_json(record)) == record


@st.composite
def valid_terms(draw):
    """Terms built in Python: int QCI keys and a tuple penalty rate, as callers build them."""
    qcis = draw(st.sets(st.integers(0, 300), min_size=1, max_size=4))
    mode = draw(st.sampled_from([PER_TRAFFIC, FLAT_RATE]))
    priced = qcis if mode == PER_TRAFFIC else draw(st.sets(st.integers(0, 300), max_size=2))
    amounts = st.integers(0, 2**70)
    return SlaTerms(
        payment_mode=mode,
        agreed_throughput={qci: draw(amounts) for qci in qcis},
        price_per_kb={qci: draw(amounts) for qci in priced},
        flat_rate_per_period=draw(amounts),
        penalty_rate=(draw(amounts), draw(st.integers(1, 2**70))),
        strike_limit=draw(st.integers(1, 2**70)),
    )


# setup_run registers each provider's to_json(terms), which register_scp reads back
@settings(max_examples=100, deadline=None)
@given(terms=valid_terms())
def test_valid_terms_read_back(terms):
    assert read(SlaTerms, to_json(terms)) == terms


def built_in_python(data):
    """``data``'s scenario constructed from its read providers, never read as a whole."""
    return ScenarioConfig(**{**data, "scps": [read(ScpScenario, scp) for scp in data["scps"]]})


def add_second_provider(data):
    data["scps"].append(valid_dict()["scps"][0])


def move_window_past_the_end(data):
    data["scps"][0]["traffic"]["1"]["degradations"][0]["end"] = data["num_periods"]


def add_unagreed_traffic(data):
    data["scps"][0]["traffic"]["9"] = {"nominal_kb": 100}


def agree_unmonitored_qci(data):
    data["scps"][0]["terms"]["agreed_throughput"]["9"] = 100
    data["scps"][0]["terms"]["price_per_kb"]["9"] = 1


@pytest.mark.parametrize(
    "edit, message",
    [
        (add_second_provider, r"^scps\[1\]\.label: duplicate label 'scp-1'$"),
        (move_window_past_the_end,
         rf"^{re.escape('scps[0].traffic.1.degradations[0]: window [1, 5] outside [0, 5)')}$"),
        (add_unagreed_traffic, r"^scps\[0\]\.traffic\.9: QCI not declared in terms$"),
        (agree_unmonitored_qci, r"^scps\[0\]\.traffic: 'scp-1' agrees QCIs \[9\] with no"),
    ],
    ids=["duplicate-label", "window-past-the-end", "unagreed-traffic", "unmonitored-agreement"],
)
def test_scenario_built_in_python_is_checked(edit, message):
    """A scenario's own rules hold however it is built, with the loaded scenario's message."""
    data = valid_dict()
    assert built_in_python(data) == read(ScenarioConfig, data)
    edit(data)
    with pytest.raises(InvalidConfig, match=message) as loaded:
        read(ScenarioConfig, data)
    with pytest.raises(InvalidConfig) as built:
        built_in_python(data)
    assert str(built.value) == str(loaded.value)


def test_missing_field_is_named():
    data = valid_dict()
    del data["num_periods"]
    with pytest.raises(InvalidConfig, match="num_periods"):
        read(ScenarioConfig, data)


def test_window_outside_horizon_is_named():
    data = valid_dict()
    data["scps"][0]["traffic"]["1"]["degradations"][0]["end"] = 99
    with pytest.raises(InvalidConfig, match=r"degradations\[0\]"):
        read(ScenarioConfig, data)


def test_variability_above_one_rejected():
    data = valid_dict()
    data["scps"][0]["traffic"]["1"]["variability"] = [3, 2]
    with pytest.raises(InvalidConfig, match="variability"):
        read(ScenarioConfig, data)


def test_duplicate_labels_rejected():
    data = valid_dict()
    data["scps"].append(valid_dict()["scps"][0])
    with pytest.raises(InvalidConfig, match="duplicate label"):
        read(ScenarioConfig, data)


def test_traffic_qci_must_be_declared_in_terms():
    data = valid_dict()
    data["scps"][0]["traffic"]["9"] = {"nominal_kb": 100}
    with pytest.raises(InvalidConfig, match="QCI not declared"):
        read(ScenarioConfig, data)


def test_mismatched_price_and_throughput_keys():
    data = valid_dict()
    data["scps"][0]["terms"]["price_per_kb"] = {"1": 2, "5": 1}
    with pytest.raises(InvalidConfig, match="terms"):
        read(ScenarioConfig, data)


def test_unreadable_file(tmp_path):
    with pytest.raises(InvalidConfig, match="cannot read"):
        load_config(tmp_path / "missing.json")


def test_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(InvalidConfig, match="not valid JSON"):
        load_config(path)


# keys that int() reads but that are not the canonical decimal form of a QCI
NON_CANONICAL_QCI_KEYS = ["01", " 1", "1_0", "+1", "-1"]

WINDOW = r"scps\[0\]\.traffic\.1\.degradations\[0\]"


@pytest.mark.parametrize(
    "path, value, named",
    [
        (("scps", 0, "traffic"), [1], "traffic"),
        (("scps", 0, "terms", "agreed_throughput"), [1], "agreed_throughput"),
        (("scps", 0, "terms", "price_per_kb"), "x", "price_per_kb"),
        (("scps",), 5, "scps"),
        (("scps", 0, "traffic", "1", "degradations"), 5, "degradations"),
        # the fields kept from inside those containers are checked too
        (("scps", 0, "traffic", "1", "degradations", 0, "start"), "1", rf"{WINDOW}\.start:"),
        (("scps", 0, "traffic", "1", "degradations", 0, "start"), 1.5, rf"{WINDOW}\.start:"),
        (("scps", 0, "traffic", "1", "degradations", 0, "end"), True, rf"{WINDOW}\.end:"),
        (("scps", 0, "traffic", "1", "degradations", 0, "multiplier"), 5,
         rf"{WINDOW}\.multiplier:"),
        (("scps", 0, "traffic", "1", "variability"), 5, r"traffic\.1\.variability:"),
        # the trace keeps samples, at most twice nominal_kb, in signed 64-bit slots
        (("scps", 0, "traffic", "1", "nominal_kb"), 2**62,
         r"scps\[0\]\.traffic\.1\.nominal_kb: does not fit in 62 bits"),
    ]
    + [
        # a second key naming QCI 1 would silently replace the first one's value
        (("scps", 0, "terms", name), {"1": 1000, key: 5},
         rf"terms: {name}: QCI key {re.escape(repr(key))}")
        for name in ("agreed_throughput", "price_per_kb")
        for key in NON_CANONICAL_QCI_KEYS
    ]
    + [
        (("scps", 0, "traffic"), {key: {"nominal_kb": 1000}},
         rf"traffic\.{re.escape(key)}: QCI key {re.escape(repr(key))}")
        for key in NON_CANONICAL_QCI_KEYS
    ],
    ids=["traffic", "agreed_throughput", "price_per_kb", "scps", "degradations",
         "window-start-str", "window-start-float", "window-end-bool", "window-multiplier-int",
         "variability-int", "nominal-kb-2**62"]
    + [f"{name}-key-{key!r}" for name in ("agreed_throughput", "price_per_kb", "traffic")
       for key in NON_CANONICAL_QCI_KEYS],
)
def test_wrongly_typed_container_is_named(path, value, named):
    data = valid_dict()
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with pytest.raises(InvalidConfig, match=named):
        read(ScenarioConfig, data)


def test_unmonitored_qci_rejected():
    # QCI 5 is agreed but never measured, so it could never breach
    data = valid_dict()
    terms = data["scps"][0]["terms"]
    terms["agreed_throughput"]["5"] = 500
    terms["price_per_kb"]["5"] = 1
    with pytest.raises(InvalidConfig, match=r"scps\[0\]\.traffic: 'scp-1' agrees QCIs \[5\]"):
        read(ScenarioConfig, data)


# settlement is integer arithmetic, so every amount, rate and limit is an int
NON_INTEGER_TERMS = [
    ("price_per_kb", {"1": 1.5}),
    ("strike_limit", 2.5),
    ("agreed_throughput", {"1": True}),
    ("penalty_rate", [1.5, 1]),
    ("flat_rate_per_period", True),
]


@pytest.mark.parametrize(
    "name, value", NON_INTEGER_TERMS, ids=[name for name, _ in NON_INTEGER_TERMS]
)
def test_non_integer_term_rejected(name, value):
    data = valid_dict()
    data["scps"][0]["terms"][name] = value
    with pytest.raises(InvalidConfig, match=rf"scps\[0\]\.terms: .*{name}"):
        read(ScenarioConfig, data)


# a misspelt key would otherwise load silently with the field's default
UNKNOWN_KEYS = [
    ((), "escrow_deposti", r"^escrow_deposti: unknown field"),
    (("scps", 0), "lable", r"^scps\[0\]\.lable: unknown field"),
    (("scps", 0, "terms"), "strike_limt", r"^scps\[0\]\.terms: strike_limt: unknown field"),
    (("scps", 0, "traffic", "1"), "variabilty",
     r"^scps\[0\]\.traffic\.1\.variabilty: unknown field"),
    (("scps", 0, "traffic", "1", "degradations", 0), "multiplyer",
     rf"^{WINDOW}\.multiplyer: unknown field"),
    # QCI profiles were informational metadata that settlement never read
    ((), "qci_profiles", r"^qci_profiles: unknown field"),
]


@pytest.mark.parametrize(
    "path, key, named", UNKNOWN_KEYS,
    ids=["scenario", "scp", "terms", "traffic", "window", "qci_profiles"],
)
def test_unknown_key_is_named(path, key, named):
    data = valid_dict()
    target = data
    for step in path:
        target = target[step]
    target[key] = 1
    with pytest.raises(InvalidConfig, match=named):
        read(ScenarioConfig, data)


# a string is iterable, so it must not be read as a list of keys
@pytest.mark.parametrize(
    "path, value, named",
    [
        (("scps", 0, "traffic", "1", "degradations"), ["start"],
         rf"^{WINDOW}: must be an object"),
        (("scps", 0, "terms"), "payment_mode", r"^scps\[0\]\.terms: must be a JSON object"),
    ],
    ids=["window", "terms"],
)
def test_entry_that_is_not_an_object_is_named(path, value, named):
    data = valid_dict()
    target = data
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    with pytest.raises(InvalidConfig, match=named):
        read(ScenarioConfig, data)
