"""Scenario file loading and validation diagnostics."""

import json
import re

import pytest

from slasim.config import config_from_dict, load_config
from slasim.errors import InvalidConfig

VALID = {
    "seed": 42,
    "num_periods": 5,
    "escrow_deposit": 100_000,
    "qci_profiles": [
        {"qci": 1, "priority": 2, "packet_delay_budget_ms": 100, "packet_loss_rate": [1, 100]}
    ],
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
    assert config.qci_profiles[0].packet_loss_rate == (1, 100)
    # echo reproduces the semantic content
    assert config.to_dict()["scps"][0]["label"] == "scp-1"


def test_missing_field_is_named():
    data = valid_dict()
    del data["num_periods"]
    with pytest.raises(InvalidConfig, match="num_periods"):
        config_from_dict(data)


def test_window_outside_horizon_is_named():
    data = valid_dict()
    data["scps"][0]["traffic"]["1"]["degradations"][0]["end"] = 99
    with pytest.raises(InvalidConfig, match=r"degradations\[0\]"):
        config_from_dict(data)


def test_variability_above_one_rejected():
    data = valid_dict()
    data["scps"][0]["traffic"]["1"]["variability"] = [3, 2]
    with pytest.raises(InvalidConfig, match="variability"):
        config_from_dict(data)


def test_duplicate_labels_rejected():
    data = valid_dict()
    data["scps"].append(valid_dict()["scps"][0])
    with pytest.raises(InvalidConfig, match="duplicate label"):
        config_from_dict(data)


def test_traffic_qci_must_be_declared_in_terms():
    data = valid_dict()
    data["scps"][0]["traffic"]["9"] = {"nominal_kb": 100}
    with pytest.raises(InvalidConfig, match="QCI not declared"):
        config_from_dict(data)


def test_mismatched_price_and_throughput_keys():
    data = valid_dict()
    data["scps"][0]["terms"]["price_per_kb"] = {"1": 2, "5": 1}
    with pytest.raises(InvalidConfig, match="terms"):
        config_from_dict(data)


def test_unreadable_file(tmp_path):
    with pytest.raises(InvalidConfig, match="cannot read"):
        load_config(tmp_path / "missing.json")


def test_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(InvalidConfig, match="not valid JSON"):
        load_config(path)


# keys that int() reads as a QCI but that are not its canonical decimal form
NON_CANONICAL_QCI_KEYS = ["01", " 1", "1_0", "+1"]

WINDOW = r"scps\[0\]\.traffic\.1\.degradations\[0\]"
PROFILE = r"qci_profiles\[0\]"


@pytest.mark.parametrize(
    "path, value, named",
    [
        (("scps", 0, "traffic"), [1], "traffic"),
        (("scps", 0, "terms", "agreed_throughput"), [1], "agreed_throughput"),
        (("scps", 0, "terms", "price_per_kb"), "x", "price_per_kb"),
        (("scps",), 5, "scps"),
        (("qci_profiles",), 5, "qci_profiles"),
        (("scps", 0, "traffic", "1", "degradations"), 5, "degradations"),
        # the fields kept from inside those containers are checked too
        (("scps", 0, "traffic", "1", "degradations", 0, "start"), "1", rf"{WINDOW}\.start:"),
        (("scps", 0, "traffic", "1", "degradations", 0, "start"), 1.5, rf"{WINDOW}\.start:"),
        (("scps", 0, "traffic", "1", "degradations", 0, "end"), True, rf"{WINDOW}\.end:"),
        (("scps", 0, "traffic", "1", "degradations", 0, "multiplier"), 5,
         rf"{WINDOW}\.multiplier:"),
        (("scps", 0, "traffic", "1", "variability"), 5, r"traffic\.1\.variability:"),
        (("qci_profiles", 0, "qci"), "x", rf"{PROFILE}\.qci:"),
        (("qci_profiles", 0, "priority"), [], rf"{PROFILE}\.priority:"),
        (("qci_profiles", 0, "packet_delay_budget_ms"), None,
         rf"{PROFILE}\.packet_delay_budget_ms:"),
        (("qci_profiles", 0, "packet_loss_rate"), "ab", rf"{PROFILE}\.packet_loss_rate:"),
        (("qci_profiles", 0, "packet_loss_rate"), [2, 1], rf"{PROFILE}\.packet_loss_rate:"),
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
    ids=["traffic", "agreed_throughput", "price_per_kb", "scps", "qci_profiles", "degradations",
         "window-start-str", "window-start-float", "window-end-bool", "window-multiplier-int",
         "variability-int", "profile-qci", "profile-priority", "profile-delay-budget",
         "profile-loss-rate-str", "profile-loss-rate-above-one", "nominal-kb-2**62"]
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
        config_from_dict(data)


def test_unmonitored_qci_rejected():
    # QCI 5 is agreed but never measured, so it could never breach
    data = valid_dict()
    terms = data["scps"][0]["terms"]
    terms["agreed_throughput"]["5"] = 500
    terms["price_per_kb"]["5"] = 1
    with pytest.raises(InvalidConfig, match=r"scps\[0\]\.traffic: 'scp-1' agrees QCIs \[5\]"):
        config_from_dict(data)


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
        config_from_dict(data)


# a misspelt key would otherwise load silently with the field's default
UNKNOWN_KEYS = [
    ((), "escrow_deposti", r"^escrow_deposti: unknown field"),
    (("scps", 0), "lable", r"^scps\[0\]\.lable: unknown field"),
    (("scps", 0, "terms"), "strike_limt", r"^scps\[0\]\.terms: strike_limt: unknown field"),
    (("scps", 0, "traffic", "1"), "variabilty",
     r"^scps\[0\]\.traffic\.1\.variabilty: unknown field"),
    (("scps", 0, "traffic", "1", "degradations", 0), "multiplyer",
     rf"^{WINDOW}\.multiplyer: unknown field"),
    (("qci_profiles", 0), "priorty", rf"^{PROFILE}\.priorty: unknown field"),
]


@pytest.mark.parametrize(
    "path, key, named", UNKNOWN_KEYS,
    ids=["scenario", "scp", "terms", "traffic", "window", "profile"],
)
def test_unknown_key_is_named(path, key, named):
    data = valid_dict()
    target = data
    for step in path:
        target = target[step]
    target[key] = 1
    with pytest.raises(InvalidConfig, match=named):
        config_from_dict(data)


# a string is iterable, so it must not be read as a list of keys
@pytest.mark.parametrize(
    "path, value, named",
    [
        (("scps", 0, "traffic", "1", "degradations"), ["start"],
         rf"^{WINDOW}: must be an object"),
        (("qci_profiles",), ["qci"], rf"^{PROFILE}: must be an object"),
        (("scps", 0, "terms"), "payment_mode", r"^scps\[0\]\.terms: must be a JSON object"),
    ],
    ids=["window", "profile", "terms"],
)
def test_entry_that_is_not_an_object_is_named(path, value, named):
    data = valid_dict()
    target = data
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    with pytest.raises(InvalidConfig, match=named):
        config_from_dict(data)
