"""The program's JSON records: scenarios and SLA terms, read, checked, echoed.

A scenario file is a single JSON object:

    {
      "seed": 42,
      "num_periods": 100,
      "escrow_deposit": 1000000,
      "scps": [
        {
          "label": "scp-001",
          "terms": {
            "payment_mode": "per_traffic",
            "price_per_kb": {"1": 2},
            "agreed_throughput": {"1": 1000},
            "penalty_rate": [5, 1],
            "strike_limit": 3
          },
          "traffic": {
            "1": {"nominal_kb": 1000, "variability": [1, 10],
                  "degradations": [{"start": 10, "end": 20, "multiplier": [1, 2]}]}
          }
        }
      ]
    }

The dataclass fields below are the schema.  A field's name is its JSON key,
its default is the value of a missing key, and its ``metadata["check"]``
reads one JSON value and names the field's path in any error.  ``read``
builds a record from that table and rejects a key the table does not define;
``to_json`` echoes a record field by field.  A record's rules that span its
fields run in its ``__post_init__``, so they hold however it is built, read
or constructed in Python.  ``ScenarioConfig``'s: labels are unique, every QCI
agreed in an SCP's ``terms`` has a ``traffic`` stream and every stream's QCI
is agreed (an unmonitored QCI could never breach), and degradation windows
lie inside ``[0, num_periods)``.  ``SlaTerms``': at least one QCI is agreed,
and a per-traffic price list covers exactly the agreed QCIs.
Rationals are [numerator, denominator] pairs of non-negative integers.
Degradation windows are inclusive on both ends and multipliers compose
multiplicatively with floor rounding.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .errors import InvalidConfig

Rational = Tuple[int, int]
Check = Callable[[object, str], object]  # (JSON value, its path) -> field value

PER_TRAFFIC = "per_traffic"
FLAT_RATE = "flat_rate"


def read(cls, raw: object, where: str = ""):
    """Build a ``cls`` record from the JSON object ``raw`` through its field table.

    ``where`` prefixes each field's path: ``""`` at top level, ``"scps[0]."``
    inside a scenario, ``"scps[0].terms: "`` for terms, whose messages read as
    replay's do.
    """
    if type(raw) is not dict:  # a string is iterable: never read it as keys
        raise InvalidConfig(f"{where or 'top level: '}must be a JSON object")
    table = cls.__dataclass_fields__
    if not raw.keys() <= table.keys():
        unknown = next(key for key in raw if key not in table)
        raise InvalidConfig(f"{where}{unknown}: unknown field")
    values = {}
    for name, spec in table.items():
        if name in raw:
            values[name] = spec.metadata["check"](raw[name], where + name)
        elif spec.default is MISSING and spec.default_factory is MISSING:
            raise InvalidConfig(f"{where}{name}: missing required field")
    try:
        return cls(**values)
    except InvalidConfig as exc:  # a rule across the record's own fields
        raise InvalidConfig(f"{where}{exc}") from None


def unique_keys(pairs: List[Tuple[str, object]]) -> dict:
    """``json``'s ``object_pairs_hook`` for every reader: an object that names a
    key twice is refused, as readers disagree on which value it keeps (RFC 8259 §4)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"duplicate key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


def to_json(value):
    """A record's JSON echo: fields by name, QCI keys as strings, pairs as arrays."""
    kind = type(value)
    if kind is int or kind is str:
        return value
    if kind is dict:
        return {str(key): to_json(item) for key, item in value.items()}
    if kind is list or kind is tuple:
        return list(map(to_json, value))
    table = getattr(kind, "__dataclass_fields__", None)
    if table is None:
        return value
    return {name: to_json(getattr(value, name)) for name in table}


def _checked(check: Check, **default):
    """A field read by ``check``; ``default`` is a ``default=`` or ``default_factory=``."""
    return field(metadata={"check": check}, **default)


def _uint(bits: Optional[int] = None, least: int = 0) -> Check:
    """An ``int``, never a ``bool``: at least ``least`` and, given ``bits``, below 2**bits."""

    def check(value, path):
        if type(value) is not int or value < least:
            bound = "a non-negative integer" if least == 0 else f"an integer >= {least}"
            raise InvalidConfig(f"{path}: must be {bound}, got {value!r}")
        if bits is not None and value >> bits:
            raise InvalidConfig(f"{path}: does not fit in {bits} bits")
        return value

    return check


def _ratio(at_most_one: bool) -> Check:
    """A [numerator, denominator] array of ``int``s with num >= 0 < den, read as a tuple."""
    span = "[0, 1]" if at_most_one else "[0, inf)"

    def check(value, path):
        num, den = value if type(value) is list and len(value) == 2 else (None, None)
        if type(num) is not int or type(den) is not int:
            raise InvalidConfig(f"{path}: must be a [numerator, denominator] pair")
        if den <= 0 or num < 0 or (at_most_one and num > den):
            raise InvalidConfig(f"{path}: {num}/{den} is not a rational in {span}")
        return (num, den)

    return check


def _one_of(*choices: str) -> Check:
    def check(value, path):
        if value not in choices:
            raise InvalidConfig(f"{path}: must be one of {', '.join(choices)}, got {value!r}")
        return value

    return check


def _label(value, path):
    if type(value) is not str or not value:
        raise InvalidConfig(f"{path}: must be a non-empty string")
    try:  # report.csv holds it as UTF-8, which has no lone surrogate
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise InvalidConfig(f"{path}: {value!r} is not Unicode text: {exc.reason}") from None
    return value


def _object(value, path) -> dict:
    if type(value) is not dict:
        raise InvalidConfig(f"{path}: must be an object")
    return value


def _array(check: Check, nonempty: bool = False) -> Check:
    def read_array(value, path):
        if type(value) is not list:
            raise InvalidConfig(f"{path}: must be an array")
        if nonempty and not value:
            raise InvalidConfig(f"{path}: must not be empty")
        return [check(item, f"{path}[{i}]") for i, item in enumerate(value)]

    return read_array


def qci_from_key(key: str, name: str) -> int:
    """The QCI number a per-QCI JSON object key names.

    Only the canonical decimal form of a non-negative number is read ("1",
    never "01", " 1", "+1", "1_0" or "-1"), so two keys of one object cannot
    name the same QCI.
    """
    try:
        qci = int(key)
    except (TypeError, ValueError):
        qci = None
    if qci is None or qci < 0 or str(qci) != key:
        raise InvalidConfig(f"{name}: QCI key {key!r} is not a canonical non-negative integer")
    return qci


def _by_qci(check: Check, keys_name_items: bool = False) -> Check:
    """A JSON object keyed by QCI, each value read by ``check`` as ``path.key``.

    A bad key names the map, as one term; with ``keys_name_items`` it names
    its own entry, as a traffic stream.
    """

    def read_map(value, path):
        mapping = {}
        for key, item in _object(value, path).items():
            entry = f"{path}.{key}"
            mapping[qci_from_key(key, entry if keys_name_items else path)] = check(item, entry)
        return mapping

    return read_map


def _record(cls) -> Check:
    """A JSON object read as a ``cls`` record whose fields are named ``path.field``."""
    return lambda value, path: read(cls, _object(value, path), f"{path}.")


@dataclass(frozen=True)
class DegradationWindow:
    start: int = _checked(_uint())
    end: int = _checked(_uint())  # inclusive
    multiplier: Rational = _checked(_ratio(at_most_one=True))


@dataclass
class TrafficModel:
    # below 2**62, so a sample, at most twice nominal_kb, is below 2**63
    nominal_kb: int = _checked(_uint(bits=62))
    variability: Rational = _checked(_ratio(at_most_one=True), default=(0, 1))
    degradations: List[DegradationWindow] = _checked(
        _array(_record(DegradationWindow)), default_factory=list
    )


@dataclass
class SlaTerms:
    """Commercial terms of one provider's agreement.

    ``penalty_rate`` is a rational (numerator, denominator): monetary units
    debited per kb/period of throughput deficit, floor-rounded.  Every amount,
    rate and limit is an ``int``, never a float or a ``bool``.
    """

    payment_mode: str = _checked(_one_of(PER_TRAFFIC, FLAT_RATE))
    agreed_throughput: Dict[int, int] = _checked(_by_qci(_uint()))
    price_per_kb: Dict[int, int] = _checked(_by_qci(_uint()), default_factory=dict)
    flat_rate_per_period: int = _checked(_uint(), default=0)
    penalty_rate: Rational = _checked(_ratio(at_most_one=False), default=(1, 1))
    strike_limit: int = _checked(_uint(least=1), default=3)

    def __post_init__(self) -> None:
        if not self.agreed_throughput:
            raise InvalidConfig("agreed_throughput must declare at least one QCI")
        priced = self.price_per_kb.keys()
        if self.payment_mode == PER_TRAFFIC and priced != self.agreed_throughput.keys():
            raise InvalidConfig("price_per_kb and agreed_throughput must share one QCI set")

    def penalty_debit(self, deficit_kbps: int) -> int:
        num, den = self.penalty_rate
        return num * deficit_kbps // den


@dataclass
class ScpScenario:
    label: str = _checked(_label)
    terms: SlaTerms = _checked(lambda value, path: read(SlaTerms, value, f"{path}: "))
    traffic: Dict[int, TrafficModel] = _checked(
        _by_qci(_record(TrafficModel), keys_name_items=True)
    )


@dataclass
class ScenarioConfig:
    seed: int = _checked(_uint(bits=64))
    num_periods: int = _checked(_uint())
    escrow_deposit: int = _checked(_uint())
    scps: List[ScpScenario] = _checked(_array(_record(ScpScenario), nonempty=True))

    def __post_init__(self) -> None:
        labels = set()
        for i, scp in enumerate(self.scps):
            where = f"scps[{i}]"
            if scp.label in labels:
                raise InvalidConfig(f"{where}.label: duplicate label {scp.label!r}")
            labels.add(scp.label)
            agreed = scp.terms.agreed_throughput
            unmonitored = sorted(agreed.keys() - scp.traffic.keys())
            if unmonitored:
                raise InvalidConfig(
                    f"{where}.traffic: {scp.label!r} agrees QCIs {unmonitored} with "
                    f"no traffic stream; an unmonitored QCI can never breach"
                )
            for qci, model in scp.traffic.items():
                if qci not in agreed:
                    raise InvalidConfig(f"{where}.traffic.{qci}: QCI not declared in terms")
                for j, window in enumerate(model.degradations):
                    if not window.start <= window.end < self.num_periods:
                        raise InvalidConfig(
                            f"{where}.traffic.{qci}.degradations[{j}]: window "
                            f"[{window.start}, {window.end}] outside [0, {self.num_periods})"
                        )


def load_config(path, seed: Optional[int] = None) -> ScenarioConfig:
    """Read a scenario file; a given ``seed`` replaces the file's before it is checked."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=unique_keys)
    except OSError as exc:
        raise InvalidConfig(f"cannot read {path}: {exc}") from exc
    # bad syntax or UTF-8, a duplicate key, an integer over 4,300 digits, deep nesting
    except (ValueError, RecursionError) as exc:
        raise InvalidConfig(f"{path} is not valid JSON: {exc}") from exc
    if seed is not None and type(data) is dict:
        data["seed"] = seed
    return read(ScenarioConfig, data)
