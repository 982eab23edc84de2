"""Scenario configuration: dataclasses, JSON schema, validating loader.

A scenario file is a single JSON object:

    {
      "seed": 42,
      "num_periods": 100,
      "escrow_deposit": 1000000,
      "qci_profiles": [
        {"qci": 1, "priority": 2, "packet_delay_budget_ms": 100,
         "packet_loss_rate": [1, 100]}
      ],
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

Every QCI agreed in an SCP's ``terms`` needs a ``traffic`` stream and every
stream's QCI must be agreed in ``terms``: an unmonitored QCI could never
breach, so such a scenario is rejected at load.
Keys not shown above are rejected with their path rather than ignored.
Rationals are [numerator, denominator] pairs of non-negative integers.
Degradation windows are inclusive on both ends and multipliers compose
multiplicatively with floor rounding.  QCI profiles are informational
metadata; they never enter settlement arithmetic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .contract import SlaTerms, qci_from_key
from .errors import InvalidConfig

Rational = Tuple[int, int]


@dataclass(frozen=True)
class QciProfile:
    qci: int
    priority: int
    packet_delay_budget_ms: int
    packet_loss_rate: Rational


@dataclass(frozen=True)
class DegradationWindow:
    start: int
    end: int  # inclusive
    multiplier: Rational


@dataclass
class TrafficModel:
    nominal_kb: int
    variability: Rational = (0, 1)
    degradations: List[DegradationWindow] = field(default_factory=list)


@dataclass
class ScpScenario:
    label: str
    terms: SlaTerms
    traffic: Dict[int, TrafficModel]


@dataclass
class ScenarioConfig:
    seed: int
    num_periods: int
    escrow_deposit: int
    scps: List[ScpScenario]
    qci_profiles: List[QciProfile] = field(default_factory=list)

    def validate(self) -> None:
        _check_uint(self.seed, "seed", bits=64)
        _check_uint(self.num_periods, "num_periods")
        _check_uint(self.escrow_deposit, "escrow_deposit")
        for i, profile in enumerate(self.qci_profiles):
            for name in ("qci", "priority", "packet_delay_budget_ms"):
                _check_uint(getattr(profile, name), f"qci_profiles[{i}].{name}")
            _check_fraction(profile.packet_loss_rate, f"qci_profiles[{i}].packet_loss_rate")
        if not self.scps:
            raise InvalidConfig("scps: at least one provider is required")
        seen = set()
        for i, scp in enumerate(self.scps):
            where = f"scps[{i}]"
            if not scp.label or not isinstance(scp.label, str):
                raise InvalidConfig(f"{where}.label: must be a non-empty string")
            if scp.label in seen:
                raise InvalidConfig(f"{where}.label: duplicate label {scp.label!r}")
            seen.add(scp.label)
            try:
                scp.terms.validate()
            except ValueError as exc:
                raise InvalidConfig(f"{where}.terms: {exc}") from exc
            unmonitored = sorted(set(scp.terms.agreed_throughput) - set(scp.traffic))
            if unmonitored:
                raise InvalidConfig(
                    f"{where}.traffic: {scp.label!r} agrees QCIs {unmonitored} with "
                    f"no traffic stream; an unmonitored QCI can never breach"
                )
            for qci, model in scp.traffic.items():
                twhere = f"{where}.traffic.{qci}"
                if qci not in scp.terms.agreed_throughput:
                    raise InvalidConfig(f"{twhere}: QCI not declared in terms")
                # a sample is at most twice nominal_kb and the trace keeps
                # samples in signed 64-bit slots
                _check_uint(model.nominal_kb, f"{twhere}.nominal_kb", bits=62)
                _check_fraction(model.variability, f"{twhere}.variability")
                for j, window in enumerate(model.degradations):
                    wwhere = f"{twhere}.degradations[{j}]"
                    _check_uint(window.start, f"{wwhere}.start")
                    _check_uint(window.end, f"{wwhere}.end")
                    if not (0 <= window.start <= window.end < self.num_periods):
                        raise InvalidConfig(
                            f"{wwhere}: window [{window.start}, {window.end}] outside "
                            f"[0, {self.num_periods})"
                        )
                    _check_fraction(window.multiplier, f"{wwhere}.multiplier")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "num_periods": self.num_periods,
            "escrow_deposit": self.escrow_deposit,
            "qci_profiles": [
                {
                    "qci": p.qci,
                    "priority": p.priority,
                    "packet_delay_budget_ms": p.packet_delay_budget_ms,
                    "packet_loss_rate": list(p.packet_loss_rate),
                }
                for p in self.qci_profiles
            ],
            "scps": [
                {
                    "label": scp.label,
                    "terms": scp.terms.to_dict(),
                    "traffic": {
                        str(qci): {
                            "nominal_kb": model.nominal_kb,
                            "variability": list(model.variability),
                            "degradations": [
                                {
                                    "start": w.start,
                                    "end": w.end,
                                    "multiplier": list(w.multiplier),
                                }
                                for w in model.degradations
                            ],
                        }
                        for qci, model in sorted(scp.traffic.items())
                    },
                }
                for scp in self.scps
            ],
        }


def _check_uint(value, name: str, bits: Optional[int] = None) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise InvalidConfig(f"{name}: must be a non-negative integer, got {value!r}")
    if bits is not None and value >= (1 << bits):
        raise InvalidConfig(f"{name}: does not fit in {bits} bits")


def _check_fraction(value, name: str) -> None:
    # rational in [0, 1]
    if (
        not isinstance(value, (tuple, list))
        or len(value) != 2
        or not all(isinstance(x, int) and not isinstance(x, bool) for x in value)
    ):
        raise InvalidConfig(f"{name}: must be a [numerator, denominator] pair")
    num, den = value
    if den <= 0 or num < 0 or num > den:
        raise InvalidConfig(f"{name}: {num}/{den} is not a rational in [0, 1]")


def _check_known(raw: dict, known: Tuple[str, ...], where: str) -> None:
    """Reject a key ``known`` does not list: a misspelt key is not a default."""
    if not isinstance(raw, dict):
        raise InvalidConfig(f"{where.rstrip('.')}: must be an object")
    for key in raw:
        if key not in known:
            raise InvalidConfig(f"{where}{key}: unknown field")


def _pair(value):
    """A JSON array as a tuple; any other value is left for ``_check_fraction``."""
    return tuple(value) if isinstance(value, list) else value


def config_from_dict(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise InvalidConfig("top level: must be a JSON object")
    for key in ("seed", "num_periods", "escrow_deposit", "scps"):
        if key not in data:
            raise InvalidConfig(f"{key}: missing required field")
    for key in ("scps", "qci_profiles"):
        if not isinstance(data.get(key, []), list):
            raise InvalidConfig(f"{key}: must be an array")
    _check_known(data, ("seed", "num_periods", "escrow_deposit", "scps", "qci_profiles"), "")
    profiles = []
    for i, raw in enumerate(data.get("qci_profiles", [])):
        known = ("qci", "priority", "packet_delay_budget_ms", "packet_loss_rate")
        _check_known(raw, known, f"qci_profiles[{i}].")
        try:
            profiles.append(
                QciProfile(
                    qci=raw["qci"],
                    priority=raw["priority"],
                    packet_delay_budget_ms=raw["packet_delay_budget_ms"],
                    packet_loss_rate=_pair(raw["packet_loss_rate"]),
                )
            )
        except (KeyError, TypeError) as exc:
            raise InvalidConfig(f"qci_profiles[{i}]: {exc}") from exc
    scps = []
    for i, raw in enumerate(data["scps"]):
        where = f"scps[{i}]"
        if not isinstance(raw, dict):
            raise InvalidConfig(f"{where}: must be an object")
        for key in ("label", "terms", "traffic"):
            if key not in raw:
                raise InvalidConfig(f"{where}.{key}: missing required field")
        _check_known(raw, ("label", "terms", "traffic"), f"{where}.")
        try:
            terms = SlaTerms.from_dict(raw["terms"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidConfig(f"{where}.terms: {exc}") from exc
        if not isinstance(raw["traffic"], dict):
            raise InvalidConfig(f"{where}.traffic: must be an object")
        traffic = {}
        for qci_key, tm in raw["traffic"].items():
            twhere = f"{where}.traffic.{qci_key}"
            try:
                qci = qci_from_key(qci_key, twhere)
            except ValueError as exc:
                raise InvalidConfig(str(exc)) from None
            if not isinstance(tm, dict) or "nominal_kb" not in tm:
                raise InvalidConfig(f"{twhere}.nominal_kb: missing required field")
            if not isinstance(tm.get("degradations", []), list):
                raise InvalidConfig(f"{twhere}.degradations: must be an array")
            _check_known(tm, ("nominal_kb", "variability", "degradations"), f"{twhere}.")
            degradations = []
            for j, w in enumerate(tm.get("degradations", [])):
                wwhere = f"{twhere}.degradations[{j}]"
                _check_known(w, ("start", "end", "multiplier"), f"{wwhere}.")
                try:
                    degradations.append(
                        DegradationWindow(
                            start=w["start"], end=w["end"], multiplier=_pair(w["multiplier"])
                        )
                    )
                except (KeyError, TypeError) as exc:
                    raise InvalidConfig(f"{wwhere}: {exc}") from exc
            traffic[qci] = TrafficModel(
                nominal_kb=tm["nominal_kb"],
                variability=_pair(tm.get("variability", (0, 1))),
                degradations=degradations,
            )
        scps.append(ScpScenario(label=raw["label"], terms=terms, traffic=traffic))
    config = ScenarioConfig(
        seed=data["seed"],
        num_periods=data["num_periods"],
        escrow_deposit=data["escrow_deposit"],
        scps=scps,
        qci_profiles=profiles,
    )
    config.validate()
    return config


def load_config(path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidConfig(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"{path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)
