"""Every name the benchmark's tracer wraps still exists in slasim, and a traced run is a run.

``perfbench/tracer.py`` wraps functions by name with ``patch(owner, "attr",
...)``.  A refactor that renames or drops one of them breaks ``--trace 1``
runs, so this reads the tracer's source (without importing it) and looks
every target up on the slasim object it names.  A refactor that changes what
a wrapped call returns can break them too, so one smoke run goes through
``perfbench/shim.py`` with the tracer and without it.
"""

import ast
import importlib
import json
import os
import subprocess
import sys

from conftest import PERFBENCH, folded_run, make_terms, smoke_scenario
from slasim import ScenarioConfig, ScpScenario, TrafficModel, replay, rng, traffic

TRACER = PERFBENCH / "tracer.py"
SHIM = PERFBENCH / "shim.py"


def string_tuples(tree):
    """Module-level ``NAME = ("a", "b", ...)`` assignments."""
    found = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            try:
                value = ast.literal_eval(node.value)
            except ValueError:
                continue
            if isinstance(value, tuple) and all(isinstance(v, str) for v in value):
                found[node.targets[0].id] = value
    return found


def patch_targets(tree):
    """(owner expression, attribute) for every ``patch(...)`` call.

    An attribute given as a loop variable over a module-level tuple of
    names stands for each of those names.
    """
    tuples = string_tuples(tree)
    loops = {
        node.target.id: tuples[node.iter.id]
        for node in ast.walk(tree)
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Name)
        and node.iter.id in tuples
    }
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "patch"):
            continue
        owner, attr = node.args[:2]
        if isinstance(attr, ast.Constant):
            yield ast.unparse(owner), attr.value
        else:
            for name in loops[attr.id]:
                yield ast.unparse(owner), name


def resolve(expression):
    """``traffic`` or ``contract.SlaContract``, looked up from ``slasim``."""
    module, *rest = expression.split(".")
    target = importlib.import_module(f"slasim.{module}")
    for name in rest:
        target = getattr(target, name)
    return target


def test_every_patched_name_exists():
    targets = list(patch_targets(ast.parse(TRACER.read_text(encoding="utf-8"))))
    # the tracer wraps the CLI entry points, the trace layer and every
    # contract op; far fewer targets means the source was not read right
    assert len(targets) >= 25
    assert ("traffic", "splitmix64") in targets
    assert ("traffic", "detect_breaches") in targets
    missing = [f"{owner}.{attr}" for owner, attr in targets if not hasattr(resolve(owner), attr)]
    assert missing == []


def test_tracer_times_every_contract_op():
    """An op replay dispatches to the contract is one the tracer wraps, and no other."""
    traced = string_tuples(ast.parse(TRACER.read_text(encoding="utf-8")))["CONTRACT_OPS"]
    assert sorted(traced) == sorted(replay.CONTRACT_OPS)


def test_drive_reaches_the_patched_names(monkeypatch):
    """The wrapped names are the ones run looks up, so the counts add up."""
    calls = {"generate_trace": 0, "detect_breaches": 0, "splitmix64": 0}

    def counting(module, name):
        original = getattr(module, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, count)

    counting(traffic, "generate_trace")
    counting(traffic, "detect_breaches")
    counting(rng, "splitmix64")
    config = ScenarioConfig(
        seed=3, num_periods=7, escrow_deposit=10**6,
        scps=[ScpScenario(label="scp-1", terms=make_terms(),
                          traffic={1: TrafficModel(nominal_kb=900, variability=(1, 3)),
                                   5: TrafficModel(nominal_kb=600)})],
    )
    ledger, contract, fold = folded_run(config)
    traffic.drive(ledger, contract, config, fold)
    # stream_key makes three scalar draws per stream; the trace makes none
    assert calls == {"generate_trace": 1, "detect_breaches": 7, "splitmix64": 6}


def test_traced_run_settles_every_period(tmp_path):
    """A ``--trace 1`` run, under the shim and the tracer, is the untraced run.

    The tracer counts the trace's samples by iterating ``trace.periods``
    before ``drive`` does, so a trace that one pass used up would leave the
    traced run no period to settle, and a different digest.
    """
    scenario = smoke_scenario()
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(scenario))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PERFBENCH.parent / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}

    def run(name, *tracing):
        stats = tmp_path / f"{name}.json"
        out = tmp_path / name
        subprocess.run([sys.executable, str(SHIM), "--stats", str(stats), *tracing, "--",
                        "run", "--config", str(config), "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=120)
        digest = json.loads((out / "report.json").read_text())["digest"]
        return digest, json.loads(stats.read_text())

    untraced, _ = run("untraced")
    traced, stats = run("traced", "--spans", str(tmp_path / "spans.jsonl"))
    assert traced == untraced
    streams = sum(len(scp["traffic"]) for scp in scenario["scps"])
    assert stats["items"]["traffic.generate_trace"] == streams * scenario["num_periods"] == 360
    assert stats["calls"]["contract.close_period"] == scenario["num_periods"]
