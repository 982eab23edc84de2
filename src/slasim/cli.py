"""Command-line entry point: run scenarios, replay logs, run verification.

Exit codes are a stable contract:
    0  success
    1  validation failure (bad config, malformed log)
    2  runtime abort (contract error, digest mismatch, I/O)
    3  verification counterexample

Reports go to files only; everything else is written to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from contextlib import suppress
from itertools import takewhile
from pathlib import Path
from typing import Optional, Sequence, TextIO

from .config import ScenarioConfig, load_config, to_json
from .contract import SlaContract
from .errors import ContractError, DigestMismatch, DuplicateAddress, InvalidConfig, MalformedLog
from .ledger import EventSink, Ledger
from .report import RowFold
from .replay import replay_file
from .traffic import drive
from .verify import check_strike_equivalence, conservation_fuzz

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_ABORT = 2
EXIT_COUNTEREXAMPLE = 3

MAX_VERIFY_BOUND = 10
FUZZ_OPS = 2_000
FUZZ_SEED = 20260824

REPORT_JSON = "report.json"
REPORT_CSV = "report.csv"
TXLOG_FILE = "txlog.jsonl"


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


def setup_run(
    config: ScenarioConfig, txlog: Optional[TextIO] = None, events: Optional[EventSink] = None
):
    """Fresh ledger + funded contract with every scenario SCP registered.

    The ledger writes its log to the text file ``txlog`` and hands its events
    to the sink ``events``, if given.
    """
    ledger = Ledger(txlog, events)
    owner = ledger.create_account(config.escrow_deposit, "mno")
    contract = SlaContract(ledger, owner)
    for scp in config.scps:
        address = ledger.create_account(0, scp.label)
        contract.register_scp(owner, address, to_json(scp.terms))
    contract.deposit(owner, config.escrow_deposit)
    return ledger, contract


def cmd_run(config_path: str, out_dir: str, seed: Optional[int] = None) -> int:
    try:
        config = load_config(config_path, seed)
    except InvalidConfig as exc:
        _diag(f"invalid config: {exc}")
        return EXIT_INVALID
    out = Path(out_dir)
    # the directories this run creates, deepest first; each is removed unless it
    # holds an output, so a run that fails before it writes one leaves none
    created = list(takewhile(lambda path: not path.exists(), (out, *out.parents)))
    try:
        return _run_into(out, config)
    finally:
        with suppress(OSError):  # a directory that is not empty stays, and so do its parents
            for path in created:
                path.rmdir()


def _run_into(out: Path, config: ScenarioConfig) -> int:
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _diag(f"cannot create output directory: {exc}")
        return EXIT_ABORT
    # the log goes to an unnamed temporary file as it is logged, so nothing is
    # left behind however the run ends, and a full disk can stop the run at
    # any step, not only when the outputs are written
    fold = RowFold()
    try:
        with tempfile.TemporaryFile("w+", encoding="utf-8", dir=out) as txlog:
            ledger, contract = setup_run(config, txlog, fold.add)
            report = drive(ledger, contract, config, fold)
            report.digest = ledger.export_txlog(out / TXLOG_FILE)
            report.write_json(out / REPORT_JSON)
            report.write_csv(out / REPORT_CSV)
    except DuplicateAddress as exc:  # an SCP label taken by the owner or the escrow
        _diag(f"invalid config: {exc}")
        return EXIT_INVALID
    except ContractError as exc:
        _diag(f"run aborted: {exc}")
        return EXIT_ABORT
    except OSError as exc:
        _diag(f"cannot write outputs: {exc}")
        return EXIT_ABORT
    _diag(f"run complete: digest {report.digest}")
    return EXIT_OK


def cmd_replay(log_path: str) -> int:
    try:
        digest = replay_file(log_path)
    except MalformedLog as exc:
        _diag(f"malformed log: {exc}")
        return EXIT_INVALID
    except DigestMismatch as exc:
        _diag(f"digest mismatch: {exc}")
        return EXIT_ABORT
    print(digest)
    return EXIT_OK


def cmd_verify(bound: int) -> int:
    if bound < 0 or bound > MAX_VERIFY_BOUND:
        _diag(f"bound must be in [0, {MAX_VERIFY_BOUND}]")
        return EXIT_INVALID
    counterexample = check_strike_equivalence(bound)
    if counterexample is not None:
        _diag(f"strike-rule counterexample: {json.dumps(counterexample)}")
        return EXIT_COUNTEREXAMPLE
    _diag(f"strike rule: all sequences up to length {bound} match the oracle")
    violation = conservation_fuzz(FUZZ_OPS, FUZZ_SEED)
    if violation is not None:
        _diag(f"conservation violation: {json.dumps(violation)}")
        return EXIT_COUNTEREXAMPLE
    _diag(f"conservation: {FUZZ_OPS} fuzzed operations hold exactly")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slasim",
        description="Deterministic simulator of small-cell SLA smart contracts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario and write reports")
    run.add_argument("--config", required=True, help="scenario JSON file")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")

    replay = sub.add_parser("replay", help="replay an exported transaction log")
    replay.add_argument("--log", required=True, help="txlog.jsonl from a previous run")

    verify = sub.add_parser("verify", help="run the built-in oracle suites")
    verify.add_argument(
        "--bound",
        type=int,
        default=8,
        help=f"max breach/clean sequence length (<= {MAX_VERIFY_BOUND})",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.out, args.seed)
    if args.command == "replay":
        return cmd_replay(args.log)
    if args.command == "verify":
        return cmd_verify(args.bound)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
