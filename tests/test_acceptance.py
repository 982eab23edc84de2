"""Acceptance suite: one test per release criterion, exact tolerances.

Each test prints a single ``[PASS] <criterion>`` line once its assertions
hold, so ``pytest -s tests/test_acceptance.py`` reads as a checklist.
"""

import json
import time
from itertools import product

import pytest

from conftest import breach, folded_run, make_terms, registry_matches_events
from slasim import Ledger, SlaContract, verify
from slasim.cli import (
    FUZZ_OPS,
    FUZZ_SEED,
    REPORT_CSV,
    REPORT_JSON,
    TXLOG_FILE,
    cmd_replay,
    cmd_run,
)
from slasim.config import to_json
from slasim.errors import ContractDisabled, InsufficientEscrowForAccrual, NothingToWithdraw
from slasim.traffic import drive
from slasim.verify import (
    check_strike_equivalence,
    conservation_fuzz,
    strike_oracle_removal_period,
)


def passed(criterion: str) -> None:
    print(f"[PASS] {criterion}")


def test_fund_conservation_fuzz():
    # >= 10,000 random valid operations, exact equality after every step
    violation = conservation_fuzz(10_000, seed=1234)
    assert violation is None, violation
    passed("fund conservation over 10,000 fuzzed operations")


@pytest.mark.parametrize("ops, seed", [(FUZZ_OPS, FUZZ_SEED), (10_000, 1234)],
                         ids=["verify", "acceptance"])
def test_fuzz_closes_are_both_accepted_and_refused(monkeypatch, ops, seed):
    # each outcome of close_period's cover check is at least 10% of the closes
    closes = {"accepted": 0, "refused": 0}
    close_period = SlaContract.close_period

    def counted(contract, caller):
        try:
            close_period(contract, caller)
        except InsufficientEscrowForAccrual:
            closes["refused"] += 1
            raise
        closes["accepted"] += 1

    monkeypatch.setattr(SlaContract, "close_period", counted)
    assert conservation_fuzz(ops, seed) is None
    assert min(closes.values()) * 10 >= sum(closes.values()), closes
    passed(f"the fuzz at seed {seed} meets the cover check both ways: {closes}")


def test_liveness_oracle_reports_stranded_funds(monkeypatch):
    # a withdraw that pays only the live record leaves archived credit behind
    withdraw = SlaContract.withdraw

    def withdraw_live_record_only(contract, caller):
        archived, contract.archived = contract.archived, []
        try:
            return withdraw(contract, caller)
        finally:
            contract.archived = archived

    assert conservation_fuzz(FUZZ_OPS, FUZZ_SEED) is None
    monkeypatch.setattr(SlaContract, "withdraw", withdraw_live_record_only)
    violation = conservation_fuzz(FUZZ_OPS, FUZZ_SEED)
    assert violation["error"] == "funds stranded in escrow", violation
    assert violation["escrow"] > 0
    passed("liveness: once everyone withdraws and the owner recovers, escrow is empty")


def test_fuzz_reports_escrow_below_positive_credits(monkeypatch):
    # a recover_escrow that takes the whole escrow leaves credits it cannot pay
    def recover_everything(contract, caller):
        recoverable = contract.escrow
        contract.ledger.transfer(contract.account, caller, recoverable)
        contract.total_recovered += recoverable
        return recoverable

    assert conservation_fuzz(FUZZ_OPS, FUZZ_SEED) is None
    monkeypatch.setattr(SlaContract, "recover_escrow", recover_everything)
    violation = conservation_fuzz(FUZZ_OPS, FUZZ_SEED)
    assert violation["error"] == "escrow below positive credits", violation
    assert violation["action"] == "recover"
    passed("solvency: after every fuzz step the escrow covers every positive credit")


def test_three_strike_oracle_equivalence():
    counterexample = check_strike_equivalence(8)
    assert counterexample is None, counterexample
    passed("3-strike removal equals brute-force oracle for all sequences <= 8")


def per_sequence_counterexample(max_len, limit=3):
    """The strike check with one contract run per sequence, the reference for
    ``check_strike_equivalence``'s shared prefix runs."""
    for length in range(max_len + 1):
        for bits in product([False, True], repeat=length):
            expected = strike_oracle_removal_period(bits, limit)
            actual = verify.contract_removal_period(bits, limit)
            if expected != actual:
                return {"sequence": list(bits), "oracle": expected, "contract": actual}
    return None


def removed_without_reset(seq, limit=3):
    """A contract whose clean periods never reset the strike count."""
    strikes = 0
    for period, breached in enumerate(seq):
        strikes += breached
        if strikes >= limit:
            return period
    return None


@pytest.mark.parametrize(
    "mutant",
    [None, lambda seq, limit=3: strike_oracle_removal_period(seq, limit + 1),
     removed_without_reset],
    ids=["contract", "removed-late", "no-reset"],
)
def test_shared_prefix_runs_find_the_same_counterexample(monkeypatch, mutant):
    if mutant is not None:
        monkeypatch.setattr(verify, "contract_removal_period", mutant)
    reference = per_sequence_counterexample(6)
    runs = []
    counted = verify.contract_removal_period
    monkeypatch.setattr(
        verify, "contract_removal_period", lambda seq, limit=3: runs.append(seq) or counted(seq, limit)
    )
    assert check_strike_equivalence(6) == reference
    assert (reference is None) == (mutant is None)
    assert all(len(seq) == 6 for seq in runs)
    assert len(set(runs)) == len(runs) <= 2**6
    if reference is None:
        assert len(runs) == 2**6  # against 127 runs, one per sequence


def test_penalty_proportionality():
    for rate in range(0, 21):
        terms = make_terms(penalty_rate=(rate, 1))
        for deficit in range(1, 101):
            base = terms.penalty_debit(deficit)
            for alpha in range(1, 11):
                assert terms.penalty_debit(alpha * deficit) == alpha * base
    for num in (0, 1, 2, 3, 5, 7, 11):
        for den in (1, 2, 3, 4, 7, 10):
            terms = make_terms(penalty_rate=(num, den))
            for deficit in range(1, 101):
                assert terms.penalty_debit(deficit) == num * deficit // den
    passed("penalty debit is exactly floor(num * deficit / den), linear for den=1")


def test_withdrawal_pattern():
    ledger = Ledger()
    owner = ledger.create_account(100_000, "mno")
    contract = SlaContract(ledger, owner)
    scp = ledger.create_account(0, "scp-1")
    contract.register_scp(owner, scp, to_json(make_terms()))
    contract.deposit(owner, 100_000)
    contract.record_traffic(owner, [1000, 0])
    contract.close_period(owner)
    first = contract.withdraw(scp)
    assert first == 2000
    with pytest.raises(NothingToWithdraw):
        contract.withdraw(scp)
    assert ledger.balance(scp) == 2000  # funds moved exactly once
    # accrued credit still settles after the fail-safe
    contract.record_traffic(owner, [500, 0])
    contract.close_period(owner)
    contract.failsafe_disable(owner)
    assert contract.withdraw(scp) == 1000
    assert ledger.balance(scp) == 3000
    passed("withdrawal pattern: at most one transfer; settles after disable")


def big_scenario_dict():
    qcis = [str(q) for q in range(1, 10)]
    return {
        "seed": 99,
        "num_periods": 1000,
        "escrow_deposit": 6_000_000_000,
        "scps": [
            {
                "label": f"scp-{i:03d}",
                "terms": {
                    "payment_mode": "per_traffic",
                    "price_per_kb": {q: 1 + int(q) % 3 for q in qcis},
                    "agreed_throughput": {q: 900 for q in qcis},
                    "penalty_rate": [3, 2],
                    "strike_limit": 3,
                },
                "traffic": {
                    q: {
                        "nominal_kb": 1000,
                        "variability": [1, 20],
                        "degradations": [
                            {"start": 100 + 3 * i, "end": 101 + 3 * i, "multiplier": [3, 4]},
                            {"start": 600 + 3 * i, "end": 601 + 3 * i, "multiplier": [3, 4]},
                        ],
                    }
                    for q in qcis
                },
            }
            for i in range(50)
        ],
    }


def test_replay_determinism_large_scenario(tmp_path):
    # 50 SCPs x 9 QCIs x 1000 periods, twice, plus replay of the exported log
    config_path = tmp_path / "big.json"
    config_path.write_text(json.dumps(big_scenario_dict()))
    started = time.perf_counter()
    assert cmd_run(str(config_path), str(tmp_path / "a")) == 0
    assert cmd_run(str(config_path), str(tmp_path / "b")) == 0
    assert cmd_replay(str(tmp_path / "a" / TXLOG_FILE)) == 0
    elapsed = time.perf_counter() - started
    digest_a = json.loads((tmp_path / "a" / REPORT_JSON).read_text())["digest"]
    digest_b = json.loads((tmp_path / "b" / REPORT_JSON).read_text())["digest"]
    assert digest_a == digest_b
    csv_a = (tmp_path / "a" / REPORT_CSV).read_bytes()
    csv_b = (tmp_path / "b" / REPORT_CSV).read_bytes()
    assert csv_a == csv_b
    # one kb value per stream and period, in compact lines: 2,202,448 bytes,
    # where lines with a space after each "," and ":" made 2,671,522 and
    # [label, qci, kb] triples 10.04 MB
    assert (tmp_path / "a" / TXLOG_FILE).stat().st_size < 2_300_000
    assert elapsed < 10.0, f"end-to-end took {elapsed:.1f}s (target < 10s)"
    passed(
        "replay determinism: identical digests and CSV bytes for "
        f"50x9x1000 runs, replay exit 0 ({elapsed:.1f}s)"
    )


def test_closed_form_payout(tmp_path):
    # zero variability, no degradation: withdrawn must equal the closed form
    num_periods = 40
    qcis = list(range(1, 10))
    prices = {q: 1 + q % 3 for q in qcis}
    nominal = {q: 800 + 10 * q for q in qcis}
    config_dict = {
        "seed": 5,
        "num_periods": num_periods,
        "escrow_deposit": 50_000_000,
        "scps": [
            {
                "label": f"scp-{i}",
                "terms": {
                    "payment_mode": "per_traffic",
                    "price_per_kb": {str(q): prices[q] for q in qcis},
                    "agreed_throughput": {str(q): 100 for q in qcis},
                    "penalty_rate": [1, 1],
                    "strike_limit": 3,
                },
                "traffic": {
                    str(q): {"nominal_kb": nominal[q], "variability": [0, 1]}
                    for q in qcis
                },
            }
            for i in range(3)
        ],
    }
    from slasim.config import ScenarioConfig, read

    config = read(ScenarioConfig, config_dict)
    ledger, contract, fold = folded_run(config)
    report = drive(ledger, contract, config, fold)
    expected = sum(prices[q] * nominal[q] for q in qcis) * num_periods
    for row in report.rows.values():
        assert row.withdrawn == expected
        assert row.penalized == 0
    passed("closed-form payout: withdrawn equals sum(price * nominal) * periods")


def test_event_completeness(tmp_path):
    from slasim.config import ScenarioConfig, read

    config = read(ScenarioConfig, big_scenario_dict())
    config.num_periods = 150  # includes each provider's first outage window
    for scp in config.scps:
        for model in scp.traffic.values():
            model.degradations = [w for w in model.degradations if w.end < 150]
    ledger, contract, fold = folded_run(config)
    drive(ledger, contract, config, fold)
    mismatch = registry_matches_events(contract, fold)
    assert mismatch is None, mismatch
    passed("event completeness: event log reproduces credits and strikes exactly")


def test_failsafe_semantics():
    ledger = Ledger()
    owner = ledger.create_account(10_000, "mno")
    contract = SlaContract(ledger, owner)
    scp = ledger.create_account(0, "scp-1")
    contract.register_scp(owner, scp, to_json(make_terms()))
    contract.deposit(owner, 10_000)
    contract.record_traffic(owner, [150, 0])  # accrues 300
    contract.close_period(owner)
    contract.failsafe_disable(owner)

    mutators = [
        lambda: contract.register_scp(owner, "x", to_json(make_terms())),
        lambda: contract.deposit(owner, 1),
        lambda: contract.record_traffic(owner, [1, 0]),
        lambda: breach(contract, scp, 1, 1),
        lambda: contract.close_period(owner),
    ]
    for mutator in mutators:
        with pytest.raises(ContractDisabled):
            mutator()

    recovered = contract.recover_escrow(owner)
    assert recovered == 10_000 - 300  # escrow minus positive credits
    assert contract.withdraw(scp) == 300
    assert (
        contract.total_deposits
        == contract.escrow + contract.total_withdrawn + contract.total_recovered
    )
    assert ledger.balance(owner) + ledger.balance(scp) + ledger.balance(
        contract.account
    ) == 10_000
    passed("fail-safe: only withdraw/recover allowed; recovery nets out credits")
