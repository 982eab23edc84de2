"""SLA contract state machine: registration, payouts, penalties, fail-safe."""

import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    breach,
    entries_of,
    fold_of,
    log_state,
    make_flat_terms,
    make_terms,
    registry_matches_events,
)
import slasim.contract
from slasim import FLAT_RATE, EventKind, Ledger, SlaContract, SlaTerms, config
from slasim.config import read, to_json
from slasim.cli import EXIT_ABORT, EXIT_OK, cmd_replay
from slasim.errors import (
    AlreadyDisabled,
    AlreadyRegistered,
    ContractDisabled,
    ContractError,
    DuplicateAddress,
    InsufficientEscrowForAccrual,
    InactiveScp,
    InsufficientFunds,
    InvalidConfig,
    NotDisabled,
    NothingToWithdraw,
    NotOwner,
    UnknownAddress,
    UnknownQci,
    UnknownScp,
    ZeroDeficit,
)
from slasim.ledger import EVENT_FIELDS
from slasim.replay import replay_entries
from slasim.verify import strike_oracle_removal_period


def status(contract, scp):
    record = contract.registry[scp]
    return record.active, record.credit, record.consecutive_strikes


@pytest.mark.parametrize("first, second", [(None, "sla-0"), ("sla-1", None)],
                         ids=["explicit", "defaulted-after-sla-1"])
def test_taken_contract_id_changes_nothing(ledger, first, second):
    """A second contract under a taken id is refused before it logs or opens anything."""
    owner = ledger.create_account(100, "mno")
    SlaContract(ledger, owner, first)
    state, logged = ledger.canonical_state(), log_state(ledger)
    with pytest.raises(DuplicateAddress, match=r":escrow' already exists"):
        SlaContract(ledger, owner, second)
    assert ledger.canonical_state() == state
    assert log_state(ledger) == logged


class TestRegistration:
    def test_fresh_record(self, world):
        _, contract, _, scp = world
        assert status(contract, scp) == (True, 0, 0)

    @pytest.mark.parametrize("escrow", ["sla-0:escrow", "sla-1:escrow"], ids=["own", "other"])
    def test_escrow_account_cannot_register(self, world, escrow):
        """A withdrawal would pay into an escrow and still count as withdrawn."""
        ledger, contract, owner, _ = world
        SlaContract(ledger, owner)
        state, logged = ledger.canonical_state(), log_state(ledger)
        with pytest.raises(ContractError, match=f"escrow account '{escrow}'"):
            contract.register_scp(owner, escrow, to_json(make_terms()))
        assert ledger.canonical_state() == state
        assert log_state(ledger) == logged

    def test_non_owner_rejected(self, world):
        ledger, contract, _, _ = world
        intruder = ledger.create_account(0, "intruder")
        other = ledger.create_account(0, "other")
        with pytest.raises(NotOwner):
            contract.register_scp(intruder, other, to_json(make_terms()))
        assert other not in contract.registry

    def test_double_registration_rejected(self, world):
        _, contract, owner, scp = world
        with pytest.raises(AlreadyRegistered):
            contract.register_scp(owner, scp, to_json(make_terms()))

    def test_reregistration_after_removal_starts_fresh(self, world):
        _, contract, owner, scp = world
        for _ in range(3):
            breach(contract, scp, 1, 10)
            contract.close_period(owner)
        assert status(contract, scp) == (False, -150, 3)
        contract.register_scp(owner, scp, to_json(make_terms()))
        assert status(contract, scp) == (True, 0, 0)
        # the removed record is archived, not merged
        assert len(contract.archived) == 1
        assert contract.archived[0].credit == -150

    @pytest.mark.parametrize(
        "terms, named",
        [
            (dict(strike_limit=0), "strike_limit"),
            (dict(penalty_rate=[1.5, 1]), "penalty_rate"),
            (dict(penalty_rate=(5, 1)), "penalty_rate"),
            (dict(flat_rate_per_period=True), "flat_rate_per_period"),
            (dict(strike_limit=True), "strike_limit"),
            (dict(payment_mode="per_kb"), "payment_mode"),
            (dict(agreed_throughput={"1": 1000, "5": -1}), "agreed_throughput"),
            (dict(agreed_throughput={1: 1000, 5: 500}, price_per_kb={1: 2, 5: 1}),
             "agreed_throughput"),
            (dict(agreed_throughput={"-1": 1000}, price_per_kb={"-1": 2}), "agreed_throughput"),
        ],
        ids=["zero-strike-limit", "float-rate", "rate-tuple", "bool-flat-rate",
             "bool-strike-limit", "unknown-mode", "negative-level", "int-qci", "negative-qci"],
    )
    def test_terms_built_in_python_are_checked(self, world, terms, named):
        """Terms are the JSON object the reader reads: a Python value that is
        not that JSON, such as a tuple or an int key, is refused by name."""
        ledger, contract, owner, _ = world
        other = ledger.create_account(0, "other")
        state, logged = ledger.canonical_state(), log_state(ledger)
        with pytest.raises(InvalidConfig, match=rf"^terms: {named}[.:]"):
            contract.register_scp(owner, other, {**to_json(make_terms()), **terms})
        assert ledger.canonical_state() == state
        assert log_state(ledger) == logged

    def test_logged_terms_are_the_records_echo_and_its_digest_state(self, ledger):
        owner = ledger.create_account(0, "mno")
        contract = SlaContract(ledger, owner)
        scp = ledger.create_account(0, "scp-1")
        contract.register_scp(owner, scp, to_json(make_terms()))
        [entry] = [entry for entry in entries_of(ledger) if entry["op"] == "register_scp"]
        record = contract.registry[scp]
        assert entry["terms"] == record.logged_terms == record.canonical_state()["terms"]
        assert record.terms == read(SlaTerms, entry["terms"])

    @pytest.mark.parametrize(
        "scp, refused",
        [("scp-1", AlreadyRegistered), ("sla-0:escrow", ContractError), ("nobody", UnknownAddress)],
        ids=["active", "escrow", "unknown"],
    )
    def test_refused_registration_reads_no_terms(self, world, monkeypatch, scp, refused):
        ledger, contract, owner, _ = world
        reads = []

        def counted(*args):
            reads.append(args)
            return config.read(*args)

        monkeypatch.setattr(slasim.contract, "read", counted)
        with pytest.raises(refused):
            contract.register_scp(owner, scp, to_json(make_terms()))
        assert reads == []
        contract.register_scp(owner, ledger.create_account(0, "other"), to_json(make_terms()))
        assert len(reads) == 1  # the count does see a registration

    def test_terms_changed_after_registration_change_nothing(self, ledger):
        """The contract keeps its own copy of the terms: settlement follows the logged ones."""
        owner = ledger.create_account(10_000, "mno")
        contract = SlaContract(ledger, owner)
        scp = ledger.create_account(0, "scp-1")
        terms = to_json(
            make_terms(agreed_throughput={1: 1000, 2: 500}, price_per_kb={1: 1, 2: 2})
        )
        contract.register_scp(owner, scp, terms)
        contract.deposit(owner, 10_000)
        digest = ledger.state_digest()
        terms["price_per_kb"]["1"] = 50
        terms["strike_limit"] = 1
        assert ledger.state_digest() == digest
        contract.record_traffic(owner, [100, 100])
        contract.close_period(owner)
        assert contract.registry[scp].credit == 1 * 100 + 2 * 100
        assert replay_entries(entries_of(ledger)).state_digest() == ledger.state_digest()


class TestDeposit:
    def test_zero_deposit_still_appends_event(self, world, events):
        ledger, contract, owner, _ = world
        before = ledger.balance(owner)
        contract.deposit(owner, 0)
        assert ledger.balance(owner) == before
        assert len([e for e in events if e.kind is EventKind.DEPOSIT]) == 2

    def test_exact_arithmetic(self, ledger):
        owner = ledger.create_account(1000, "mno")
        contract = SlaContract(ledger, owner)
        contract.deposit(owner, 400)
        assert ledger.balance(owner) == 600
        assert contract.escrow == 400

    def test_exceeding_balance_no_state_change(self, ledger):
        owner = ledger.create_account(1000, "mno")
        contract = SlaContract(ledger, owner)
        with pytest.raises(InsufficientFunds):
            contract.deposit(owner, 1001)
        assert ledger.balance(owner) == 1000
        assert contract.escrow == 0


class TestRecordTraffic:
    def test_zero_kb_succeeds(self, world):
        _, contract, owner, scp = world
        contract.record_traffic(owner, [0, 0])
        assert contract.registry[scp].served == {1: 0, 5: 0}

    def test_accumulates_within_period(self, world):
        _, contract, owner, scp = world
        contract.record_traffic(owner, [300, 0])
        contract.record_traffic(owner, [700, 0])
        assert contract.registry[scp].served[1] == 1000

    def test_removed_scp_rejected(self, world):
        _, contract, owner, scp = world
        for _ in range(3):
            breach(contract, scp, 1, 1)
            contract.close_period(owner)
        assert contract.stream_order == []
        with pytest.raises(ValueError, match="expected 0 kb values"):
            contract.record_traffic(owner, [100, 0])  # the removed streams
        contract.record_traffic(owner, [])
        assert contract.registry[scp].served == {}

    def test_unknown_scp(self, world):
        _, contract, owner, _ = world
        with pytest.raises(ValueError, match="expected 2 kb values"):
            contract.record_traffic(owner, [100, 0, 100, 0])  # and a ghost's two

    def test_undeclared_qci(self, world):
        _, contract, owner, _ = world
        with pytest.raises(ValueError, match="expected 2 kb values"):
            contract.record_traffic(owner, [100, 0, 100])  # and a third QCI


class TestRecordTrafficBatch:
    @pytest.fixture
    def two_scps(self, world):
        """scp-1 (QCIs 1 and 5) active with traffic this period; scp-2 (QCI 1) removed."""
        ledger, contract, owner, scp = world
        other = ledger.create_account(0, "scp-2")
        contract.register_scp(owner, other, to_json(make_terms(agreed_throughput={1: 1000},
                                                       price_per_kb={1: 2})))
        for _ in range(3):
            breach(contract, other, 1, 1)
            contract.close_period(owner)
        contract.record_traffic(owner, [10, 0])
        return ledger, contract, owner, scp

    @pytest.mark.parametrize(
        "bad, error",
        [
            ((100,), ValueError),  # one value short
            ((100, 50, 100), ValueError),  # a value for removed scp-2
            ((), ValueError),
            ((100, -1), ValueError),
            # settlement is integer arithmetic; True == 1 and 1.0 == 1
            ((100, 1.5), ValueError),
            ((True, 3), ValueError),
            ((100, True), ValueError),
            ((1.0, 3), ValueError),
        ],
    )
    def test_one_bad_sample_changes_nothing(self, two_scps, bad, error):
        ledger, contract, owner, _ = two_scps
        served_before = {addr: dict(rec.served) for addr, rec in contract.registry.items()}
        logged_before = log_state(ledger)
        with pytest.raises(error):
            contract.record_traffic(owner, bad)
        assert {addr: rec.served for addr, rec in contract.registry.items()} == served_before
        assert log_state(ledger) == logged_before

    def test_owner_only_and_not_after_failsafe(self, world):
        _, contract, owner, scp = world
        with pytest.raises(NotOwner):
            contract.record_traffic(scp, [100, 0])
        contract.failsafe_disable(owner)
        with pytest.raises(ContractDisabled):
            contract.record_traffic(owner, [100, 0])

    def test_same_state_as_samples_one_by_one(self):
        """A vector records what its values record one call each."""
        # stream order: (scp-1, 1), (scp-1, 5), (scp-2, 1), (scp-2, 5)
        samples = [(0, 300), (1, 40), (2, 7), (0, 700)]
        states = []
        for batched in (True, False):
            ledger = Ledger()
            owner = ledger.create_account(100_000, "mno")
            contract = SlaContract(ledger, owner)
            for label in ("scp-1", "scp-2"):
                scp = ledger.create_account(0, label)
                contract.register_scp(owner, scp, to_json(make_terms()))
            contract.deposit(owner, 100_000)
            vectors = [[0] * 4 for _ in samples]
            for vector, (column, kb) in zip(vectors, samples):
                vector[column] = kb
            if batched:
                contract.record_traffic(owner, map(sum, zip(*vectors)))
            else:
                for vector in vectors:
                    contract.record_traffic(owner, vector)
            mid_period = ledger.canonical_state()
            contract.close_period(owner)
            states.append((mid_period, ledger.canonical_state()))
        assert states[0] == states[1]
        assert states[0][0]["contracts"]["sla-0"]["registry"]["scp-1"]["served"] == {
            "1": 1000,
            "5": 40,
        }

    def test_log_keeps_no_reference_to_caller_lists(self, world):
        ledger, contract, owner, scp = world
        kb = [100, 0]
        contract.record_traffic(owner, kb)
        kb[0] = 999
        kb.append(1)
        assert ledger.txlog.getvalue().splitlines()[-1] == (
            '{"caller":"mno","contract":"sla-0","kb":[100,0],"op":"record_traffic"}'
        )


def stream_world(stage):
    """Two SCPs with 2 and 1 agreed QCIs, registered out of address order.

    ``stage`` is ``fresh``, ``a-removed`` (scp-a struck out at its first
    breach) or ``a-reregistered`` (scp-a back under QCIs 7 and 2).
    """
    ledger = Ledger(io.StringIO())
    owner = ledger.create_account(100_000, "mno")
    contract = SlaContract(ledger, owner)
    b = ledger.create_account(0, "scp-b")
    a = ledger.create_account(0, "scp-a")
    contract.register_scp(
        owner, b, to_json(make_terms(agreed_throughput={1: 1000}, price_per_kb={1: 2}))
    )
    contract.register_scp(owner, a, to_json(make_terms(strike_limit=1)))
    contract.deposit(owner, 100_000)
    if stage != "fresh":
        breach(contract, a, 1, 1)
        contract.close_period(owner)
    if stage == "a-reregistered":
        contract.register_scp(
            owner, a, to_json(make_terms(agreed_throughput={7: 10, 2: 10}, price_per_kb={7: 1, 2: 1}))
        )
    return ledger, contract, owner


STREAM_ORDERS = [
    ("fresh", [("scp-a", 1), ("scp-a", 5), ("scp-b", 1)]),
    ("a-removed", [("scp-b", 1)]),
    ("a-reregistered", [("scp-a", 2), ("scp-a", 7), ("scp-b", 1)]),
]
STAGES = [stage for stage, _ in STREAM_ORDERS]


class TestStreamOrder:
    @pytest.mark.parametrize("stage, order", STREAM_ORDERS, ids=STAGES)
    def test_each_value_goes_to_its_stream(self, stage, order):
        ledger, contract, owner = stream_world(stage)
        assert contract.stream_order == order
        contract.record_traffic(owner, range(1, len(order) + 1))
        served = {
            (addr, qci): kb
            for addr, record in contract.registry.items()
            for qci, kb in record.served.items()
        }
        assert served == {stream: i for i, stream in enumerate(order, start=1)}
        assert entries_of(ledger)[-1]["kb"] == list(range(1, len(order) + 1))

    @pytest.mark.parametrize("stage, order", STREAM_ORDERS, ids=STAGES)
    def test_stream_of_indexes_the_stream_order(self, stage, order):
        _, contract, _ = stream_world(stage)
        assert [contract.stream_of(scp, qci) for scp, qci in order] == list(range(len(order)))

    @pytest.mark.parametrize(
        "scp, qci, error",
        [("scp-z", 1, UnknownScp), ("scp-a", 1, InactiveScp), ("scp-b", 5, UnknownQci),
         ("scp-b", True, UnknownQci)],
        ids=["unknown-scp", "removed-scp", "unknown-qci", "bool-qci"],
    )
    def test_stream_of_rejects_what_is_not_an_active_stream(self, scp, qci, error):
        _, contract, _ = stream_world("a-removed")
        with pytest.raises(error):
            contract.stream_of(scp, qci)

    @pytest.mark.parametrize("stage", STAGES)
    @pytest.mark.parametrize(
        "bad", ["short", "long", "bool", "float", "negative"]
    )
    def test_bad_vector_raises_and_changes_nothing(self, stage, bad):
        ledger, contract, owner = stream_world(stage)
        kb = [10] * len(contract.stream_order)
        if bad == "short":
            kb.pop()
        elif bad == "long":
            kb.append(10)
        else:
            kb[-1] = {"bool": True, "float": 10.0, "negative": -1}[bad]
        state, logged = contract.canonical_state(), log_state(ledger)
        with pytest.raises(ValueError):
            contract.record_traffic(owner, kb)
        assert contract.canonical_state() == state
        assert log_state(ledger) == logged

    def test_tampered_kb_fails_replay(self, tmp_path):
        ledger, contract, owner = stream_world("a-reregistered")
        contract.record_traffic(owner, [3, 4, 5])
        contract.close_period(owner)
        path = tmp_path / "log.jsonl"
        ledger.export_txlog(path)
        assert cmd_replay(str(path)) == EXIT_OK
        lines = path.read_text().splitlines()
        entry = json.loads(lines[-2])
        assert entry["op"] == "record_traffic" and entry["kb"] == [3, 4, 5]
        entry["kb"][0] += 1
        lines[-2] = json.dumps(entry, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        assert cmd_replay(str(path)) == EXIT_ABORT


class TestClosePeriod:
    def test_no_traffic_pays_zero(self, world, events):
        ledger, contract, owner, scp = world
        contract.close_period(owner)
        [event] = [e for e in events if e.kind is EventKind.PERIODIC_PAYOUT]
        assert event.values[EVENT_FIELDS[event.kind].index("payout")] == 0
        assert status(contract, scp) == (True, 0, 0)

    def test_per_traffic_payout(self, world):
        _, contract, owner, scp = world
        contract.record_traffic(owner, [1000, 0])  # price 2/kb
        contract.close_period(owner)
        assert contract.registry[scp].credit == 2000

    def test_flat_rate_ignores_traffic(self, ledger):
        owner = ledger.create_account(10_000, "mno")
        contract = SlaContract(ledger, owner)
        scp = ledger.create_account(0, "scp-f")
        contract.register_scp(owner, scp, to_json(make_flat_terms(rate=500)))
        contract.deposit(owner, 10_000)
        contract.record_traffic(owner, [123_456])
        contract.close_period(owner)
        assert contract.registry[scp].credit == 500

    def test_accumulators_cleared(self, world):
        _, contract, owner, scp = world
        contract.record_traffic(owner, [100, 0])
        contract.close_period(owner)
        assert contract.registry[scp].served == {}

    def test_payouts_in_address_order_whatever_the_registration_order(self, ledger, events):
        owner = ledger.create_account(10_000, "mno")
        contract = SlaContract(ledger, owner)
        addresses = ["scp-c", "scp-a", "scp-d", "scp-b"]
        for address in addresses:
            contract.register_scp(owner, ledger.create_account(0, address), to_json(make_terms()))
        contract.deposit(owner, 10_000)
        for _ in range(3):  # scp-d is removed, then re-registered in place
            breach(contract, "scp-d", 1, 1)
            contract.close_period(owner)
        contract.register_scp(owner, "scp-d", to_json(make_terms()))
        contract.close_period(owner)
        assert list(contract.registry) == sorted(addresses)
        payouts = [e for e in events if e.kind is EventKind.PERIODIC_PAYOUT]
        for period in range(4):
            assert [e.subject for e in payouts if e.period == period] == (
                ["scp-a", "scp-b", "scp-c"] + (["scp-d"] if period in (0, 1, 3) else [])
            )

    def test_advances_ledger_period(self, world):
        ledger, contract, owner, _ = world
        contract.close_period(owner)
        assert ledger.current_period == 1

    def test_insufficient_escrow_is_atomic(self, ledger):
        owner = ledger.create_account(1000, "mno")
        contract = SlaContract(ledger, owner)
        scp = ledger.create_account(0, "scp-1")
        contract.register_scp(owner, scp, to_json(make_terms()))
        contract.deposit(owner, 100)
        contract.record_traffic(owner, [1000, 0])  # would accrue 2000
        with pytest.raises(InsufficientEscrowForAccrual):
            contract.close_period(owner)
        assert status(contract, scp) == (True, 0, 0)
        assert contract.registry[scp].served == {1: 1000, 5: 0}
        assert ledger.current_period == 0

    def test_cover_counts_removed_archived_and_clamps_debt(self, ledger, events):
        """The escrow must cover every positive credit once the payouts accrue.

        That is a removed provider's frozen credit, an archived record's
        credit and each active provider's credit plus payout; a provider whose
        payout leaves it in debt counts as zero, not as an offset.
        """
        owner = ledger.create_account(1_000_000, "mno")
        contract = SlaContract(ledger, owner)
        a, b, c = (ledger.create_account(0, label) for label in ("a", "b", "c"))
        contract.register_scp(owner, a, to_json(make_terms(strike_limit=1)))
        contract.register_scp(owner, b, to_json(make_terms(strike_limit=1)))
        contract.register_scp(owner, c, to_json(make_terms()))
        contract.deposit(owner, 3000)
        # streams: (a, 1), (a, 5), (b, 1), (b, 5), (c, 1), (c, 5)
        contract.record_traffic(owner, [1000, 0, 0, 0, 0, 0])  # price 2/kb: pays a 2000
        contract.record_traffic(owner, [0, 0, 500, 0, 0, 0])  # pays b 1000
        contract.close_period(owner)
        for scp in (a, b):  # penalty 5/kb: debit 50, removed at the first strike
            breach(contract, scp, 1, 10)
        contract.register_scp(owner, b, to_json(make_terms()))  # archives b's credit 950
        # streams: (b, 1), (b, 5), (c, 1), (c, 5)
        contract.record_traffic(owner, [100, 0, 0, 0])  # the fresh record earns 200
        breach(contract, c, 1, 100)  # debit 500
        contract.record_traffic(owner, [0, 0, 50, 0])  # pays 100: -400 after close
        owed = 1950 + 950 + 200  # removed a, archived b, active b; c counts 0
        contract.deposit(owner, owed - 1 - contract.escrow)
        before = (
            contract.canonical_state(),
            ledger.current_period,
            list(events),
            log_state(ledger),
        )
        with pytest.raises(InsufficientEscrowForAccrual, match=f"credits {owed} "):
            contract.close_period(owner)
        after = (
            contract.canonical_state(),
            ledger.current_period,
            list(events),
            log_state(ledger),
        )
        assert after == before
        contract.deposit(owner, 1)
        contract.close_period(owner)
        assert contract.escrow == owed
        assert [status(contract, scp)[:2] for scp in (a, b, c)] == [
            (False, 1950),
            (True, 200),
            (True, -400),
        ]
        assert [rec.credit for rec in contract.archived] == [950]
        assert contract.registry[c].served == {}
        assert not contract.registry[a].breached_this_period


class TestThroughputBreach:
    def test_proportional_debit(self, world):
        _, contract, owner, scp = world  # penalty_rate (5, 1)
        breach(contract, scp, 1, 10)
        assert contract.registry[scp].credit == -50

    def test_floor_rounding(self, ledger):
        owner = ledger.create_account(10_000, "mno")
        contract = SlaContract(ledger, owner)
        scp = ledger.create_account(0, "scp-1")
        contract.register_scp(owner, scp, to_json(make_terms(penalty_rate=(1, 3))))
        contract.deposit(owner, 10_000)
        breach(contract, scp, 1, 10)
        assert contract.registry[scp].credit == -3  # floor(10/3)

    def test_zero_deficit_rejected(self, world):
        _, contract, owner, scp = world
        with pytest.raises(ZeroDeficit):
            breach(contract, scp, 1, 0)

    # world's streams: (scp-1, 1), (scp-1, 5)
    @pytest.mark.parametrize(
        "pair",
        [(1, 2.5), (1, True), (1, "3"), (True, 10)],
        ids=["float-deficit", "bool-deficit", "str-deficit", "bool-stream"],
    )
    def test_non_integer_breach_rejected(self, world, pair):
        ledger, contract, owner, _ = world
        before = ledger.canonical_state()
        logged = log_state(ledger)
        with pytest.raises(ValueError, match="pairs of integers"):
            contract.throughput_breach(owner, [(0, 10), pair])
        assert ledger.canonical_state() == before
        assert log_state(ledger) == logged

    @pytest.mark.parametrize(
        "batch, error, message",
        [
            ([(1, 10), (0, 10)], ValueError, "strictly ascend"),
            ([(0, 10), (0, 10)], ValueError, "strictly ascend"),
            ([(0, 10), (2, 10)], ValueError, "not one of the 2 active streams"),
            ([(-1, 10)], ValueError, "not one of the 2 active streams"),
            ([(0, 10), (1, 0)], ZeroDeficit, "deficit of 0"),
            ([(0, 10), (1, -5)], ZeroDeficit, "deficit of -5"),
            ([(0, 10), (1, 2.5)], ValueError, "pairs of integers"),
            ([(0, 10), (1, True)], ValueError, "pairs of integers"),
            ([(0, 10), (1,)], ValueError, "pairs of integers"),
            ([(0, 10), (1, 10, 5)], ValueError, "pairs of integers"),
            ([(0, 10), 1], ValueError, "pairs of integers"),
        ],
        ids=["unsorted", "duplicate-stream", "out-of-range", "negative-stream", "zero-deficit",
             "negative-deficit", "float", "bool", "short-pair", "long-pair", "not-a-pair"],
    )
    def test_bad_batch_raises_and_changes_nothing(self, world, batch, error, message):
        ledger, contract, owner, _ = world
        state, logged = ledger.canonical_state(), log_state(ledger)
        with pytest.raises(error, match=message):
            contract.throughput_breach(owner, batch)
        assert ledger.canonical_state() == state
        assert log_state(ledger) == logged

    def test_one_strike_per_period(self, world):
        _, contract, owner, scp = world
        contract.throughput_breach(owner, [(0, 10), (1, 10)])
        breach(contract, scp, 5, 10)  # a second call in the same period
        assert contract.registry[scp].consecutive_strikes == 1
        # every debit applied even though only one strike
        assert contract.registry[scp].credit == -150
        contract.close_period(owner)
        breach(contract, scp, 1, 10)
        contract.throughput_breach(owner, [(0, 1), (1, 1)])
        assert contract.registry[scp].consecutive_strikes == 2
        assert contract.registry[scp].credit == -210

    def test_removal_mid_batch_skips_the_later_pairs(self, ledger, events, monkeypatch):
        owner = ledger.create_account(100_000, "mno")
        contract = SlaContract(ledger, owner)
        for label, terms in (
            ("a", make_terms(strike_limit=1)),  # QCIs 1 and 5
            ("b", make_terms(agreed_throughput={1: 1000}, price_per_kb={1: 2}, strike_limit=1)),
            ("c", make_terms(agreed_throughput={1: 1000}, price_per_kb={1: 2})),
        ):
            contract.register_scp(owner, ledger.create_account(0, label), to_json(terms))
        contract.deposit(owner, 100_000)
        assert contract.stream_order == [("a", 1), ("a", 5), ("b", 1), ("c", 1)]
        rebuilds = []
        rebuild = contract._rebuild_streams
        monkeypatch.setattr(contract, "_rebuild_streams", lambda: rebuilds.append(rebuild()))
        first = len(events)
        # a is removed by its first pair, so its QCI 5 pair takes no debit; b too
        contract.throughput_breach(owner, [(0, 10), (1, 20), (2, 30), (3, 40)])
        assert [(e.kind, e.subject, e.qci) for e in events[first:]] == [
            (EventKind.INSUFFICIENT_THROUGHPUT, "a", 1),
            (EventKind.SCP_REMOVED, "a", None),
            (EventKind.INSUFFICIENT_THROUGHPUT, "b", 1),
            (EventKind.SCP_REMOVED, "b", None),
            (EventKind.INSUFFICIENT_THROUGHPUT, "c", 1),
        ]
        assert [status(contract, scp) for scp in "abc"] == [
            (False, -50, 1), (False, -150, 1), (True, -200, 1)
        ]
        assert len(rebuilds) == 1
        assert contract.stream_order == [("c", 1)]
        assert entries_of(ledger)[-1]["breaches"] == [[0, 10], [1, 20], [2, 30], [3, 40]]
        assert replay_entries(entries_of(ledger)).state_digest() == ledger.state_digest()

    def test_clean_period_resets_counter(self, world):
        _, contract, owner, scp = world
        # breach, breach, clean, breach, breach, breach -> removed at the last
        pattern = [True, True, False, True, True, True]
        removal = None
        for period, breached in enumerate(pattern):
            if breached:
                breach(contract, scp, 1, 10)
            if not contract.registry[scp].active and removal is None:
                removal = period
            contract.close_period(owner)
        assert removal == 5
        assert removal == strike_oracle_removal_period(pattern, 3)

    def test_removal_event_and_credit_preserved(self, world, events):
        ledger, contract, owner, scp = world
        for _ in range(3):
            breach(contract, scp, 1, 10)
            contract.close_period(owner)
        active, credit, strikes = status(contract, scp)
        assert (active, credit, strikes) == (False, -150, 3)
        removals = [e for e in events if e.kind is EventKind.SCP_REMOVED]
        assert [e.subject for e in removals] == [scp]

    @settings(max_examples=100, deadline=None)
    @given(rate=st.integers(min_value=0, max_value=50),
           deficit=st.integers(min_value=1, max_value=100),
           alpha=st.integers(min_value=1, max_value=10))
    def test_integer_linearity_for_unit_denominator(self, rate, deficit, alpha):
        terms = make_terms(penalty_rate=(rate, 1))
        assert terms.penalty_debit(alpha * deficit) == alpha * terms.penalty_debit(deficit)

    @settings(max_examples=100, deadline=None)
    @given(num=st.integers(min_value=0, max_value=50),
           den=st.integers(min_value=1, max_value=20),
           deficit=st.integers(min_value=1, max_value=1000))
    def test_debit_is_exact_floor(self, num, den, deficit):
        terms = make_terms(penalty_rate=(num, den))
        assert terms.penalty_debit(deficit) == num * deficit // den


class TestWithdraw:
    def test_nothing_to_withdraw(self, world):
        _, contract, _, scp = world
        with pytest.raises(NothingToWithdraw):
            contract.withdraw(scp)

    def test_full_settlement(self, world):
        ledger, contract, owner, scp = world
        contract.record_traffic(owner, [1000, 0])
        contract.close_period(owner)
        escrow_before = contract.escrow
        assert contract.withdraw(scp) == 2000
        assert ledger.balance(scp) == 2000
        assert contract.escrow == escrow_before - 2000
        assert contract.registry[scp].credit == 0

    def test_second_withdraw_moves_nothing(self, world):
        ledger, contract, owner, scp = world
        contract.record_traffic(owner, [1000, 0])
        contract.close_period(owner)
        contract.withdraw(scp)
        with pytest.raises(NothingToWithdraw):
            contract.withdraw(scp)
        assert ledger.balance(scp) == 2000

    def test_debt_blocks_withdrawal_until_repaid(self, world):
        _, contract, owner, scp = world
        breach(contract, scp, 1, 10)  # credit -50
        contract.close_period(owner)
        with pytest.raises(NothingToWithdraw):
            contract.withdraw(scp)
        contract.record_traffic(owner, [100, 0])  # payout 200
        contract.close_period(owner)
        assert contract.registry[scp].credit == 150  # 200 - 50
        assert contract.withdraw(scp) == 150

    def test_archived_credit_is_paid_and_nothing_is_stranded(self, world, events):
        ledger, contract, owner, scp = world
        other = ledger.create_account(0, "scp-2")
        contract.register_scp(owner, other, to_json(make_terms(strike_limit=1)))
        contract.record_traffic(owner, [0, 0, 1000, 0])  # scp-2 earns 2000
        contract.close_period(owner)
        breach(contract, other, 1, 1)  # debit 5, removed
        assert status(contract, other) == (False, 1995, 1)
        # back under another QCI set: the stream order and vector length follow
        contract.register_scp(
            owner, other, to_json(make_terms(agreed_throughput={2: 10}, price_per_kb={2: 3}))
        )
        assert contract.stream_order == [(scp, 1), (scp, 5), (other, 2)]
        contract.record_traffic(owner, [0, 0, 10])  # the fresh record earns 30
        contract.close_period(owner)
        contract.failsafe_disable(owner)
        assert contract.withdraw(other) == 1995 + 30
        assert [rec.credit for rec in contract.archived] == [0]
        assert contract.positive_credit_sum() == 0
        assert registry_matches_events(contract, fold_of(events)) is None
        with pytest.raises(NothingToWithdraw):
            contract.withdraw(other)
        contract.recover_escrow(owner)
        assert contract.escrow == 0
        assert ledger.balance(other) == 2025

    def test_archived_debt_stays_frozen(self, world, events):
        ledger, contract, owner, scp = world
        for _ in range(3):  # credit -150, removed
            breach(contract, scp, 1, 10)
            contract.close_period(owner)
        contract.register_scp(owner, scp, to_json(make_terms()))
        contract.record_traffic(owner, [100, 0])  # the fresh record earns 200
        contract.close_period(owner)
        assert contract.withdraw(scp) == 200  # not netted against the old debt
        assert [rec.credit for rec in contract.archived] == [-150]
        assert registry_matches_events(contract, fold_of(events)) is None

    @settings(max_examples=40, deadline=None)
    @given(kb=st.integers(min_value=0, max_value=5_000), double=st.booleans())
    def test_withdrawal_pattern_at_most_once(self, kb, double):
        ledger = Ledger()
        owner = ledger.create_account(100_000, "mno")
        contract = SlaContract(ledger, owner)
        scp = ledger.create_account(0, "scp-1")
        contract.register_scp(owner, scp, to_json(make_terms()))
        contract.deposit(owner, 100_000)
        contract.record_traffic(owner, [kb, 0])
        contract.close_period(owner)
        credit = contract.registry[scp].credit
        paid = 0
        for _ in range(2 if double else 1):
            try:
                paid += contract.withdraw(scp)
            except NothingToWithdraw:
                pass
        assert paid == max(credit, 0)
        assert ledger.balance(scp) == paid


class TestFailSafe:
    def test_mutations_blocked_after_disable(self, world):
        _, contract, owner, scp = world
        contract.failsafe_disable(owner)
        with pytest.raises(ContractDisabled):
            contract.record_traffic(owner, [100, 0])
        with pytest.raises(ContractDisabled):
            contract.deposit(owner, 1)
        with pytest.raises(ContractDisabled):
            breach(contract, scp, 1, 1)
        with pytest.raises(ContractDisabled):
            contract.close_period(owner)
        with pytest.raises(ContractDisabled):
            contract.register_scp(owner, "new", to_json(make_terms()))

    def test_double_disable(self, world):
        _, contract, owner, _ = world
        contract.failsafe_disable(owner)
        with pytest.raises(AlreadyDisabled):
            contract.failsafe_disable(owner)

    def test_withdraw_survives_disable(self, world):
        ledger, contract, owner, scp = world
        contract.record_traffic(owner, [1000, 0])
        contract.close_period(owner)
        contract.failsafe_disable(owner)
        assert contract.withdraw(scp) == 2000
        assert ledger.balance(scp) == 2000

    def test_recover_requires_disable(self, world):
        _, contract, owner, _ = world
        with pytest.raises(NotDisabled):
            contract.recover_escrow(owner)

    def test_recover_nets_out_credits(self, ledger):
        # escrow 1000, positive credits 300 -> owner recovers 700
        owner = ledger.create_account(1000, "mno")
        contract = SlaContract(ledger, owner)
        scp = ledger.create_account(0, "scp-1")
        contract.register_scp(owner, scp, to_json(make_terms(price_per_kb={1: 3, 5: 1})))
        contract.deposit(owner, 1000)
        contract.record_traffic(owner, [100, 0])  # accrues 300
        contract.close_period(owner)
        contract.failsafe_disable(owner)
        assert contract.recover_escrow(owner) == 700
        assert contract.escrow == 300
        assert ledger.balance(owner) == 700
        # the provider can still settle afterwards
        assert contract.withdraw(scp) == 300
        assert contract.escrow == 0

    def test_recover_with_no_credits_takes_everything(self, world):
        ledger, contract, owner, _ = world
        contract.failsafe_disable(owner)
        assert contract.recover_escrow(owner) == 500_000
        assert contract.escrow == 0

    def test_recover_empty_escrow(self, ledger):
        owner = ledger.create_account(0, "mno")
        contract = SlaContract(ledger, owner)
        contract.failsafe_disable(owner)
        assert contract.recover_escrow(owner) == 0


class TestEventReconstruction:
    def test_busy_history_matches_registry(self, ledger, events):
        owner = ledger.create_account(1_000_000, "mno")
        contract = SlaContract(ledger, owner)
        scps = [ledger.create_account(0, f"scp-{i}") for i in range(3)]
        for scp in scps:
            contract.register_scp(owner, scp, to_json(make_terms()))
        contract.deposit(owner, 500_000)
        for period in range(6):
            for i, scp in enumerate(scps):
                if contract.registry[scp].active:
                    kb = [100 * (i + 1) if (s, qci) == (scp, 1) else 0
                          for s, qci in contract.stream_order]
                    contract.record_traffic(owner, kb)
            if period % 2 == 0 and contract.registry[scps[0]].active:
                breach(contract, scps[0], 1, 20)
            if contract.registry[scps[1]].active:
                breach(contract, scps[1], 5, 7)
            contract.close_period(owner)
        contract.withdraw(scps[2])
        assert registry_matches_events(contract, fold_of(events)) is None

    def test_reregistered_provider_matches_registry(self, world, events):
        ledger, contract, owner, scp = world
        contract.record_traffic(owner, [100, 0])
        contract.close_period(owner)
        for _ in range(3):
            breach(contract, scp, 1, 10)
            contract.close_period(owner)
        assert not contract.registry[scp].active
        assert registry_matches_events(contract, fold_of(events)) is None
        contract.register_scp(owner, scp, to_json(make_terms()))
        breach(contract, scp, 5, 1)
        contract.close_period(owner)
        assert registry_matches_events(contract, fold_of(events)) is None
        row = fold_of(events).rows(ledger.current_period)[scp]
        assert (row.earned, row.penalized, row.final_credit) == (0, 5, -5)
        assert row.removal_period is None


class ReferenceRecord:
    """One provider's settlement as the reference keeps it: a ``served`` dict
    per record, one entry per stream that has recorded traffic this period."""

    def __init__(self, address, terms):
        self.address, self.terms = address, terms
        self.active, self.credit, self.strikes, self.breached = True, 0, 0, False
        self.served = {}

    def canonical_state(self):
        return {
            "address": self.address,
            "active": self.active,
            "credit": self.credit,
            "consecutive_strikes": self.strikes,
            "breached_this_period": self.breached,
            "served": {str(qci): self.served[qci] for qci in sorted(self.served)},
            "terms": to_json(self.terms),
        }


class SettlementReference:
    """Per-stream settlement: each ``record_traffic`` value is added to its
    stream's entry of its record's ``served`` dict, and a per-traffic payout
    sums ``price * served`` over the priced QCIs.  Terms are never mutated
    here, so the caller's objects stand in for the contract's copies."""

    def __init__(self):
        self.registry, self.archived = {}, []

    def register(self, address, terms):
        if address in self.registry:
            self.archived.append(self.registry[address])
        self.registry[address] = ReferenceRecord(address, terms)

    def stream_order(self):
        return [
            (address, qci)
            for address, record in sorted(self.registry.items())
            if record.active
            for qci in sorted(record.terms.agreed_throughput)
        ]

    def record_traffic(self, kb):
        for (address, qci), value in zip(self.stream_order(), kb):
            served = self.registry[address].served
            served[qci] = served.get(qci, 0) + value

    def breach(self, address, qci, deficit):
        record = self.registry[address]
        num, den = record.terms.penalty_rate
        record.credit -= num * deficit // den
        if not record.breached:
            record.breached = True
            record.strikes += 1
            record.active = record.strikes < record.terms.strike_limit

    def close(self):
        for record in self.registry.values():
            if record.active:
                terms = record.terms
                if terms.payment_mode == FLAT_RATE:
                    record.credit += terms.flat_rate_per_period
                else:
                    record.credit += sum(
                        price * record.served.get(qci, 0)
                        for qci, price in terms.price_per_kb.items()
                    )
                if not record.breached:
                    record.strikes = 0
            record.breached = False
            record.served.clear()


SETTLEMENT_TERMS = [
    make_terms(strike_limit=2),  # QCIs 1 and 5
    make_terms(agreed_throughput={9: 10, 2: 10, 7: 10}, price_per_kb={2: 1, 7: 3, 9: 5},
               strike_limit=1),
    make_flat_terms(rate=40, strike_limit=2),
]
SETTLEMENT_SCPS = ["scp-c", "scp-a", "scp-b"]  # registered out of address order
MAX_STREAMS = 9  # three providers, at most three QCIs each

settlement_ops = st.lists(
    st.one_of(
        st.tuples(st.just("traffic"),
                  st.lists(st.integers(0, 1000), min_size=MAX_STREAMS, max_size=MAX_STREAMS)),
        st.tuples(st.just("breach"), st.integers(0, 2), st.integers(0, 2), st.integers(1, 50)),
        st.tuples(st.just("register"), st.integers(0, 2), st.integers(0, 2)),
        st.tuples(st.just("close")),
    ),
    max_size=40,
)


class TestSettlementReference:
    @settings(max_examples=150, deadline=None)
    @given(ops=settlement_ops)
    @example(ops=[
        ("traffic", [5, 6, 7, 1, 2, 0, 0, 0, 0]),
        ("breach", 2, 0, 3),  # scp-b struck out between two traffic calls
        ("traffic", [1, 2, 3, 4, 5, 0, 0, 0, 0]),
        ("close",),  # clears the removed record's traffic too
        ("traffic", [3, 4, 0, 0, 0, 0, 0, 0, 0]),
        ("register", 2, 0),  # back mid-period under two QCIs
        ("traffic", [1, 2, 3, 4, 0, 0, 0, 0, 0]),
        ("close",),
    ])
    @example(ops=[
        ("register", 0, 1),
        ("traffic", [5, 6, 7, 1, 2, 3, 4, 5, 6]),
        ("breach", 0, 1, 3),  # scp-c struck out between two traffic calls
        ("traffic", [1, 2, 3, 4, 5, 6, 7, 8, 9]),
        ("register", 0, 0),  # back in the same period: its struck-out record is archived
        ("traffic", [10, 20, 30, 40, 50, 60, 70, 80, 90]),
        ("register", 2, 2),  # a new address, mid-period
        ("traffic", [1, 1, 1, 1, 1, 1, 1, 1, 1]),
        ("close",),
        ("traffic", [2, 2, 2, 2, 2, 2, 2, 2, 2]),
        ("close",),
    ])
    def test_contract_settles_as_the_per_stream_reference(self, ops):
        ledger = Ledger()
        owner = ledger.create_account(10**9, "mno")
        contract = SlaContract(ledger, owner)
        reference = SettlementReference()
        for address in SETTLEMENT_SCPS:
            ledger.create_account(0, address)
        for address, terms in zip(SETTLEMENT_SCPS[1:], SETTLEMENT_TERMS):
            contract.register_scp(owner, address, to_json(terms))
            reference.register(address, terms)
        contract.deposit(owner, 10**9)
        for op, *args in ops:
            if op == "traffic":
                order = reference.stream_order()
                assert contract.stream_order == order
                contract.record_traffic(owner, args[0][: len(order)])
                reference.record_traffic(args[0][: len(order)])
            elif op == "breach":
                address = SETTLEMENT_SCPS[args[0]]
                record = contract.registry.get(address)
                if record is not None and record.active:
                    qcis = sorted(record.terms.agreed_throughput)
                    qci = qcis[args[1] % len(qcis)]
                    breach(contract, address, qci, args[2])
                    reference.breach(address, qci, args[2])
            elif op == "register":
                address, terms = SETTLEMENT_SCPS[args[0]], SETTLEMENT_TERMS[args[1]]
                record = contract.registry.get(address)
                if record is not None and record.active:
                    with pytest.raises(AlreadyRegistered):
                        contract.register_scp(owner, address, to_json(terms))
                else:
                    contract.register_scp(owner, address, to_json(terms))
                    reference.register(address, terms)
            else:
                contract.close_period(owner)
                reference.close()
            assert list(contract.registry) == sorted(reference.registry)
            pairs = [(contract.registry[address], expected)
                     for address, expected in sorted(reference.registry.items())]
            assert len(contract.archived) == len(reference.archived)
            pairs += zip(contract.archived, reference.archived)
            for record, expected in pairs:
                assert record.served == expected.served
                assert record.credit == expected.credit
                assert record.canonical_state() == expected.canonical_state()
