"""Ledger substrate: accounts, events, period clock, digests."""

import hashlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slasim import EventKind, EventRecord, Ledger
from slasim.errors import DuplicateAddress, InsufficientFunds, UnknownAddress
from slasim.ledger import _FOLD_BATCH


class TestAccounts:
    def test_create_zero_balance(self, ledger):
        addr = ledger.create_account(0)
        assert ledger.balance(addr) == 0

    def test_balance_readback(self, ledger):
        addr = ledger.create_account(1_000_000)
        assert ledger.balance(addr) == 1_000_000

    def test_addresses_are_distinct(self, ledger):
        a = ledger.create_account(0)
        b = ledger.create_account(0)
        assert a != b

    def test_duplicate_label_rejected(self, ledger):
        ledger.create_account(0, "x")
        with pytest.raises(DuplicateAddress):
            ledger.create_account(0, "x")

    def test_negative_balance_rejected(self, ledger):
        with pytest.raises(ValueError):
            ledger.create_account(-1)

    def test_unknown_address(self, ledger):
        with pytest.raises(UnknownAddress):
            ledger.balance("nobody")


class TestTransfer:
    def test_zero_transfer(self, ledger):
        a = ledger.create_account(100)
        b = ledger.create_account(0)
        ledger.transfer(a, b, 0)
        assert ledger.balance(a) == 100
        assert ledger.balance(b) == 0

    def test_exact_arithmetic(self, ledger):
        a = ledger.create_account(100)
        b = ledger.create_account(0)
        ledger.transfer(a, b, 40)
        assert ledger.balance(a) == 60
        assert ledger.balance(b) == 40

    def test_insufficient_funds_no_state_change(self, ledger):
        a = ledger.create_account(10)
        b = ledger.create_account(0)
        with pytest.raises(InsufficientFunds):
            ledger.transfer(a, b, 11)
        assert ledger.balance(a) == 10
        assert ledger.balance(b) == 0

    @settings(max_examples=50, deadline=None)
    @given(
        amounts=st.lists(st.integers(min_value=0, max_value=200), max_size=30),
        initial=st.integers(min_value=0, max_value=500),
    )
    def test_conservation_and_no_negatives(self, amounts, initial):
        ledger = Ledger()
        a = ledger.create_account(initial)
        b = ledger.create_account(100)
        total = ledger.total_balance()
        for i, amount in enumerate(amounts):
            src, dst = (a, b) if i % 2 == 0 else (b, a)
            try:
                ledger.transfer(src, dst, amount)
            except InsufficientFunds:
                pass
            assert ledger.total_balance() == total
            assert all(balance >= 0 for balance in ledger.balances.values())


class TestEvents:
    def test_first_index_is_zero(self, ledger):
        assert ledger.append_event(EventKind.DEPOSIT, "a") == 0

    def test_indices_contiguous(self, ledger):
        indices = [ledger.append_event(EventKind.DEPOSIT, "a") for _ in range(3)]
        assert indices == [0, 1, 2]

    def test_readback(self, ledger, events):
        ledger.append_event(
            EventKind.INSUFFICIENT_THROUGHPUT, "scp", qci=5, payload=(("deficit", 7),)
        )
        [record] = events
        assert record.kind is EventKind.INSUFFICIENT_THROUGHPUT
        assert record.subject == "scp"
        assert record.qci == 5
        assert record.payload == (("deficit", 7),)

    def test_no_filter_returns_everything_in_order(self, ledger, events):
        for i in range(4):
            ledger.append_event(EventKind.DEPOSIT, f"a{i}")
        assert [r.index for r in events] == [0, 1, 2, 3]

    def test_append_only_prefix(self, ledger, events):
        ledger.append_event(EventKind.DEPOSIT, "a")
        earlier = list(events)
        ledger.append_event(EventKind.DEPOSIT, "b")
        later = list(events)
        assert later[: len(earlier)] == earlier


class TestPeriodClock:
    def test_first_advance(self, ledger):
        assert ledger.advance_period() == 1

    def test_n_advances(self, ledger):
        for _ in range(7):
            ledger.advance_period()
        assert ledger.current_period == 7

    def test_events_carry_new_period(self, ledger, events):
        ledger.advance_period()
        ledger.append_event(EventKind.DEPOSIT, "a")
        assert events[0].period == 1


class TestDigest:
    def test_fresh_ledgers_agree(self):
        assert Ledger().state_digest() == Ledger().state_digest()

    def test_same_history_same_digest(self):
        def build():
            ledger = Ledger()
            a = ledger.create_account(100, "a")
            b = ledger.create_account(0, "b")
            ledger.transfer(a, b, 30)
            ledger.advance_period()
            ledger.append_event(EventKind.DEPOSIT, a, payload=(("amount", 30),))
            return ledger.state_digest()

        assert build() == build()

    def test_perturbed_amount_changes_digest(self):
        def build(amount):
            ledger = Ledger()
            a = ledger.create_account(100, "a")
            b = ledger.create_account(0, "b")
            ledger.transfer(a, b, amount)
            return ledger.state_digest()

        assert build(30) != build(31)


def event_history(ledger, probe=lambda: None):
    """Append events over a few periods, calling ``probe`` between steps."""
    ledger.create_account(100, "a")
    for period in range(4):
        ledger.append_event(EventKind.DEPOSIT, "a", payload=(("amount", period),))
        probe()
        ledger.append_event(EventKind.INSUFFICIENT_THROUGHPUT, "scp", qci=5)
        ledger.append_event(EventKind.PERIODIC_PAYOUT, "scp", qci=1, payload=(("amount", 7),))
        if period % 2:
            probe()
        ledger.advance_period()


class TestRollingEventDigest:
    def test_digest_reads_do_not_change_the_final_digest(self):
        probed = Ledger()
        seen = []
        event_history(probed, probe=lambda: seen.append(probed.state_digest()))
        probed.canonical_state()
        once = Ledger()
        event_history(once)
        for ledger in (probed, once):  # a tail longer than one fold batch
            for amount in range(600):
                ledger.append_event(EventKind.WITHDRAWAL, "a", payload=(("amount", amount),))
        assert len(set(seen)) == len(seen)  # every probe saw a different history
        assert probed.state_digest() == once.state_digest()

    @pytest.mark.parametrize(
        "change",
        [
            {"index": 9},
            {"period": 1},
            {"kind": EventKind.WITHDRAWAL},
            {"subject": "b"},
            {"qci": 2},
            {"payload": (("amount", 8),)},
        ],
        ids=["index", "period", "kind", "subject", "qci", "payload-value"],
    )
    def test_each_event_field_is_covered(self, change):
        """Two ledgers whose one event differs in one field fold different digests."""

        def folded(index=0, period=0, kind=EventKind.DEPOSIT, subject="a", qci=1,
                   payload=(("amount", 7),)):
            heard = []
            ledger = Ledger(events=heard.append)
            ledger.append_event(EventKind.SCP_REGISTERED, "a")  # so the event's index is 1
            if period:
                ledger.advance_period()
            ledger.append_event(kind, subject, qci=qci, payload=payload)
            if not period:
                ledger.advance_period()  # either way the clock ends in period 1
            if index:
                # an index is the count of the events before it, which no call
                # sets alone: the ledger folds the documented rows, which then
                # stand in for those with the index changed
                assert [event.index for event in heard] == [0, 1]
                assert ledger.canonical_state()["events"] == documented_events_state(heard)
                return documented_events_state([heard[0], heard[1]._replace(index=index)])
            return ledger.canonical_state()["events"]

        assert folded(**change) != folded()

    def test_canonical_state_holds_count_and_documented_sha256(self, ledger, events):
        event_history(ledger)
        assert joined_rows(events).startswith('[0,0,"Deposit","a",null,[["amount",0]]],[1,0,')
        assert ledger.canonical_state()["events"] == documented_events_state(events)
        assert len(events) == 12


def joined_rows(events):
    """The documented digest rows, ``[index,period,"Kind",subject,qci,payload],`` each."""
    return "".join(
        json.dumps(
            [e.index, e.period, e.kind.value, e.subject, e.qci, e.payload],
            separators=(",", ":"),
        )
        + ","
        for e in events
    )


def documented_events_state(events):
    """The ``events`` entry of ``canonical_state`` that ``events`` must give."""
    sha256 = hashlib.sha256(joined_rows(events).encode("utf-8")).hexdigest()
    return {"count": len(events), "sha256": sha256}


def settlement_events(ledger, count, probe):
    """Append ``count`` events the report fold reads, three to a period, and
    call ``probe`` after events 100 and 300, in the middle of a fold batch."""
    for i in range(count):
        if i == 0:
            ledger.append_event(EventKind.SCP_REGISTERED, "scp")
        elif i % 3 == 1:
            ledger.append_event(EventKind.PERIODIC_PAYOUT, "scp", payload=(("payout", i),))
        elif i % 3 == 2:
            debit = (("deficit", 2), ("debit", 1))
            ledger.append_event(EventKind.INSUFFICIENT_THROUGHPUT, "scp", qci=1, payload=debit)
        else:
            ledger.advance_period()
            ledger.append_event(EventKind.WITHDRAWAL, "scp", payload=(("amount", 1),))
        if i in (100, 300):
            probe()


def assert_keeps_only_the_unfolded_tail(ledger):
    indices = [ledger.append_event(EventKind.DEPOSIT, "a") for _ in range(3 * _FOLD_BATCH)]
    assert indices == list(range(3 * _FOLD_BATCH))
    assert ledger._events == []  # every full batch was folded and dropped
    ledger.append_event(EventKind.DEPOSIT, "a")
    assert len(ledger._events) == 1
    ledger.state_digest()
    assert ledger._events == []


class TestAppendEvents:
    @pytest.mark.parametrize("before", [0, 200, 255])
    @pytest.mark.parametrize("size", [0, 1, 56, 300, 600])
    def test_batch_equals_one_append_event_per_item(self, before, size):
        """Same indices, sink records and digest, and fewer than ``_FOLD_BATCH``
        events held after every call, also for batches that cross a fold."""
        items = [(f"scp-{i % 7}", i % 3 or None, (("payout", i), ("period", 1)))
                 for i in range(size)]
        heard = {"batched": [], "single": []}
        ledgers = {name: Ledger(events=sink.append) for name, sink in heard.items()}
        indices = {}
        for name, ledger in ledgers.items():
            for amount in range(before):
                ledger.append_event(EventKind.DEPOSIT, "a", payload=(("amount", amount),))
                assert len(ledger._events) < _FOLD_BATCH
            ledger.advance_period()
            if name == "batched":
                indices[name] = ledger.append_events(EventKind.PERIODIC_PAYOUT, items)
                assert len(ledger._events) < _FOLD_BATCH
            else:
                indices[name] = []
                for subject, qci, payload in items:
                    indices[name].append(
                        ledger.append_event(EventKind.PERIODIC_PAYOUT, subject, qci, payload)
                    )
                    assert len(ledger._events) < _FOLD_BATCH
        assert indices["batched"] == before == ledgers["batched"].num_events - size
        assert indices["single"] == list(range(before, before + size))
        assert heard["batched"] == heard["single"]
        assert all(type(event) is EventRecord for event in heard["batched"])
        batched, single = ledgers["batched"], ledgers["single"]
        assert batched.canonical_state() == single.canonical_state()
        assert batched.canonical_state()["events"] == documented_events_state(heard["batched"])
        assert batched.state_digest() == single.state_digest()


class TestEventSink:
    """A sink only hears the events: it changes no state of the ledger."""

    @pytest.mark.parametrize("count", [0, 255, 256, 257, 513])
    def test_sink_ledger_equals_list_ledger(self, count):
        heard = []
        streamed, sinkless = Ledger(io.StringIO(), heard.append), Ledger(io.StringIO())
        probes = {streamed: [], sinkless: []}
        for ledger in (streamed, sinkless):
            ledger.create_account(count, "scp")  # one logged entry, so the logs are not empty
            settlement_events(ledger, count, lambda: probes[ledger].append(ledger.state_digest()))
        assert probes[streamed] == probes[sinkless]
        assert len(probes[sinkless]) == (count > 100) + (count > 300)
        assert streamed.num_entries == sinkless.num_entries == 1
        assert streamed.txlog.getvalue() == sinkless.txlog.getvalue() != ""
        assert streamed.canonical_state() == sinkless.canonical_state()
        assert streamed.canonical_state()["events"]["count"] == streamed.num_events == count
        assert streamed.state_digest() == sinkless.state_digest()
        assert [e.index for e in heard] == list(range(count))
        assert sinkless.canonical_state()["events"] == documented_events_state(heard)

    def test_sink_ledger_keeps_only_the_unfolded_tail(self):
        assert_keeps_only_the_unfolded_tail(Ledger(events=lambda event: None))

    def test_sinkless_ledger_keeps_only_the_unfolded_tail(self):
        assert_keeps_only_the_unfolded_tail(Ledger())
