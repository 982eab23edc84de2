"""Ledger substrate: accounts, events, period clock, digests."""

import hashlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slasim import EventKind, EventRecord, Ledger, SlaContract, replay, verify
from slasim.errors import DuplicateAddress, InsufficientFunds, UnknownAddress
from slasim.ledger import EVENT_FIELDS


class TestAccounts:
    def test_create_zero_balance(self, ledger):
        addr = ledger.create_account(0, "a")
        assert ledger.balance(addr) == 0

    def test_balance_readback(self, ledger):
        addr = ledger.create_account(1_000_000, "a")
        assert ledger.balance(addr) == 1_000_000

    def test_duplicate_label_rejected(self, ledger):
        ledger.create_account(0, "x")
        with pytest.raises(DuplicateAddress):
            ledger.create_account(0, "x")

    def test_negative_balance_rejected(self, ledger):
        with pytest.raises(ValueError):
            ledger.create_account(-1, "a")

    def test_unknown_address(self, ledger):
        with pytest.raises(UnknownAddress):
            ledger.balance("nobody")


class TestTransfer:
    def test_zero_transfer(self, ledger):
        a = ledger.create_account(100, "a")
        b = ledger.create_account(0, "b")
        ledger.transfer(a, b, 0)
        assert ledger.balance(a) == 100
        assert ledger.balance(b) == 0

    def test_exact_arithmetic(self, ledger):
        a = ledger.create_account(100, "a")
        b = ledger.create_account(0, "b")
        ledger.transfer(a, b, 40)
        assert ledger.balance(a) == 60
        assert ledger.balance(b) == 40

    def test_insufficient_funds_no_state_change(self, ledger):
        a = ledger.create_account(10, "a")
        b = ledger.create_account(0, "b")
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
        a = ledger.create_account(initial, "a")
        b = ledger.create_account(100, "b")
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
        assert ledger.append_event(EventKind.DEPOSIT, "a", None, 5) == 0

    def test_indices_contiguous(self, ledger):
        indices = [ledger.append_event(EventKind.DEPOSIT, "a", None, 5) for _ in range(3)]
        assert indices == [0, 1, 2]

    def test_readback(self, ledger, events):
        ledger.append_event(EventKind.INSUFFICIENT_THROUGHPUT, "scp", 5, 7, 35)
        [record] = events
        assert record.kind is EventKind.INSUFFICIENT_THROUGHPUT
        assert record.subject == "scp"
        assert record.qci == 5
        assert record.values == (7, 35)
        names = EVENT_FIELDS[record.kind]
        assert dict(zip(names, record.values)) == {"deficit": 7, "debit": 35}
        assert record.values[names.index("debit")] == 35

    def test_no_filter_returns_everything_in_order(self, ledger, events):
        for i in range(4):
            ledger.append_event(EventKind.DEPOSIT, f"a{i}", None, i)
        assert [r.index for r in events] == [0, 1, 2, 3]

    def test_append_only_prefix(self, ledger, events):
        ledger.append_event(EventKind.DEPOSIT, "a", None, 1)
        earlier = list(events)
        ledger.append_event(EventKind.DEPOSIT, "b", None, 2)
        later = list(events)
        assert later[: len(earlier)] == earlier

    def test_event_fields_cover_every_kind(self):
        assert len(EVENT_FIELDS) == len(EventKind)
        assert set(EVENT_FIELDS) == set(EventKind)
        for names in EVENT_FIELDS.values():
            assert len(set(names)) == len(names)
            assert all(type(name) is str for name in names)

    @pytest.mark.parametrize("values", [(), (1, 2, 3)], ids=["too-few", "too-many"])
    def test_values_not_as_declared_are_rejected(self, values):
        heard = []
        ledger = Ledger(events=heard.append)
        ledger.append_event(EventKind.DEPOSIT, "a", None, 1)
        before = ledger.canonical_state()
        with pytest.raises(TypeError):
            ledger.append_event(EventKind.INSUFFICIENT_THROUGHPUT, "a", 1, *values)
        assert ledger.canonical_state() == before
        assert len(heard) == 1


class TestPeriodClock:
    def test_first_advance(self, ledger):
        assert ledger.advance_period() == 1

    def test_n_advances(self, ledger):
        for _ in range(7):
            ledger.advance_period()
        assert ledger.current_period == 7

    def test_events_carry_new_period(self, ledger, events):
        ledger.advance_period()
        ledger.append_event(EventKind.DEPOSIT, "a", None, 1)
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
            ledger.append_event(EventKind.DEPOSIT, a, None, 30)
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
        ledger.append_event(EventKind.DEPOSIT, "a", None, period)
        probe()
        ledger.append_event(EventKind.INSUFFICIENT_THROUGHPUT, "scp", 5, 3, 1)
        ledger.append_event(EventKind.PERIODIC_PAYOUT, "scp", 1, 7, period)
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
                ledger.append_event(EventKind.WITHDRAWAL, "a", None, amount)
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
            {"values": (8,)},
        ],
        ids=["index", "period", "kind", "subject", "qci", "payload-value"],
    )
    def test_each_event_field_is_covered(self, change):
        """Two ledgers whose one event differs in one field fold different digests."""

        def folded(index=0, period=0, kind=EventKind.DEPOSIT, subject="a", qci=1, values=(7,)):
            heard = []
            ledger = Ledger(events=heard.append)
            ledger.append_event(EventKind.SCP_REGISTERED, "a")  # so the event's index is 1
            if period:
                ledger.advance_period()
            ledger.append_event(kind, subject, qci, *values)
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
    """The documented digest rows, ``[index,period,"Kind",subject,qci,[[name,value],...]],`` each."""
    return "".join(
        json.dumps(
            [e.index, e.period, e.kind.value, e.subject, e.qci,
             [[name, value] for name, value in zip(EVENT_FIELDS[e.kind], e.values)]],
            separators=(",", ":"),
        )
        + ","
        for e in events
    )


def documented_events_state(events):
    """The ``events`` entry of ``canonical_state`` that ``events`` must give."""
    sha256 = hashlib.sha256(joined_rows(events).encode("utf-8")).hexdigest()
    return {"count": len(events), "sha256": sha256}


class RowHash:
    """The documented SHA-256 of a growing list of events, updated with the new ones."""

    def __init__(self) -> None:
        self.sha256 = hashlib.sha256()
        self.count = 0

    def assert_covers(self, ledger, events):
        """``ledger``'s running SHA-256, read without taking a digest, already
        covers every event of ``events``: the ledger holds no unhashed row."""
        self.sha256.update(joined_rows(events[self.count:]).encode("utf-8"))
        self.count = len(events)
        assert ledger.num_events == self.count
        assert ledger._events_hash.hexdigest() == self.sha256.hexdigest()


def settlement_events(ledger, count, probe):
    """Append ``count`` events the report fold reads, three to a period, and
    call ``probe`` after events 100 and 300."""
    for i in range(count):
        if i == 0:
            ledger.append_event(EventKind.SCP_REGISTERED, "scp")
        elif i % 3 == 1:
            ledger.append_event(EventKind.PERIODIC_PAYOUT, "scp", None, i, ledger.current_period)
        elif i % 3 == 2:
            ledger.append_event(EventKind.INSUFFICIENT_THROUGHPUT, "scp", 1, 2, 1)
        else:
            ledger.advance_period()
            ledger.append_event(EventKind.WITHDRAWAL, "scp", None, 1)
        if i in (100, 300):
            probe()


def assert_holds_no_unhashed_event(ledger):
    """After each append, the running SHA-256 covers every event so far."""
    rows, appended = RowHash(), []
    for amount in range(600):
        index = ledger.append_event(EventKind.DEPOSIT, "a", None, amount)
        appended.append(EventRecord(index, 0, EventKind.DEPOSIT, "a", None, (amount,)))
        rows.assert_covers(ledger, appended)
    assert [event.index for event in appended] == list(range(600))


# Values the contract never makes (it makes non-negative ints below 2**64),
# but which the row templates must print as JSON does
ANY_INT = st.one_of(
    st.integers(), st.integers(min_value=2**64), st.integers(max_value=-(2**64))
)
ANY_TEXT = st.text(
    st.one_of(
        st.characters(exclude_categories=()),  # surrogates included
        st.sampled_from('"\\/\x00\x1f\x7f\u2028\U0001f600'),
    )
)


class TestAppendEvents:
    @pytest.mark.parametrize("before", [0, 200, 255])
    @pytest.mark.parametrize("size", [0, 1, 56, 300, 600])
    def test_batch_equals_one_append_event_per_item(self, before, size):
        """Same indices, sink records and digest, and no unhashed event held
        after any call."""
        events = [(EventKind.PERIODIC_PAYOUT, f"scp-{i % 7}", i % 3 or None, (i, 1))
                  for i in range(size)]
        heard = {"batched": [], "single": []}
        ledgers = {name: Ledger(events=sink.append) for name, sink in heard.items()}
        indices = {}
        for name, ledger in ledgers.items():
            rows = RowHash()
            for amount in range(before):
                ledger.append_event(EventKind.DEPOSIT, "a", None, amount)
                rows.assert_covers(ledger, heard[name])
            ledger.advance_period()
            if name == "batched":
                indices[name] = ledger.append_events(events)
                rows.assert_covers(ledger, heard[name])
            else:
                indices[name] = []
                for kind, subject, qci, values in events:
                    indices[name].append(ledger.append_event(kind, subject, qci, *values))
                    rows.assert_covers(ledger, heard[name])
        assert indices["batched"] == before == ledgers["batched"].num_events - size
        assert indices["single"] == list(range(before, before + size))
        assert heard["batched"] == heard["single"]
        assert all(type(event) is EventRecord for event in heard["batched"])
        batched, single = ledgers["batched"], ledgers["single"]
        assert batched.canonical_state() == single.canonical_state()
        assert batched.canonical_state()["events"] == documented_events_state(heard["batched"])
        assert batched.state_digest() == single.state_digest()

    @pytest.mark.parametrize("kind", list(EventKind), ids=lambda kind: kind.value)
    @settings(max_examples=25, deadline=None)
    @given(
        events=st.lists(
            st.tuples(
                ANY_TEXT,
                st.none() | ANY_INT,
                st.lists(ANY_INT, min_size=2, max_size=2),
                st.integers(min_value=0, max_value=2),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_row_template_prints_the_json_row(self, kind, events):
        """Each kind's template prints the documented JSON row, for any
        subject text, qci and int values, in one call or one at a time."""
        arity = len(EVENT_FIELDS[kind])
        heard = {"batched": [], "single": []}
        for name, sink in heard.items():
            ledger = Ledger(events=sink.append)
            batch = []
            for subject, qci, values, advance in events:
                for _ in range(advance):
                    ledger.advance_period()
                if name == "single":
                    ledger.append_event(kind, subject, qci, *values[:arity])
                else:
                    batch.append((kind, subject, qci, tuple(values[:arity])))
            if batch:
                ledger.append_events(batch)
            assert ledger.canonical_state()["events"] == documented_events_state(heard[name])
        assert [e.subject for e in heard["single"]] == [subject for subject, *_ in events]


class TestEveryOperationHashesItsEvents:
    def test_fuzz_events_are_ints_and_hashed_by_their_operation(self, monkeypatch):
        """Through a fuzz run of every contract operation, each operation's
        events are in the running SHA-256 when it returns or raises, and
        carry only int values."""
        heard, ledgers, rows = [], [], RowHash()

        def sink_ledger():
            ledgers.append(Ledger(events=heard.append))
            return ledgers[-1]

        def checked(method):
            def call(*args, **kwargs):
                try:
                    return method(*args, **kwargs)
                finally:
                    rows.assert_covers(ledgers[0], heard)
            return call

        monkeypatch.setattr(verify, "Ledger", sink_ledger)
        for op in replay.CONTRACT_OPS:
            monkeypatch.setattr(SlaContract, op, checked(getattr(SlaContract, op)))
        assert verify.conservation_fuzz(2_000, seed=1234) is None
        assert len(ledgers) == 1
        assert {event.kind for event in heard} == set(EventKind)
        assert all(type(v) is int for event in heard for v in event.values)
        assert all(len(event.values) == len(EVENT_FIELDS[event.kind]) for event in heard)


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

    def test_sink_ledger_holds_no_unhashed_event(self):
        assert_holds_no_unhashed_event(Ledger(events=lambda event: None))

    def test_sinkless_ledger_holds_no_unhashed_event(self):
        assert_holds_no_unhashed_event(Ledger())
