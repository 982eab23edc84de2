"""Monitoring simulator: trace generation, breach detection, scenario driving."""

import io
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import entries_of, folded_run, make_terms, registry_matches_events
from slasim import (
    DegradationWindow,
    EventKind,
    ScenarioConfig,
    ScpScenario,
    SlaContract,
    TrafficModel,
    TrafficTrace,
    detect_breaches,
    drive,
    generate_trace,
    traffic,
)
from slasim.cli import setup_run
from slasim.report import RowFold
from slasim.rng import splitmix64, stream_key


def scenario(num_periods=10, variability=(0, 1), degradations=(), nominal=1000,
             agreed=800, seed=7, escrow=1_000_000, price=2):
    terms = make_terms(
        agreed_throughput={1: agreed}, price_per_kb={1: price}, penalty_rate=(1, 1)
    )
    traffic = {1: TrafficModel(nominal_kb=nominal, variability=variability,
                               degradations=list(degradations))}
    return ScenarioConfig(
        seed=seed,
        num_periods=num_periods,
        escrow_deposit=escrow,
        scps=[ScpScenario(label="scp-1", terms=terms, traffic=traffic)],
    )


def only_kb(trace, period):
    """The kb of a one-stream trace's only stream in ``period``."""
    assert trace.streams == [("scp-1", 1)]
    [kb] = list(trace.periods)[period]
    return kb


class TestGenerateTrace:
    def test_zero_variability_hits_nominal(self):
        trace = generate_trace(scenario())
        for period in range(10):
            assert only_kb(trace, period) == 1000

    def test_zero_multiplier_annihilates(self):
        config = scenario(degradations=[DegradationWindow(3, 5, (0, 1))])
        trace = generate_trace(config)
        for period in range(10):
            expected = 0 if 3 <= period <= 5 else 1000
            assert only_kb(trace, period) == expected

    def test_multipliers_compose_with_floor(self):
        config = scenario(
            degradations=[DegradationWindow(0, 9, (1, 2)), DegradationWindow(0, 9, (2, 3))]
        )
        trace = generate_trace(config)
        # 1000 -> 500 -> 333
        assert only_kb(trace, 0) == 333

    def test_same_seed_identical(self):
        a = generate_trace(scenario(variability=(1, 4)))
        b = generate_trace(scenario(variability=(1, 4)))
        assert list(a.periods) == list(b.periods)

    def test_different_seed_differs(self):
        a = generate_trace(scenario(variability=(1, 4), seed=1, num_periods=50))
        b = generate_trace(scenario(variability=(1, 4), seed=2, num_periods=50))
        assert list(a.periods) != list(b.periods)

    def test_draws_stay_in_bounds(self):
        trace = generate_trace(scenario(variability=(1, 4), num_periods=200))
        lo, hi = 750, 1250
        values = [only_kb(trace, p) for p in range(200)]
        assert all(lo <= v <= hi for v in values)
        assert len(set(values)) > 1

    def test_largest_nominal_still_runs(self):
        # the reader admits nominal_kb up to 2**62 - 1; with full variability a
        # sample reaches twice that, and settles exactly as a Python int
        nominal = 2**62 - 1
        config = scenario(nominal=nominal, variability=(1, 1), agreed=0, num_periods=20,
                          escrow=2**70)
        trace = generate_trace(config)
        values = [only_kb(trace, p) for p in range(20)]
        assert all(0 <= v <= 2 * nominal for v in values)
        assert max(values) > nominal
        ledger, contract, fold = folded_run(config)
        assert drive(ledger, contract, config, fold).rows["scp-1"].withdrawn == 2 * sum(values)

    def test_slices_in_label_and_qci_order(self):
        terms = make_terms()  # QCIs 1 and 5
        traffic = {5: TrafficModel(nominal_kb=500), 1: TrafficModel(nominal_kb=1000)}
        config = ScenarioConfig(
            seed=7,
            num_periods=3,
            escrow_deposit=1_000_000,
            scps=[ScpScenario(label=label, terms=terms, traffic=traffic)
                  for label in ("scp-c", "scp-a", "scp-b")],
        )
        trace = generate_trace(config)
        keys = [(label, qci) for label in ("scp-a", "scp-b", "scp-c") for qci in (1, 5)]
        assert trace.streams == keys
        assert [len(kb) for kb in trace.periods] == [len(keys)] * 3
        # the same order as the contract's, but drive does not rely on it: it
        # reads contract.stream_order (see test_trace_column_order_is_not_read)
        _, contract = setup_run(config)
        assert contract.stream_order == keys


def reference_trace(config):
    """The trace as a per-sample loop builds it: one scalar draw per value.

    ``generate_trace`` evaluates a period's draws lane-parallel instead; this
    is the loop it replaced, kept as the oracle it must equal.
    """
    streams = []
    for scp_index, scp in enumerate(config.scps):
        for qci in sorted(scp.traffic):
            model = scp.traffic[qci]
            vnum, vden = model.variability
            lo = model.nominal_kb * (vden - vnum) // vden
            hi = model.nominal_kb * (vden + vnum) // vden
            key = stream_key(config.seed, scp_index, qci)
            streams.append((scp.label, qci, key, lo, hi, model.degradations))
    streams.sort(key=lambda stream: stream[:2])
    periods = []
    for period in range(config.num_periods):
        values = []
        for _, _, key, lo, hi, windows in streams:
            if lo == hi:
                value = lo
            else:
                value = lo + splitmix64(key ^ period) % (hi - lo + 1)
            for window in windows:
                if window.start <= period <= window.end:
                    mnum, mden = window.multiplier
                    value = value * mnum // mden
            values.append(value)
        periods.append(values)
    return [(label, qci) for label, qci, *_ in streams], periods


def assert_matches_reference(config):
    trace = generate_trace(config)
    streams, periods = reference_trace(config)
    assert trace.streams == streams
    assert [list(kb) for kb in trace.periods] == periods


def provider(label, traffic):
    """An SCP whose terms agree every QCI of ``traffic``, at level 0."""
    terms = make_terms(agreed_throughput=dict.fromkeys(traffic, 0),
                       price_per_kb=dict.fromkeys(traffic, 1))
    return ScpScenario(label=label, terms=terms, traffic=traffic)


def multi_stream_scenario(num_periods=12):
    """Three providers, listed out of label order, with every window shape."""
    last = num_periods - 1
    return ScenarioConfig(
        seed=2**64 - 1,
        num_periods=num_periods,
        escrow_deposit=10**9,
        scps=[
            provider("scp-c", {
                # lo == hi: every value is the nominal, bar the windows
                1: TrafficModel(nominal_kb=1000, degradations=[
                    DegradationWindow(0, 0, (1, 2)), DegradationWindow(last, last, (2, 3))]),
                5: TrafficModel(nominal_kb=777, variability=(1, 1), degradations=[
                    DegradationWindow(2, 6, (1, 3)), DegradationWindow(4, 9, (2, 7)),
                    DegradationWindow(5, 5, (0, 1))]),
            }),
            provider("scp-a", {
                1: TrafficModel(nominal_kb=0, variability=(1, 2)),
                5: TrafficModel(nominal_kb=2**62 - 1, variability=(1, 10), degradations=[
                    DegradationWindow(0, last, (5, 7)), DegradationWindow(3, 3, (1, 1))]),
                9: TrafficModel(nominal_kb=3, variability=(2, 3)),
            }),
            provider("scp-b", {
                1: TrafficModel(nominal_kb=1000, variability=(1, 20), degradations=[
                    DegradationWindow(last, last, (0, 1)), DegradationWindow(1, last, (9, 10))]),
            }),
        ],
    )


FRACTIONS = st.integers(1, 6).flatmap(lambda den: st.tuples(st.integers(0, den), st.just(den)))


@st.composite
def scenarios(draw, qcis=st.integers(0, 9)):
    num_periods = draw(st.integers(1, 12))
    bound = st.integers(0, num_periods - 1)
    windows = st.lists(
        st.builds(lambda a, b, m: DegradationWindow(min(a, b), max(a, b), m),
                  bound, bound, FRACTIONS),
        max_size=3,
    )
    traffic = st.dictionaries(
        qcis,
        st.builds(TrafficModel, nominal_kb=st.integers(0, 2**62 - 1), variability=FRACTIONS,
                  degradations=windows),
        min_size=1, max_size=3,
    )
    # labels drawn in any order, so the trace must sort them
    order = draw(st.permutations(range(draw(st.integers(1, 4)))))
    return ScenarioConfig(seed=draw(st.integers(0, 2**64 - 1)), num_periods=num_periods,
                          escrow_deposit=0,
                          scps=[provider(f"scp-{name}", draw(traffic)) for name in order])


class TestTraceOracle:
    def test_every_window_shape_matches_the_per_sample_loop(self):
        config = multi_stream_scenario()
        assert_matches_reference(config)
        # the scenario does reach the cases it is there for
        trace = generate_trace(config)
        at = dict(zip(trace.streams, zip(*trace.periods)))
        assert at[("scp-c", 1)] == (500,) + (1000,) * 10 + (666,)
        assert at[("scp-c", 5)][5] == 0 and at[("scp-b", 1)][-1] == 0

    @settings(max_examples=60, deadline=None)
    @given(config=scenarios())
    def test_random_scenarios_match_the_per_sample_loop(self, config):
        assert_matches_reference(config)


class TestStreamedTrace:
    def test_every_pass_draws_the_same_periods(self):
        """Each pass over ``periods`` starts at period 0 and yields one kb list per period."""
        config = multi_stream_scenario()
        trace = generate_trace(config)
        first = list(trace.periods)
        assert next(iter(trace.periods)) == first[0]  # a pass left partway ends nothing
        assert list(trace.periods) == first == reference_trace(config)[1]

    def test_run_memory_does_not_grow_with_the_trace(self):
        """``drive``'s peak grows with the rows it folds, not with streams x periods.

        A held trace of 90 streams takes at least 8 bytes a value, so 1,500
        more periods would add over 1 MB; the bound is half that.  The rows'
        strike timelines add 10 x 1,500 list slots.
        """
        def peak(num_periods):
            qcis = range(1, 10)
            terms = make_terms(agreed_throughput=dict.fromkeys(qcis, 0),
                               price_per_kb=dict.fromkeys(qcis, 1))
            config = ScenarioConfig(
                seed=11, num_periods=num_periods, escrow_deposit=10**12,
                scps=[ScpScenario(label=f"scp-{i}", terms=terms,
                                  traffic={q: TrafficModel(nominal_kb=1000, variability=(1, 20))
                                           for q in qcis})
                      for i in range(10)],
            )
            fold = RowFold()  # keeps no events, unlike folded_run's
            ledger, contract = setup_run(config, None, fold.add)
            tracemalloc.start()
            try:
                report = drive(ledger, contract, config, fold)
                held = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report.rows["scp-0"].withdrawn > 0
            return held

        assert peak(2_000) - peak(500) < 1_500 * 90 * 4


class TestDetectBreaches:
    def test_exact_measure_is_not_a_breach(self):
        assert detect_breaches([1000], [1000]) == []

    def test_deficit_is_the_difference(self):
        assert detect_breaches([400], [1000]) == [(0, 600)]

    def test_mixed_slice_deterministic_order(self):
        # 3 SCPs x 2 QCIs, shortfalls only at (b, 1) and (a, 5); by hand:
        terms = {
            label: make_terms(agreed_throughput={1: 1000, 5: 500}, price_per_kb={1: 1, 5: 1})
            for label in ("a", "b", "c")
        }
        streams = [(label, qci) for label in ("a", "b", "c") for qci in (1, 5)]
        agreed = [terms[label].agreed_throughput[qci] for label, qci in streams]
        assert agreed == [1000, 500] * 3
        kb = [1000, 100, 900, 500, 1200, 600]
        # (a, 5) and (b, 1) are streams 1 and 2, in ascending order
        assert detect_breaches(kb, agreed) == [(1, 400), (2, 100)]


class TestDrive:
    def test_closed_form_payout(self):
        # no degradation, zero variability, measured 1000 >= agreed 800:
        # withdrawn = price * nominal * periods = 2 * 1000 * 10
        config = scenario()
        ledger, contract, fold = folded_run(config)
        report = drive(ledger, contract, config, fold)
        row = report.rows["scp-1"]
        assert row.withdrawn == 2 * 1000 * 10
        assert row.penalized == 0
        assert row.removal_period is None

    def test_full_outage_removes_at_third_period(self):
        config = scenario(degradations=[DegradationWindow(2, 7, (0, 1))], agreed=800)
        ledger, contract, fold = folded_run(config)
        report = drive(ledger, contract, config, fold)
        row = report.rows["scp-1"]
        assert row.removal_period == 4  # breaches in periods 2, 3, 4
        # periods 5-9 hold no events: the frozen count is padded to the end
        assert row.strikes_timeline == [0, 0, 1, 2, 3, 3, 3, 3, 3, 3]
        assert contract.registry["scp-1"].active is False
        # removal happens before the period-4 close, so the last payout is period 3
        payouts = [e for e in fold.events if e.kind is EventKind.PERIODIC_PAYOUT]
        assert max(e.period for e in payouts) == 3

    def test_zero_period_scenario(self):
        config = scenario(num_periods=0)
        ledger, contract, fold = folded_run(config)
        report = drive(ledger, contract, config, fold)
        row = report.rows["scp-1"]
        assert (row.earned, row.penalized, row.withdrawn) == (0, 0, 0)
        assert contract.total_deposits == contract.escrow

    def test_report_matches_event_log(self):
        config = scenario(variability=(1, 4), agreed=1000, num_periods=30,
                          degradations=[DegradationWindow(10, 11, (1, 2))])
        ledger, contract, fold = folded_run(config)
        drive(ledger, contract, config, fold)
        # the rows are folded from the event log; check that fold against
        # the live registry, which the contract keeps on its own
        assert registry_matches_events(contract, fold) is None

    def test_breach_event_count_matches_detection(self):
        config = scenario(variability=(1, 4), agreed=1000, num_periods=20)
        trace = generate_trace(config)
        assert trace.streams == [("scp-1", 1)]
        agreed = [config.scps[0].terms.agreed_throughput[1]]
        expected = 0
        removed_at = None
        strikes = 0
        for period, kb in enumerate(trace.periods):
            breaches = detect_breaches(kb, agreed)
            if removed_at is None:
                expected += len(breaches)
                if breaches:
                    strikes += 1
                    if strikes == 3:
                        removed_at = period
                else:
                    strikes = 0
        ledger, contract, fold = folded_run(config)
        drive(ledger, contract, config, fold)
        fired = [e for e in fold.events if e.kind is EventKind.INSUFFICIENT_THROUGHPUT]
        assert len(fired) == expected

    def test_removed_streams_leave_the_vector(self):
        """After a removal each entry holds the trace values of the active streams."""
        config = scenario(variability=(1, 4), agreed=1000, num_periods=30)
        for label in ("scp-0", "scp-2"):  # never breach
            config.scps.append(
                ScpScenario(
                    label=label,
                    terms=make_terms(agreed_throughput={1: 0, 5: 0}, penalty_rate=(1, 1)),
                    traffic={q: TrafficModel(nominal_kb=100 * q, variability=(1, 2))
                             for q in (1, 5)},
                )
            )
        trace = generate_trace(config)
        periods = list(trace.periods)
        ledger, contract, fold = folded_run(config, io.StringIO())
        report = drive(ledger, contract, config, fold)
        removed = report.rows["scp-1"].removal_period
        assert removed is not None and removed < 25
        vectors = [entry["kb"] for entry in entries_of(ledger) if entry["op"] == "record_traffic"]
        assert len(vectors) == 30
        for period, kb in enumerate(vectors):
            expected = [
                value
                for (label, _), value in zip(trace.streams, periods[period])
                if label != "scp-1" or period <= removed
            ]
            assert kb == expected
        assert registry_matches_events(contract, fold) is None

    def test_breach_entries_index_the_active_streams(self):
        """One batch per period with an active breach, indexing the active streams."""
        config = scenario(variability=(1, 4), agreed=1000, num_periods=30)
        # scp-0 never breaches; scp-2, after scp-1 in stream order, is never removed
        for label, level, limit in (("scp-0", 0, 3), ("scp-2", 1000, 100)):
            config.scps.append(
                ScpScenario(
                    label=label,
                    terms=make_terms(agreed_throughput={1: level, 5: level},
                                     penalty_rate=(1, 1), strike_limit=limit),
                    traffic={q: TrafficModel(nominal_kb=1000, variability=(1, 4))
                             for q in (1, 5)},
                )
            )
        trace = generate_trace(config)
        terms = {scp.label: scp.terms for scp in config.scps}
        agreed = [terms[label].agreed_throughput[qci] for label, qci in trace.streams]
        ledger, contract, fold = folded_run(config, io.StringIO())
        report = drive(ledger, contract, config, fold)
        removed = report.rows["scp-1"].removal_period
        assert removed is not None and removed < 25
        batches = {}
        period = 0
        for entry in entries_of(ledger):
            if entry["op"] == "close_period":
                period += 1
            elif entry["op"] == "throughput_breach":
                batches[period] = entry["breaches"]
        expected = {}
        for period, kb in enumerate(trace.periods):
            # the trace index of each stream active when the period's batch is sent
            active = [i for i, (label, _) in enumerate(trace.streams)
                      if label != "scp-1" or period <= removed]
            pairs = [[active.index(i), deficit]
                     for i, deficit in detect_breaches(kb, agreed)
                     if i in active]
            if pairs:
                expected[period] = pairs
        assert batches == expected
        # scp-2 breaches after the removal, through the remapped indices
        assert any(period > removed for period in batches)
        assert registry_matches_events(contract, fold) is None

    def test_trace_column_order_is_not_read(self, monkeypatch):
        """drive takes the stream order from the contract, not from the trace."""
        config = scenario(variability=(1, 4), agreed=1000, num_periods=30)
        for label, level in (("scp-0", 0), ("scp-2", 1000)):
            config.scps.append(
                ScpScenario(
                    label=label,
                    terms=make_terms(agreed_throughput={1: level, 5: level // 2},
                                     penalty_rate=(1, 1), strike_limit=100),
                    traffic={q: TrafficModel(nominal_kb=1000, variability=(1, 4))
                             for q in (1, 5)},
                )
            )
        ledger, contract, fold = folded_run(config, io.StringIO())
        report = drive(ledger, contract, config, fold)
        assert report.rows["scp-1"].removal_period is not None  # the order is read again
        expected = entries_of(ledger)

        original = traffic.generate_trace
        order = list(range(5))
        random.Random(5).shuffle(order)
        assert order != sorted(order)

        def permuted(config):
            trace = original(config)
            return TrafficTrace(
                streams=[trace.streams[i] for i in order],
                periods=[[kb[i] for i in order] for kb in trace.periods],
            )

        monkeypatch.setattr(traffic, "generate_trace", permuted)
        ledger, contract, fold = folded_run(config, io.StringIO())
        drive(ledger, contract, config, fold)
        assert entries_of(ledger) == expected

    def test_run_twice_identical_reports(self):
        config = scenario(variability=(1, 3), agreed=950, num_periods=25)
        results = []
        for _ in range(2):
            ledger, contract, fold = folded_run(config)
            report = drive(ledger, contract, config, fold)
            results.append((report.to_dict(), ledger.state_digest()))
        assert results[0] == results[1]
