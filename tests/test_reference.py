"""Whole-run reference settlement: ``drive``'s report against the README's rules.

A run's report comes from ``drive``, ``detect_breaches``, the contract and
``RowFold``, and the pinned hashes elsewhere come from that same code.
``settle`` recomputes the report from the settlement rules the README states,
period by period, with no ledger, contract or event, on the trace that
``reference_trace`` builds; the tests compare every row field, the summary
and the contract's own records with it.  This is differential testing
(W. McKeeman, "Differential Testing for Software", Digital Technical Journal
10(1), 1998).
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import folded_run, make_flat_terms, make_terms
from test_traffic import reference_trace, scenarios
from slasim import FLAT_RATE, DegradationWindow, ScenarioConfig, ScpScenario, TrafficModel, drive
from slasim.errors import InsufficientEscrowForAccrual
from slasim.report import ScpRow


def settle(config):
    """``(rows, summary, strikes, abort)`` of a run of ``config``, from the rules alone.

    ``abort`` is the first period whose accrual the escrow cannot cover, where
    the run stops, or None; the rest is as of the end of the run or the stop.
    """
    streams, periods = reference_trace(config)
    terms = {scp.label: scp.terms for scp in config.scps}
    rows = {label: ScpRow(label) for label in sorted(terms)}
    strikes = dict.fromkeys(terms, 0)
    events = len(terms) + 1  # one registration each, and the deposit
    abort = None
    for period, values in enumerate(periods):
        active = {label for label, row in rows.items() if row.removal_period is None}
        served = dict.fromkeys(active, 0)  # price * kb, summed over the provider's QCIs
        struck = set()
        for (label, qci), kb in zip(streams, values):
            if label not in active:
                continue
            t, row = terms[label], rows[label]
            served[label] += t.price_per_kb.get(qci, 0) * kb
            # a breach is measured < agreed, and a provider removed earlier in
            # the period takes no further debit
            if kb < t.agreed_throughput[qci] and row.removal_period is None:
                num, den = t.penalty_rate
                debit = num * (t.agreed_throughput[qci] - kb) // den
                row.penalized += debit
                row.final_credit -= debit
                events += 1
                if label not in struck:  # at most one strike per period
                    struck.add(label)
                    strikes[label] += 1
                    if strikes[label] == t.strike_limit:
                        row.removal_period = period
                        events += 1
        # the close pays the providers still active, if the escrow covers
        # every positive credit once they are paid
        paid = {
            label: terms[label].flat_rate_per_period
            if terms[label].payment_mode == FLAT_RATE else served[label]
            for label in active if rows[label].removal_period is None
        }
        owed = sum(max(row.final_credit + paid.get(label, 0), 0) for label, row in rows.items())
        if config.escrow_deposit < owed:
            abort = period
            break
        for label, payout in paid.items():
            row = rows[label]
            row.earned += payout
            row.final_credit += payout
            events += 1
            if label not in struck:  # a clean period resets the count
                strikes[label] = 0
            row.strikes_timeline.append(strikes[label])
    else:  # every provider withdraws its positive credit
        for row in rows.values():
            if row.final_credit > 0:
                row.withdrawn, row.final_credit = row.final_credit, 0
                events += 1
    ran = config.num_periods if abort is None else abort
    for label, row in rows.items():  # a removed provider's count stays frozen
        row.strikes_timeline += [strikes[label]] * (ran - len(row.strikes_timeline))
    withdrawn = sum(row.withdrawn for row in rows.values())
    summary = {
        "total_deposits": config.escrow_deposit,
        "escrow_remaining": config.escrow_deposit - withdrawn,
        "total_withdrawn": withdrawn,
        "total_recovered": 0,
        "num_events": events,
    }
    return rows, summary, strikes, abort


def assert_drive_settles_as_reference(config):
    """``drive`` on ``config`` gives ``settle``'s report, or aborts where it does."""
    rows, summary, strikes, abort = settle(config)
    ledger, contract, fold = folded_run(config)
    if abort is None:
        report = drive(ledger, contract, config, fold)
        assert report.rows == rows
        assert report.to_dict()["summary"] == summary
    else:
        with pytest.raises(InsufficientEscrowForAccrual):
            drive(ledger, contract, config, fold)
        assert ledger.current_period == abort
        assert fold.rows(abort) == rows
    assert {
        "total_deposits": contract.total_deposits,
        "escrow_remaining": contract.escrow,
        "total_withdrawn": contract.total_withdrawn,
        "total_recovered": contract.total_recovered,
        "num_events": ledger.num_events,
    } == summary
    # the contract's records, which the rows are not read from, agree too
    assert {
        label: (record.credit, record.consecutive_strikes, record.active)
        for label, record in contract.registry.items()
    } == {
        label: (row.final_credit, strikes[label], row.removal_period is None)
        for label, row in rows.items()
    }
    return abort


def one_stream(label, windows, limit=3, agreed=800, price=1):
    """An SCP serving 1000 kb a period on QCI 1, halved in each of ``windows``."""
    terms = make_terms(agreed_throughput={1: agreed}, price_per_kb={1: price},
                       penalty_rate=(1, 1), strike_limit=limit)
    degradations = [DegradationWindow(start, end, (1, 2)) for start, end in windows]
    traffic = {1: TrafficModel(nominal_kb=1000, degradations=degradations)}
    return ScpScenario(label=label, terms=terms, traffic=traffic)


def config_of(*scps, escrow=10**6, periods=10):
    return ScenarioConfig(seed=5, num_periods=periods, escrow_deposit=escrow, scps=list(scps))


# breaches in periods 0, 2-3 and 5-7: strike counts 1, 0, 1, 2, 0, 1, 2, 3, so
# the removal is in period 7 and periods 8-9 pay nothing
STRUCK_OUT = one_stream("scp-b", [(0, 0), (2, 3), (5, 7)])
CLEAN = replace(STRUCK_OUT, label="scp-a",
                terms=make_flat_terms(rate=700, agreed_throughput={1: 0}))
# measured exactly at the agreed level every period: never a breach
AT_LEVEL = one_stream("scp-c", [], limit=1, agreed=1000)


@pytest.mark.parametrize(
    "config, aborts",
    [
        (config_of(STRUCK_OUT, CLEAN, AT_LEVEL), False),
        (config_of(one_stream("scp-b", [(1, 4)], limit=2, price=3), periods=6), False),
        # the escrow runs out during the run
        (config_of(STRUCK_OUT, CLEAN, escrow=9_000), True),
    ],
    ids=["strikes-and-removal", "removal-at-limit", "escrow-runs-out"],
)
def test_hand_built_runs_settle_as_the_reference(config, aborts):
    assert (assert_drive_settles_as_reference(config) is not None) == aborts


def test_the_hand_built_run_reaches_what_it_is_there_for():
    rows, _, _, _ = settle(config_of(STRUCK_OUT, CLEAN, AT_LEVEL))
    assert rows["scp-b"].removal_period == 7
    assert rows["scp-b"].strikes_timeline == [1, 0, 1, 2, 0, 1, 2, 3, 3, 3]
    assert rows["scp-a"].earned == 7_000 and rows["scp-c"].penalized == 0


SHARES = st.integers(1, 4).flatmap(lambda den: st.tuples(st.integers(0, 2 * den), st.just(den)))


@st.composite
def settled_scenarios(draw):
    """A ``scenarios()`` trace under drawn terms, with an escrow that may run out.

    Each agreed level is a share of its stream's nominal kb, up to twice it,
    so streams breach, tie and pass; the escrow is a share, up to twice, of
    every payout the run could make, so some runs abort.
    """
    config = draw(scenarios())
    scps = []
    for scp in config.scps:
        agreed = {}
        for qci, model in scp.traffic.items():
            num, den = draw(SHARES)
            agreed[qci] = model.nominal_kb * num // den
        common = dict(agreed_throughput=agreed, penalty_rate=draw(SHARES),
                      strike_limit=draw(st.integers(1, 4)))
        if draw(st.booleans()):
            nominal = sum(model.nominal_kb for model in scp.traffic.values())
            terms = make_flat_terms(rate=nominal * draw(st.integers(0, 3)), **common)
        else:
            prices = {qci: draw(st.integers(0, 3)) for qci in agreed}
            terms = make_terms(price_per_kb=prices, **common)
        scps.append(replace(scp, terms=terms))
    streams, periods = reference_trace(config)
    terms = {scp.label: scp.terms for scp in scps}
    flat = sum(t.flat_rate_per_period for t in terms.values() if t.payment_mode == FLAT_RATE)
    most = config.num_periods * flat + sum(  # a flat-rate provider agrees no price
        terms[label].price_per_kb.get(qci, 0) * kb
        for values in periods for (label, qci), kb in zip(streams, values)
    )
    num, den = draw(SHARES)
    return replace(config, scps=scps, escrow_deposit=most * num // den)


@settings(max_examples=150, deadline=None)
@given(config=settled_scenarios())
def test_random_runs_settle_as_the_reference(config):
    assert_drive_settles_as_reference(config)
