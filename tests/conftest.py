import io
import json
from typing import Optional

import pytest

from slasim import FLAT_RATE, PER_TRAFFIC, Ledger, SlaContract, SlaTerms
from slasim.cli import setup_run
from slasim.config import to_json
from slasim.report import RowFold


def make_terms(**overrides) -> SlaTerms:
    kwargs = dict(
        payment_mode=PER_TRAFFIC,
        agreed_throughput={1: 1000, 5: 500},
        price_per_kb={1: 2, 5: 1},
        penalty_rate=(5, 1),
        strike_limit=3,
    )
    kwargs.update(overrides)
    return SlaTerms(**kwargs)


def make_flat_terms(rate: int = 500, **overrides) -> SlaTerms:
    kwargs = dict(
        payment_mode=FLAT_RATE,
        agreed_throughput={1: 800},
        flat_rate_per_period=rate,
        penalty_rate=(1, 3),
        strike_limit=3,
    )
    kwargs.update(overrides)
    return SlaTerms(**kwargs)


def breach(contract, scp, qci, deficit):
    """The owner reports one breach of ``scp``'s ``qci`` stream, as a batch of one pair."""
    contract.throughput_breach(contract.owner, [(contract.stream_of(scp, qci), deficit)])


class RecordingFold(RowFold):
    """A ``RowFold`` that also keeps each event it is shown, in ``events``."""

    def __init__(self) -> None:
        super().__init__()
        self.events = []

    def add(self, event) -> None:
        self.events.append(event)
        super().add(event)


def folded_run(config, txlog=None):
    """``setup_run`` with a ``RecordingFold`` as the event sink: (ledger, contract, fold).

    The ledger writes its log to ``txlog``, if given.
    """
    fold = RecordingFold()
    ledger, contract = setup_run(config, txlog, fold.add)
    return ledger, contract, fold


def fold_of(events):
    """A ``RowFold`` that has been shown ``events``, in order, as their ledger's sink is."""
    fold = RowFold()
    for event in events:
        fold.add(event)
    return fold


def registry_matches_events(contract: SlaContract, fold: RowFold) -> Optional[str]:
    """None if the live registry agrees with ``fold``, the report fold of the event log.

    ``fold`` must have seen every event of the ledger, as the ledger's sink
    ``fold.add`` does.  Compares each provider's credit, strikes and active
    flag.  A period-boundary check, as every caller uses it: strikes are read
    off the timeline, which records the count at each close.
    """
    rows = fold.rows(contract.ledger.current_period)
    state = "credit={} strikes={} active={}"
    for addr, record in contract.registry.items():
        row = rows.get(addr)
        if row is None:
            return f"{addr!r} registered but absent from events"
        strikes = row.strikes_timeline[-1] if row.strikes_timeline else 0
        events_say = (row.final_credit, strikes, row.removal_period is None)
        registry_says = (record.credit, record.consecutive_strikes, record.active)
        if events_say != registry_says:
            return (
                f"{addr!r}: events say {state.format(*events_say)}, "
                f"registry says {state.format(*registry_says)}"
            )
    return None


def entries_of(ledger):
    """The entries ``ledger`` has written to its in-memory log, freshly decoded."""
    return [json.loads(line) for line in ledger.txlog.getvalue().splitlines()]


def log_state(ledger):
    """What a rejected operation leaves unchanged: the entry count and the log's text."""
    return ledger.num_entries, ledger.txlog.getvalue()


@pytest.fixture
def events():
    """Every event of the ``ledger`` fixture, in index order: the list is its sink."""
    return []


@pytest.fixture
def ledger(events):
    """A ledger that logs to an in-memory text file and hands its events to ``events``."""
    return Ledger(io.StringIO(), events.append)


@pytest.fixture
def world(ledger):
    """Ledger with a funded contract and one registered provider."""
    owner = ledger.create_account(1_000_000, "mno")
    contract = SlaContract(ledger, owner)
    scp = ledger.create_account(0, "scp-1")
    contract.register_scp(owner, scp, to_json(make_terms()))
    contract.deposit(owner, 500_000)
    return ledger, contract, owner, scp
