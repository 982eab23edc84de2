import io
import json

import pytest

from slasim import FLAT_RATE, PER_TRAFFIC, Ledger, SlaContract, SlaTerms
from slasim.cli import setup_run
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
    contract.register_scp(owner, scp, make_terms())
    contract.deposit(owner, 500_000)
    return ledger, contract, owner, scp
