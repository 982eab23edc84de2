"""Settlement liveness: a stateful machine over every contract operation.

Hypothesis drives one ``SlaContract`` through random sequences of its
operations (register and re-register, deposit, traffic, breach batches,
close, withdraw, disable, recover) and of changes the caller makes to its own
terms object after registering them.  After every step the machine checks
solvency (``escrow >= positive_credit_sum()``), fund conservation, that no
balance is negative and that the log written so far replays to the live
digest; after each close that goes through, that the registry matches the
event fold.  A rule lets no exception but a ``ContractError`` escape.  At
teardown the owner disables the contract and recovers, then every provider
withdraws, and the escrow must be empty.

The escrow starts small and deposits stay small, so ``close_period``'s cover
check, the contract's one solvency guard, refuses closes.  The machine is
that guard's oracle beside ``verify.conservation_fuzz``, which tops its
escrow up only after a refused close.
"""

import io
from contextlib import suppress

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from conftest import entries_of, make_flat_terms, make_terms, registry_matches_events
from slasim import Ledger, SlaContract
from slasim.config import to_json
from slasim.errors import ContractError
from slasim.replay import replay_entries
from slasim.report import RowFold

# one per-traffic provider, one flat-rate, one that a single breach removes
# (each a fresh JSON object, as register_scp takes them)
TERMS = {
    "scp-a": lambda: to_json(make_terms()),
    "scp-b": lambda: to_json(make_flat_terms(rate=120)),
    "scp-c": lambda: to_json(
        make_terms(strike_limit=1, price_per_kb={1: 1, 5: 3}, penalty_rate=(1, 20))
    ),
}
SCPS = sorted(TERMS)
MAX_STREAMS = 5  # two QCIs each for scp-a and scp-c, one for scp-b

# changes a caller may make to its own terms object after registering it
EDITS = {
    "price": lambda terms: terms["price_per_kb"].update({"1": 50}),
    "level": lambda terms: terms["agreed_throughput"].update({"1": 9_999}),
    "flat rate": lambda terms: terms.update(flat_rate_per_period=7_777),
    "strike limit": lambda terms: terms.update(strike_limit=99),
}


class LivenessMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.fold = RowFold()
        self.ledger = Ledger(io.StringIO(), self.fold.add)
        self.owner = self.ledger.create_account(10**7, "mno")
        self.contract = SlaContract(self.ledger, self.owner)
        for scp in SCPS:
            address = self.ledger.create_account(0, scp)
            self.contract.register_scp(self.owner, address, TERMS[scp]())
        self.contract.deposit(self.owner, 500)
        self.total = self.ledger.total_balance()

    def attempt(self, op, *args):
        """Call ``op``; True if it went through, False if the contract refused it."""
        try:
            op(*args)
        except ContractError:
            return False
        return True

    def close(self):
        closed = self.attempt(self.contract.close_period, self.owner)
        if closed:
            assert registry_matches_events(self.contract, self.fold) is None
        return closed

    # --- rules ----------------------------------------------------------------

    @rule(scp=st.sampled_from(SCPS))
    def register(self, scp):
        self.attempt(self.contract.register_scp, self.owner, scp, TERMS[scp]())

    @rule(scp=st.sampled_from(SCPS), edit=st.sampled_from(sorted(EDITS)))
    def register_then_edit_terms(self, scp, edit):
        terms = TERMS[scp]()
        if self.attempt(self.contract.register_scp, self.owner, scp, terms):
            EDITS[edit](terms)

    @rule(amount=st.integers(0, 1_500))
    def deposit(self, amount):
        self.attempt(self.contract.deposit, self.owner, amount)

    @rule(kb=st.lists(st.integers(0, 400), min_size=MAX_STREAMS, max_size=MAX_STREAMS))
    def traffic(self, kb):
        self.attempt(self.contract.record_traffic, self.owner, kb[: self.contract.num_streams])

    @precondition(lambda self: self.contract.num_streams)
    @rule(pairs=st.lists(st.tuples(st.integers(0, MAX_STREAMS - 1), st.integers(1, 300)),
                         min_size=1, max_size=3))
    def breach(self, pairs):
        width = self.contract.num_streams
        batch = sorted({stream % width: deficit for stream, deficit in pairs}.items())
        self.attempt(self.contract.throughput_breach, self.owner, batch)

    @rule()
    def close_period(self):
        self.close()

    @rule(scp=st.sampled_from(SCPS), deficit=st.integers(1, 300))
    def strike_out(self, scp, deficit):
        """Breach ``scp`` and close, up to its strike limit, so that credit is archived."""
        record = self.contract.registry[scp]
        for _ in range(record.terms.strike_limit):
            if not record.active or self.contract.disabled:
                return
            stream = self.contract.stream_of(scp, record.qcis[0])
            self.attempt(self.contract.throughput_breach, self.owner, [(stream, deficit)])
            if not self.close():
                return

    @rule(scp=st.sampled_from(SCPS))
    def withdraw(self, scp):
        self.attempt(self.contract.withdraw, scp)

    @rule()
    def disable(self):
        self.attempt(self.contract.failsafe_disable, self.owner)

    @rule()
    def recover(self):
        self.attempt(self.contract.recover_escrow, self.owner)

    # --- invariants -----------------------------------------------------------

    @invariant()
    def solvent(self):
        assert self.contract.escrow >= self.contract.positive_credit_sum()

    @invariant()
    def funds_conserved(self):
        contract = self.contract
        assert contract.total_deposits == (
            contract.escrow + contract.total_withdrawn + contract.total_recovered
        )
        assert self.ledger.total_balance() == self.total
        assert min(self.ledger.balances.values()) >= 0

    @invariant()
    def log_replays_to_the_live_state(self):
        replayed = replay_entries(entries_of(self.ledger))
        assert replayed.state_digest() == self.ledger.state_digest()

    def teardown(self):
        with suppress(ContractError):  # already disabled
            self.contract.failsafe_disable(self.owner)
        self.contract.recover_escrow(self.owner)
        for scp in SCPS:
            with suppress(ContractError):  # nothing owed
                self.contract.withdraw(scp)
        assert self.contract.escrow == 0


TestLiveness = LivenessMachine.TestCase
TestLiveness.settings = settings(max_examples=100, stateful_step_count=40, deadline=None)
