"""Model-based test of the account state's record cache.

``AccountState`` reads records through a decoded cache and writes them
back to its trie only when the whole version is read.  This machine runs
credits, signed transfers (valid, wrong nonce, underfunded, gas limit
below intrinsic), root reads, rollbacks to a root read earlier and
history pruning (keeping the current root, or naming only older ones)
against a plain ``dict`` of address -> (balance, nonce),
and checks every root against a trie built from scratch out of the
model's records.
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.common.errors import ValidationError
from repro.common.types import Address
from repro.crypto.keys import KeyPair
from repro.crypto.trie import EMPTY_TRIE_ROOT, MerklePatriciaTrie
from repro.blockchain.gas import TX_BASE_GAS
from repro.blockchain.state import _ACCOUNT_PREFIX, AccountRecord, AccountState
from repro.blockchain.transaction import sign_account_transaction

KEYS = [KeyPair.from_seed(bytes([0x50 + i]) * 32) for i in range(3)]
#: Senders, plus one address nobody holds a key for.
ADDRESSES = [key.address for key in KEYS] + [Address(bytes([0xAB]) * 20)]

#: At most one fault per transfer; most carry none.
FAULTS = (None,) * 4 + ("nonce", "underfunded", "gas")


def expected_root(model):
    trie = MerklePatriciaTrie()
    for address, (balance, nonce) in sorted(model.items()):
        trie.put(_ACCOUNT_PREFIX + bytes(address), AccountRecord(balance, nonce).serialize())
    return trie.root_hash


def credited(model, address, amount):
    """``model`` after ``AccountState.credit``, which writes even 0."""
    balance, nonce = model.get(address, (0, 0))
    return {**model, address: (balance + amount, nonce)}


def expected_transfer(model, tx, miner):
    """The model after a plain transfer, or None when it must be refused."""
    balance, nonce = model.get(tx.sender, (0, 0))
    max_cost = tx.value + tx.gas_limit * tx.gas_price
    if tx.nonce != nonce or tx.gas_limit < TX_BASE_GAS or balance < max_cost:
        return None
    after = {**model, tx.sender: (balance - max_cost, nonce + 1)}
    after = credited(after, tx.recipient, tx.value)
    refund = (tx.gas_limit - TX_BASE_GAS) * tx.gas_price
    if refund:
        after = credited(after, tx.sender, refund)
    fee = TX_BASE_GAS * tx.gas_price
    if fee:
        after = credited(after, miner, fee)
    return after


class AccountStateMachine(RuleBasedStateMachine):
    """Cache reads/writes, root reads, rollbacks and pruning against a
    dict model; ``roots`` maps every root read and still stored to the
    model it committed."""

    def __init__(self):
        super().__init__()
        self.state = AccountState()
        self.model = {}
        self.roots = {}

    @rule(who=st.sampled_from(ADDRESSES), amount=st.integers(0, 200_000))
    def credit(self, who, amount):
        self.state.credit(who, amount)
        self.model = credited(self.model, who, amount)

    @rule(data=st.data())
    def transfer(self, data):
        key = data.draw(st.sampled_from(KEYS), label="sender")
        recipient = data.draw(st.sampled_from(ADDRESSES), label="recipient")
        miner = data.draw(st.sampled_from(ADDRESSES), label="miner")
        fault = data.draw(st.sampled_from(FAULTS), label="fault")
        gas_price = data.draw(st.integers(0, 2), label="gas price")
        gas_limit = TX_BASE_GAS - 1 if fault == "gas" else data.draw(
            st.sampled_from((TX_BASE_GAS, TX_BASE_GAS + 4_000)), label="gas limit")
        balance, nonce = self.model.get(key.address, (0, 0))
        if fault == "nonce":
            nonce = data.draw(st.sampled_from(
                [n for n in (nonce - 1, nonce + 1, nonce + 2) if n >= 0]), label="nonce")
        affordable = balance - gas_limit * gas_price
        if fault == "underfunded":
            value = max(0, affordable) + data.draw(st.integers(1, 50), label="overdraw")
        else:
            value = data.draw(st.integers(0, max(0, affordable)), label="value")
        tx = sign_account_transaction(key, nonce, recipient, value,
                                      gas_limit=gas_limit, gas_price=gas_price)
        want = expected_transfer(self.model, tx, miner)
        try:
            receipt = self.state.apply_transaction(tx, miner)
        except ValidationError:
            assert want is None
            return
        assert want is not None and receipt.success
        assert receipt.gas_used == TX_BASE_GAS
        self.model = want

    @rule()
    def read_root(self):
        assert {a: (r.balance, r.nonce) for a, r in self.state.accounts()} == self.model
        root = self.state.root_hash
        assert root == expected_root(self.model)
        self.roots[root] = dict(self.model)

    @precondition(lambda self: self.roots)
    @rule(data=st.data())
    def rollback(self, data):
        root = data.draw(st.sampled_from(sorted(self.roots, key=bytes)), label="root")
        self.state.rollback_to(root)
        # Writes no root read committed are gone with the cache.
        self.model = dict(self.roots[root])
        assert self.state.root_hash == root

    @rule(data=st.data())
    def prune(self, data):
        older = sorted(self.roots, key=bytes)
        if older and data.draw(st.booleans(), label="keep older roots"):
            kept = data.draw(st.lists(st.sampled_from(older), unique=True), label="kept")
            if data.draw(st.booleans(), label="name the current root"):
                current = self.state.root_hash
                self.state.prune_history([current] + kept)
            else:  # only older roots: the live version is kept anyway
                self.state.prune_history(kept)
                current = self.state.root_hash
        else:
            self.state.prune_history()  # reads the root itself
            current, kept = self.state.root_hash, []
        assert current == expected_root(self.model)
        for root in set(older) - set(kept) - {current, EMPTY_TRIE_ROOT}:
            with pytest.raises(KeyError):  # pruned; the state stays as it was
                self.state.rollback_to(root)
        self.roots = {root: self.roots[root] for root in kept}
        self.roots[current] = dict(self.model)

    @invariant()
    def records_match_model(self):
        for address in ADDRESSES:
            assert (self.state.balance(address), self.state.nonce(address)) == \
                self.model.get(address, (0, 0))


AccountStateMachine.TestCase.settings = settings(
    max_examples=80, stateful_step_count=25, deadline=None
)
TestAccountStateMachine = AccountStateMachine.TestCase
