"""Model-based test of UTXO block connect, dry run and undo.

``apply_block`` / ``revert_block`` / ``validate_block_transactions`` run
against a plain ``dict`` of outpoint -> output.  Generated blocks mix
valid spends with chained spends inside the block, intra- and
cross-block double spends, missing inputs, spends of the block's own
coinbase, over-spending outputs, over-paying coinbases and tampered
signatures (with and without their txid in ``verified``).
"""

from dataclasses import replace

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.common.errors import ValidationError
from repro.common.types import Hash
from repro.crypto.keys import KeyPair, verify_signature
from repro.crypto.pow import MAX_TARGET
from repro.blockchain.block import assemble_block, build_genesis_block
from repro.blockchain.params import BITCOIN
from repro.blockchain.transaction import Transaction, TxInput, TxOutput, make_coinbase
from repro.blockchain.utxo import UTXOSet
from repro.blockchain.validation import (
    apply_block,
    revert_block,
    validate_block_transactions,
)

KEYS = [KeyPair.from_seed(bytes([0x70 + i]) * 32) for i in range(3)]
MINER = KEYS[0]
OWNER = {key.address: key for key in KEYS}
PARENT = build_genesis_block(MINER.address, 0).header
REWARD = BITCOIN.block_reward

#: At most one fault per generated transaction; most carry none.
FAULTS = (None,) * 6 + ("spent", "repeat", "missing", "coinbase", "tamper", "overspend")


def _order(outpoint):
    return bytes(outpoint[0]), outpoint[1]


def _outcome(connect):
    """What a connect call returned, or None when it raised."""
    try:
        return connect()
    except ValidationError:
        return None


def sign(inputs, outputs, nonce, tamper):
    """A transaction spending ``inputs`` = [(outpoint, owner key)], each
    input signed by its owner; ``tamper`` (an input index, or None)
    zeroes that input's signature."""
    unsigned = Transaction(
        inputs=tuple(TxInput(op[0], op[1], key.public_key) for op, key in inputs),
        outputs=outputs, nonce=nonce,
    )
    digest = bytes(unsigned.sighash())
    signed = [TxInput(op[0], op[1], key.public_key, key.sign(digest))
              for op, key in inputs]
    if tamper is not None:
        signed[tamper] = replace(signed[tamper], signature=bytes(64))
    return Transaction(inputs=tuple(signed), outputs=outputs, nonce=nonce)


def expected_connect(model, block, verified):
    """The model's verdict: (set after connect, total fees), or None when
    the block must be rejected."""
    after = dict(model)
    coinbase, *body = block.transactions
    fees = 0
    for tx in body:
        digest = bytes(tx.sighash())
        if tx.txid not in verified and not all(
                verify_signature(i.public_key, digest, i.signature) for i in tx.inputs):
            return None
        spent = 0
        for tx_input in tx.inputs:
            output = after.pop(tx_input.outpoint, None)
            if output is None:
                return None
            spent += output.amount
        fee = spent - sum(o.amount for o in tx.outputs)
        if fee < 0:
            return None
        fees += fee
        for index, output in enumerate(tx.outputs):
            after[(tx.txid, index)] = output
    if sum(o.amount for o in coinbase.outputs) > REWARD + fees:
        return None
    for index, output in enumerate(coinbase.outputs):
        after[(coinbase.txid, index)] = output
    return after, fees


class UtxoConnectMachine(RuleBasedStateMachine):
    """Connect / dry-run / revert against a dict model of the set."""

    def __init__(self):
        super().__init__()
        self.utxo = UTXOSet()
        self.model = {}
        self.ever = {}  # every outpoint ever created -> its output
        self.connected = []  # (undos, model before) per applied block
        self.nonce = 0
        for i, key in enumerate(KEYS * 2):
            funding = make_coinbase(key.address, 100, nonce=10_000 + i)
            self.utxo.apply_transaction(funding)
            self.model[(funding.txid, 0)] = funding.outputs[0]
        self.ever.update(self.model)

    def _next_nonce(self):
        self.nonce += 1
        return self.nonce

    def _draw_block(self, data):
        """A block over the current set: valid spends, each transaction
        carrying at most one drawn fault."""
        over = data.draw(st.sampled_from((0, 0, 0, 0, 1, 50)), label="coinbase over reward")
        coinbase = make_coinbase(MINER.address, REWARD + over, nonce=self._next_nonce())
        known = dict(self.ever)
        known[(coinbase.txid, 0)] = coinbase.outputs[0]
        pools = {
            # Unspent outputs, then this block's own outputs as they appear
            # (chained spends); drawn without replacement.
            "valid": sorted(self.model, key=_order),
            "spent": sorted(set(self.ever) - set(self.model), key=_order),
            "repeat": [],
            "coinbase": [(coinbase.txid, 0)],
        }

        def pick(source):
            pool = pools.get(source)
            if not pool:  # "missing", or nothing valid left to spend
                outpoint = (Hash(bytes([0xEE]) * 32), self._next_nonce())
                known[outpoint] = TxOutput(amount=50, recipient=KEYS[1].address)
                return outpoint
            outpoint = data.draw(st.sampled_from(pool), label=source)
            if source == "valid":
                pool.remove(outpoint)
            return outpoint

        body, verified = [], set()
        for _ in range(data.draw(st.integers(0, 4), label="body size")):
            fault = data.draw(st.sampled_from(FAULTS), label="fault")
            sources = ["valid"] * data.draw(st.integers(1, 2), label="inputs")
            if fault in ("spent", "repeat", "missing", "coinbase"):
                sources[-1] = fault
            outpoints = [pick(source) for source in sources]
            pools["repeat"].extend(outpoints)
            value = sum(known[op].amount for op in outpoints)
            if fault == "overspend":
                fee = -data.draw(st.integers(1, 3), label="overspend")
            else:
                fee = min(value, data.draw(st.integers(0, 10), label="fee"))
            split = data.draw(st.integers(0, value - fee), label="split")
            outputs = tuple(
                TxOutput(amount=amount, recipient=data.draw(
                    st.sampled_from(KEYS), label="recipient").address)
                for amount in (split, value - fee - split)
            )
            tamper = (data.draw(st.integers(0, len(outpoints) - 1), label="tampered input")
                      if fault == "tamper" else None)
            tx = sign([(op, OWNER[known[op].recipient]) for op in outpoints], outputs,
                      self._next_nonce(), tamper=tamper)
            if data.draw(st.booleans(), label="verified"):
                verified.add(tx.txid)
            body.append(tx)
            for index, output in enumerate(outputs):
                known[(tx.txid, index)] = output
                pools["valid"].append((tx.txid, index))
        block = assemble_block(parent=PARENT, transactions=[coinbase] + body,
                               timestamp=float(self.nonce), target=MAX_TARGET)
        return block, verified

    def _assert_set_is(self, contents):
        assert self.utxo._utxos == contents
        for key in KEYS:
            owned = sorted((op[0], op[1], out.amount) for op, out in contents.items()
                           if out.recipient == key.address)
            assert self.utxo.spendable(key.address) == owned

    @rule(data=st.data())
    def connect(self, data):
        block, verified = self._draw_block(data)
        before = dict(self.model)

        # The dry run checks every signature and never mutates.
        dry = _outcome(lambda: validate_block_transactions(block, self.utxo, BITCOIN))
        self._assert_set_is(before)
        expected = expected_connect(before, block, ())
        assert dry == (None if expected is None else expected[1])

        # The same pass for real, trusting ``verified``.
        undos = _outcome(lambda: apply_block(block, self.utxo, BITCOIN, verified=verified))
        want = expected_connect(before, block, verified)
        if undos is None:
            assert want is None
            self._assert_set_is(before)
            return
        assert want is not None
        after, fees = want
        coinbase, *body = block.transactions
        txs, spent_outputs = undos
        assert [tx.txid for tx in txs] == [tx.txid for tx in block.transactions]
        spent = sum(out.amount for out in spent_outputs)
        assert spent - sum(tx.total_output() for tx in body) == fees
        # Trust can only admit what the dry run refused for a signature.
        assert dry == fees or (dry is None and verified)
        self.ever.update(after)
        self.connected.append((undos, before))
        self.model = after
        self._assert_set_is(after)

    @precondition(lambda self: self.connected)
    @rule()
    def revert(self):
        undos, before = self.connected.pop()
        revert_block(undos, self.utxo)
        self.model = before

    @invariant()
    def set_matches_model(self):
        self._assert_set_is(self.model)


UtxoConnectMachine.TestCase.settings = settings(
    max_examples=80, stateful_step_count=20, deadline=None
)
TestUtxoConnectMachine = UtxoConnectMachine.TestCase
