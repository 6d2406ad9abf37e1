"""Memoized serialization/hash invariants (perf tentpole).

Blocks and transactions are frozen dataclasses, so canonical bytes and
digests are computed once via :class:`repro.common.memo.cached` and never
invalidated.  These tests pin the contract the caches rely on:

* repeat calls return the *same object* (identity, not just equality),
  proving the cache engages;
* cached values match what the object would hash to if recomputed from
  a structurally-equal twin, proving the cache never goes stale for
  immutable values.
"""

from repro.blockchain.block import build_genesis_block
from repro.blockchain.transaction import (
    build_transaction,
    make_coinbase,
    sign_account_transaction,
)
from repro.common.types import Hash
from repro.crypto.keys import KeyPair
from repro.dag.blocks import make_open


class TestTransactionMemoization:
    def test_serialize_returns_cached_object(self, keypair):
        tx = make_coinbase(keypair.address, 50)
        assert tx.serialize() is tx.serialize()
        assert tx.txid is tx.txid

    def test_twin_objects_agree(self, keypair):
        a = make_coinbase(keypair.address, 50, nonce=3)
        b = make_coinbase(keypair.address, 50, nonce=3)
        assert a is not b
        assert a.serialize() == b.serialize()
        assert a.txid == b.txid
        assert a.sighash() == b.sighash()

    def test_signed_transaction_caches_sighash(self, keypair, keypairs):
        tx = build_transaction(
            keypair,
            [(make_coinbase(keypair.address, 100).txid, 0, 100)],
            keypairs[1].address,
            40,
        )
        assert tx.sighash() is tx.sighash()
        assert tx.verify_input_signatures()
        # Verification does not perturb the cached digest.
        assert tx.sighash() is tx.sighash()

    def test_account_transaction_caches(self, keypair, keypairs):
        tx = sign_account_transaction(keypair, 0, keypairs[1].address, 25)
        assert tx.serialize() is tx.serialize()
        assert tx.txid is tx.txid
        assert tx.verify_signature()


class TestBlockMemoization:
    def test_block_id_and_size_cached(self, keypair):
        genesis = build_genesis_block(keypair.address, 1000)
        assert genesis.header.block_id is genesis.header.block_id
        assert genesis.header.serialize() is genesis.header.serialize()
        assert genesis.size_bytes == genesis.size_bytes

    def test_merkle_root_cached_and_correct(self, keypair):
        genesis = build_genesis_block(keypair.address, 1000)
        assert genesis.merkle_root_matches()
        assert genesis._computed_merkle_root is genesis._computed_merkle_root

    def test_pow_payload_excludes_nonce(self, keypair):
        header = build_genesis_block(keypair.address, 1000).header
        payload = header.pow_payload()
        assert payload is header.pow_payload()
        # The serialized header is the payload plus the 8-byte nonce.
        assert header.serialize() == payload + header.nonce.to_bytes(8, "big")


class TestNanoBlockMemoization:
    def test_block_hash_cached(self, rng):
        kp = KeyPair.generate(rng)
        block = make_open(kp, Hash.zero(), 1000, representative=kp.address)
        assert block.block_hash is block.block_hash
        assert block.serialize() is block.serialize()

    def test_twin_nano_blocks_agree(self, rng):
        seed = rng.getrandbits(256).to_bytes(32, "big")
        a = make_open(KeyPair.from_seed(seed), Hash.zero(), 1000,
                      representative=KeyPair.from_seed(seed).address)
        b = make_open(KeyPair.from_seed(seed), Hash.zero(), 1000,
                      representative=KeyPair.from_seed(seed).address)
        assert a is not b
        assert a.block_hash == b.block_hash
        assert a.serialize() == b.serialize()
