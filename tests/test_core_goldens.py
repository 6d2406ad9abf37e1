"""Seeded goldens for the three ``Ledger`` adapters.

Recorded on the commit *before* the adapters were folded onto the shared
``Ledger`` base (ISSUE 19) and required to pass unmodified after it, so
the fold is pinned to the same simulated run: every RNG draw, tracer
emit, submit/confirm bookkeeping step and ``stats()`` key order.  The
shapes cover what the adapters do differently — UTXO vs account wallets,
selfish mining, live pruning on both paradigms, tip-spam origins, an
equivocating BFT replica — and drive ``submit_double_spend`` /
``submit_tip_spam`` mid-run.  The values are independent of
``PYTHONHASHSEED`` (checked under 0, 123 and ``random``).
"""

import hashlib
from dataclasses import replace

import pytest

from repro.blockchain.params import BITCOIN, ETHEREUM
from repro.core.deploy import build_deployment
from repro.faults import ByzantineSpec
from repro.workloads.generators import PaymentEvent, PaymentWorkload

FAST_BITCOIN = replace(BITCOIN, target_block_interval_s=15.0, confirmation_depth=2)
FAST_ETHEREUM = replace(ETHEREUM, target_block_interval_s=5.0, confirmation_depth=2)

#: name -> (paradigm, build_deployment knobs, funding per account, settle seconds)
SHAPES = {
    "utxo": ("blockchain", dict(
        chain_params=FAST_BITCOIN, node_count=3, seed=1), 1_000_000, 120.0),
    "account": ("blockchain", dict(
        chain_params=FAST_ETHEREUM, node_count=3, seed=1), 10**9, 60.0),
    "selfish-pruned": ("blockchain", dict(
        chain_params=FAST_BITCOIN, node_count=4, seed=3,
        faults=ByzantineSpec(count=1, behavior="selfish"),
        prune_interval_s=30.0, prune_keep_depth=4), 1_000_000, 120.0),
    "nano": ("dag", dict(
        node_count=4, representative_count=2, seed=1), 1_000_000, 30.0),
    "nano-spam-pruned": ("dag", dict(
        node_count=4, representative_count=2, seed=3,
        faults=ByzantineSpec(count=1, behavior="tip-spam"),
        prune_interval_s=20.0), 1_000_000, 30.0),
    "hotstuff-equivocator": ("bft", dict(
        node_count=4, seed=1,
        faults=ByzantineSpec(count=1, behavior="equivocate")), 1_000_000, 30.0),
}

_TRANSPORT = [f"transport.{name}" for name in (
    "messages_sent", "messages_received", "bytes_sent", "bytes_received",
    "published", "queued_offline", "republished", "dropped_stale",
    "state_syncs", "state_sync_bytes")]
_INTAKE = [f"intake.{name}" for name in (
    "parked", "retried", "revived", "evicted", "backlog")]
_MEMPOOL = [f"mempool.{name}" for name in (
    "accepted", "dropped", "replaced", "rejected_fee", "rejected_full",
    "rejected_replacement", "backlog", "backlog_bytes")]
_CONSENSUS = [f"consensus.{name}" for name in (
    "proposals_made", "votes_sent", "votes_received", "qcs_formed",
    "view_changes", "timeouts", "commits", "equivocations_sent",
    "equivocations_detected", "double_votes_detected", "votes_withheld")]
_SIGCACHE = [f"sigcache.{name}" for name in (
    "hits", "misses", "evictions", "seeds", "entries")]

#: paradigm -> ordered ``LedgerStats.extra`` keys (paradigm's own first)
EXTRA_KEYS = {
    "blockchain": ["blocks", "orphaned_blocks"]
    + _TRANSPORT + _INTAKE + _MEMPOOL + _SIGCACHE,
    "dag": ["dag_blocks", "elections"] + _TRANSPORT + _INTAKE + _SIGCACHE,
    "bft": ["committed_blocks", "view"]
    + _TRANSPORT + _INTAKE + _CONSENSUS + _SIGCACHE,
}

GOLDENS = {
    "utxo": dict(
        state_digest="de154a1c9fe03dd2972c0ea6f60364890c476e7a7ebd8361ce467c4527e11ee0",
        trace="6980038a0d3c40d737810fba71e5d7a4b44b54156fbeb7c165b4702e3a4d4344",
        conflicts=[2, 2], created=8, confirmed=7,
        forks=0, reorgs=0, latencies="41004086195809f0",
        size=6388, balances=[998836, 999441, 1000351, 1001364],
    ),
    "account": dict(
        state_digest="4ddb17bc18a402bce439ac4f7f4b894fff253237ac1d779dc5ea0c5d9c545876",
        trace="72c494eeb5519600170c1e6c04aecd938745fa6e29157d9aa72fb8d34e178555",
        conflicts=[1, 1], created=8, confirmed=8,
        forks=0, reorgs=0, latencies="f537c38c22341eb7",
        size=44915, balances=[999956761, 999936444, 999958353, 999980442],
    ),
    "selfish-pruned": dict(
        state_digest="71e5c57fb6947acee99eb17f6b1caa28efd293ee9115b0487624e5a439d39d21",
        trace="c517219ea4ec97c6ccd7b8db42d3a2093377ea0ce5f84fdc32c62f5c745328f1",
        conflicts=[2, 2], created=8, confirmed=8,
        forks=1, reorgs=1, latencies="dfacdd8f6800a1bc",
        size=5364, balances=[998759, 999441, 1000351, 1001441],
    ),
    "nano": dict(
        state_digest="2fd16c24c46429d17412892a58c98e255267d2a6f8a086405447f4d2cdb4c869",
        trace="ec41e0d243221b8bdda4002397117ab4d27175d15ee6206bed7247e008b06da2",
        conflicts=[2, 3], created=8, confirmed=7,
        forks=12, reorgs=0, latencies="e53abf06b995e42e",
        size=5800, balances=[998761, 999521, 1000353, 1001365],
    ),
    # Re-recorded when conflict votes joined the one vote tally: a
    # representative's vote in a contested root now counts toward its
    # candidate's confirmation, so replicas confirm (and adopt) the
    # winner a few ms earlier; the state and balances are unchanged.
    "nano-spam-pruned": dict(
        state_digest="9b43e29877990c7788da9359d83354ae189d3813fbdfc64bf3a9992074ba3e84",
        trace="d65fac0af467ee48b4dfe3831c71a03f9a87d609ff4be75d1523aa06abf86f88",
        conflicts=[2, 3], created=8, confirmed=8,
        forks=12, reorgs=0, latencies="e52f3c58312281f7",
        size=1160, balances=[998761, 999444, 1000353, 1001442],
    ),
    "hotstuff-equivocator": dict(
        state_digest="57e9f28c6d12f0c49c8718abe7b4aa3490129acb1515ec9cddb58df9013c3f92",
        trace="9386121f7cdc85feff90d174dba904ec63212521da0af07144f0ac902bb5b229",
        conflicts=[1, 1], created=8, confirmed=8,
        forks=4, reorgs=0, latencies="c68dfd4e1095bbad",
        size=2440, balances=[998761, 999444, 1000353, 1001442],
    ),
}


def run_shape(name):
    """Drive one shape: half the payments, a double spend, a tip-spam
    burst, the other half, settle; return what the golden pins."""
    paradigm, knobs, funding, settle_s = SHAPES[name]
    deployment = build_deployment(paradigm, **knobs).setup(4, funding)
    ledger = deployment.ledger
    events = PaymentWorkload(accounts=4, rate_tps=0.05, seed=2).generate(200.0)
    half = len(events) // 2
    ledger.run_workload(events[:half], settle_s=0.0)
    conflict = PaymentEvent(time_s=0.0, sender_index=1, recipient_index=2, amount=77)
    conflicts = [len(ledger.submit_double_spend(conflict))]
    ledger.advance(5.0)
    conflicts.append(len(ledger.submit_tip_spam(
        replace(conflict, sender_index=2, recipient_index=3))))
    ledger.run_workload(events[half:], settle_s=settle_s)
    stats = ledger.stats()
    observed = dict(
        state_digest=ledger.state_digest(),
        trace=deployment.network.tracer.fingerprint(),
        conflicts=conflicts,
        created=stats.entries_created,
        confirmed=stats.entries_confirmed,
        forks=stats.forks_observed,
        reorgs=stats.reorgs,
        latencies=hashlib.sha256(
            repr(stats.confirmation_latencies_s).encode()).hexdigest()[:16],
        size=ledger.serialized_size(),
        balances=[ledger.balance(i) for i in range(4)],
    )
    return paradigm, observed, stats


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_adapter_run_matches_golden(name):
    paradigm, observed, stats = run_shape(name)
    assert observed == GOLDENS[name]
    assert list(stats.extra) == EXTRA_KEYS[paradigm]
    assert len(stats.confirmation_latencies_s) == stats.entries_confirmed
