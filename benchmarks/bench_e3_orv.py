"""E3 (§III-B): Open Representative Voting and anti-spam PoW.

Claims: weighted representative votes resolve conflicts (winner = most
voted weight); a conflict-free transaction needs no extra voting round
to settle; hashcash-style work throttles a spammer but not a normal user.
"""

import random
import time

from conftest import report

from repro.core.experiment import EXPERIMENTS
from repro.runner import make_result
from repro.common.types import Hash
from repro.crypto.keys import KeyPair
from repro.dag.representatives import RepresentativeLedger
from repro.dag.voting import ElectionManager, Vote
from repro.workloads.attacks import SpamAttacker
from repro.metrics.tables import render_table


def make_vote(rep, block_hash, sequence=1):
    unsigned = Vote(rep.address, block_hash, sequence, rep.public_key)
    return Vote(
        rep.address, block_hash, sequence, rep.public_key,
        rep.sign(unsigned.signed_payload()),
    )


def run_weighted_election(weights=(55, 25, 20), seed=0):
    rng = random.Random(seed)
    reps = [KeyPair.generate(rng) for _ in weights]
    holders = [KeyPair.generate(rng) for _ in weights]
    ledger = RepresentativeLedger()
    for holder, rep, weight in zip(holders, reps, weights):
        ledger.set_account(holder.address, weight, rep.address)
        ledger.set_online(rep.address)
    manager = ElectionManager(ledger, quorum_fraction=0.5)
    account = KeyPair.generate(rng).address
    root = Hash(b"\x01" * 32)
    block_a, block_b = Hash(b"\xaa" * 32), Hash(b"\xbb" * 32)
    manager.open_election(account, root, [block_a, block_b])
    # Minority (25+20) backs B; majority (55) backs A.
    manager.record_conflict_vote(account, root, make_vote(reps[1], block_b))
    winner_after_minority = manager.record_conflict_vote(
        account, root, make_vote(reps[2], block_b))
    winner = manager.record_conflict_vote(account, root, make_vote(reps[0], block_a))
    return winner_after_minority, winner, block_a, block_b, manager


def test_e3_weighted_conflict_resolution(benchmark):
    winner_after_minority, winner, block_a, block_b, manager = benchmark(
        run_weighted_election
    )
    # 45% combined weight is no quorum; the 55% representative decides.
    assert winner_after_minority is None
    assert winner == block_a
    report(
        "E3a ORV conflict resolution by weight",
        render_table(
            ["candidate", "backing weight", "wins"],
            [["block A", 55, winner == block_a], ["block B", 45, winner == block_b]],
        ),
    )


def conflict_free_run(node_count=5, seed=1):
    from repro.dag.bootstrap import build_nano_testbed, fund_accounts
    from repro.net.link import LinkParams

    tb = build_nano_testbed(
        node_count=node_count, representative_count=2, seed=seed,
        link_params=LinkParams(latency_s=0.05, jitter_s=0.01),
    )
    users = fund_accounts(tb, 2, 100_000, settle_time=2.0)
    tb.node_for(users[0].address).send_payment(
        users[0].address, users[1].address, 500
    )
    tb.simulator.run(until=tb.simulator.now + 5)
    elections = sum(n.elections.elections_started for n in tb.nodes)
    settled = tb.nodes[0].balance(users[1].address)
    return elections, settled


def test_e3_no_overhead_without_conflict(benchmark):
    """"For a transaction with no issues, no voting overhead is required"
    — settlement happens without any election."""
    elections, settled = benchmark(conflict_free_run)
    assert elections == 0
    assert settled == 100_500
    report(
        "E3b conflict-free settlement",
        f"transfer settled on all replicas with {elections} elections opened",
    )


def test_e3_antispam_throttle(benchmark):
    """Same hardware: one legit tx is instant, a flood is hours."""
    attacker = SpamAttacker(hashrate_hps=5e6, work_difficulty=1 << 16)

    cost = benchmark(attacker.campaign_cost, 500_000)
    single = attacker.campaign_cost(1)
    rows = [
        ["1 tx (normal user)", f"{single.wall_clock_s * 1000:.1f} ms"],
        ["500k txs (spammer)", f"{cost.wall_clock_s / 3600:.2f} h"],
        ["sustainable spam rate", f"{attacker.max_spam_tps:.1f} TPS"],
    ]
    assert single.wall_clock_s < 0.05
    assert cost.wall_clock_s > 3600
    report("E3c hashcash anti-spam economics", render_table(["actor", "cost"], rows))


def run(params: dict, seed: int) -> dict:
    """Uniform sweep entry point (see repro.runner.spec)."""
    started = time.perf_counter()
    p = {**dict(EXPERIMENTS["E3"].default_params), **(params or {})}
    winner_after_minority, winner, block_a, _block_b, _manager = (
        run_weighted_election(seed=seed)
    )
    elections, settled = conflict_free_run(node_count=p["node_count"], seed=seed)
    attacker = SpamAttacker(hashrate_hps=5e6, work_difficulty=1 << 16)
    campaign = attacker.campaign_cost(p["spam_txs"])
    metrics = {
        "minority_decided_early": winner_after_minority is not None,
        "majority_wins": winner == block_a,
        "elections_opened": elections,
        "settled_balance": settled,
        "single_tx_s": attacker.campaign_cost(1).wall_clock_s,
        "spam_campaign_s": campaign.wall_clock_s,
        "spam_tps": attacker.max_spam_tps,
    }
    return make_result("E3", p, seed, metrics, started=started)


if __name__ == "__main__":
    from conftest import bench_main

    bench_main(run)
