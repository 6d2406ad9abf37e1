"""The seven workloads: frozen parameters, set-up, timed phase, checks.

Every number here is a constant measured once on the reference box and
then frozen — nothing is calibrated at run time, so the same seed always
offers the same inputs.  ``--seed`` feeds ``build_deployment(seed=...)``
and nothing else.  ``scale`` shrinks the offered-load window (and the
joiner count) for ``run.py --quick``; the benchmark itself always runs
at ``scale=1``.

Layers are driven only through their public functions; ``repro`` is
imported lazily so the caller can time the import and install the span
wrappers first.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import replace
from time import perf_counter
from typing import Callable, Dict, List

ACCOUNTS = 200
FUNDING = 10**9

# ------------------------------------------------------------- fault schedule
#: bft_faults: one crash and one partition per ~200 sim-s of offered load.
BFT_FAULT_PERIOD_S = 200.0
BFT_CRASH_OUTAGE_S = 40.0
BFT_PARTITION_S = 20.0
#: Clients submit through ``nodes[sender % 7]``; with four accounts only
#: n0..n3 take submissions, so crashing n4..n6 (each a leader every
#: seventh view) never refuses a payment at the door, and the minority
#: side {n3, n6} still accepts payments it can only commit after the heal.
BFT_ACCOUNTS = 4
BFT_CRASH_NODES = (4, 5, 6)
BFT_MINORITY = (3, 6)


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _ms_p(values: List[float], q: float) -> float:
    return 1000.0 * _percentile(values, q)


class _FirstArrivals:
    """The first ``count`` arrivals of a Poisson/Zipf payment stream.

    Every seed then offers the same amount of work: a Poisson count over
    a fixed window swings by 1/sqrt(N) from seed to seed (±12 % at the 70
    payments the crowd workloads can afford), and that would be read as
    run-to-run spread of ``run_s``."""

    def __init__(self, stream, count: int) -> None:
        self.stream = stream
        self.count = count

    def events(self, duration_s: float):
        return iter(self.stream.generate_count(self.count))


def offer(ledger, accounts: int, rate_tps: float, count: int,
          window_slack: float):
    """Arm an open-loop injector offering the first ``count`` arrivals
    at ``rate_tps``; returns it with the window it needs, in simulated
    seconds.  The slack keeps the last arrival inside the window on
    every seed (1.1 is 3.8 sigma at the smallest large count, 1.5 is
    4.2 sigma at 70)."""
    from repro.workloads.open_loop import OpenLoopInjector

    window_s = window_slack * count / rate_tps
    injector = OpenLoopInjector.from_sim_stream(
        ledger, accounts=accounts, rate_tps=rate_tps, duration_s=window_s)
    injector.workload = _FirstArrivals(injector.workload, count)
    injector.start()
    return injector, window_s


class LoadWorkload:
    """Open-loop Poisson/Zipf-0.8 payments into one deployment.

    Timed phase: ``ledger.advance(window + settle)``.  An op is one
    payment; it completes when the observer replica reports it confirmed
    by the end of the settle window.
    """

    def __init__(self, build: Callable[[int], object],
                 rate_tps: float, count: int, settle_s: float,
                 window_slack: float = 1.1, accounts: int = ACCOUNTS,
                 bft_faults: bool = False) -> None:
        self._build = build
        self.rate_tps = rate_tps
        self.count = count
        self.settle_s = settle_s
        self.window_slack = window_slack
        self.accounts = accounts
        self.bft_faults = bft_faults

    def setup(self, seed: int, scale: float) -> None:
        self.deployment = dep = self._build(seed)
        dep.setup(self.accounts, FUNDING)
        self.ledger = ledger = dep.ledger
        self.injector, self.window_s = offer(
            ledger, self.accounts, self.rate_tps,
            max(2, round(self.count * scale)), self.window_slack)
        self.start_sim_s = ledger.now()
        if self.bft_faults:
            self._arm_bft_faults()
        self._watch_lateness()
        self._before = _cumulative(dep)

    def _arm_bft_faults(self) -> None:
        injector = self.deployment.fault_injector()
        ids = [node.node_id for node in self.deployment.nodes]
        minority = [ids[i] for i in BFT_MINORITY]
        majority = [nid for nid in ids if nid not in minority]
        rounds = max(1, int(self.window_s // BFT_FAULT_PERIOD_S))
        period = self.window_s / rounds
        for r in range(rounds):
            base = self.start_sim_s + r * period
            victim = ids[BFT_CRASH_NODES[r % len(BFT_CRASH_NODES)]]
            injector.crash_at(base + period / 8, victim,
                              duration_s=BFT_CRASH_OUTAGE_S)
            injector.partition_at(base + 5 * period / 8, [minority, majority],
                                  heal_after_s=BFT_PARTITION_S)

    def _watch_lateness(self) -> None:
        """Open-loop hygiene: how long after it was due did the injector
        hand each payment to ``submit`` (bounded by its 0.25 s tick)."""
        ledger, start = self.ledger, self.start_sim_s
        submit = ledger.submit
        self.lateness_max_sim_s = 0.0

        def submit_and_note(event):
            late = ledger.now() - start - event.time_s
            if late > self.lateness_max_sim_s:
                self.lateness_max_sim_s = late
            return submit(event)

        ledger.submit = submit_and_note

    def timed(self) -> None:
        self.ledger.advance(self.window_s + self.settle_s)

    def finish(self, run_s: float) -> dict:
        dep, ledger, report = self.deployment, self.ledger, self.injector.report
        stats = ledger.stats()
        audit = ledger.audit()
        completed = stats.entries_confirmed
        counts = _delta(_cumulative(dep), self._before)
        counts.update(_gauges(dep))
        cancelled = counts.pop("_queue_cancelled")
        latencies = stats.confirmation_latencies_s
        counts.update({
            "sim.queue_cancelled_share":
                cancelled / counts["sim.queue_pushed"]
                if counts["sim.queue_pushed"] else 0.0,
            "sim.events_per_op": counts["sim.events"] / max(completed, 1),
            "net.msgs_per_op": counts["net.deliveries"] / max(completed, 1),
            "net.bytes_per_op": counts["net.bytes_delivered"] / max(completed, 1),
            "sigcache.hit_ratio": _hit_ratio(counts),
            "ledger.bytes_end": ledger.serialized_size(),
            "workloads.offered": report.offered,
            "workloads.submitted": report.submitted,
            "workloads.rejected": report.rejected,
            "workloads.lateness_max_sim_s": self.lateness_max_sim_s,
            "model.confirm_p50_sim_s": _percentile(latencies, 0.50),
            "model.confirm_p99_sim_s": _percentile(latencies, 0.99),
            "model.achieved_tps": completed / self.window_s,
            "model.unavailable_sim_s": self._longest_commit_gap(),
        })
        fingerprint = ledger.state_digest()
        dep.close()
        return {
            "offered": report.offered,
            "completed": completed,
            "fingerprint": fingerprint,
            "checks": {
                "audit_ok": bool(audit is not None and audit.ok),
                "confirmed_le_submitted_le_offered":
                    completed <= report.submitted <= report.offered,
            },
            "counts": counts,
            "timings": {"sim.events_per_s": counts["sim.events"] / run_s},
        }

    def _longest_commit_gap(self) -> float:
        """bft_faults: the longest gap between two consecutive commits at
        the observer (a fault spans it; payments never stop arriving
        between the first and the last commit)."""
        if not self.bft_faults:
            return 0.0
        times = sorted(set(self.deployment.nodes[0].committed_payments.values()))
        return max((b - a for a, b in zip(times, times[1:])), default=0.0)


def _node_stat(nodes, *names: str) -> float:
    return float(sum(getattr(node.stats, name, 0)
                     for node in nodes for name in names))


def _protocol_counts(nodes) -> Dict[str, float]:
    """Cumulative transport/intake/consensus/mempool counters of ``nodes``."""
    from repro.protocol import aggregate_layer_counters

    layers = aggregate_layer_counters(nodes)
    return {
        "intake.parked": layers.get("intake.parked", 0.0),
        "intake.retried": layers.get("intake.retried", 0.0),
        "intake.revived": layers.get("intake.revived", 0.0),
        "intake.evicted": layers.get("intake.evicted", 0.0),
        "transport.published": layers.get("transport.published", 0.0),
        "transport.republished": layers.get("transport.republished", 0.0),
        "storage.state_sync_bytes": layers.get("transport.state_sync_bytes", 0.0),
        "mempool.accepted": layers.get("mempool.accepted", 0.0),
        "mempool.evicted": layers.get("mempool.dropped", 0.0),
        "consensus.votes_sent": _node_stat(nodes, "votes_sent", "votes_cast"),
        "consensus.qcs_formed": _node_stat(nodes, "qcs_formed"),
        "consensus.view_changes": _node_stat(nodes, "view_changes"),
        "consensus.timeouts": _node_stat(nodes, "timeouts"),
        "consensus.commits": _node_stat(nodes, "commits"),
        "consensus.blocks_accepted":
            _node_stat(nodes, "blocks_accepted", "blocks_processed"),
        "consensus.reorgs": _node_stat(nodes, "reorgs"),
        "consensus.forks_seen": _node_stat(nodes, "forks_seen"),
    }


def _sigcache() -> Dict[str, float]:
    """The process-wide signature cache: lookups so far, entries now."""
    from repro.crypto.keys import sigcache_counters

    sig = sigcache_counters()
    return {"_sig_hits": float(sig["sigcache.hits"]),
            "_sig_misses": float(sig["sigcache.misses"]),
            "sigcache.entries_end": float(sig["sigcache.entries"])}


def _hit_ratio(counts: Dict[str, float]) -> float:
    """Pop the raw hit/miss counts, return their ratio."""
    hits, misses = counts.pop("_sig_hits"), counts.pop("_sig_misses")
    return hits / (hits + misses) if hits + misses else 0.0


def _cumulative(dep) -> Dict[str, float]:
    """Monotone counters of a deployment; the timed phase's share is the
    difference of two snapshots (set-up funds accounts through the same
    simulator and network)."""
    sim, net = dep.simulator, dep.network
    queue, traffic = sim.queue_stats(), net.traffic_stats()
    trace, plane, scale = net.tracer.counters(), net.plane_counters(), dep.scale_stats()
    counts = {
        "sim.events": float(sim.events_processed),
        "sim.queue_pushed": float(queue["pushed"]),
        "_queue_cancelled":
            float(queue["pushed"] - queue["popped"] - queue["pending"]),
        "net.deliveries": float(traffic["messages_delivered"]),
        "net.bytes_delivered": float(traffic["bytes_transferred"]),
        "net.dropped": float(traffic["messages_lost"]),
        "net.retransmits": trace["trace.retransmits"],
        "net.gave_up": trace["trace.give_ups"],
        "net.crowd_messages": scale["messages_modeled"],
        "net.modeled_deliveries": scale["modeled_deliveries"],
        "net.cross_shard_messages": plane.get("plane.cross_shard_messages", 0.0),
        "net.crowd_epochs": plane.get("plane.crowd_epochs", 0.0),
        "trace.records": float(net.tracer.emitted),
    }
    counts.update(_protocol_counts(dep.nodes))
    sig = _sigcache()
    counts.update(_sig_hits=sig["_sig_hits"], _sig_misses=sig["_sig_misses"])
    return counts


def _gauges(dep) -> Dict[str, float]:
    """End-of-run levels (not differenced)."""
    layers = dep.layer_counters()
    return {
        "net.pending_retries_end": float(dep.network.pending_retries()),
        "net.propagation_max_sim_s": dep.scale_stats()["propagation_max_s"],
        "intake.backlog_end": layers.get("intake.backlog", 0.0),
        "mempool.backlog_end": layers.get("mempool.backlog", 0.0),
        "sigcache.entries_end": _sigcache()["sigcache.entries_end"],
    }


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {name: value - before[name] for name, value in after.items()}


class ReplicaJoin:
    """Closed loop, one joiner at a time: cold full replay, prune, then
    checkpoint state-sync from the pruned copies — on both paradigms.

    Set-up (untimed) builds the two source histories.  An op is one
    block adopted by a joiner that converged on its peer.
    """

    #: joiners per paradigm: 18 replays + 18 state-syncs each, n = 36
    #: per percentile, so p75 is the highest with ten samples beyond it.
    JOINERS = 18
    KEEP_DEPTH = 8
    #: 3 600 tx at 6 tps -> ~46 blocks of 15 s
    CHAIN_RATE_TPS, CHAIN_PAYMENTS, CHAIN_SETTLE_S = 6.0, 3_600, 60.0
    #: 1 400 payments at 40 tps -> ~3 250 lattice blocks: under
    #: DEFAULT_INTAKE_CAPACITY (4 096), past which one bootstrap pass
    #: evicts and does not converge.
    DAG_RATE_TPS, DAG_PAYMENTS, DAG_SETTLE_S = 40.0, 1_400, 10.0

    def setup(self, seed: int, scale: float) -> None:
        from repro.core.deploy import build_deployment
        from repro.net.link import FAST_LINK

        def history(dep, rate, payments, settle):
            dep.setup(ACCOUNTS, FUNDING)
            _, window = offer(dep.ledger, ACCOUNTS, rate,
                              max(2, round(payments * scale)), 1.1)
            dep.ledger.advance(window + settle)
            return dep.nodes[0]

        self.joiners = max(2, round(self.JOINERS * scale))
        self.chain_params = _btc_params()
        self.chain_peer = history(
            build_deployment("blockchain", chain_params=self.chain_params,
                             node_count=3, link_params=FAST_LINK, seed=seed),
            self.CHAIN_RATE_TPS, self.CHAIN_PAYMENTS, self.CHAIN_SETTLE_S)
        self.dag_peer = history(
            build_deployment("dag", node_count=4, representative_count=2,
                             seed=seed),
            self.DAG_RATE_TPS, self.DAG_PAYMENTS, self.DAG_SETTLE_S)
        self.replayed: List[tuple] = []   # (joiner, peer, blocks expected)
        self.synced: List[tuple] = []
        self.replay_s: List[float] = []
        self.state_sync_s: List[float] = []
        self.prune_s: List[float] = []
        self.freed: List[float] = []
        self._before = _sigcache()

    def timed(self) -> None:
        from repro.blockchain.node import BlockchainNode
        from repro.crypto.keys import clear_sigcache
        from repro.dag.node import NanoNode
        from repro.storage import dag_pruning, pruning

        chain_peer, dag_peer = self.chain_peer, self.dag_peer
        genesis = chain_peer.chain.genesis
        dag_genesis = dag_peer.lattice.chain(
            dag_peer.lattice.genesis_account).blocks[0]
        clock = perf_counter

        def new_chain_joiner(tag):
            return BlockchainNode(tag, self.chain_params, genesis)

        def new_dag_joiner(tag):
            joiner = NanoNode(tag, dag_peer.params)
            joiner.lattice.install_genesis(dag_genesis)
            return joiner

        for i in range(self.joiners):
            clear_sigcache(reset_stats=False)
            t0 = clock()
            joiner = new_chain_joiner(f"replay-c{i}")
            joiner.sync_from(chain_peer)
            self.replay_s.append(clock() - t0)
            self.replayed.append((joiner, chain_peer, chain_peer.chain.height))
        for i in range(self.joiners):
            clear_sigcache(reset_stats=False)
            t0 = clock()
            joiner = new_dag_joiner(f"replay-d{i}")
            joiner.bootstrap_from(dag_peer)
            self.replay_s.append(clock() - t0)
            self.replayed.append(
                (joiner, dag_peer, dag_peer.lattice.block_count() - 1))
        for joiner, _peer, _expected in self.replayed:
            t0 = clock()
            if isinstance(joiner, BlockchainNode):
                result = pruning.prune_chain(joiner.chain, keep_depth=self.KEEP_DEPTH)
            else:
                result = dag_pruning.prune_lattice(joiner.lattice)
            self.prune_s.append(clock() - t0)
            self.freed.append(result.fraction_freed)
        for i, (pruned, _peer, _expected) in enumerate(self.replayed):
            t0 = clock()
            if isinstance(pruned, BlockchainNode):
                joiner = new_chain_joiner(f"sync-{i}")
                joiner.state_sync_from(pruned, keep_depth=self.KEEP_DEPTH)
                expected = pruned.chain.height
            else:
                joiner = NanoNode(f"sync-{i}", pruned.params)
                joiner.state_sync_from(pruned)
                expected = pruned.lattice.account_count()
            self.state_sync_s.append(clock() - t0)
            self.synced.append((joiner, pruned, expected))

    def finish(self, run_s: float) -> dict:
        joins = self.replayed + self.synced
        # A sample of funded UTXO addresses; lattice joiners compare every
        # account chain (a UTXO balance query scans the whole set).
        addresses = [out.recipient for out in
                     self.chain_peer.chain.genesis.transactions[0].outputs[:8]]
        converged = [_converged(joiner, peer, addresses)
                     for joiner, peer, _ in joins]
        offered = sum(expected for _, _, expected in joins)
        completed = sum(expected for (_, _, expected), ok in zip(joins, converged)
                        if ok)
        joiners = [joiner for joiner, _, _ in joins]
        counts = _protocol_counts(joiners)
        sig = _delta(_sigcache(), self._before)
        counts.update({
            "sigcache.hit_ratio": _hit_ratio(sig),
            "intake.backlog_end": float(sum(len(j.intake) for j in joiners)),
            "ledger.bytes_end": float(sum(_ledger_bytes(j) for j in joiners)),
            "storage.freed_share": statistics.fmean(self.freed),
            # the joiner's side only (the serving peer counts the same bytes)
            "storage.state_sync_bytes": float(sum(
                joiner.transport.counters.state_sync_bytes
                for joiner, _, _ in self.synced)),
            "workloads.offered": offered,
            "workloads.submitted": offered,
        })
        digest = hashlib.sha256()
        for joiner, peer, _ in joins:
            digest.update(f"{_head(peer)}:{_head(joiner)}\n".encode())
        return {
            "offered": offered,
            "completed": completed,
            "fingerprint": digest.hexdigest(),
            "checks": {"joiners_match_peer": all(converged)},
            "counts": counts,
            "timings": {
                "storage.replay_ms_p50": _ms_p(self.replay_s, 0.50),
                "storage.replay_ms_p75": _ms_p(self.replay_s, 0.75),
                "storage.state_sync_ms_p50": _ms_p(self.state_sync_s, 0.50),
                "storage.prune_ms_p50": _ms_p(self.prune_s, 0.50),
            },
        }


def _head(node) -> str:
    if hasattr(node, "chain"):
        return node.chain.head.block_id.hex
    return hashlib.sha256("".join(sorted(
        chain.head.block_hash.hex for chain in node.lattice.chains()
    )).encode()).hexdigest()


def _ledger_bytes(node) -> int:
    if hasattr(node, "chain"):
        return node.chain.total_size_bytes()
    return node.lattice.serialized_size()


def _converged(joiner, peer, addresses) -> bool:
    """Head id *and* balances / total supply — never the sync call's own
    return value (a joiner can report the peer's head yet hold nothing)."""
    if hasattr(peer, "chain"):
        return (joiner.chain.head.block_id == peer.chain.head.block_id
                and joiner.utxo.total_value() == peer.utxo.total_value()
                and all(joiner.balance(a) == peer.balance(a) for a in addresses))
    peer_chains = {c.account: c for c in peer.lattice.chains()}
    mine = {c.account: c for c in joiner.lattice.chains()}
    return (joiner.lattice.total_supply() == peer.lattice.total_supply()
            and mine.keys() == peer_chains.keys()
            and all(mine[a].head.block_hash == c.head.block_hash
                    and mine[a].balance == c.balance
                    for a, c in peer_chains.items()))


# ----------------------------------------------------------------- the seven

def _btc_params():
    from repro.blockchain.params import BITCOIN

    return replace(BITCOIN, target_block_interval_s=15.0,
                   max_block_size_bytes=40_000, confirmation_depth=2)


def _btc(seed: int):
    from repro.core.deploy import build_deployment
    from repro.net.link import FAST_LINK

    return build_deployment("blockchain", chain_params=_btc_params(),
                            node_count=8, link_params=FAST_LINK, seed=seed)


def _eth(seed: int):
    from repro.blockchain.params import ETHEREUM
    from repro.core.deploy import build_deployment
    from repro.net.link import FAST_LINK

    return build_deployment(
        "blockchain", chain_params=replace(ETHEREUM, confirmation_depth=2),
        node_count=8, link_params=FAST_LINK, seed=seed)


def _nano(seed: int):
    from repro.core.deploy import build_deployment

    return build_deployment("dag", node_count=8, representative_count=4,
                            seed=seed)


def _bft(seed: int):
    from repro.core.deploy import build_deployment

    return build_deployment("bft", node_count=7, max_batch=32, seed=seed)


def _crowd_sharded(seed: int):
    from repro.core.deploy import build_deployment
    from repro.net.aggregate import TopologyScale
    from repro.net.link import FAST_LINK

    return build_deployment(
        "blockchain", chain_params=_btc_params(), node_count=4,
        link_params=FAST_LINK, seed=seed,
        topology_scale=TopologyScale(total_nodes=10_000, plane="sharded",
                                     jobs=1))


def _crowd_aggregate(seed: int):
    from repro.core.deploy import build_deployment
    from repro.net.aggregate import TopologyScale

    return build_deployment(
        "dag", node_count=6, representative_count=3, seed=seed,
        topology_scale=TopologyScale(total_nodes=100_000, plane="aggregate"))


#: name -> factory of a fresh workload object (one per child process).
#: Offered-load counts are sized so each timed phase
#: takes about 4 host-seconds on the reference box (see README.md).
WORKLOADS: Dict[str, Callable[[], object]] = {
    "btc_load": lambda: LoadWorkload(
        _btc, rate_tps=5.0, count=7_500, settle_s=450.0),
    "eth_load": lambda: LoadWorkload(
        _eth, rate_tps=4.0, count=1_440, settle_s=300.0),
    "nano_load": lambda: LoadWorkload(
        _nano, rate_tps=40.0, count=2_000, settle_s=15.0),
    "bft_faults": lambda: LoadWorkload(
        _bft, rate_tps=20.0, count=16_000, settle_s=120.0,
        accounts=BFT_ACCOUNTS, bft_faults=True),
    "crowd_sharded": lambda: LoadWorkload(
        _crowd_sharded, rate_tps=4.0, count=100,
        settle_s=300.0, window_slack=1.5),
    "crowd_aggregate": lambda: LoadWorkload(
        _crowd_aggregate, rate_tps=1.25, count=70,
        settle_s=15.0, window_slack=1.5),
    "replica_join": ReplicaJoin,
}
