"""Microbenchmarks for the simulator's hot paths.

Each bench exercises one layer every experiment bottoms out in — the
discrete-event loop, gossip fan-out, canonical-encode-then-hash, and
block-lattice settlement.  Whole runs are measured per layer by the
repository benchmark (``perfbench/``), not here.  All benches are
deterministic (fixed seeds) and depend only on public APIs, so the same
suite runs against any revision of the codebase and the numbers stay
comparable.

Results are normalized by a *calibration score* (a fixed pure-Python spin
loop) so comparisons across machines of different speeds — a laptop
baseline vs. a CI runner — compare relative cost, not absolute hardware.

The ``repro perf`` CLI command wraps :func:`run_suite` /
:func:`build_report` and writes ``BENCH_PERF.json``; ``repro profile``
wraps a single bench in cProfile.
"""

from __future__ import annotations

import platform
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class BenchResult:
    """Outcome of one microbenchmark run."""

    name: str
    ops: int
    wall_s: float

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.wall_s if self.wall_s > 0 else float("inf")

    def to_dict(self) -> Dict[str, float]:
        return {
            "ops": self.ops,
            "wall_s": round(self.wall_s, 6),
            "ops_per_s": round(self.ops_per_s, 2),
        }


@dataclass(frozen=True)
class Bench:
    """A registered microbenchmark.

    ``fn(scale)`` runs the workload once and returns ``(ops, wall_s)``;
    ``scale`` multiplies the workload size (0.1 for smoke tests, 1.0 for
    the committed baseline).  ``repeats`` runs take the best wall time,
    which filters scheduler noise on loaded machines.
    """

    name: str
    description: str
    fn: Callable[[float], Tuple[int, float]]
    repeats: int = 4
    #: paradigms this bench exercises (empty = paradigm-agnostic); the
    #: CLI's ``--paradigm`` filter selects on these tags
    paradigms: Tuple[str, ...] = ()


# --------------------------------------------------------------------------
# Event-loop benches
# --------------------------------------------------------------------------


def _bench_event_loop(scale: float) -> Tuple[int, float]:
    """Raw event throughput: schedule + run a mixed pre-scheduled/chained
    workload of no-op callbacks."""
    from repro.sim.simulator import Simulator

    n = max(1000, int(200_000 * scale))
    sim = Simulator(seed=1)
    fired = [0]

    def noop() -> None:
        fired[0] += 1

    start = perf_counter()
    half = n // 2
    for i in range(half):
        # Deterministic scattered times exercise real heap reordering.
        sim.schedule(((i * 7919) % 9973) / 10.0, noop)
    remaining = [n - half]

    def tick() -> None:
        fired[0] += 1
        if remaining[0] > 0:
            remaining[0] -= 1
            sim.schedule(0.5, tick)

    sim.schedule(0.0, tick)
    sim.run()
    wall = perf_counter() - start
    return sim.events_processed, wall


def _bench_event_cancel(scale: float) -> Tuple[int, float]:
    """Cancellation under load with live-size queries: half the scheduled
    events are cancelled and the queue is sized every 64 pushes (the
    pattern retransmit-heavy gossip runs produce)."""
    from repro.sim.simulator import Simulator

    n = max(1000, int(30_000 * scale))
    sim = Simulator(seed=2)
    fired = [0]

    def noop() -> None:
        fired[0] += 1

    start = perf_counter()
    pending_checks = 0
    previous = None
    for i in range(n):
        event = sim.schedule(((i * 6151) % 7919) / 10.0, noop)
        if previous is not None and i % 2 == 0:
            previous.cancel()
        previous = event
        if i % 64 == 0:
            pending_checks += sim.queue_stats()["pending"]
    sim.run()
    wall = perf_counter() - start
    assert pending_checks >= 0
    return n, wall


# --------------------------------------------------------------------------
# Gossip benches
# --------------------------------------------------------------------------


def _gossip_workload(scale: float, tracer=None) -> Tuple[int, float]:
    """Flood ``1500 * scale`` messages over a 24-node small world, one
    origin gossiping at each 0.05 s send instant."""
    from repro.net.link import FAST_LINK
    from repro.net.message import Message
    from repro.net.network import Network
    from repro.net.node import NetworkNode
    from repro.net.topology import small_world_topology
    from repro.sim.simulator import Simulator

    sim = Simulator(seed=3)
    net = Network(sim, tracer=tracer)
    nodes = small_world_topology(net, 24, NetworkNode,
                                 link_params=FAST_LINK, seed=3)
    m = max(10, int(1500 * scale))
    start = perf_counter()
    for i in range(m):
        origin = nodes[i % len(nodes)]
        message = Message(kind="blk", payload=i, size_bytes=240)
        sim.schedule_at(
            i * 0.05,
            (lambda o=origin, msg=message: net.gossip(o.node_id, msg)),
        )
    sim.run()
    wall = perf_counter() - start
    return net.messages_delivered, wall


def _bench_gossip_broadcast(scale: float) -> Tuple[int, float]:
    """Flooding broadcast over a 24-node small world, tracing enabled
    (the default Network configuration)."""
    return _gossip_workload(scale)


def _bench_gossip_untraced(scale: float) -> Tuple[int, float]:
    """Same flood with the no-op tracer: the measuring stick for what
    leaving the trace on costs."""
    from repro.trace import NullTracer

    return _gossip_workload(scale, tracer=NullTracer())


# --------------------------------------------------------------------------
# Hash / encode benches
# --------------------------------------------------------------------------


def _bench_block_hash_validate(scale: float) -> Tuple[int, float]:
    """Canonical-encode-then-hash: assemble blocks of transactions, then
    run repeated validation passes (Merkle recheck, id, size accounting)
    — the access pattern chain sync and mempool management produce."""
    from repro.blockchain.block import assemble_block
    from repro.blockchain.transaction import make_coinbase
    from repro.crypto.keys import KeyPair

    recipient = KeyPair.from_seed(b"\x11" * 32).address
    blocks_n = max(4, int(150 * scale))
    txs_per_block = 25
    revalidations = 10

    start = perf_counter()
    parent = None
    blocks = []
    nonce = 0
    for _ in range(blocks_n):
        txs = [make_coinbase(recipient, 50 + i, nonce=nonce + i)
               for i in range(txs_per_block)]
        nonce += txs_per_block
        block = assemble_block(
            parent=parent, transactions=txs, timestamp=float(nonce),
            target=2**255,
        )
        parent = block.header
        blocks.append(block)
    touched = blocks_n * txs_per_block
    for _ in range(revalidations):
        for block in blocks:
            assert block.merkle_root_matches()
            assert not block.block_id.is_zero()
            assert block.size_bytes > 0
            touched += len(block.transactions)
    wall = perf_counter() - start
    return touched, wall


def _bench_state_trie_block_apply(scale: float) -> Tuple[int, float]:
    """Account-model block application: blocks of 32 transfers over 200
    accounts applied to one ``AccountState``, the state root read once
    per block — a replica's per-block trie work, signatures pre-verified."""
    from repro.blockchain.state import AccountState
    from repro.blockchain.transaction import sign_account_transaction
    from repro.crypto.keys import KeyPair

    blocks_n = max(4, int(60 * scale))
    txs_per_block, accounts_n, reward = 32, 200, 2
    keys = [KeyPair.from_seed(i.to_bytes(2, "big") * 16) for i in range(accounts_n)]
    miner = KeyPair.from_seed(b"\x99" * 32).address
    nonces = [0] * accounts_n
    bodies = []
    for i in range(blocks_n * txs_per_block):
        if i % txs_per_block == 0:
            bodies.append([])
        sender = (i * 7919) % accounts_n
        tx = sign_account_transaction(
            keys[sender], nonce=nonces[sender],
            recipient=keys[(sender * 31 + i) % accounts_n].address,
            value=1 + i % 9, gas_price=1,
        )
        nonces[sender] += 1
        assert tx.verify_signature()
        bodies[-1].append(tx)
    state = AccountState()
    for key in keys:
        state.credit(key.address, 10**9)
    roots = {state.root_hash}
    start = perf_counter()
    for body in bodies:
        state.apply_block_transactions(body, miner, reward)
        roots.add(state.root_hash)
    wall = perf_counter() - start
    assert len(roots) == blocks_n + 1
    assert state.total_supply() == accounts_n * 10**9 + blocks_n * reward
    return blocks_n * txs_per_block, wall


def _bench_lattice_settle(scale: float) -> Tuple[int, float]:
    """Block-lattice settlement: open accounts from genesis sends, then
    rounds of send/receive pairs — every block is encoded, hashed, signed,
    verified, and appended."""
    from repro.common.types import Hash

    start = perf_counter()
    _params, lattice, _genesis, ordered = _build_source_lattice(
        accounts_n=8, rounds=max(4, int(1500 * scale)))
    wall = perf_counter() - start
    assert lattice.pending_count() == 0
    assert Hash.zero() not in (chain.head.block_hash
                               for chain in lattice.chains())
    return len(ordered), wall


# --------------------------------------------------------------------------
# Burst-ingestion benches
# --------------------------------------------------------------------------


def _build_source_lattice(accounts_n: int, rounds: int):
    """A populated lattice, its genesis, and all non-genesis blocks in
    creation (dependency-safe) order — shared bench setup."""
    from repro.crypto.keys import KeyPair
    from repro.dag.blocks import make_open, make_receive, make_send
    from repro.dag.lattice import Lattice
    from repro.dag.params import NanoParams

    params = NanoParams(work_difficulty=1.0)
    lattice = Lattice(params)
    genesis_key = KeyPair.from_seed(b"\x51" * 32)
    genesis = lattice.create_genesis(genesis_key, supply=10**15)
    keys = [KeyPair.from_seed(b"\x60" * 28 + i.to_bytes(4, "big"))
            for i in range(accounts_n)]
    heads = {}
    genesis_head = genesis
    ordered = []
    for key in keys:
        send = make_send(genesis_key, genesis_head, key.address, 10**9,
                         work_difficulty=1.0)
        lattice.process(send)
        genesis_head = send
        opened = make_open(key, send.block_hash, 10**9, key.address,
                           work_difficulty=1.0)
        lattice.process(opened)
        heads[key.address] = opened
        ordered.extend((send, opened))
    for i in range(rounds):
        src = keys[i % accounts_n]
        dst = keys[(i + 1) % accounts_n]
        send = make_send(src, heads[src.address], dst.address, 1000,
                         work_difficulty=1.0)
        lattice.process(send)
        heads[src.address] = send
        receive = make_receive(dst, heads[dst.address], send.block_hash, 1000,
                               work_difficulty=1.0)
        lattice.process(receive)
        heads[dst.address] = receive
        ordered.extend((send, receive))
    return params, lattice, genesis, ordered


def _bench_ingest_batch(scale: float) -> Tuple[int, float]:
    """Burst ingestion through the stack: a cold replica adopts a peer's
    lattice via ``ingest_batch`` — quiet ingest per block, each window's
    parked blocks revived when their dependency lands."""
    from repro.crypto.keys import clear_sigcache
    from repro.dag.node import NanoNode

    params, lattice, genesis, ordered = _build_source_lattice(
        accounts_n=8, rounds=max(8, int(600 * scale))
    )
    # Reverse each 16-block window of the creation order: within a window
    # blocks arrive newest-first (they park, then revive in a bounded
    # cascade), while across windows order stays dependency-safe — so the
    # retry recursion never exceeds a window's depth.
    blocks = []
    for i in range(0, len(ordered), 16):
        blocks.extend(reversed(ordered[i:i + 16]))
    replica = NanoNode("replica", params=params, auto_receive=False)
    replica.lattice.install_genesis(genesis)
    start = perf_counter()
    clear_sigcache()
    replica.ingest_batch(blocks, skip=lambda b: b.block_hash in replica.lattice)
    wall = perf_counter() - start
    # Parked blocks revived mid-batch integrate through the retry path,
    # so convergence (not the direct-integration count) is the invariant.
    assert replica.lattice.block_count() == lattice.block_count()
    return len(blocks), wall


def _bench_mempool_admit(scale: float) -> Tuple[int, float]:
    """Fee-market admission under a bounded pool: every add competes on
    fee rate, with periodic block-template selections mixed in."""
    from repro.blockchain.mempool import Mempool, MempoolLimits
    from repro.crypto.keys import KeyPair
    from repro.blockchain.transaction import sign_account_transaction

    n = max(100, int(4000 * scale))
    keys = [KeyPair.from_seed(bytes([0x70 + i]) * 32) for i in range(4)]
    recipient = keys[0].address
    txs = [
        sign_account_transaction(
            keys[i % 4], nonce=i // 4, recipient=recipient, value=1,
            gas_price=1 + (i * 7919) % 97,
        )
        for i in range(n)
    ]
    pool = Mempool(limits=MempoolLimits(max_count=max(64, n // 8)))
    start = perf_counter()
    admitted = 0
    for i, tx in enumerate(txs):
        if pool.add(tx, fee=tx.gas_price * tx.gas_limit):
            admitted += 1
        if i % 512 == 511:
            pool.select_by_gas(2_000_000)
    wall = perf_counter() - start
    assert 0 < admitted <= n
    return n, wall


def _bench_intake_park_revive(scale: float) -> Tuple[int, float]:
    """Worst-case out-of-order arrival: every account chain arrives
    newest-first, so all but one block per chain parks in the intake
    layer and the final dependency revives the whole cascade."""
    from repro.dag.node import NanoNode

    # Many short chains (not a few long ones): dependency cascades stay a
    # few blocks deep, so the revive recursion never gets near the limit.
    accounts_n = max(16, int(400 * scale))
    params, lattice, genesis, _ordered = _build_source_lattice(
        accounts_n=accounts_n, rounds=accounts_n
    )
    genesis_chain = []
    account_chains = []
    for chain in lattice.chains():
        blocks = [b for b in chain.blocks if b.block_hash != genesis.block_hash]
        if chain.blocks and chain.blocks[0].block_hash == genesis.block_hash:
            genesis_chain = blocks
        else:
            account_chains.append(blocks)
    replica = NanoNode("replica", params=params, auto_receive=False)
    replica.lattice.install_genesis(genesis)
    ops = 0
    start = perf_counter()
    for block in genesis_chain:  # in order: integrates immediately
        replica.ingest_quietly(block)
        ops += 1
    for blocks in account_chains:  # newest-first: parks, then cascades
        for block in reversed(blocks):
            replica.ingest_quietly(block)
            ops += 1
    wall = perf_counter() - start
    assert len(replica.intake) == 0
    assert replica.lattice.block_count() == lattice.block_count()
    return ops, wall


#: Digest of the replicas' UTXO state after ``utxo_block_connect``, per
#: block count, captured on the commit before the one-pass connect: the
#: bench asserts it, so a faster connect that moves the set fails.
_UTXO_CONNECT_DIGESTS = {
    32: "ac06764f99ec3ca5",
    16: "ef151904d4bf7928",
    3: "8a9e1b57f5d020fa",
    2: "8e5ab5641f6094d8",
}


def _bench_utxo_block_connect(scale: float) -> Tuple[int, float]:
    """UTXO block connect as every replica pays it: eight replicas admit
    a stream of signed payments off the wire, then ``receive_block`` the
    blocks that carry them.  Ops = transactions connected."""
    from repro.blockchain.block import build_genesis_with_allocations
    from repro.blockchain.node import MSG_TX, BlockchainNode
    from repro.blockchain.params import BITCOIN
    from repro.blockchain.transaction import build_transaction
    from repro.crypto.keys import KeyPair
    from repro.net.message import Message

    accounts_n, per_block, replicas_n = 64, 48, 8
    blocks_n = max(2, int(32 * scale))
    keys = [KeyPair.from_seed(b"\x7a" * 28 + i.to_bytes(4, "big"))
            for i in range(accounts_n)]
    miner = KeyPair.from_seed(b"\x7b" * 32).address
    genesis = build_genesis_with_allocations({k.address: 10**6 for k in keys})
    # An untimed producer replica mints the payments and the blocks; each
    # block's senders are distinct, so no two payments conflict.
    producer = BlockchainNode("producer", BITCOIN, genesis)
    rounds = []
    for height in range(1, blocks_n + 1):
        messages = []
        for i in range(per_block):
            sender = (height * per_block + i) % accounts_n
            tx = build_transaction(
                keys[sender], producer.utxo.spendable(keys[sender].address),
                keys[(sender * 31 + height) % accounts_n].address,
                1 + (i * 7919) % 500, fee=i % 5)
            messages.append(Message(kind=MSG_TX, payload=tx,
                                    size_bytes=tx.size_bytes, dedup_key=tx.txid))
            producer.handle_message("wallet", messages[-1])
        block = producer.create_block_template(float(height), miner)
        assert len(block.transactions) == per_block + 1
        producer.receive_block(block)
        rounds.append((messages, block))
    replicas = [BlockchainNode(f"r{i}", BITCOIN, genesis) for i in range(replicas_n)]

    start = perf_counter()
    for messages, block in rounds:
        for replica in replicas:
            for message in messages:
                replica.handle_message("peer", message)
            replica.receive_block(block)
    wall = perf_counter() - start

    addresses = [k.address for k in keys] + [miner]
    digests = {_utxo_state_digest(node, addresses) for node in [producer] + replicas}
    assert len(digests) == 1 and all(len(r.mempool) == 0 for r in replicas)
    expected = _UTXO_CONNECT_DIGESTS.get(blocks_n)
    assert expected is None or digests == {expected}
    return replicas_n * blocks_n * per_block, wall


def _utxo_state_digest(node, addresses) -> str:
    """Head id plus every spendable output of ``addresses``."""
    import hashlib

    digest = hashlib.sha256(bytes(node.head.block_id))
    for address in addresses:
        for txid, index, value in node.utxo.spendable(address):
            digest.update(bytes(txid) + index.to_bytes(4, "big")
                          + value.to_bytes(16, "big"))
    return digest.hexdigest()[:16]


#: Digest over the ``sharded_flood`` propagations per node count, captured
#: on the commit before the CSR kernel: the bench asserts it, so a faster
#: kernel that relaxes a different schedule fails instead of scoring.
_SHARDED_FLOOD_DIGESTS = {
    10_000: "d074543a307d3e6c",
    5_000: "aba956bad142b291",
    1_000: "8228559729d2f6ea",
}


def _bench_sharded_flood(scale: float) -> Tuple[int, float]:
    """Crowd propagations the way the sharded message plane issues them:
    labelled ``run_with`` floods over one held propagation instance."""
    import hashlib

    from repro.net.link import WAN_LINK
    from repro.sim.sharded import ShardedConfig, ShardedPropagation

    nodes = max(1000, int(10_000 * scale))
    floods = 12
    prop = ShardedPropagation(ShardedConfig(
        total_nodes=nodes, shards=4, seed=1, link=WAN_LINK))
    digest = hashlib.sha256()
    reached = 0
    start = perf_counter()
    for i in range(floods):
        result = prop.run_with((i * 2503) % nodes, label=f"msg:{i}",
                               payload_bytes=200 + i)
        reached += result.reached
        digest.update(result.fingerprint().encode())
    wall = perf_counter() - start
    assert reached == floods * nodes
    expected = _SHARDED_FLOOD_DIGESTS.get(nodes)
    assert expected is None or digest.hexdigest()[:16] == expected
    return reached, wall


#: Digest over the ``aggregate_flood`` draws per draw count, captured on
#: the commit before the column-wise kernel: the bench asserts it, so a
#: faster kernel that draws different delays fails instead of scoring.
_AGGREGATE_FLOOD_DIGESTS = {
    120: "040ce596102c2af3",
    60: "f63f7446d9210c70",
    12: "35f984b72b1be65f",
}


def _bench_aggregate_flood(scale: float) -> Tuple[int, float]:
    """Interior draws the way a ``crowd_aggregate`` cluster takes them:
    one seeded generator, 16 666 nodes over WAN links, 340 B messages."""
    import hashlib

    import numpy as np

    from repro.net.aggregate import sample_flood_times
    from repro.net.link import WAN_LINK

    nodes = 16_666
    draws = max(12, int(120 * scale))
    rng = np.random.default_rng(1)
    digest = hashlib.sha256()
    start = perf_counter()
    for _ in range(draws):
        # Each draw is dropped once digested, as a cluster drops it.
        digest.update(sample_flood_times(nodes, 8, WAN_LINK, 340, rng))
    wall = perf_counter() - start
    expected = _AGGREGATE_FLOOD_DIGESTS.get(draws)
    assert expected is None or digest.hexdigest()[:16] == expected
    return draws * nodes, wall


# --------------------------------------------------------------------------
# Cold start
# --------------------------------------------------------------------------

_COLD_START = """
from repro.core.deploy import build_deployment

build_deployment("blockchain", node_count=3, seed=1).setup(4, 10**6)
"""


def _bench_cold_start(scale: float) -> Tuple[int, float]:
    """Fresh interpreters, each importing the deployment factory and
    setting up a 3-node blockchain: the import and set-up cost every CLI
    call, sweep worker and benchmark child pays before its first event."""
    import os
    import subprocess

    src = str(Path(__file__).resolve().parents[2])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    n = max(2, int(8 * scale))
    start = perf_counter()
    for _ in range(n):
        subprocess.run([sys.executable, "-c", _COLD_START], env=env, check=True)
    wall = perf_counter() - start
    return n, wall


BENCHES: Dict[str, Bench] = {
    bench.name: bench
    for bench in [
        Bench("event_loop", "event-queue throughput (schedule + run)",
              _bench_event_loop),
        Bench("event_cancel", "cancellation under load with live sizing",
              _bench_event_cancel),
        Bench("gossip_broadcast", "small-world flood, tracing enabled",
              _bench_gossip_broadcast),
        Bench("gossip_untraced", "small-world flood, no-op tracer",
              _bench_gossip_untraced),
        Bench("block_hash_validate", "encode + hash + revalidate blocks",
              _bench_block_hash_validate, paradigms=("blockchain",)),
        Bench("state_trie_block_apply", "account blocks onto the state trie",
              _bench_state_trie_block_apply, paradigms=("blockchain",)),
        Bench("lattice_settle", "block-lattice send/receive settlement",
              _bench_lattice_settle, paradigms=("dag",)),
        Bench("ingest_batch", "stack burst ingestion (quiet ingest, park/revive)",
              _bench_ingest_batch, repeats=2, paradigms=("dag",)),
        Bench("mempool_admit", "fee-market mempool admission under caps",
              _bench_mempool_admit, paradigms=("blockchain",)),
        Bench("intake_park_revive", "out-of-order park + dependency revive",
              _bench_intake_park_revive, repeats=2, paradigms=("dag",)),
        Bench("sharded_flood", "labelled crowd floods over one shard backend",
              _bench_sharded_flood),
        Bench("aggregate_flood", "mean-field cluster draws at 16 666 nodes",
              _bench_aggregate_flood),
        Bench("utxo_block_connect", "8 replicas admit payments, connect blocks",
              _bench_utxo_block_connect, paradigms=("blockchain",)),
        Bench("cold_start", "fresh interpreter: import + 3-node deployment",
              _bench_cold_start, repeats=2, paradigms=("blockchain",)),
    ]
}


def calibration_score(spins: int = 1_000_000, repeats: int = 5) -> float:
    """Machine-speed yardstick: iterations/s of a fixed pure-Python loop.

    Dividing a bench's ops/s by this score gives a hardware-independent
    relative cost, which is what the CI regression gate compares."""
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        acc = 0
        for i in range(spins):
            acc += i
        best = min(best, perf_counter() - start)
    assert acc >= 0
    return spins / best


def run_bench(name: str, scale: float = 1.0) -> BenchResult:
    """Run one bench, best-of-``repeats`` wall time."""
    bench = BENCHES[name]
    best: Optional[Tuple[int, float]] = None
    for _ in range(max(1, bench.repeats)):
        ops, wall = bench.fn(scale)
        if best is None or wall < best[1]:
            best = (ops, wall)
    assert best is not None
    return BenchResult(name=name, ops=best[0], wall_s=best[1])


def run_suite(
    names: Optional[Iterable[str]] = None,
    scale: float = 1.0,
    progress: Optional[Callable[[BenchResult], None]] = None,
) -> Dict[str, BenchResult]:
    """Run the requested benches (default: all) and return their results."""
    selected = list(names) if names else list(BENCHES)
    unknown = [n for n in selected if n not in BENCHES]
    if unknown:
        raise KeyError(f"unknown benches: {', '.join(unknown)}")
    results: Dict[str, BenchResult] = {}
    for name in selected:
        result = run_bench(name, scale=scale)
        results[name] = result
        if progress is not None:
            progress(result)
    return results


# --------------------------------------------------------------------------
# Reports and regression checks
# --------------------------------------------------------------------------


def build_report(
    results: Dict[str, BenchResult],
    calibration: float,
    scale: float = 1.0,
    reference: Optional[Dict] = None,
) -> Dict:
    """The ``BENCH_PERF.json`` document.

    ``reference`` is a previously written report (e.g. the committed
    pre-optimization capture); when given, per-bench speedups are recorded
    both raw and calibration-normalized."""
    report: Dict = {
        "schema": SCHEMA_VERSION,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "scale": scale,
        "calibration_ops_per_s": round(calibration, 2),
        "benchmarks": {name: r.to_dict() for name, r in sorted(results.items())},
    }
    if reference is not None:
        ref_cal = float(reference.get("calibration_ops_per_s", calibration))
        speedup: Dict[str, float] = {}
        normalized: Dict[str, float] = {}
        for name, current in report["benchmarks"].items():
            ref_bench = reference.get("benchmarks", {}).get(name)
            if not ref_bench:
                continue
            raw = current["ops_per_s"] / ref_bench["ops_per_s"]
            speedup[name] = round(raw, 3)
            if ref_cal > 0 and calibration > 0:
                normalized[name] = round(raw * ref_cal / calibration, 3)
        report["reference"] = {
            "calibration_ops_per_s": ref_cal,
            "python": reference.get("python"),
            "benchmarks": reference.get("benchmarks", {}),
        }
        report["speedup_vs_reference"] = speedup
        report["speedup_vs_reference_normalized"] = normalized
    return report


def check_regressions(
    current: Dict, baseline: Dict, tolerance: float = 0.30
) -> List[str]:
    """Compare a fresh report against a committed baseline.

    Returns one message per bench whose calibration-normalized throughput
    fell more than ``tolerance`` below the baseline's.  Benches present in
    only one of the two reports are skipped (adding a bench must not fail
    the gate retroactively)."""
    failures: List[str] = []
    cur_cal = float(current.get("calibration_ops_per_s", 1.0)) or 1.0
    base_cal = float(baseline.get("calibration_ops_per_s", 1.0)) or 1.0
    for name, base in baseline.get("benchmarks", {}).items():
        cur = current.get("benchmarks", {}).get(name)
        if cur is None:
            continue
        base_rel = base["ops_per_s"] / base_cal
        cur_rel = cur["ops_per_s"] / cur_cal
        if cur_rel < base_rel * (1.0 - tolerance):
            failures.append(
                f"{name}: {cur_rel / base_rel:.2f}x of baseline "
                f"(normalized {cur_rel:.4f} vs {base_rel:.4f}, "
                f"tolerance -{tolerance:.0%})"
            )
    return failures


def render_results(results: Dict[str, BenchResult]) -> str:
    """Human-readable table of a suite run."""
    lines = [f"{'bench':<22} {'ops':>10} {'wall (s)':>10} {'ops/s':>14}"]
    for name, result in sorted(results.items()):
        lines.append(
            f"{name:<22} {result.ops:>10} {result.wall_s:>10.3f} "
            f"{result.ops_per_s:>14.1f}"
        )
    return "\n".join(lines)
