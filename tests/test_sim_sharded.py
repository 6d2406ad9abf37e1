"""Tests for the sharded epoch-barrier propagation (repro.sim.sharded)
and the persistent shard-worker fan-out (repro.runner.pool.ShardWorkers).

The load-bearing property is seed-stability regardless of process
scheduling: jobs=1 (inline) and jobs=N (one worker process per shard)
must produce byte-identical arrival-time vectors.
"""

import copy

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.sharded import (
    ShardState,
    ShardedConfig,
    ShardedPropagation,
    build_edges,
)


def small_config(**overrides):
    defaults = dict(total_nodes=300, shards=3, seed=11, epoch_s=0.5)
    defaults.update(overrides)
    return ShardedConfig(**defaults)


class TestConfigAndGraph:
    def test_config_validates(self):
        with pytest.raises(ValueError):
            ShardedConfig(total_nodes=1)
        with pytest.raises(ValueError):
            ShardedConfig(total_nodes=10, shards=11)
        with pytest.raises(ValueError):
            ShardedConfig(total_nodes=10, epoch_s=0.0)
        with pytest.raises(ValueError):
            ShardedConfig(total_nodes=10, loss_probability=1.0)

    def test_with_link_copies_the_four_link_fields(self):
        from repro.net.link import SLOW_LINK

        config = ShardedConfig.with_link(SLOW_LINK, total_nodes=50)
        assert config.latency_s == SLOW_LINK.latency_s
        assert config.jitter_s == SLOW_LINK.jitter_s
        assert config.bandwidth_bps == SLOW_LINK.bandwidth_bps
        assert config.loss_probability == SLOW_LINK.loss_probability

    def test_graph_is_seed_deterministic(self):
        a = build_edges(small_config())
        b = build_edges(small_config())
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = build_edges(small_config(seed=12))
        assert not np.array_equal(a[0], c[0])

    def test_graph_has_ring_plus_chords_and_no_self_loops(self):
        config = small_config(chords=2)
        heads, tails = build_edges(config)
        assert (heads != tails).all()
        # The ring alone contributes 2 directed edges per node.
        assert len(heads) >= 2 * config.total_nodes

    def test_shards_partition_the_node_range(self):
        config = small_config(shards=7)
        states = [ShardState(config, i) for i in range(7)]
        covered = []
        for state in states:
            covered.extend(range(state.lo, state.hi))
        assert covered == list(range(config.total_nodes))


class TestPropagation:
    def test_reaches_every_node(self):
        result = ShardedPropagation(small_config()).run()
        assert result.reached == 300
        finite = result.arrivals[np.isfinite(result.arrivals)]
        assert (finite >= 0).all()
        assert result.epochs >= 1
        assert result.cross_shard_messages > 0

    def test_origin_arrival_is_zero(self):
        result = ShardedPropagation(small_config()).run(origin=42)
        assert result.arrivals[42] == 0.0
        assert (np.delete(result.arrivals, 42) > 0).all()

    def test_seed_determinism_same_fingerprint(self):
        a = ShardedPropagation(small_config()).run()
        b = ShardedPropagation(small_config()).run()
        assert a.fingerprint() == b.fingerprint()
        assert np.array_equal(a.arrivals, b.arrivals)
        c = ShardedPropagation(small_config(seed=99)).run()
        assert c.fingerprint() != a.fingerprint()

    def test_single_shard_matches_multi_shard(self):
        """Sharding is an execution strategy, not a model change: the
        same (graph, per-shard delay streams) law means a different
        shard count changes the delay draws, but every partitioning
        must still deliver a full, valid propagation."""
        one = ShardedPropagation(small_config(shards=1)).run()
        many = ShardedPropagation(small_config(shards=6)).run()
        assert one.reached == many.reached == 300
        # Same topology, same delay law: medians agree loosely.
        assert abs(one.percentile(50) - many.percentile(50)) \
            < one.percentile(50)

    def test_lossy_links_slow_propagation(self):
        clean = ShardedPropagation(small_config()).run()
        lossy = ShardedPropagation(
            small_config(loss_probability=0.3)).run()
        assert lossy.reached == 300
        assert lossy.percentile(95) > clean.percentile(95)

    def test_epoch_granularity_does_not_change_arrivals(self):
        """Epoch barriers are a scheduling artifact: a finer epoch must
        produce the identical arrival vector, just across more epochs."""
        coarse = ShardedPropagation(small_config(epoch_s=2.0)).run()
        fine = ShardedPropagation(small_config(epoch_s=0.1)).run()
        assert np.array_equal(coarse.arrivals, fine.arrivals)
        assert fine.epochs > coarse.epochs

    def test_origin_validation(self):
        with pytest.raises(ValueError):
            ShardedPropagation(small_config()).run(origin=300)


def armed_states(config, label=None, payload_bytes=None):
    """Every shard of ``config``, armed the way ``run_with`` arms them."""
    states = [ShardState(config, i) for i in range(config.shards)]
    for state in states:
        state.reset(label, payload_bytes)
    return states


def dijkstra_arrivals(states, origin, total_nodes):
    """First-arrival times by networkx Dijkstra over the shards' edges."""
    graph = nx.DiGraph()
    graph.add_nodes_from(range(total_nodes))
    for state in states:
        for head, tail, weight in zip(state.heads.tolist(),
                                      state.tails.tolist(),
                                      state.weights.tolist()):
            # Parallel edges (ring and chord between the same pair)
            # collapse to the faster one.
            known = graph.get_edge_data(head, tail)
            if known is None or weight < known["weight"]:
                graph.add_edge(head, tail, weight=weight)
    lengths = nx.single_source_dijkstra_path_length(graph, origin)
    return np.asarray([lengths.get(v, np.inf) for v in range(total_nodes)])


@st.composite
def configs_and_origins(draw):
    total = draw(st.integers(2, 600))
    config = ShardedConfig(
        total_nodes=total,
        shards=draw(st.integers(1, min(6, total))),
        chords=draw(st.integers(0, 3)),
        epoch_s=draw(st.sampled_from([0.05, 0.3, 0.5, 2.0])),
        loss_probability=draw(st.sampled_from([0.0, 0.2])),
        seed=draw(st.integers(0, 2**16)),
    )
    return config, draw(st.integers(0, total - 1))


class TestAgainstDijkstra:
    """An oracle that shares no code with the kernel: the relaxation
    must land on networkx's shortest paths, to the last bit."""

    @settings(max_examples=60, deadline=None)
    @given(configs_and_origins(),
           st.sampled_from([None, "msg:0", "msg:41"]),
           st.sampled_from([None, 64, 4096]))
    def test_arrivals_equal_dijkstra_bit_for_bit(self, drawn, label, payload):
        config, origin = drawn
        prop = ShardedPropagation(config)
        with prop.open() as workers:
            result = prop.run_with(workers, origin, label=label,
                                   payload_bytes=payload)
        expected = dijkstra_arrivals(armed_states(config, label, payload),
                                     origin, config.total_nodes)
        assert result.reached == config.total_nodes
        assert np.array_equal(result.arrivals, expected)


class TestBarrierOrderIndependence:
    """What licenses routing a barrier batch unsorted: a shard's step is
    a function of the *multiset* of arrivals it is handed."""

    @settings(max_examples=40, deadline=None)
    @given(configs_and_origins(), st.integers(0, 2**32 - 1))
    def test_permuting_an_inbox_changes_nothing(self, drawn, shuffle_seed):
        config, origin = drawn
        shuffle = np.random.default_rng(shuffle_seed)
        prop = ShardedPropagation(config)
        states = armed_states(config)
        inbox = [(np.zeros(0), np.zeros(0, dtype=np.int64))] * config.shards
        inbox[int(prop._owner(origin))] = (np.asarray([0.0]),
                                           np.asarray([origin]))
        horizon = config.epoch_s
        for _ in range(config.max_epochs):
            replies = []
            for state, (times, nodes) in zip(states, inbox):
                twin = copy.deepcopy(state)
                order = shuffle.permutation(len(nodes))
                reply = state.step(times, nodes, horizon)
                shuffled = twin.step(times[order], nodes[order], horizon)
                assert np.array_equal(state.dist, twin.dist)
                assert np.array_equal(state.dirty, twin.dirty)
                assert reply[2] == shuffled[2]
                assert sorted(zip(reply[0].tolist(), reply[1].tolist())) \
                    == sorted(zip(shuffled[0].tolist(), shuffled[1].tolist()))
                replies.append(reply)
            times = np.concatenate([r[0] for r in replies])
            nodes = np.concatenate([r[1] for r in replies])
            if not len(nodes) and not sum(r[2] for r in replies):
                break
            owners = prop._owner(nodes)
            # Route in a scrambled order too: the driver's gather order
            # must matter as little as a shard's own.
            order = shuffle.permutation(len(nodes))
            inbox = [(times[order][owners[order] == i],
                      nodes[order][owners[order] == i])
                     for i in range(config.shards)]
            horizon += config.epoch_s
        arrivals = np.concatenate([state.collect() for state in states])
        assert np.array_equal(arrivals, prop.run(origin).arrivals)


#: (config, origin, label, payload_bytes) -> (fingerprint, epochs,
#: cross_shard_messages), captured on the commit *before* the CSR kernel
#: and the unsorted barrier — the relaxation schedule, not just its
#: fixed point, is pinned.
GOLDEN_RUNS = [
    (dict(total_nodes=300, shards=3, seed=11), 0, None, None,
     ("432d088d8ce925e1", 6, 2065)),
    (dict(total_nodes=300, shards=3, seed=11), 42, "msg:0", 180,
     ("91dbd1b5840ea447", 7, 1843)),
    (dict(total_nodes=600, shards=4, seed=5, chords=3, epoch_s=0.25),
     599, "msg:7", 1024, ("2ad3637a5d68d25d", 7, 5100)),
    (dict(total_nodes=500, shards=5, seed=2, loss_probability=0.2),
     123, "msg:1", None, ("1fda424a4b224954", 7, 3875)),
    (dict(total_nodes=400, shards=1, seed=9), 17, None, None,
     ("b9e4c5af05f081fe", 2, 0)),
    (dict(total_nodes=400, shards=1, seed=9, chords=0), 399, "msg:3", 64,
     ("3028072b9042faa1", 51, 0)),
    (dict(total_nodes=2, shards=2, seed=1, chords=0), 1, None, None,
     ("9c8bfd5400e94b7b", 3, 4)),
    (dict(total_nodes=2000, shards=6, seed=21, chords=1, epoch_s=0.1,
          loss_probability=0.2), 1000, "msg:12", 4096,
     ("e45ac4ff15383757", 17, 3342)),
]


@pytest.mark.runner
class TestGoldenSchedule:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "fields,origin,label,payload,expected", GOLDEN_RUNS,
        ids=[f"row{i}" for i in range(len(GOLDEN_RUNS))])
    def test_run_matches_parent_capture(self, fields, origin, label, payload,
                                        expected, jobs):
        prop = ShardedPropagation(ShardedConfig(**fields))
        with prop.open(jobs) as workers:
            result = prop.run_with(workers, origin, label=label,
                                   payload_bytes=payload, jobs=jobs)
        assert (result.fingerprint(), result.epochs,
                result.cross_shard_messages) == expected


class TestBackendReuse:
    def test_unlabelled_rerun_equals_a_fresh_run(self):
        """A used backend must not leak the previous flood's arrival
        times, frontier or announcements into the next one."""
        config = ShardedConfig(total_nodes=400, shards=4, seed=3)
        prop = ShardedPropagation(config)
        fresh = prop.run(origin=200)
        with prop.open() as workers:
            prop.run_with(workers, 0)
            reused = prop.run_with(workers, 200)
            prop.run_with(workers, 7, label="msg:0", payload_bytes=900)
            after_labelled = prop.run_with(workers, 200)
        for again in (reused, after_labelled):
            assert again.epochs == fresh.epochs
            assert again.cross_shard_messages == fresh.cross_shard_messages
            assert np.array_equal(again.arrivals, fresh.arrivals)

    def test_reset_refills_in_place(self):
        state = ShardState(small_config(), 1)
        arrays = (state.dist, state.dirty, state.announced)
        state.step(np.asarray([0.0]), np.asarray([state.lo]), 10.0)
        assert np.isfinite(state.dist).all()
        state.reset("msg:0")
        assert state.dist is arrays[0] and state.dirty is arrays[1]
        assert state.announced is arrays[2]
        assert np.isinf(state.dist).all() and not state.dirty.any()
        assert np.isinf(state.announced).all()


class TestCsrEdgeCases:
    def test_bounds_have_one_source(self):
        config = small_config(total_nodes=301, shards=7)
        bounds = config.shard_bounds()
        assert [int(b) for b in bounds] == [i * 301 // 7 for i in range(8)]
        owners = ShardedPropagation(config)._owner(np.arange(301))
        for i in range(7):
            state = ShardState(config, i)
            assert (state.lo, state.hi) == (bounds[i], bounds[i + 1])
            assert (owners[state.lo:state.hi] == i).all()

    def test_indptr_slices_are_each_nodes_out_edges(self):
        state = ShardState(small_config(chords=3), 1)
        assert state.indptr[0] == 0 and state.indptr[-1] == len(state.heads)
        for v in range(state.hi - state.lo):
            run = slice(state.indptr[v], state.indptr[v + 1])
            assert (state.heads[run] == v + state.lo).all()

    def test_shard_whose_every_edge_is_external(self):
        """Two nodes, two shards, ring only: each shard owns one node
        whose out-edges all leave the shard."""
        config = ShardedConfig(total_nodes=2, shards=2, chords=0, seed=1)
        state = ShardState(config, 0)
        assert state.external.all()
        times, nodes, pending = state.step(
            np.asarray([0.0]), np.asarray([0]), 10.0)
        assert (nodes == 1).all() and len(times) == len(state.heads)
        assert pending == 0
        assert ShardedPropagation(config).run(origin=0).reached == 2

    def test_empty_frontier_sweep_is_a_no_op(self):
        state = ShardState(small_config(), 0)
        times, nodes, pending = state.step(
            np.zeros(0), np.zeros(0, dtype=np.int64), 5.0)
        assert len(times) == len(nodes) == pending == 0
        assert np.isinf(state.dist).all()
        # An arrival beyond the horizon waits: pending, nothing relaxed.
        times, nodes, pending = state.step(
            np.asarray([9.0]), np.asarray([state.lo + 3]), 5.0)
        assert len(times) == 0 and pending == 1
        assert np.count_nonzero(np.isfinite(state.dist)) == 1

    def test_frontier_node_without_out_edges(self):
        """The gather must cope with a frontier whose CSR rows are all
        empty (cannot arise from build_edges' ring, so carve it here)."""
        state = ShardState(small_config(), 0)
        state.indptr[:] = 0
        times, nodes, pending = state.step(
            np.asarray([0.0]), np.asarray([state.lo]), 5.0)
        assert len(times) == 0 and pending == 0
        assert state.dist[0] == 0.0
        assert np.count_nonzero(np.isfinite(state.dist)) == 1


@pytest.mark.runner
class TestMultiprocessParity:
    """jobs=1 vs jobs=N: the pinned scheduling-independence property."""

    def test_worker_pool_matches_inline_exactly(self):
        config = small_config(total_nodes=600, shards=4)
        inline = ShardedPropagation(config).run(jobs=1)
        pooled = ShardedPropagation(config).run(jobs=4)
        assert inline.fingerprint() == pooled.fingerprint()
        assert np.array_equal(inline.arrivals, pooled.arrivals)
        assert inline.epochs == pooled.epochs
        assert inline.cross_shard_messages == pooled.cross_shard_messages

    def test_shard_workers_surface_state_errors(self):
        from repro.runner.pool import ShardWorkers
        from repro.sim.sharded import _make_shard_state

        config = small_config()
        with ShardWorkers(_make_shard_state, config, 2) as workers:
            with pytest.raises(RuntimeError):
                workers.call("no_such_method", [(), ()])

    def test_shard_workers_validate_payload_count(self):
        from repro.runner.pool import ShardWorkers
        from repro.sim.sharded import _make_shard_state

        config = small_config()
        with ShardWorkers(_make_shard_state, config, 2) as workers:
            with pytest.raises(ValueError):
                workers.call("collect", [()])
