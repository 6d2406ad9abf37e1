"""Tests for the mean-field aggregate gossip tier (repro.net.aggregate).

The load-bearing test here is the aggregate-vs-exact validation: the
vectorized cluster model must stay within a pinned KS tolerance of a
fully-simulated small-N flood, so model drift fails loudly instead of
silently skewing the 10^4-node scale benches.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.net.aggregate import (
    AggregateCluster,
    TopologyScale,
    _flood_delays,
    aggregate_flood_times,
    attach_clusters,
    exact_flood_times,
    hop_layers,
    ks_statistic,
    sample_flood_times,
    validate_aggregate_model,
)
from repro.net.link import FAST_LINK, WAN_LINK, LinkParams
from repro.net.message import Message
from repro.net.network import Network
from repro.net.node import NetworkNode
from repro.net.topology import complete_topology
from repro.sim.simulator import Simulator


def make_message(payload="x", size=100):
    return Message(kind="test", payload=payload, size_bytes=size)


class Recorder(NetworkNode):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.received = []

    def handle_message(self, sender_id, message):
        self.received.append((sender_id, message.payload))


class TestHopLayers:
    def test_covers_exactly_count(self):
        for count in (1, 5, 23, 100, 4096):
            for degree in (2, 4, 8):
                layers = hop_layers(count, degree)
                assert sum(layers) == count
                assert all(size >= 1 for size in layers)

    def test_first_layer_is_the_ingress_degree(self):
        assert hop_layers(100, 6)[0] == 6
        assert hop_layers(3, 6)[0] == 3

    def test_collision_correction_slows_the_front(self):
        # In a finite graph the frontier grows slower than the ideal
        # d*(d-1)^h tree — the correction must bite.
        layers = hop_layers(100, 4)
        ideal = [4, 12, 36, 48]
        assert layers[1] < ideal[1] or layers[2] < ideal[2]

    def test_validates_degree(self):
        with pytest.raises(ValueError):
            hop_layers(10, 1)
        assert hop_layers(0, 4) == []


class TestSampleFloodTimes:
    def test_sorted_positive_and_sized(self):
        rng = np.random.default_rng(7)
        times = sample_flood_times(500, 8, FAST_LINK, 1000, rng)
        assert len(times) == 500
        assert (times > 0).all()
        assert (np.diff(times) >= 0).all()

    def test_deterministic_for_same_seed(self):
        link = LinkParams(latency_s=0.05, jitter_s=0.03, loss_probability=0.1)
        a = sample_flood_times(200, 6, link, 500, np.random.default_rng(3))
        b = sample_flood_times(200, 6, link, 500, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_loss_extends_the_tail(self):
        clean = LinkParams(latency_s=0.05, jitter_s=0.0, loss_probability=0.0)
        lossy = LinkParams(latency_s=0.05, jitter_s=0.0, loss_probability=0.4)
        t_clean = sample_flood_times(300, 6, clean, 500,
                                     np.random.default_rng(0))
        t_lossy = sample_flood_times(300, 6, lossy, 500,
                                     np.random.default_rng(0))
        assert t_lossy.mean() > t_clean.mean()

    def test_empty(self):
        assert len(sample_flood_times(0, 8, FAST_LINK, 100,
                                      np.random.default_rng(0))) == 0

    #: (count, degree, link, wire_size, seed) -> sha256(times.tobytes())[:16],
    #: captured on the parent of the change that deleted the nested law:
    #: the one law left must be the same bytes it always was, below and
    #: above the 20 000-node size where clusters used to switch laws.
    GOLDEN = [
        (24, 4, LinkParams(latency_s=0.05, jitter_s=0.04,
                           bandwidth_bps=50_000_000.0), 296, 0,
         "70c60c8f7514076f"),
        (500, 8, FAST_LINK, 1000, 7, "e693ba99b7047f56"),
        (300, 6, LinkParams(latency_s=0.05, jitter_s=0.0,
                            loss_probability=0.4), 500, 3,
         "9a843686fead7929"),
        (16_666, 8, WAN_LINK, 340, 1, "82f55381adb4acee"),
        (30_000, 8, WAN_LINK, 340, 2, "d1a6cb0cdd88cffc"),
        (250_000, 8, LinkParams(latency_s=0.1, jitter_s=0.05,
                                loss_probability=0.05), 340, 5,
         "1eea7abf175d48d6"),
    ]

    @pytest.mark.parametrize(
        "count,degree,link,wire_size,seed,digest", GOLDEN,
        ids=[f"n{row[0]}-seed{row[4]}" for row in GOLDEN])
    def test_golden_draws(self, count, degree, link, wire_size, seed,
                          digest):
        times = sample_flood_times(count, degree, link, wire_size,
                                   np.random.default_rng(seed))
        assert hashlib.sha256(times.tobytes()).hexdigest()[:16] == digest

    @pytest.mark.parametrize(
        "count,degree,link,wire_size,seed,digest", GOLDEN,
        ids=[f"n{row[0]}-seed{row[4]}" for row in GOLDEN])
    def test_unsorted_kernel_draws_the_golden_bytes(
            self, count, degree, link, wire_size, seed, digest):
        delays = _flood_delays(hop_layers(count, degree), degree, link,
                               wire_size, np.random.default_rng(seed))
        assert len(delays) == count
        times = np.sort(delays)
        assert hashlib.sha256(times.tobytes()).hexdigest()[:16] == digest

    def test_one_draw_builds_no_fanout_wide_gather(self):
        """At 16 666 nodes the last layer races 18 candidate parents per
        node.  The parent picks themselves (553 KB of int64) are part of
        the draw; a ``(size, fanout)`` float gather of them would add as
        much again (about 1.35 MB at peak)."""
        layers = hop_layers(16_666, 8)
        rng = np.random.default_rng(1)
        _flood_delays(layers, 8, WAN_LINK, 340, rng)
        tracemalloc.start()
        try:
            _flood_delays(layers, 8, WAN_LINK, 340, rng)
            peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak_bytes < 1_000_000, peak_bytes


class TestKsStatistic:
    def test_identical_samples(self):
        assert ks_statistic([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_disjoint_samples(self):
        assert ks_statistic([0.0, 1.0], [10.0, 11.0]) == 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ks_statistic([], [1.0])


class TestAggregateVsExactValidation:
    """The pinned tolerance: aggregate and exact small-N floods must
    agree on the propagation-time distribution."""

    def test_default_config_within_pinned_ks_tolerance(self):
        result = validate_aggregate_model()  # N=24, degree=4, 5 seeds
        assert result["ks"] <= 0.15, result
        # Means agree within 5% as well — KS alone would tolerate a
        # uniform shift of small samples.
        rel = abs(result["aggregate_mean"] - result["exact_mean"])
        assert rel / result["exact_mean"] <= 0.05, result

    def test_denser_interior_within_tolerance(self):
        result = validate_aggregate_model(count=32, degree=6)
        assert result["ks"] <= 0.12, result

    def test_validation_is_deterministic(self):
        assert validate_aggregate_model() == validate_aggregate_model()

    def test_exact_and_aggregate_samples_sized_consistently(self):
        link = LinkParams(latency_s=0.05, jitter_s=0.04,
                          bandwidth_bps=50_000_000.0)
        exact = exact_flood_times(16, 4, link, seed=0)
        aggregate = aggregate_flood_times(16, 4, link, seed=0)
        assert len(exact) == len(aggregate) == 15


class TestAggregateCluster:
    def build(self, size=50):
        sim = Simulator(seed=1)
        net = Network(sim)
        nodes = complete_topology(net, 3, Recorder, FAST_LINK)
        cluster = AggregateCluster("agg:n0", size)
        net.add_node(cluster)
        net.connect("n0", "agg:n0", FAST_LINK)
        return sim, net, nodes, cluster

    def test_models_each_broadcast_once(self):
        sim, net, nodes, cluster = self.build()
        nodes[1].broadcast(make_message("a"))
        nodes[2].broadcast(make_message("b"))
        sim.run()
        assert cluster.messages_modeled == 2
        assert cluster.modeled_deliveries == 2 * cluster.size
        assert len(cluster.propagation_times) == 2
        assert all(t > 0 for t in cluster.propagation_times)

    def test_delivery_schedules_nothing(self):
        """The flood is settled at ingress: once the boundary node's
        delivery is handled, the cluster has left no event behind, so
        sim.run() drains as soon as the exact plane does."""
        sim, net, nodes, cluster = self.build()
        nodes[1].broadcast(make_message("a"))
        sim.run()
        assert cluster.messages_modeled == 1
        pushed = sim.queue_stats()["pushed"]
        cluster.handle_message("n0", make_message("c"))
        assert cluster.messages_modeled == 2
        assert sim.queue_stats()["pushed"] == pushed
        assert sim.queue_stats()["pending"] == 0

    def test_slow_link_flood_is_credited_at_ingress(self):
        sim, net, nodes, cluster = self.build(size=400)
        slow = LinkParams(latency_s=0.5, jitter_s=0.2, bandwidth_bps=1e9)
        cluster.link = slow
        nodes[1].broadcast(make_message("slow"))
        sim.run(until=1.0)
        # Credited in full at ingress, though the slow interior needs
        # several hops of at least the link latency, past the horizon.
        assert cluster.modeled_deliveries == cluster.size
        assert cluster.stats()["propagation_max_s"] > slow.latency_s
        assert cluster.stats()["propagation_max_s"] > 1.0

    def test_same_message_twice_is_modeled_once(self):
        sim, net, nodes, cluster = self.build()
        message = make_message("twice")
        cluster.handle_message("n0", message)
        cluster.handle_message("n0", message)
        assert cluster.messages_modeled == 1
        assert cluster.modeled_deliveries == cluster.size
        assert len(cluster.propagation_times) == 1

    def test_holds_no_per_flood_array(self):
        """50 floods of 16 666 nodes: each draw is 133 KB of delays, and
        none of them may outlive its ``handle_message``."""
        sim, net, nodes, cluster = self.build(size=16_666)
        messages = [make_message(f"m{i}") for i in range(51)]
        cluster.handle_message("n0", messages[0])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for message in messages[1:]:
                cluster.handle_message("n0", message)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert cluster.messages_modeled == 51
        assert held < 64_000, held

    def test_seed_stable_across_runs(self):
        def fingerprint():
            sim, net, nodes, cluster = self.build(size=80)
            nodes[1].broadcast(make_message("a"))
            sim.run()
            return tuple(cluster.propagation_times)

        assert fingerprint() == fingerprint()

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            AggregateCluster("c", 0)


class TestAttachClusters:
    def test_distributes_surplus_across_boundary(self):
        sim = Simulator(seed=0)
        net = Network(sim)
        complete_topology(net, 4, Recorder, FAST_LINK)
        scale = TopologyScale(total_nodes=104)
        clusters = attach_clusters(net, scale)
        assert len(clusters) == 4
        assert sum(c.size for c in clusters) == 100
        assert max(c.size for c in clusters) - min(
            c.size for c in clusters) <= 1
        # Clusters are leaves: one neighbor each, the boundary node.
        for cluster in clusters:
            assert net.neighbors(cluster.node_id) == \
                [cluster.node_id.split(":", 1)[1]]

    def test_no_clusters_when_boundary_covers_total(self):
        sim = Simulator(seed=0)
        net = Network(sim)
        complete_topology(net, 4, Recorder, FAST_LINK)
        assert attach_clusters(net, TopologyScale(total_nodes=4)) == []

    def test_broadcast_reaches_every_cluster_exactly_once(self):
        sim = Simulator(seed=0)
        net = Network(sim)
        nodes = complete_topology(net, 4, Recorder, FAST_LINK)
        clusters = attach_clusters(net, TopologyScale(total_nodes=204))
        nodes[0].broadcast(make_message("wide"))
        sim.run()
        for cluster in clusters:
            assert cluster.messages_modeled == 1
            assert len(cluster.propagation_times) == 1
        total = sum(c.modeled_deliveries for c in clusters)
        assert total == 200

    def test_scale_validates(self):
        with pytest.raises(ValueError):
            TopologyScale(total_nodes=0)


class TestNestedAggregate:
    """What stands where the nested cluster-of-clusters law was: a
    cluster of any size draws the one law, and the options that steered
    the other one are gone."""

    def test_large_cluster_models_whole_population(self):
        """Sizes that used to auto-nest (>= 20 000) on the one law: the
        whole population is modeled and one draw stays small."""
        for size in (30_000, 250_000):
            sim = Simulator(seed=3)
            net = Network(sim)
            nodes = complete_topology(net, 3, Recorder, FAST_LINK)
            cluster = AggregateCluster("agg:n0", size)
            net.add_node(cluster)
            net.connect("n0", "agg:n0", FAST_LINK)
            nodes[1].broadcast(make_message("deep"))
            tracemalloc.start()
            try:
                sim.run()
                peak_bytes = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(cluster.propagation_times) == 1
            assert cluster.modeled_deliveries == size
            assert cluster.stats()["propagation_max_s"] > 0
            assert peak_bytes < 40e6, peak_bytes

    def test_nested_options_are_gone(self):
        with pytest.raises(TypeError):
            TopologyScale(total_nodes=10, nested_fanout=8)
        with pytest.raises(TypeError):
            TopologyScale(total_nodes=10, boundary_link=FAST_LINK)
        with pytest.raises(TypeError):
            AggregateCluster("agg:n0", 30_000, fanout=6)
        with pytest.raises(TypeError):
            AggregateCluster("agg:n0", 30_000, boundary_link=FAST_LINK)
        # Only one value of these was ever set: the cluster's interior
        # and the crowd's graph fix them.
        for field in ("cluster_degree", "tick_s", "cluster_link", "chords"):
            with pytest.raises(TypeError):
                TopologyScale(total_nodes=10, **{field: 2})
        for keyword in ("degree", "link", "tick_s", "seed"):
            with pytest.raises(TypeError):
                AggregateCluster("agg:n0", 100, **{keyword: 2})

    def test_scale_validates_plane_fields(self):
        with pytest.raises(ValueError):
            TopologyScale(total_nodes=10, plane="warp")
        with pytest.raises(ValueError):
            TopologyScale(total_nodes=10, shards=0)
        # jobs is one-valued: the crowd's shards always step in process.
        assert TopologyScale(total_nodes=10, jobs=1).jobs == 1
        for jobs in (0, 2):
            with pytest.raises(ValueError, match="jobs must be 1"):
                TopologyScale(total_nodes=10, jobs=jobs)
