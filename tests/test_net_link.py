"""The link law's two numpy consumers draw from one place.

:class:`~repro.net.link.RetransmitPolicy` owns the backoff schedule and
:meth:`~repro.net.link.LinkParams.flood_delays` is the one batch hop
law; the aggregate clusters and the sharded crowd must both be exactly
that law, so neither tier can drift from the other or from the exact
plane's retransmits.
"""

import numpy as np
import pytest

from repro.common.rng import fork_rng, make_rng
from repro.net.aggregate import _flood_delays, hop_layers
from repro.net.link import LinkParams, RetransmitPolicy
from repro.net.message import MESSAGE_OVERHEAD_BYTES
from repro.sim.sharded import ShardedConfig, ShardedPropagation


class _NoJitter:
    """Stands in for the retransmit RNG: every jitter factor is 1."""

    def uniform(self, low, high):
        return 1.0


class TestRetransmitSchedule:
    """The scale tier reads its backoff from the policy object the
    exact plane retransmits on, so the two cannot drift apart."""

    @pytest.mark.parametrize("policy", [
        RetransmitPolicy(),
        RetransmitPolicy(base_delay_s=0.2, multiplier=3.0, max_delay_s=4.0,
                         max_attempts=8),
    ], ids=["default", "capped"])
    def test_cumulative_schedule_is_the_policys_backoff(self, policy):
        schedule = policy.cumulative_backoff()
        assert len(schedule) == policy.max_attempts
        total = 0.0
        assert schedule[0] == 0.0
        for attempt in range(1, policy.max_attempts):
            total += policy.backoff(attempt, _NoJitter())
            assert schedule[attempt] == total


#: Lossy and jittered, so every draw of the law is exercised.
LOSSY = LinkParams(latency_s=0.05, jitter_s=0.03, bandwidth_bps=20_000_000.0,
                   loss_probability=0.3)


class TestBothTiersDrawTheOneLaw:
    def test_a_shard_slice_is_the_law(self):
        config = ShardedConfig(total_nodes=500, shards=4, seed=6, link=LOSSY)
        prop = ShardedPropagation(config)
        prop.reset("msg:3", 700)
        bounds = prop.edge_bounds.tolist()
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            rng = np.random.default_rng(fork_rng(
                make_rng(config.seed), f"msg:3:shard:{i}").getrandbits(64))
            expected = LOSSY.flood_delays(
                hi - lo, 700 + MESSAGE_OVERHEAD_BYTES, rng)
            assert np.array_equal(prop.weights[lo:hi], expected)

    def test_an_aggregate_layer_is_the_law(self):
        # The first layer hangs off the ingress at t = 0, so its delays
        # are its hops; they are drawn before the layer's parent picks.
        layers = hop_layers(1_000, 6)
        delays = _flood_delays(layers, 6, LOSSY, 340,
                               np.random.default_rng(4))
        expected = LOSSY.flood_delays(layers[0], 340,
                                      np.random.default_rng(4))
        assert np.array_equal(delays[:layers[0]], expected)
