"""The uniform deployment factory (ISSUE 7's API redesign).

``build_deployment`` is the single constructor every bench, test and
CLI command goes through; these tests pin its contract: paradigm
validation, honest rejection of inapplicable knobs, Byzantine-spec
wiring, the uniform ``Deployment`` accessors, and the fuzzer's
``build_fuzz_deployment`` wrapper covering every paradigm.
"""

import inspect
from dataclasses import replace

import pytest

from repro.blockchain.params import BITCOIN
from repro.check.generator import profile_named
from repro.check.runner import (
    ALL_PARADIGMS,
    PARADIGMS,
    build_fuzz_deployment,
)
from repro.core.deploy import build_deployment
from repro.faults import ByzantineSpec
from repro.workloads.generators import PaymentEvent


def test_unknown_paradigm_and_engine_raise():
    with pytest.raises(ValueError, match="unknown paradigm"):
        build_deployment("tangle3000")
    # One engine per paradigm: the paradigm name is the only selector.
    with pytest.raises(TypeError, match="engine"):
        build_deployment("bft", engine="hotstuff")


def test_factory_keywords_are_pinned():
    """A new factory knob is a reviewed diff: every keyword here has a
    caller outside the tests that sets it."""
    assert set(inspect.signature(build_deployment).parameters) == {
        "paradigm", "faults", "node_count", "seed", "link_params",
        "topology_scale",
        "chain_params", "mempool_limits", "prune_interval_s",
        "prune_keep_depth",                              # blockchain
        "representative_count", "processing_tps",        # dag
        "view_timeout_s", "max_batch",                   # bft
    }


def test_inapplicable_knobs_are_rejected():
    with pytest.raises(ValueError, match="do not apply"):
        build_deployment("blockchain", view_timeout_s=2.0)
    with pytest.raises(ValueError, match="do not apply"):
        build_deployment("dag", chain_params=BITCOIN)
    with pytest.raises(ValueError, match="do not apply"):
        build_deployment("bft", prune_interval_s=30.0)
    # f_override is a quorum knob: BFT only.
    with pytest.raises(ValueError, match="do not apply"):
        build_deployment(
            "blockchain",
            faults=ByzantineSpec(count=1, behavior="selfish", f_override=1),
        )


@pytest.mark.parametrize("paradigm", sorted(ALL_PARADIGMS))
def test_node_count_below_one_is_rejected(paradigm):
    # 0 used to fall through ``node_count or default`` to 5 / 8 / 4 nodes.
    for count in (0, -3):
        with pytest.raises(ValueError, match="node_count"):
            build_deployment(paradigm, node_count=count)


def test_default_representatives_fit_a_tiny_roster():
    # The default used to be max(2, n // 2): two representatives on a
    # one-node roster, refused with an error about a knob nobody passed.
    assert build_deployment("dag").ledger.representative_count == 4  # of 8
    assert build_deployment("dag", node_count=5).ledger.representative_count == 2
    deployment = build_deployment("dag", node_count=1, seed=1)
    assert deployment.ledger.representative_count == 1
    ledger = deployment.setup(2, 1_000).ledger
    entry = ledger.submit(PaymentEvent(time_s=0.0, sender_index=0,
                                       recipient_index=1, amount=5))
    ledger.advance(10.0)
    assert ledger.is_confirmed(entry) and ledger.balance(1) == 1_005
    # An explicit count is still checked against the roster.
    with pytest.raises(ValueError, match="representatives"):
        build_deployment("dag", node_count=2,
                         representative_count=3).setup(2, 1_000)


def test_only_the_knobs_the_caller_set_are_forwarded():
    """Every default has one home, the adapter constructor: a bare
    factory call builds exactly what a bare adapter call builds."""
    from repro.core.adapters import BftLedger, BlockchainLedger, DagLedger

    for paradigm, adapter in (("blockchain", BlockchainLedger),
                              ("dag", DagLedger), ("bft", BftLedger)):
        built, bare = build_deployment(paradigm).ledger, adapter()
        assert type(built) is adapter
        skip = ("_rng", "_stats")
        assert ({k: v for k, v in vars(built).items() if k not in skip}
                == {k: v for k, v in vars(bare).items() if k not in skip})
    params = replace(BITCOIN, target_block_interval_s=30.0)
    tuned = build_deployment("blockchain", chain_params=params,
                             node_count=3).ledger
    assert tuned.params is params
    assert (tuned.fee, tuned.node_count) == (BlockchainLedger().fee, 3)


def test_byzantine_behavior_must_match_paradigm():
    with pytest.raises(ValueError, match="not wired"):
        build_deployment("blockchain",
                         faults=ByzantineSpec(count=1, behavior="equivocate"))
    with pytest.raises(ValueError, match="not wired"):
        build_deployment("bft",
                         faults=ByzantineSpec(count=1, behavior="selfish"))


def test_byzantine_spec_validates():
    with pytest.raises(ValueError, match="count"):
        ByzantineSpec(count=-1)
    with pytest.raises(ValueError, match="unknown Byzantine behavior"):
        ByzantineSpec(behavior="eclipse")


def test_fault_injector_requires_setup():
    deployment = build_deployment("bft")
    with pytest.raises(RuntimeError, match="setup"):
        deployment.fault_injector()


def test_bft_deployment_exposes_consensus_counters():
    deployment = build_deployment("bft", seed=1).setup(4, 1_000_000)
    ledger = deployment.ledger
    for i in range(4):
        ledger.submit(PaymentEvent(time_s=ledger.now(), sender_index=i % 4,
                                   recipient_index=(i + 1) % 4, amount=9))
        ledger.advance(2.0)
    ledger.advance(20.0)

    counters = deployment.layer_counters()
    assert counters["consensus.commits"] > 0
    assert counters["consensus.qcs_formed"] > 0
    assert counters["consensus.votes_sent"] > 0
    # ...and the same numbers surface through the Ledger stats contract.
    extra = ledger.stats().extra
    assert extra["consensus.commits"] == counters["consensus.commits"]


def test_byzantine_spec_marks_nodes():
    deployment = build_deployment(
        "bft", faults=ByzantineSpec(count=1, behavior="equivocate"),
    ).setup(4, 1_000_000)
    marked = [n for n in deployment.nodes if n.is_byzantine]
    assert len(marked) == 1
    assert marked[0].byzantine_behavior == "equivocate"


def test_fault_counts_report_the_marked_byzantine_nodes():
    # Regression: the injector reported a counter of its own that no
    # marking path bumped, so this read 0 whatever the adapter wired.
    deployment = build_deployment(
        "bft", faults=ByzantineSpec(count=1)).setup(4, 1_000_000)
    assert deployment.fault_injector().fault_counts()["byzantine_nodes"] == 1
    honest = build_deployment("bft").setup(4, 1_000_000)
    assert honest.fault_injector().fault_counts()["byzantine_nodes"] == 0


def test_build_ledger_shim_still_works():
    """The fuzzer's factory wrapper yields a ledger of the asked
    paradigm for every paradigm, and rejects unknown ones."""
    profile = profile_named("baseline")
    for paradigm in ALL_PARADIGMS:
        ledger = build_fuzz_deployment(paradigm, 0, profile).ledger
        assert ledger.paradigm == paradigm
    with pytest.raises(ValueError, match="unknown paradigm"):
        build_fuzz_deployment("nope", 0, profile)


def test_default_fuzz_pair_excludes_bft():
    # The differential default stays the paper's two-paradigm pair; the
    # BFT engine joins only by explicit selection.
    assert set(PARADIGMS) == {"blockchain", "dag"}
    assert set(ALL_PARADIGMS) == {"blockchain", "dag", "bft"}


def test_topology_scale_attaches_clusters_at_setup():
    from repro.net.aggregate import TopologyScale

    deployment = build_deployment("dag", node_count=4,
                                  representative_count=2,
                                  topology_scale=104, seed=1)
    assert deployment.topology_scale == TopologyScale(total_nodes=104)
    assert deployment.clusters == []  # nothing before setup
    deployment.setup(4, 1_000_000)
    assert len(deployment.clusters) == 4
    stats = deployment.scale_stats()
    assert stats["boundary_nodes"] == 4.0
    assert stats["modeled_nodes"] == 100.0
    # A TopologyScale instance passes through unchanged.
    scale = TopologyScale(total_nodes=50, cluster_degree=4)
    assert build_deployment("blockchain", node_count=3,
                            topology_scale=scale).topology_scale is scale


def test_crowd_aggregate_shaped_deployment_matches_parent_golden():
    """The shape of perfbench's ``crowd_aggregate`` (six clusters of
    16 665-16 666 nodes under a 6-node lattice) after 20 s of open-loop
    payments.  Digest and scale stats were captured on the parent of the
    change that deleted the nested law — the path this deployment takes
    never selected it, so "equal", not "close"."""
    from repro.workloads.open_loop import OpenLoopInjector

    deployment = build_deployment("dag", node_count=6,
                                  representative_count=3,
                                  topology_scale=100_000, seed=1)
    deployment.setup(20, 10**9)
    OpenLoopInjector.from_sim_stream(
        deployment.ledger, accounts=20, rate_tps=2.0,
        duration_s=20.0).start()
    deployment.ledger.advance(35.0)
    assert [c.size for c in deployment.clusters] == [16_666] * 4 + [16_665] * 2
    assert deployment.ledger.state_digest() == (
        "d4f869e614690eaf35b456991d988ca18b674df137c19dd447b6a26f7d674e49")
    assert deployment.scale_stats() == {
        "scaled": 1.0,
        "boundary_nodes": 6.0,
        "modeled_nodes": 99_994.0,
        "modeled_deliveries": 33_597_984.0,
        "messages_modeled": 2_016.0,
        "propagation_max_s": 0.7874924746032121,
    }


def test_crowd_sharded_shaped_deployment_matches_parent_golden():
    """The shape of perfbench's ``crowd_sharded`` (a 4-node chain under a
    10^4-node sharded crowd) after 20 s of open-loop payments.  Digest,
    plane fingerprint and scale stats were captured on the parent of the
    change that deleted the shard worker processes, so "equal", not
    "close"."""
    from repro.net.aggregate import TopologyScale
    from repro.net.link import FAST_LINK
    from repro.workloads.open_loop import OpenLoopInjector

    params = replace(BITCOIN, target_block_interval_s=15.0,
                     max_block_size_bytes=40_000, confirmation_depth=2)
    deployment = build_deployment(
        "blockchain", chain_params=params, node_count=4,
        link_params=FAST_LINK, seed=1,
        topology_scale=TopologyScale(total_nodes=10_000, plane="sharded"))
    deployment.setup(20, 10**9)
    OpenLoopInjector.from_sim_stream(
        deployment.ledger, accounts=20, rate_tps=2.0,
        duration_s=20.0).start()
    deployment.ledger.advance(35.0)
    assert deployment.ledger.state_digest() == (
        "f103d59f2e13904a60784e248e6e834b2dba274d535d0ff08ee8988f248c4966")
    assert deployment.network.plane_fingerprint() == "b63b3c8c818a6a4d"
    assert deployment.scale_stats() == {
        "scaled": 1.0,
        "boundary_nodes": 4.0,
        "modeled_nodes": 9_996.0,
        "modeled_deliveries": 439_824.0,
        "messages_modeled": 44.0,
        "propagation_max_s": 0.9275178385314847,
    }


def test_topology_scale_below_boundary_is_rejected():
    with pytest.raises(ValueError, match="below the fully-simulated"):
        build_deployment("blockchain", node_count=5, topology_scale=3)


def test_zero_surplus_scale_attaches_nothing_and_reports_explicitly():
    """total_nodes == boundary count: a legal no-op scale.  No clusters
    attach, and scale_stats() still returns the full key set with an
    explicit scaled=0.0 instead of a partial report."""
    deployment = build_deployment("blockchain", node_count=3,
                                  topology_scale=3, seed=0)
    deployment.setup(4, 1_000_000)
    assert deployment.clusters == []
    stats = deployment.scale_stats()
    assert stats == {
        "scaled": 0.0,
        "boundary_nodes": 3.0,
        "modeled_nodes": 0.0,
        "modeled_deliveries": 0.0,
        "messages_modeled": 0.0,
        "propagation_max_s": 0.0,
    }


def test_unscaled_deployment_reports_the_same_empty_shape():
    deployment = build_deployment("blockchain", node_count=3, seed=0)
    deployment.setup(4, 1_000_000)
    stats = deployment.scale_stats()
    assert stats["scaled"] == 0.0
    assert set(stats) == {"scaled", "boundary_nodes", "modeled_nodes",
                          "modeled_deliveries", "messages_modeled",
                          "propagation_max_s"}
