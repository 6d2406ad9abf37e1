"""Layer-attributed spans for the traced pass, recorded from outside ``src/``.

``install()`` wraps the public entry points of every layer (the table in
``ENTRY_POINTS``) and the simulator's scheduling seam, *before* a
deployment is built.  Each wrapped call records one span
``(id, parent_id, layer, name, t0, t1)`` — parent = the innermost open
span, so every span of one delivered message hangs under the same
scheduled-action root — and a call count.  A layer's ``self_s`` is the
sum of its spans' durations minus the part covered by child spans.

Nothing here runs in the untraced repeats: end-to-end metrics never come
from a process that imported this module.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter
from typing import Callable, Dict, List, Tuple

#: Spans kept verbatim for the JSONL dump; later ones still feed self_s
#: and call counts but are only counted in ``dropped`` (a traced
#: nano_load opens several million spans — keeping all of them would
#: measure the allocator, not the layers).
SPAN_CAP = 200_000

#: Internal layers.  ``crowd`` (the scale planes) and ``trie`` are
#: reported as ``net.crowd_self_s`` / ``crypto.trie_self_s``.
LAYERS = ("sim", "net", "crowd", "protocol", "consensus", "ledger", "crypto",
          "trie", "encoding", "storage", "trace", "workloads", "core")

#: module prefix -> layer, most specific first.  Labels a scheduled
#: action by the module that defines it: delivery closures in
#: ``net.network`` count as net, miner/vote/view timers as consensus,
#: injector ticks and fault-schedule lambdas as workloads.
MODULE_LAYERS = (
    ("repro.sim.sharded", "crowd"),
    ("repro.sim", "sim"),
    ("repro.net.sharded_plane", "crowd"),
    ("repro.net.aggregate", "crowd"),
    ("repro.net", "net"),
    ("repro.protocol", "protocol"),
    ("repro.blockchain.node", "consensus"),
    ("repro.blockchain.miner", "consensus"),
    ("repro.dag.node", "consensus"),
    ("repro.dag.voting", "consensus"),
    ("repro.dag.representatives", "consensus"),
    ("repro.consensus", "consensus"),
    ("repro.blockchain", "ledger"),
    ("repro.dag", "ledger"),
    ("repro.crypto.trie", "trie"),
    ("repro.crypto", "crypto"),
    ("repro.common", "encoding"),
    ("repro.storage", "storage"),
    ("repro.trace", "trace"),
    ("repro.workloads", "workloads"),
    ("repro.faults", "workloads"),
    ("repro.core", "core"),
)

_ENGINE = ("integrate", "on_applied", "missing_dependency", "is_known")

#: (layer, module, class or None for module-level functions, names).
#: A name the class inherits instead of defining is skipped (the base
#: class's wrapped definition serves it); a name that exists nowhere
#: raises, so a rename in ``src/`` fails the benchmark's own test
#: instead of silently thinning a layer.
ENTRY_POINTS = (
    ("sim", "repro.sim.simulator", "Simulator", ("run",)),
    ("net", "repro.net.network", "Network",
     ("gossip", "transmit", "transmit_reliable", "kick_retries", "heal",
      "partition")),
    ("crowd", "repro.net.sharded_plane", "ShardedMessagePlane",
     ("gossip", "plane_stats")),
    ("crowd", "repro.sim.sharded", "ShardedPropagation", ("run_with",)),
    ("crowd", "repro.net.aggregate", "AggregateCluster", ("handle_message",)),
    ("crowd", "repro.net.aggregate", None, ("attach_clusters",)),
    ("protocol", "repro.net.node", "NetworkNode", ("deliver", "deliver_batch")),
    ("protocol", "repro.protocol.node", "ProtocolNode",
     ("ingest", "ingest_quietly", "ingest_batch", "revive_intake")),
    ("protocol", "repro.protocol.transport", "TransportLayer", ("publish",)),
    ("protocol", "repro.protocol.intake", "IntakeLayer",
     ("park", "satisfy", "drain")),
    ("consensus", "repro.protocol.interfaces", "ConsensusEngine",
     ("is_known", "on_applied")),
    ("consensus", "repro.blockchain.node", "ChainConsensus", _ENGINE),
    ("consensus", "repro.dag.node", "NanoConsensus", _ENGINE),
    ("consensus", "repro.consensus.hotstuff", "HotStuffEngine", _ENGINE),
    ("consensus", "repro.dag.voting", "ElectionManager",
     ("record_conflict_vote", "record_observation_vote")),
    # The node classes are the consensus side of the stack: what they do
    # with a delivered message or a client request, beyond the shared
    # ingest pipeline, is vote/QC/election/mining logic.
    ("consensus", "repro.blockchain.node", "BlockchainNode",
     ("handle_message", "submit_transaction")),
    ("consensus", "repro.dag.node", "NanoNode",
     ("handle_message", "send_payment")),
    ("consensus", "repro.consensus.hotstuff", "BftNode",
     ("handle_message", "submit_payment")),
    ("ledger", "repro.blockchain.chain", "ChainStore", ("add_block",)),
    ("ledger", "repro.blockchain.utxo", "UTXOSet",
     ("apply_transaction", "revert_transaction")),
    ("ledger", "repro.blockchain.state", "AccountState",
     ("apply_block_transactions", "rollback_to")),
    ("ledger", "repro.blockchain.mempool", "Mempool",
     ("add", "select_by_size", "select_by_gas", "remove_included")),
    ("ledger", "repro.blockchain.validation", None,
     ("validate_block_structure", "validate_block_transactions",
      "apply_block", "revert_block")),
    ("ledger", "repro.blockchain.wallet", "UtxoWallet", ("pay",)),
    ("ledger", "repro.blockchain.wallet", "AccountWallet", ("pay",)),
    ("ledger", "repro.dag.lattice", "Lattice",
     ("process", "rollback", "cement")),
    ("crypto", "repro.crypto.keys", "KeyPair", ("sign",)),
    ("crypto", "repro.crypto.keys", None,
     ("verify_signature", "verify_signatures_batch", "prewarm_signatures")),
    ("crypto", "repro.crypto.hashing", None, ("sha256", "sha256d")),
    ("crypto", "repro.crypto.merkle", None, ("merkle_root",)),
    ("trie", "repro.crypto.trie", "MerklePatriciaTrie",
     ("put", "delete", "get", "root_hash", "set_root")),
    ("encoding", "repro.common.encoding", "Encoder", ("getvalue",)),
    ("encoding", "repro.common.encoding", None,
     ("encode_uint", "encode_uint32", "encode_uint64", "encode_uint128",
      "encode_bytes", "encode_str", "encode_bool", "encode_list")),
    ("storage", "repro.blockchain.node", "BlockchainNode",
     ("sync_from", "state_sync_from")),
    ("storage", "repro.dag.node", "NanoNode",
     ("bootstrap_from", "state_sync_from")),
    ("storage", "repro.storage.pruning", None, ("prune_chain",)),
    ("storage", "repro.storage.dag_pruning", None, ("prune_lattice",)),
    ("trace", "repro.trace", "Tracer",
     ("emit", "record_schedule", "record_deliver", "record_drop",
      "record_retransmit", "record_give_up", "record_fork",
      "record_intake_park", "record_intake_revive", "record_republish")),
    ("core", "repro.core.adapters", "BlockchainLedger",
     ("submit", "advance", "stats")),
    ("core", "repro.core.adapters", "DagLedger", ("submit", "advance", "stats")),
    ("core", "repro.core.adapters", "BftLedger", ("submit", "advance", "stats")),
)

def layer_of_module(module: str) -> str:
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "core"


class Recorder:
    """Span store + per-layer self time + call counts of one traced run."""

    def __init__(self) -> None:
        #: open spans, innermost last: [span_id, seconds covered by children]
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.calls: Dict[Tuple[str, str], int] = {}
        #: bytes returned by the encoding layer's calls
        self.encoded_bytes = 0
        self.spans: List[tuple] = []
        self.dropped = 0
        self.next_id = 0
        # One wrapper per batch-dispatch callable: Simulator.run merges
        # a run of same-key events only while ``action is dispatch``.
        self._dispatch_memo: Dict[Callable, Callable] = {}

    def reset(self) -> None:
        """Forget everything recorded so far (called when the timed
        phase starts); in place, because the wrappers hold these objects."""
        for layer in self.self_s:
            self.self_s[layer] = 0.0
        for key in self.calls:
            self.calls[key] = 0
        self.encoded_bytes = 0
        self.spans.clear()
        self.dropped = 0

    # -------------------------------------------------------------- wrapping

    def traced(self, fn: Callable, layer: str, name: str) -> Callable:
        """``fn`` wrapped to record one span (and one call) per call."""
        rec = self
        stack, self_s, calls, spans = self.stack, self.self_s, self.calls, self.spans
        key = (layer, name)
        calls.setdefault(key, 0)
        sized = layer == "encoding"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.next_id = span_id = rec.next_id + 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if sized:
                    rec.encoded_bytes += len(out)
                return out
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = t1 - t0
                self_s[layer] += duration - frame[1]
                calls[key] += 1
                if parent is not None:
                    parent[1] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, parent[0] if parent else 0,
                                  layer, name, t0, t1))
                else:
                    rec.dropped += 1

        return wrapper

    def traced_action(self, action: Callable, memo: bool = False) -> Callable:
        """A scheduled action, labelled by the layer of its defining module."""
        if memo and action in self._dispatch_memo:
            return self._dispatch_memo[action]
        fn = getattr(action, "__func__", action)
        layer = layer_of_module(getattr(fn, "__module__", None) or "")
        name = "action:" + getattr(fn, "__qualname__", type(fn).__name__)
        wrapped = self.traced(action, layer, name)
        if memo:
            self._dispatch_memo[action] = wrapped
        return wrapped

    # --------------------------------------------------------------- queries

    def call_count(self, layer: str, *methods: str) -> int:
        """Calls in ``layer`` of entry points named ``methods``, whatever
        class defines them (every entry point of the layer when none is
        given)."""
        return sum(count for (lay, name), count in self.calls.items()
                   if lay == layer
                   and (not methods or name.rpartition(".")[2] in methods))

    def dominant_layer(self) -> str:
        return max(self.self_s, key=self.self_s.get)

    def dump_jsonl(self, path) -> None:
        with open(path, "w") as out:
            for span_id, parent, layer, name, t0, t1 in self.spans:
                out.write(json.dumps({"id": span_id, "parent_id": parent,
                                      "layer": layer, "name": name,
                                      "t0": t0, "t1": t1}) + "\n")


def _wrap_attribute(rec: Recorder, owner, name: str, layer: str, label: str) -> None:
    """Replace ``owner.name`` by its traced version, in place."""
    raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    if isinstance(raw, property):
        wrapped = property(rec.traced(raw.fget, layer, label), raw.fset, raw.fdel)
    elif isinstance(raw, (staticmethod, classmethod)):
        wrapped = type(raw)(rec.traced(raw.__func__, layer, label))
    else:
        wrapped = rec.traced(raw, layer, label)
    setattr(owner, name, wrapped)
    if not isinstance(owner, type):
        # Module-level functions are imported by name all over src/:
        # rebind every repro.* global that still holds the original.
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for global_name, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, global_name, wrapped)


def _wrap_scheduling(rec: Recorder) -> None:
    """Label every scheduled action at the public ``schedule*`` seam."""
    from repro.sim.simulator import Simulator

    schedule = rec.traced(Simulator.schedule, "sim", "Simulator.schedule")
    schedule_at = rec.traced(Simulator.schedule_at, "sim", "Simulator.schedule_at")
    schedule_batchable = rec.traced(
        Simulator.schedule_batchable, "sim", "Simulator.schedule_batchable")
    schedule_periodic = Simulator.schedule_periodic

    def traced_schedule(self, delay, action, label=""):
        return schedule(self, delay, rec.traced_action(action), label)

    def traced_schedule_at(self, time, action, label=""):
        return schedule_at(self, time, rec.traced_action(action), label)

    def traced_schedule_batchable(self, delay, dispatch, payload, key, label=""):
        return schedule_batchable(
            self, delay, rec.traced_action(dispatch, memo=True), payload, key,
            label)

    def traced_schedule_periodic(self, interval, action, **kwargs):
        # The periodic ``tick`` closure is the simulator's own; label the
        # caller's action underneath it (injector ticks -> workloads).
        return schedule_periodic(self, interval, rec.traced_action(action),
                                 **kwargs)

    Simulator.schedule = traced_schedule
    Simulator.schedule_at = traced_schedule_at
    Simulator.schedule_batchable = traced_schedule_batchable
    Simulator.schedule_periodic = traced_schedule_periodic


def install() -> Recorder:
    """Wrap every entry point; call once, before building a deployment."""
    rec = Recorder()
    modules = {entry[1]: importlib.import_module(entry[1])
               for entry in ENTRY_POINTS}
    for layer, module_name, class_name, names in ENTRY_POINTS:
        module = modules[module_name]
        owner = getattr(module, class_name) if class_name else module
        for name in names:
            if class_name and name not in owner.__dict__:
                if not hasattr(owner, name):
                    raise AttributeError(
                        f"{module_name}.{class_name} has no {name!r}")
                continue
            label = f"{class_name}.{name}" if class_name else name
            _wrap_attribute(rec, owner, name, layer, label)
    _wrap_scheduling(rec)
    return rec


def layer_metrics(rec: Recorder, run_s: float) -> Dict[str, float]:
    """The span-derived per-layer metrics of one traced timed phase."""
    self_s = rec.self_s
    count = rec.call_count
    # Every ingest path (scalar, batch, dependent retry) asks the engine
    # is_known exactly once per attempt and calls on_applied exactly once
    # per integrated artifact.
    ingest_calls = count("consensus", "is_known")
    integrated = count("consensus", "on_applied")
    metrics = {f"{layer}.self_s": self_s[layer] for layer in LAYERS
               if layer not in ("crowd", "trie", "crypto")}
    metrics.update({
        "net.crowd_self_s": self_s["crowd"],
        "crypto.self_s": self_s["crypto"] + self_s["trie"],
        "crypto.trie_self_s": self_s["trie"],
        "net.publish_calls": count("net", "gossip", "transmit",
                                   "transmit_reliable"),
        "protocol.ingest_calls": ingest_calls,
        "protocol.integrated": integrated,
        "protocol.useful_ingest_ratio":
            integrated / ingest_calls if ingest_calls else 0.0,
        "consensus.integrate_calls": count("consensus", "integrate"),
        "ledger.apply_calls": count("ledger", "add_block", "apply_transaction",
                                    "apply_block_transactions", "process"),
        "ledger.rollbacks": count("ledger", "revert_transaction", "rollback_to",
                                  "rollback"),
        "mempool.add_calls": count("ledger", "add"),
        "crypto.sign_calls": count("crypto", "sign"),
        "crypto.verify_calls": count("crypto", "verify_signature",
                                     "verify_signatures_batch",
                                     "prewarm_signatures"),
        "crypto.hash_calls": count("crypto", "sha256", "sha256d", "merkle_root"),
        "crypto.trie_updates": count("trie", "put", "delete"),
        "encoding.calls": count("encoding"),
        "encoding.bytes": rec.encoded_bytes,
        "layers.unattributed_share":
            max(0.0, 1.0 - sum(self_s.values()) / run_s) if run_s else 0.0,
    })
    return metrics
