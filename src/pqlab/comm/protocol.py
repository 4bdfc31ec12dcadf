"""Two-phase set-intersection protocol built from a deterministic queue.

Both players hold replicas of the same queue over replica devices.  Given a
tree node v and a middle-child index k, Bob's set Y becomes the insert keys
of c_1(v) and Alice's set X the delete keys of c_k(v)'s subtree; all other
leaves up to and including v's extract-min leaf are populated publicly, with
one rejection-sampling flag per key class (a fresh private set is sent when
the public candidate collides with a player's secret set).

Phase one: both replay the shared prefix; Bob additionally runs
c_1..c_{k-1}(v), sends the set A of addresses he probed and his memory
image, and Alice runs c_k(v)'s subtree, requesting the content of every
address in A on its first touch.  Phase two mirrors it: Alice sends the
address set Z she probed plus her memory image, Bob runs the remaining
children and requests first-touched addresses in Z, reads the extract-min
answers of c_{2+beta}(v), computes the intersection as the Y keys neither
publicly deleted in the middle subtrees nor extracted at priority h_v, and
sends it to Alice.  Because request sets equal probed-address sets, Alice's
phase-one request count is exactly |R(v,k)| and Bob's phase-two request
count exactly |L(v,k)| of the probe attribution on a reference run.

Bit prices are fixed constants of the ledger: address = w, block content =
B*w, memory image = M*w, rejection flag = 1, resampled or intersection sets
pay ceil(log2 U) per element (the intersection adds a ceil(log2(N+1))
length prefix), and the phase transition is an explicit zero-bit marker.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from ..device import Device, DeviceConfig
from ..errors import ConfigError
from ..pq import base
from ..probe_stats import attribute, node_stats
from ..workload import (
    DELETE_LEAF,
    INSERT_LEAF,
    INTERNAL,
    TreeParams,
    Workload,
    build_tree,
    extractions_at_height,
    resolve_leaf_ops,
    uniform_distinct,
)
from .samplers import SetIntersectionInstance, subset_np

ALICE = "A"
BOB = "B"


@dataclass(frozen=True)
class CostVector:
    a1: int = 0
    b1: int = 0
    a2: int = 0
    b2: int = 0

    def total(self) -> int:
        return self.a1 + self.b1 + self.a2 + self.b2

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.a1, self.b1, self.a2, self.b2)


@dataclass(frozen=True)
class Message:
    index: int
    sender: str
    phase: int
    kind: str
    bits: int
    digest: str


class Ledger:
    """Appends messages and keeps per-(sender, phase) bit totals."""

    def __init__(self):
        self.messages: list[Message] = []
        self._sums = {(ALICE, 1): 0, (BOB, 1): 0, (ALICE, 2): 0, (BOB, 2): 0}

    def send(self, sender: str, phase: int, kind: str, bits: int, payload=None) -> None:
        digest = hashlib.sha1(repr(payload).encode()).hexdigest()[:12]
        self.messages.append(Message(len(self.messages), sender, phase, kind, bits, digest))
        self._sums[(sender, phase)] += bits

    def cost(self) -> CostVector:
        return CostVector(
            self._sums[(ALICE, 1)], self._sums[(BOB, 1)],
            self._sums[(ALICE, 2)], self._sums[(BOB, 2)],
        )


class _ReplicaDevice(Device):
    """Device that fetches watched addresses from a peer on first touch."""

    def __init__(self, config: DeviceConfig):
        super().__init__(config)
        self.watch: set[int] | None = None
        self.fetched: set[int] = set()
        self.on_fetch = None

    def _sync(self, addr: int) -> None:
        if self.watch is not None and addr in self.watch and addr not in self.fetched:
            self.fetched.add(addr)
            self.on_fetch(addr)

    def read_block(self, addr: int):
        self._sync(addr)
        return super().read_block(addr)

    def write_block(self, addr: int, block) -> None:
        self._sync(addr)
        super().write_block(addr, block)


@dataclass
class ProtocolResult:
    params: TreeParams
    v: int
    h_v: int
    k_child: int
    seed: int
    instance: SetIntersectionInstance
    alice_output: frozenset[int]
    bob_output: frozenset[int]
    expected: frozenset[int]
    cost: CostVector
    transcript: list[Message]
    alice_requests: int
    bob_requests: int
    r_vk: int
    l_vk: int
    a_set_size: int
    z_set_size: int
    prefix_workload: Workload
    probes_reference: int

    @property
    def correct(self) -> bool:
        return self.alice_output == self.expected and self.bob_output == self.expected

    def csv_row(self) -> list:
        p = self.params
        return [
            self.seed, p.beta, p.h, p.m, self.v, self.h_v, self.k_child,
            self.cost.a1, self.cost.b1, self.cost.a2, self.cost.b2,
            len(self.expected), int(self.correct),
        ]

    CSV_HEADER = [
        "seed", "beta", "h", "m", "v", "h_v", "k_child",
        "a1", "b1", "a2", "b2", "intersection", "correct",
    ]


def write_transcript_csv(path, transcript: list[Message]) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "sender", "phase", "kind", "bits"])
        for m in transcript:
            writer.writerow([m.index, m.sender, m.phase, m.kind, m.bits])


def instance_shape(params: TreeParams, v: int) -> tuple[int, int]:
    """(|X|, |Y|) the protocol requires for embedding at node v."""
    tree = build_tree(params)
    node = tree.nodes[v]
    if node.kind != INTERNAL:
        raise ConfigError(f"node {v} is not internal")
    x_size = params.m * params.h * params.beta ** (node.height - 1)
    y_size = params.m * params.beta**node.height
    return x_size, y_size


def sample_instance(params: TreeParams, v: int, seed: int) -> SetIntersectionInstance:
    """Uniform instance of the exact shape the embedding at v needs."""
    x_size, y_size = instance_shape(params, v)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    u = params.universe
    x = frozenset(int(e) for e in subset_np(rng, u, x_size))
    y = frozenset(int(e) for e in subset_np(rng, u, y_size))
    return SetIntersectionInstance(u, x_size, y_size, x, y)


def _disjoint_sample(rng: np.random.Generator, universe: int, n: int, avoid: frozenset[int]) -> list[int]:
    out: list[int] = []
    seen: set[int] = set()
    while len(out) < n:
        for e in subset_np(rng, universe, n - len(out)):
            e = int(e)
            if e not in avoid and e not in seen:
                seen.add(e)
                out.append(e)
                if len(out) == n:
                    break
    return sorted(out)


def run_embedding_protocol(
    queue_factory,
    params: TreeParams,
    v: int,
    k_child: int,
    instance: SetIntersectionInstance,
    device_config: DeviceConfig,
    seed: int,
) -> ProtocolResult:
    """Execute the embedding end to end with full bit accounting.

    ``queue_factory(device)`` must build identically configured
    deterministic queues; replica divergence aborts.
    """
    tree = build_tree(params)
    node = tree.nodes[v]
    if node.kind != INTERNAL:
        raise ConfigError(f"embedding node {v} is not internal")
    if not 2 <= k_child <= params.beta + 1:
        raise ConfigError(f"k_child must lie in [2, beta+1], got {k_child}")
    x_size, y_size = instance_shape(params, v)
    if (len(instance.X), len(instance.Y)) != (x_size, y_size):
        raise ConfigError(
            f"instance shape mismatch: need |X|={x_size}, |Y|={y_size}, "
            f"got {len(instance.X)}, {len(instance.Y)}"
        )
    if instance.U != params.universe:
        raise ConfigError("instance universe differs from the tree's key universe")

    u = params.universe
    c1_leaf = node.children[0]
    ck_root = node.children[k_child - 1]
    ext_leaf = node.children[-1]
    ck_leaves = set(tree.subtree_leaves(ck_root))
    covered = tree.leaves[: tree.leaves.index(ext_leaf) + 1]

    pub_del_slots = [
        lf for lf in covered
        if tree.nodes[lf].kind == DELETE_LEAF and lf not in ck_leaves
    ]
    alice_del_slots = [
        lf for lf in covered
        if tree.nodes[lf].kind == DELETE_LEAF and lf in ck_leaves
    ]
    pub_ins_slots = [
        lf for lf in covered
        if tree.nodes[lf].kind == INSERT_LEAF and lf != c1_leaf
    ]
    l_pub = sum(tree.leaf_op_count(tree.nodes[lf]) for lf in pub_del_slots)
    k_pub = sum(tree.leaf_op_count(tree.nodes[lf]) for lf in pub_ins_slots)
    x_slots = sum(tree.leaf_op_count(tree.nodes[lf]) for lf in alice_del_slots)
    if x_slots != x_size:
        raise AssertionError(f"delete slots under c_k cover {x_slots} keys, need {x_size}")

    ss = np.random.SeedSequence(seed)
    rng_pub, rng_alice, rng_bob = [np.random.default_rng(s) for s in ss.spawn(3)]
    ledger = Ledger()
    key_bits = max(1, math.ceil(math.log2(u)))

    # Rejection sampling: public candidate keys for the delete slots, vetted
    # by Alice against X; then insert slots vetted by Bob against Y.
    cand_del = uniform_distinct(rng_pub, u, l_pub)
    if instance.X.intersection(cand_del):
        ledger.send(ALICE, 1, "reject_flag", 1, 0)
        del_keys = _disjoint_sample(rng_alice, u, l_pub, instance.X)
        ledger.send(ALICE, 1, "resampled_set", l_pub * key_bits, tuple(del_keys))
    else:
        ledger.send(ALICE, 1, "reject_flag", 1, 1)
        del_keys = cand_del
    del_order = [del_keys[i] for i in rng_pub.permutation(l_pub)]

    cand_ins = uniform_distinct(rng_pub, u, k_pub)
    if instance.Y.intersection(cand_ins):
        ledger.send(BOB, 1, "reject_flag", 1, 0)
        ins_keys = _disjoint_sample(rng_bob, u, k_pub, instance.Y)
        ledger.send(BOB, 1, "resampled_set", k_pub * key_bits, tuple(ins_keys))
    else:
        ledger.send(BOB, 1, "reject_flag", 1, 1)
        ins_keys = cand_ins
    ins_order = [ins_keys[i] for i in rng_pub.permutation(k_pub)]

    leaf_keys: dict[int, list[int]] = {}
    pos = 0
    for lf in pub_del_slots:
        cnt = tree.leaf_op_count(tree.nodes[lf])
        leaf_keys[lf] = del_order[pos : pos + cnt]
        pos += cnt
    pos = 0
    for lf in pub_ins_slots:
        cnt = tree.leaf_op_count(tree.nodes[lf])
        leaf_keys[lf] = ins_order[pos : pos + cnt]
        pos += cnt
    y_sorted = sorted(instance.Y)
    leaf_keys[c1_leaf] = [y_sorted[i] for i in rng_bob.permutation(y_size)]
    x_sorted = sorted(instance.X)
    x_order = [x_sorted[i] for i in rng_alice.permutation(x_size)]
    pos = 0
    for lf in alice_del_slots:
        cnt = tree.leaf_op_count(tree.nodes[lf])
        leaf_keys[lf] = x_order[pos : pos + cnt]
        pos += cnt

    ops = resolve_leaf_ops(tree, leaf_keys, stop_leaf=ext_leaf)
    prefix = Workload(params, "basic", u, seed, ops)

    # Reference run: one queue sees the whole prefix; its probe log feeds
    # the attribution cross-check and doubles as a determinism witness.
    ref_dev = Device(device_config)
    ref_queue = queue_factory(ref_dev)
    # Looked up through the module at call time, so a rebound run_workload
    # sees the reference run and every replica segment.
    base.run_workload(ref_queue, ref_dev, prefix)

    def first_op(leaf: int) -> int:
        for i, op in enumerate(ops):
            if op.leaf_id == leaf:
                return i
        raise AssertionError(f"leaf {leaf} has no operations")

    shared_end = first_op(c1_leaf)
    bob1_end = first_op(tree.subtree_leaves(ck_root)[0])
    nxt = node.children[k_child]
    nxt_first_leaf = nxt if tree.nodes[nxt].kind != INTERNAL else tree.subtree_leaves(nxt)[0]
    alice_end = first_op(nxt_first_leaf)

    bob_dev = _ReplicaDevice(device_config)
    alice_dev = _ReplicaDevice(device_config)
    bob_q = queue_factory(bob_dev)
    alice_q = queue_factory(alice_dev)

    base.run_workload(bob_q, bob_dev, prefix, hi=shared_end)
    base.run_workload(alice_q, alice_dev, prefix, hi=shared_end)

    mark = len(bob_dev.log)
    base.run_workload(bob_q, bob_dev, prefix, lo=shared_end, hi=bob1_end)
    a_set = {rec.addr for rec in bob_dev.log[mark:]}
    w, bw, mw = device_config.w, device_config.B * device_config.w, device_config.M * device_config.w
    ledger.send(BOB, 1, "address_set", len(a_set) * w, tuple(sorted(a_set)))
    ledger.send(BOB, 1, "memory_snapshot", mw, bob_q.memory_image())

    alice_q.load_memory_image(bob_q.memory_image())

    def alice_fetch(addr: int) -> None:
        ledger.send(ALICE, 1, "content_request", w, addr)
        block = bob_dev.peek_block(addr)
        ledger.send(BOB, 1, "block_content", bw, block)
        alice_dev.poke_block(addr, block)

    alice_dev.watch = a_set
    alice_dev.fetched = set()
    alice_dev.on_fetch = alice_fetch
    mark = len(alice_dev.log)
    base.run_workload(alice_q, alice_dev, prefix, lo=bob1_end, hi=alice_end)
    alice_requests = len(alice_dev.fetched)
    alice_dev.watch = None
    z_set = {rec.addr for rec in alice_dev.log[mark:]}

    ledger.send(ALICE, 1, "phase_transition", 0, None)
    ledger.send(ALICE, 2, "address_set", len(z_set) * w, tuple(sorted(z_set)))
    ledger.send(ALICE, 2, "memory_snapshot", mw, alice_q.memory_image())

    bob_q.load_memory_image(alice_q.memory_image())

    def bob_fetch(addr: int) -> None:
        ledger.send(BOB, 2, "content_request", w, addr)
        block = alice_dev.peek_block(addr)
        ledger.send(ALICE, 2, "block_content", bw, block)
        bob_dev.poke_block(addr, block)

    bob_dev.watch = z_set
    bob_dev.fetched = set()
    bob_dev.on_fetch = bob_fetch
    base.run_workload(bob_q, bob_dev, prefix, lo=alice_end)
    bob_requests = len(bob_dev.fetched)
    bob_dev.watch = None

    # Bob reads the extract-min answers of v's last child and reconstructs
    # the intersection: Y minus the publicly deleted keys of the middle
    # subtrees minus the keys extracted at priority h_v.
    extracted_hv = extractions_at_height(prefix, tree, v)
    d_pub_mid: set[int] = set()
    for mid in node.children[1:-1]:
        if mid == ck_root:
            continue
        for lf in tree.subtree_leaves(mid):
            if tree.nodes[lf].kind == DELETE_LEAF:
                d_pub_mid.update(leaf_keys[lf])
    bob_output = frozenset(instance.Y) - d_pub_mid - extracted_hv
    inter_bits = math.ceil(math.log2(params.n_updates + 1)) + len(bob_output) * key_bits
    ledger.send(BOB, 2, "intersection", inter_bits, tuple(sorted(bob_output)))
    alice_output = bob_output

    stats = node_stats(attribute(ref_dev.log, tree))
    return ProtocolResult(
        params=params, v=v, h_v=node.height, k_child=k_child, seed=seed, instance=instance,
        alice_output=alice_output, bob_output=bob_output,
        expected=instance.intersection(),
        cost=ledger.cost(), transcript=ledger.messages,
        alice_requests=alice_requests, bob_requests=bob_requests,
        r_vk=stats.nodes[v].r_counts[k_child], l_vk=stats.nodes[v].l_counts[k_child],
        a_set_size=len(a_set), z_set_size=len(z_set),
        prefix_workload=prefix, probes_reference=ref_dev.probe_count,
    )
