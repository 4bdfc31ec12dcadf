"""Two-phase set-intersection protocol built from a deterministic queue.

Both players hold replicas of the same queue over plain devices.  Given a
tree node v and a middle-child index k, Bob's set Y becomes the insert keys
of c_1(v) and Alice's set X the delete keys of c_k(v)'s subtree; all other
leaves up to and including v's extract-min leaf are populated publicly, with
one rejection-sampling flag per key class (a fresh private set is sent when
the public candidate collides with a player's secret set).

Phase one: both players start from the reference run's state at the end
of the shared prefix, which costs no bits because the prefix is public, and
Bob runs c_1..c_{k-1}(v).  Each phase then ends in ``_hand_off``, the step both
phases share: the sender sends the set of addresses it probed and its memory
image, and the receiver loads the image, gets the sender's blocks at those
addresses and runs its slice.  Content requests are charged from the
receiver's probe log: one request (w bits) and one block content (B*w bits)
per address of the set that the slice probed, in first-touch order.  This is
exact because the sender is idle while the receiver runs, so its blocks
cannot change.  In phase one Bob hands A to Alice, who runs c_k(v)'s
subtree; in phase two Alice hands her probed set Z to Bob, who runs the
remaining children, reads the extract-min answers of c_{2+beta}(v), computes
the intersection as the Y keys neither publicly deleted in the middle
subtrees nor extracted at priority h_v, and sends it to Alice.  Because
request sets equal probed-address sets, Alice's phase-one request count is
exactly |R(v,k)| and Bob's phase-two request count exactly |L(v,k)| of the
probe attribution on a reference run.

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
    assign_random_order,
    build_tree,
    deal_keys,
    extractions_at_height,
    resolve_leaf_ops,
    subset_np,
    uniform_distinct,
)
from .samplers import SetIntersectionInstance

ALICE = "A"
BOB = "B"


@dataclass(frozen=True)
class CostVector:
    a1: int = 0
    b1: int = 0
    a2: int = 0
    b2: int = 0

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


@dataclass
class ProtocolResult:
    params: TreeParams
    v: int
    h_v: int
    k_child: int
    seed: int
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
    image_words: int  # the largest memory image handed off, in words

    @property
    def correct(self) -> bool:
        return self.alice_output == self.expected and self.bob_output == self.expected

    def csv_row(self) -> list:
        p = self.params
        return [
            self.seed, p.beta, p.h, p.m, self.v, self.h_v, self.k_child,
            self.cost.a1, self.cost.b1, self.cost.a2, self.cost.b2,
            len(self.expected), int(self.correct), self.image_words,
        ]

    CSV_HEADER = [
        "seed", "beta", "h", "m", "v", "h_v", "k_child",
        "a1", "b1", "a2", "b2", "intersection", "correct", "image_words",
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
    if not 0 <= v < len(tree.nodes) or tree.nodes[v].kind != INTERNAL:
        raise ConfigError(f"node {v} is not an internal node of the tree")
    h_v = tree.nodes[v].height
    return params.m * params.h * params.beta ** (h_v - 1), params.m * params.beta**h_v


def sample_instance(params: TreeParams, v: int, seed: int) -> SetIntersectionInstance:
    """Uniform instance of the exact shape the embedding at v needs."""
    x_size, y_size = instance_shape(params, v)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    u = params.universe
    x = frozenset(subset_np(rng, u, x_size).tolist())
    y = frozenset(subset_np(rng, u, y_size).tolist())
    return SetIntersectionInstance(u, x, y)


def _key_bits(u: int) -> int:
    return max(1, math.ceil(math.log2(u)))


def _vetted_keys(ledger: Ledger, player: str, secret: frozenset[int], n: int,
                 rng_pub: np.random.Generator, rng_own: np.random.Generator, u: int) -> list[int]:
    """Public keys for n slots, vetted by the player who holds ``secret``.

    The public candidate set is kept when it misses ``secret`` (flag 1);
    otherwise the player sends a private resample disjoint from it (flag 0).
    The keys come back in public random order.
    """
    keys = uniform_distinct(rng_pub, u, n)
    if secret.intersection(keys):
        ledger.send(player, 1, "reject_flag", 1, 0)
        seen: set[int] = set()
        while len(seen) < n:
            for e in subset_np(rng_own, u, n - len(seen)).tolist():
                if e not in secret:
                    seen.add(e)
                    if len(seen) == n:
                        break
        keys = sorted(seen)
        ledger.send(player, 1, "resampled_set", n * _key_bits(u), tuple(keys))
    else:
        ledger.send(player, 1, "reject_flag", 1, 1)
    return assign_random_order(rng_pub, keys)


def _replay(queue, device, prefix: Workload, lo: int, hi: int | None) -> dict[int, None]:
    """Replay ``prefix.ops[lo:hi]``; return the addresses it probed, in first-touch order."""
    mark = len(device.log)
    base.run_workload(queue, device, prefix, lo=lo, hi=hi)
    return dict.fromkeys(rec.addr for rec in device.log[mark:])


def _hand_off(ledger: Ledger, phase: int, sender, receiver, watched: dict[int, None],
              prefix: Workload, lo: int, hi: int | None) -> tuple[int, dict[int, None], int]:
    """The step both phases share: one player hands the run to the other.

    ``sender`` and ``receiver`` are (name, queue, device) triples.  The
    receiver gets the sender's memory image and its blocks at the watched
    addresses, replays ``ops[lo:hi]`` and is charged one request and reply
    per watched address it probed, in first-touch order.  This is exact
    because the sender is idle while the receiver runs, so its blocks cannot
    change.  Only watched blocks are copied, so a set that missed an address
    leaves the receiver reading its own stale block and the replicas diverge.
    Returns the request count, the probed addresses and the image's words.
    """
    s_name, s_queue, s_dev = sender
    r_name, r_queue, r_dev = receiver
    cfg = s_dev.config
    ledger.send(s_name, phase, "address_set", len(watched) * cfg.w, tuple(sorted(watched)))
    image = s_queue.memory_image()
    ledger.send(s_name, phase, "memory_snapshot", cfg.M * cfg.w, image)
    r_queue.load_memory_image(image)
    for addr in watched:
        r_dev.poke_block(addr, s_dev.peek_block(addr))
    touched = _replay(r_queue, r_dev, prefix, lo, hi)
    requests = [addr for addr in touched if addr in watched]
    for addr in requests:
        ledger.send(r_name, phase, "content_request", cfg.w, addr)
        ledger.send(s_name, phase, "block_content", cfg.B * cfg.w, s_dev.peek_block(addr))
    return len(requests), touched, len(image)


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
    x_size, y_size = instance_shape(params, v)
    tree = build_tree(params)
    node = tree.nodes[v]
    if not 2 <= k_child <= params.beta + 1:
        raise ConfigError(f"k_child must lie in [2, beta+1], got {k_child}")
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
    del_slots = [lf for lf in covered if tree.nodes[lf].kind == DELETE_LEAF]
    pub_del_slots = [lf for lf in del_slots if lf not in ck_leaves]
    alice_del_slots = [lf for lf in del_slots if lf in ck_leaves]
    pub_ins_slots = [lf for lf in covered if tree.nodes[lf].kind == INSERT_LEAF and lf != c1_leaf]

    def slot_count(slots: list[int]) -> int:
        return sum(tree.leaf_op_count(tree.nodes[lf]) for lf in slots)

    ss = np.random.SeedSequence(seed)
    rng_pub, rng_alice, rng_bob = [np.random.default_rng(s) for s in ss.spawn(3)]
    ledger = Ledger()

    # Rejection sampling: public candidate keys for the delete slots, vetted
    # by Alice against X; then insert slots vetted by Bob against Y.
    del_order = _vetted_keys(ledger, ALICE, instance.X, slot_count(pub_del_slots), rng_pub, rng_alice, u)
    ins_order = _vetted_keys(ledger, BOB, instance.Y, slot_count(pub_ins_slots), rng_pub, rng_bob, u)
    leaf_keys = deal_keys(tree, pub_del_slots, del_order)
    leaf_keys.update(deal_keys(tree, pub_ins_slots, ins_order))
    leaf_keys[c1_leaf] = assign_random_order(rng_bob, sorted(instance.Y))
    leaf_keys.update(deal_keys(tree, alice_del_slots, assign_random_order(rng_alice, sorted(instance.X))))

    ops = resolve_leaf_ops(tree, leaf_keys, stop_leaf=ext_leaf)
    prefix = Workload(params, "basic", u, seed, ops)

    first_op: dict[int, int] = {}
    for i, leaf_id in enumerate(ops.leaf):
        first_op.setdefault(leaf_id, i)
    shared_end = first_op[c1_leaf]
    bob1_end = first_op[min(ck_leaves)]
    alice_end = first_op[tree.subtree_leaves(node.children[k_child])[0]]

    # Reference run: one queue sees the whole prefix; its probe log feeds
    # the attribution cross-check and doubles as a determinism witness.
    # Both players start from its state at shared_end: the shared prefix is
    # public, so the copies cost no bits.  run_workload is looked up through
    # the module at call time, so a rebound one sees every segment.
    ref_dev = Device(device_config)
    ref_queue = queue_factory(ref_dev)
    base.run_workload(ref_queue, ref_dev, prefix, hi=shared_end)
    image, players = ref_queue.memory_image(), []
    for name in (BOB, ALICE):
        dev = ref_dev.copy()
        queue = queue_factory(dev)
        queue.load_memory_image(image)
        players.append((name, queue, dev))
    bob, alice = players
    base.run_workload(ref_queue, ref_dev, prefix, lo=shared_end)

    a_set = _replay(bob[1], bob[2], prefix, shared_end, bob1_end)
    alice_requests, z_set, image1 = _hand_off(ledger, 1, bob, alice, a_set, prefix, bob1_end, alice_end)
    ledger.send(ALICE, 1, "phase_transition", 0, None)
    bob_requests, _, image2 = _hand_off(ledger, 2, alice, bob, z_set, prefix, alice_end, None)

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
    inter_bits = math.ceil(math.log2(params.n_updates + 1)) + len(bob_output) * _key_bits(u)
    ledger.send(BOB, 2, "intersection", inter_bits, tuple(sorted(bob_output)))
    alice_output = bob_output

    stats = node_stats(attribute(ref_dev.log, tree))
    return ProtocolResult(
        params=params, v=v, h_v=node.height, k_child=k_child, seed=seed,
        alice_output=alice_output, bob_output=bob_output,
        expected=instance.intersection(),
        cost=ledger.cost(), transcript=ledger.messages,
        alice_requests=alice_requests, bob_requests=bob_requests,
        r_vk=stats.nodes[v].r_counts[k_child], l_vk=stats.nodes[v].l_counts[k_child],
        a_set_size=len(a_set), z_set_size=len(z_set),
        prefix_workload=prefix, probes_reference=ref_dev.probe_count, image_words=max(image1, image2),
    )
