"""Adversarial workload trees and materialized update sequences.

A (2+beta)-ary tree defines an intermixed Insert/Delete/ExtractMin sequence:
reading the leaves in pre-order, an internal node v of height h_v
contributes m*beta^h_v Inserts at priority h_v (first child), beta
recursively built subtrees of height h_v-1, and m*beta^h_v ExtractMins (last
child); height-0 nodes are delete-leaves holding m*h Deletes each.  Insert
keys and delete keys are independent uniform subsets of the key universe,
assigned in uniform random order.  ExtractMin answers are data dependent:
v's last leaf takes the smallest live (priority, key) pairs, as the oracle
would, and re-inserts those whose priority is not h_v in extraction order;
``resolve_leaf_ops`` finds them from one sorted key list per priority level.

Exact counts for every seed: m*h*beta^h Deletes, m*h*beta^h ExtractMins, and
between m*h*beta^h and 2*m*h*beta^h Inserts.

The ``no_spurious`` transform rewrites one or more independently seeded
trees into a sequence that never deletes an absent key: the whole universe
is pre-inserted at the sentinel priority, every Insert becomes
Delete-then-Insert, every Delete becomes Delete-then-reInsert-at-sentinel,
and extract-min leaves additionally re-insert at the sentinel the keys they
extracted at the matching priority, so after each tree all universe keys are
live at the sentinel again.

Workload files: header (magic IOPQW1, version, beta, h, m, variant, trees,
universe, seed, op count) followed by little-endian 21-byte records (op: 1
byte, key: 8, priority: 8 signed, leaf: 4; 0xFFFFFFFF = no leaf).
ExtractMin records carry the expected answer, which makes files closed,
replayable transcripts.  In memory, ``Workload.ops`` holds the records as
four typed columns (``OpColumns``), a read-only view that builds ``Op``s on read.
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain

import numpy as np

from .errors import ConfigError, DivergenceError, DuplicateKeyError, WorkloadUnderflowError
from .ops import DECREASE, DELETE, EXTRACTMIN, INSERT, NO_LEAF, OP_NAMES, PRIORITY_INF, Op
from .pq.oracle import OracleQueue

MAGIC = b"IOPQW1"
VERSION = 1
VARIANT_CODES = {"basic": 0, "no_spurious": 1, "multi_tree": 2, "random": 3}
VARIANT_NAMES = {v: k for k, v in VARIANT_CODES.items()}

INTERNAL = "internal"
INSERT_LEAF = "insert_leaf"
DELETE_LEAF = "delete_leaf"
EXTRACT_LEAF = "extractmin_leaf"

_HEADER = struct.Struct("<6sHIIQBIQQQ")
# A record's fields in file order, each with its array and numpy type code.
_COLUMNS = (("kind", "B"), ("key", "Q"), ("priority", "q"), ("leaf", "I"))
_RECORD = np.dtype([(name, "<" + code) for name, code in _COLUMNS])


@dataclass(frozen=True)
class TreeParams:
    """beta >= 2, height h, per-leaf scale m, RNG seed.

    ``universe`` overrides the key universe size (m*h*beta^h)^4; it must be
    at least twice the update-sequence length so the no-spurious transform
    stays meaningful at desk scale.
    """

    beta: int
    h: int
    m: int
    seed: int
    strict: bool = False
    universe_override: int | None = None

    def __post_init__(self) -> None:
        if self.beta < 2:
            raise ConfigError("beta must be at least 2")
        if self.h < 1:
            raise ConfigError("h must be at least 1")
        if self.m < 1:
            raise ConfigError("m must be at least 1")
        if self.strict and (self.h < 8 or self.h % 4 != 0):
            raise ConfigError("strict mode requires h >= 8 and h divisible by 4")
        if self.universe_override is not None and self.universe_override < 2 * self.n_updates:
            raise ConfigError("universe override must be at least 2*m*h*beta^h")
        if self.universe > (1 << 63):
            raise ConfigError("key universe exceeds the 8-byte key type")

    @property
    def n_updates(self) -> int:
        return self.m * self.h * self.beta**self.h

    @property
    def universe(self) -> int:
        if self.universe_override is not None:
            return self.universe_override
        return self.n_updates**4


@dataclass
class TreeNode:
    id: int
    kind: str
    height: int           # h_v for internal; owner's h_v for insert/extract leaves; 0 for delete leaves
    parent: int | None
    child_index: int | None  # 1-based position among the parent's 2+beta children
    depth: int
    children: list[int] = field(default_factory=list)


class Tree:
    def __init__(self, params: TreeParams):
        self.params = params
        self.nodes: list[TreeNode] = []
        self._build(params.h, None, None, 0)
        self.leaves = [n.id for n in self.nodes if n.kind != INTERNAL]

    def _build(self, h_v: int, parent: int | None, child_index: int | None, depth: int) -> int:
        nid = len(self.nodes)
        if h_v == 0:
            self.nodes.append(TreeNode(nid, DELETE_LEAF, 0, parent, child_index, depth))
            return nid
        node = TreeNode(nid, INTERNAL, h_v, parent, child_index, depth)
        self.nodes.append(node)
        beta = self.params.beta
        ins = len(self.nodes)
        self.nodes.append(TreeNode(ins, INSERT_LEAF, h_v, nid, 1, depth + 1))
        node.children.append(ins)
        for i in range(beta):
            node.children.append(self._build(h_v - 1, nid, 2 + i, depth + 1))
        ext = len(self.nodes)
        self.nodes.append(TreeNode(ext, EXTRACT_LEAF, h_v, nid, 2 + beta, depth + 1))
        node.children.append(ext)
        return nid

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def root(self) -> TreeNode:
        return self.nodes[0]

    def internal_nodes(self) -> list[TreeNode]:
        return [n for n in self.nodes if n.kind == INTERNAL]

    def leaf_op_count(self, node: TreeNode) -> int:
        """Planned operations at a leaf (extract-leaf re-inserts excluded)."""
        p = self.params
        if node.kind == INSERT_LEAF or node.kind == EXTRACT_LEAF:
            return p.m * p.beta**node.height
        if node.kind == DELETE_LEAF:
            return p.m * p.h
        raise ValueError("internal nodes hold no operations")

    def subtree_ids(self, node_id: int) -> range:
        # Pre-order ids are contiguous within a subtree, which ends at its extract leaf.
        return range(node_id, (self.nodes[node_id].children or [node_id])[-1] + 1)

    def subtree_leaves(self, node_id: int) -> list[int]:
        return [i for i in self.subtree_ids(node_id) if self.nodes[i].kind != INTERNAL]

    def lca(self, a: int, b: int) -> tuple[int, int | None, int | None]:
        """Lowest common ancestor of two nodes.

        Returns (lca_id, i, j) where i and j are the child indices of the
        lca's children whose subtrees contain a and b; both are None when
        a == b.
        """
        if a == b:
            return a, None, None
        na, nb = self.nodes[a], self.nodes[b]
        ia = ib = None
        while na.depth > nb.depth:
            ia = na.child_index
            na = self.nodes[na.parent]
        while nb.depth > na.depth:
            ib = nb.child_index
            nb = self.nodes[nb.parent]
        while na.id != nb.id:
            ia, ib = na.child_index, nb.child_index
            na, nb = self.nodes[na.parent], self.nodes[nb.parent]
        return na.id, ia, ib


@lru_cache(maxsize=8)
def build_tree(params: TreeParams) -> Tree:
    """The tree of ``params``, built once: params are frozen and no code mutates a built Tree."""
    return Tree(params)


class OpColumns(Sequence):
    """A file record's fields as four typed columns, 21 bytes per op, read as a ``Sequence[Op]``.

    ``leaf`` holds ``NO_LEAF`` for no leaf.  An ``Op`` is built only when one
    is read; a slice is a new ``OpColumns``.  Only this module's producers append.
    """

    __slots__ = tuple(name for name, _ in _COLUMNS)

    def __init__(self, ops: Iterable[Op] = (), columns: Iterable[array] | None = None):
        self.kind, self.key, self.priority, self.leaf = columns or (array(code) for _, code in _COLUMNS)
        for kind, key, priority, leaf_id in ops:
            self._append(kind, key, priority, NO_LEAF if leaf_id is None else leaf_id)

    def _append(self, kind: int, key: int, priority: int, leaf: int = NO_LEAF) -> None:
        self.kind.append(kind)
        self.key.append(key)
        self.priority.append(priority)
        self.leaf.append(leaf)

    def _extend(self, kind: int, leaf: int, keys: list[int], priorities: int | list[int]) -> None:
        """Append one op per key, all of one kind at one leaf, at one priority or one each."""
        n = len(keys)  # a constant column grows by a repeated one-element array (typecodes: _COLUMNS)
        self.kind.extend(array("B", (kind,)) * n)
        self.key.extend(keys)
        self.priority.extend(array("q", (priorities,)) * n if isinstance(priorities, int) else priorities)
        self.leaf.extend(array("I", (leaf,)) * n)

    def columns(self) -> tuple[array, array, array, array]:
        return self.kind, self.key, self.priority, self.leaf

    def __len__(self) -> int:
        return len(self.kind)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return OpColumns(columns=[col[i] for col in self.columns()])
        leaf = self.leaf[i]
        return Op(self.kind[i], self.key[i], self.priority[i], None if leaf == NO_LEAF else leaf)

    def __iter__(self):
        for kind, key, priority, leaf in zip(*self.columns()):
            yield Op(kind, key, priority, None if leaf == NO_LEAF else leaf)

    def __eq__(self, other) -> bool:
        return list(self) == list(other) if isinstance(other, Sequence) else NotImplemented


@dataclass
class Workload:
    params: TreeParams | None
    variant: str
    universe: int
    seed: int
    ops: OpColumns  # given as OpColumns or any iterable of Op
    trees: int = 1

    def __post_init__(self) -> None:
        self.ops = self.ops if isinstance(self.ops, OpColumns) else OpColumns(self.ops)

    def counts(self) -> dict[str, int]:
        return {name: self.ops.kind.count(kind) for kind, name in OP_NAMES.items()}

    def key_assignment(self, tree: Tree) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
        """Per-leaf insert and delete key lists, in operation order."""
        ins: dict[int, list[int]] = {}
        dels: dict[int, list[int]] = {}
        for kind, key, leaf_id in zip(self.ops.kind, self.ops.key, self.ops.leaf):
            if leaf_id == NO_LEAF:
                continue
            leaf_kind = tree.nodes[leaf_id].kind
            if kind == INSERT and leaf_kind == INSERT_LEAF:
                ins.setdefault(leaf_id, []).append(key)
            elif kind == DELETE and leaf_kind == DELETE_LEAF:
                dels.setdefault(leaf_id, []).append(key)
        return ins, dels


def subset_np(rng: np.random.Generator, universe: int, n: int) -> np.ndarray:
    """Uniform n-subset of [universe) as int64, in draw order.

    Dense requests (3n >= universe) take a prefix of a permutation; sparse
    ones draw uint64 batches of max(16, 2 * missing) and keep the first n
    distinct draws.  Every workload and protocol transcript depends on this
    stream, so changing either rule changes the golden digests.
    """
    if n > universe:
        raise ConfigError(f"cannot sample {n} distinct keys from a universe of {universe}")
    if universe > (1 << 63):
        raise ConfigError(f"universe {universe} exceeds the 8-byte key type")
    if 3 * n >= universe:
        return rng.permutation(universe)[:n]
    out = np.empty(0, dtype=np.int64)
    while out.size < n:
        batch = rng.integers(0, universe, size=max(16, 2 * (n - out.size)), dtype=np.uint64)
        merged = np.concatenate([out, batch.view(np.int64)])  # draws < 2^63: same values, no copy
        _, idx = np.unique(merged, return_index=True)
        out = merged[np.sort(idx)]
    return out[:n]


def uniform_distinct(rng: np.random.Generator, universe: int, n: int) -> np.ndarray:
    """Uniform random n-subset of [universe), sorted, as int64."""
    return np.sort(subset_np(rng, universe, n))


def assign_random_order(rng: np.random.Generator, keys: Sequence[int]) -> np.ndarray:
    """``keys`` in uniform random order, as int64."""
    return np.asarray(keys, dtype=np.int64)[rng.permutation(len(keys))]


def deal_keys(tree: Tree, slots: list[int], keys: Sequence[int]) -> dict[int, Sequence[int]]:
    """Hand ``keys`` to the leaves in ``slots`` in order, leaf_op_count each."""
    dealt: dict[int, Sequence[int]] = {}
    pos = 0
    for leaf_id in slots:
        count = tree.leaf_op_count(tree.nodes[leaf_id])
        dealt[leaf_id] = keys[pos : pos + count]
        pos += count
    if pos != len(keys):
        raise AssertionError(f"leaf slots cover {pos} keys, {len(keys)} were dealt")
    return dealt


def resolve_leaf_ops(tree: Tree, leaf_keys: dict[int, Sequence[int]], stop_leaf: int | None = None) -> OpColumns:
    """Pre-order adaptive execution with keys pinned per leaf.

    ``leaf_keys`` maps every insert- and delete-leaf (up to ``stop_leaf``,
    inclusive, when given) to its keys, a list or an int64 array.  Live keys
    sit in one sorted list per priority, past its consumed prefix; a delete
    of a live key bisects it out.  An extract-min leaf of height h and count
    c answers the c smallest (priority, key) pairs level by level and
    consumes only level h's front: each other answer is re-inserted at the
    same pair, so it stays in place.  Live keys are distinct, so (priority,
    key) is a total order: the oracle's answers.
    """
    live: dict[int, int] = {}  # key -> priority
    levels: list[list[int]] = [[] for _ in range(tree.params.h + 1)]
    start = [0] * len(levels)  # levels[p][:start[p]] were extracted
    ops = OpColumns()
    for leaf_id in tree.leaves:
        leaf = tree.nodes[leaf_id]
        h = leaf.height
        if leaf.kind == INSERT_LEAF:
            keys = np.asarray(leaf_keys[leaf_id]).tolist()
            for k in keys:
                if k in live:
                    raise DuplicateKeyError(f"key {k} is already live")
                live[k] = h
            levels[h] = sorted(levels[h][start[h]:] + keys)
            start[h] = 0
            ops._extend(INSERT, leaf_id, keys, h)
        elif leaf.kind == DELETE_LEAF:
            keys = np.asarray(leaf_keys[leaf_id]).tolist()
            for k in keys:
                p = live.pop(k, None)
                if p is not None:
                    del levels[p][bisect_left(levels[p], k, start[p])]
            ops._extend(DELETE, leaf_id, keys, 0)
        else:
            need = tree.leaf_op_count(leaf)
            if len(live) < need:
                raise WorkloadUnderflowError(
                    f"extract-min leaf {leaf_id} ran dry (seed {tree.params.seed}): "
                    f"it takes {need} keys and finds {len(live)} live"
                )
            again = []
            for p, level in enumerate(levels):
                taken = level[start[p] : start[p] + need]
                if not taken:
                    continue
                need -= len(taken)
                ops._extend(EXTRACTMIN, leaf_id, taken, p)
                if p == h:
                    start[p] += len(taken)
                    for k in taken:
                        del live[k]
                else:
                    again.append((taken, p))
            for taken, p in again:
                ops._extend(INSERT, leaf_id, taken, p)
        if leaf_id == stop_leaf:
            break
    return ops


def materialize(params: TreeParams) -> Workload:
    """Sample keys and resolve the adaptive sequence (``resolve_leaf_ops``)."""
    tree = build_tree(params)
    n = params.n_updates
    u = params.universe
    ss = np.random.SeedSequence(params.seed)
    r_ins, r_ins_order, r_del, r_del_order = [np.random.default_rng(s) for s in ss.spawn(4)]
    ins_keys = assign_random_order(r_ins_order, uniform_distinct(r_ins, u, n))
    del_keys = assign_random_order(r_del_order, uniform_distinct(r_del, u, n))
    leaf_keys = deal_keys(tree, [lf for lf in tree.leaves if tree.nodes[lf].kind == INSERT_LEAF], ins_keys)
    leaf_keys.update(deal_keys(tree, [lf for lf in tree.leaves if tree.nodes[lf].kind == DELETE_LEAF], del_keys))
    ops = resolve_leaf_ops(tree, leaf_keys)
    return Workload(params, "basic", u, params.seed, ops)


def ground_truth(workload: Workload, tree: Tree, node_id: int) -> tuple[set[int], set[int], set[int]]:
    """(Y_v, X_v, Y_v \\ X_v) for an internal node, by direct set arithmetic."""
    node = tree.nodes[node_id]
    if node.kind != INTERNAL:
        raise ValueError(f"node {node_id} is not internal")
    ins, dels = workload.key_assignment(tree)
    y = set(ins.get(node.children[0], []))
    x: set[int] = set()
    for mid in node.children[1:-1]:
        for leaf in tree.subtree_leaves(mid):
            x.update(dels.get(leaf, []))
    return y, x, y - x


def extractions_at_height(workload: Workload, tree: Tree, node_id: int) -> set[int]:
    """Keys extracted with priority h_v at the node's extract-min leaf."""
    node = tree.nodes[node_id]
    leaf = node.children[-1]
    return {
        key for kind, key, priority, leaf_id in zip(*workload.ops.columns())
        if leaf_id == leaf and kind == EXTRACTMIN and priority == node.height
    }


def transform_no_spurious(workloads: list[Workload]) -> Workload:
    """Rewrite basic trees into a sequence with no deletes of absent keys.

    One pass over each source's columns, with no queue.  A source that is
    the resolution of its own keys holds its live keys below the sentinel and
    its root's extract-min leaf takes them all, so the rewrite keeps its
    answers; each source is re-resolved first (``DivergenceError`` if not).
    """
    if not workloads:
        raise ConfigError("need at least one workload")
    base = workloads[0].params
    for wl in workloads:
        if wl.variant != "basic":
            raise ConfigError("transform expects basic workloads")
        p = wl.params
        if (p.beta, p.h, p.m, p.universe) != (base.beta, base.h, base.m, base.universe):
            raise ConfigError("workloads must share beta, h, m and universe")
    u = base.universe

    ops = OpColumns()
    ops._extend(INSERT, NO_LEAF, range(u), PRIORITY_INF)
    for t_idx, wl in enumerate(workloads):
        tree = build_tree(wl.params)
        ins, dels = wl.key_assignment(tree)
        want = resolve_leaf_ops(tree, {**ins, **dels})
        if wl.ops.columns() != want.columns():
            i = next((i for i, (a, b) in enumerate(zip(wl.ops, want)) if a != b), min(len(wl.ops), len(want)))
            raise DivergenceError(f"source tree {t_idx} differs from the resolution of its keys at op {i}")
        pos = 0
        for leaf_id in tree.leaves:
            leaf = tree.nodes[leaf_id]
            count = tree.leaf_op_count(leaf)
            lid = t_idx * len(tree) + leaf_id
            if leaf.kind == EXTRACT_LEAF:
                answered = wl.ops.priority[pos : pos + count]
                again = [PRIORITY_INF if p == leaf.height else p for p in answered]
                ops._extend(EXTRACTMIN, lid, wl.ops.key[pos : pos + count], answered)
                ops._extend(INSERT, lid, wl.ops.key[pos : pos + count], again)
                pos += sum(p != leaf.height for p in answered)  # skip the source's re-inserts
            else:
                again = leaf.height if leaf.kind == INSERT_LEAF else PRIORITY_INF
                for k in wl.ops.key[pos : pos + count]:
                    ops._append(DELETE, k, 0, lid)
                    ops._append(INSERT, k, again, lid)
            pos += count
    return Workload(base, "no_spurious", u, base.seed, ops, trees=len(workloads))


def make_random_workload(
    n_ops: int,
    seed: int,
    universe: int = 1 << 20,
    profile: str = "mixed",
) -> Workload:
    """Random oracle-resolved sequence for differential testing.

    Profiles: ``insert_extract`` (heap-compatible), ``mixed`` (all four ops,
    deletes may target absent keys, decreases only live keys), and
    ``delete_heavy``.  Keys and priorities lie in [0, universe), and
    1 <= universe <= 2^63, the 8-byte key limit ``subset_np`` also uses.

    Every draw is computed by ``_RawDraws`` from raw PCG64 words of
    ``SeedSequence(seed)``: a float is ``(word >> 11) * 2^-53``, and an
    integer below n is Lemire's method on the low then the high 32-bit half
    of a word (whole words above 2^32).  These are the values numpy's
    ``Generator.random()`` and ``integers(0, n)`` return, so the stream
    depends only on SeedSequence and PCG64, not on Generator's methods.  Op
    kinds are drawn as ``Generator.choice(p=...)`` does: one ``random()``
    bisected on numpy's normalised cumsum.  Changing the draw order changes
    every workload (test_random_workload_stream_pinned).
    """
    profiles = {
        "insert_extract": {INSERT: 0.6, EXTRACTMIN: 0.4},
        "mixed": {INSERT: 0.42, EXTRACTMIN: 0.23, DELETE: 0.15, DECREASE: 0.20},
        "delete_heavy": {INSERT: 0.40, EXTRACTMIN: 0.15, DELETE: 0.35, DECREASE: 0.10},
    }
    if profile not in profiles:
        raise ConfigError(f"unknown profile {profile!r}; use one of {', '.join(profiles)}")
    if not 1 <= universe <= (1 << 63):
        raise ConfigError(f"universe {universe} must lie in [1, 2^63], the 8-byte key type")
    weights = profiles[profile]
    kinds = sorted(weights)
    probs = np.array([weights[k] for k in kinds], dtype=float)
    cdf = np.cumsum(probs / probs.sum())
    cdf = (cdf / cdf[-1]).tolist()
    draws = _RawDraws(seed)
    random, below = draws.random, draws.below
    oracle = OracleQueue()
    ops = OpColumns()
    live: list[int] = []  # keys, duplicates pruned lazily
    while len(ops.kind) < n_ops:
        kind = kinds[bisect_right(cdf, random())]
        if kind == INSERT or len(oracle) == 0:
            k = below(universe)
            if oracle.is_live(k):
                continue
            p = below(universe)
            oracle.insert(k, p)
            live.append(k)
            ops._append(INSERT, k, p)
        elif kind == EXTRACTMIN:
            k, p = oracle.extract_min()
            ops._append(EXTRACTMIN, k, p)
        elif kind == DELETE:
            if random() < 0.25:
                k = below(universe)
                if oracle.is_live(k):
                    continue
            else:
                k = _pick_live(below, oracle, live)
                if k is None:
                    continue
            oracle.delete(k)
            ops._append(DELETE, k, 0)
        else:
            k = _pick_live(below, oracle, live)
            if k is None:
                continue
            p = below(universe)
            oracle.decrease_key(k, p)
            ops._append(DECREASE, k, p)
    return Workload(None, "random", universe, seed, ops)


def insert_extract_workload(keys, priorities, universe: int, seed: int) -> Workload:
    """Insert every (key, priority) pair in order, then extract them all.

    The answers are the pairs sorted by (priority, key), the oracle's order
    for distinct keys; a repeated key raises ``DuplicateKeyError``.
    """
    pairs = [(int(k), int(p)) for k, p in zip(keys, priorities)]
    live: set[int] = set()
    for k, _ in pairs:
        if k in live:
            raise DuplicateKeyError(f"key {k} is already live")
        live.add(k)
    answers = sorted(pairs, key=lambda kp: (kp[1], kp[0]))
    ops = OpColumns()
    for kind, rows in ((INSERT, pairs), (EXTRACTMIN, answers)):
        ops._extend(kind, NO_LEAF, [k for k, _ in rows], [p for _, p in rows])
    return Workload(None, "random", universe, seed, ops)


_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1


class _RawDraws:
    """Scalar draws equal to a fresh ``default_rng(SeedSequence(seed))``'s.

    ``random()`` equals ``Generator.random()`` and ``below(n)`` equals
    ``int(Generator.integers(0, n))`` for 1 <= n <= 2^63, draw for draw in
    any interleaving.  Raw PCG64 words are fetched in chunks.  A 32-bit draw
    is the low half of a fresh word, and the high half is kept for the next
    32-bit draw, as PCG64's ``has_uint32`` buffer does; ``random()`` and
    64-bit draws take whole words and leave the kept half alone.
    """

    __slots__ = ("_word", "_half")

    def __init__(self, seed: int):
        bitgen = np.random.PCG64(np.random.SeedSequence(seed))
        chunks = iter(lambda: bitgen.random_raw(4096).tolist(), None)
        self._word = chain.from_iterable(chunks).__next__
        self._half: int | None = None

    def random(self) -> float:
        return (self._word() >> 11) * 2.0**-53

    def _u32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._word()
        self._half = word >> 32
        return word & _M32

    def below(self, n: int) -> int:
        """Uniform integer in [0, n): numpy's Lemire rejection, no draw for n == 1."""
        if n == 1:
            return 0
        if n <= 1 << 32:
            m = self._u32() * n
            if m & _M32 < n:
                threshold = ((1 << 32) - n) % n
                while m & _M32 < threshold:
                    m = self._u32() * n
            return m >> 32
        m = self._word() * n
        if m & _M64 < n:
            threshold = ((1 << 64) - n) % n
            while m & _M64 < threshold:
                m = self._word() * n
        return m >> 64


def _pick_live(below, oracle: OracleQueue, live: list[int]) -> int | None:
    while live:
        i = below(len(live))
        k = live[i]
        if oracle.is_live(k):
            return k
        live[i] = live[-1]
        live.pop()
    return None


# -- file formats ------------------------------------------------------------


def write_workload(workload: Workload, path) -> None:
    p = workload.params
    beta, h, m = (p.beta, p.h, p.m) if p is not None else (0, 0, 0)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(
            MAGIC, VERSION, beta, h, m,
            VARIANT_CODES[workload.variant], workload.trees,
            workload.universe, workload.seed, len(workload.ops),
        ))
        fh.write(np.rec.fromarrays(workload.ops.columns(), dtype=_RECORD).tobytes())


def read_workload(path) -> Workload:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size:
        raise ConfigError(f"not a workload file: {len(data)} bytes is shorter than the header")
    magic, version, beta, h, m, variant, trees, universe, seed, count = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise ConfigError(f"not a workload file: bad magic {magic!r}")
    if version != VERSION:
        raise ConfigError(f"unsupported workload version {version}")
    if variant not in VARIANT_NAMES:
        raise ConfigError(f"unknown workload variant code {variant}")
    if len(data) != _HEADER.size + count * _RECORD.itemsize:
        raise ConfigError(f"workload file has {len(data)} bytes; its header declares {count} ops")
    records = np.frombuffer(data, dtype=_RECORD, count=count, offset=_HEADER.size)
    unknown = set(np.unique(records["kind"]).tolist()) - OP_NAMES.keys()
    if unknown:
        raise ConfigError(f"unknown op kind {min(unknown)} in workload file")
    ops = OpColumns(columns=[array(code, records[name].astype(code).tobytes()) for name, code in _COLUMNS])
    name = VARIANT_NAMES[variant]
    params = None
    if beta:
        params = TreeParams(beta, h, m, seed,
                            universe_override=universe if universe != (m * h * beta**h) ** 4 else None)
    return Workload(params, name, universe, seed, ops, trees=trees)
