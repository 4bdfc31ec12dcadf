import hashlib

import numpy as np
import pytest

from pqlab import OracleQueue, TreeParams, build_tree, materialize, transform_no_spurious
from pqlab.errors import ConfigError
from pqlab.ops import DELETE, INSERT, PRIORITY_INF
from pqlab.workload import (
    _RawDraws,
    DELETE_LEAF,
    EXTRACT_LEAF,
    INSERT_LEAF,
    ground_truth,
    extractions_at_height,
    make_random_workload,
    read_workload,
    write_workload,
)


def test_params_validation():
    with pytest.raises(ConfigError):
        TreeParams(1, 2, 1, 0)
    with pytest.raises(ConfigError):
        TreeParams(2, 0, 1, 0)
    with pytest.raises(ConfigError):
        TreeParams(2, 6, 1, 0, strict=True)  # h not a multiple of 4
    with pytest.raises(ConfigError):
        TreeParams(2, 4, 1, 0, strict=True)  # h below 8
    TreeParams(2, 8, 1, 0, strict=True)
    with pytest.raises(ConfigError):
        TreeParams(2, 2, 1, 0, universe_override=8)  # below 2*m*h*beta^h


def test_topology_beta2_h1():
    tree = build_tree(TreeParams(2, 1, 1, 0))
    root = tree.root
    kinds = [tree.nodes[c].kind for c in root.children]
    assert kinds == [INSERT_LEAF, DELETE_LEAF, DELETE_LEAF, EXTRACT_LEAF]


def test_delete_leaf_count_beta2_h2():
    tree = build_tree(TreeParams(2, 2, 1, 0))
    assert sum(1 for n in tree.nodes if n.kind == DELETE_LEAF) == 4


def test_insert_totals_beta3_h2():
    params = TreeParams(3, 2, 5, 0)
    tree = build_tree(params)
    assert len(tree.internal_nodes()) == 4
    total = sum(
        tree.leaf_op_count(tree.nodes[n.children[0]]) for n in tree.internal_nodes()
    )
    assert total == params.m * params.h * params.beta**params.h == 90


@pytest.mark.parametrize("beta,h,m", [(2, 2, 1), (2, 3, 2), (3, 2, 2)])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_property1_counts(beta, h, m, seed):
    params = TreeParams(beta, h, m, seed)
    wl = materialize(params)
    c = wl.counts()
    n = params.n_updates
    assert c["delete"] == n
    assert c["extractmin"] == n
    assert n <= c["insert"] <= 2 * n


def test_disjoint_seed_reinserts_nothing():
    # With every insert key distinct from every delete key, each extract-min
    # leaf extracts exactly its node's insert set at matching priority.
    for seed in range(50):
        params = TreeParams(2, 1, 1, seed)
        wl = materialize(params)
        tree = build_tree(params)
        y, x, expected = ground_truth(wl, tree, 0)
        if y & x:
            continue
        assert wl.counts()["insert"] == params.n_updates  # no re-inserts
        assert extractions_at_height(wl, tree, 0) == y
        break
    else:
        pytest.skip("no disjoint seed found in range")


@pytest.mark.parametrize("seed", range(6))
def test_intersection_recovery_all_nodes(seed):
    params = TreeParams(2, 3, 2, seed)
    wl = materialize(params)
    tree = build_tree(params)
    for node in tree.internal_nodes():
        y, x, expected = ground_truth(wl, tree, node.id)
        assert len(y) == params.m * params.beta**node.height
        assert extractions_at_height(wl, tree, node.id) == expected


def test_replay_closure():
    params = TreeParams(2, 3, 2, seed=5)
    wl = materialize(params)
    oracle = OracleQueue()
    for op in wl.ops:
        if op.kind == INSERT:
            oracle.insert(op.key, op.priority)
        elif op.kind == DELETE:
            oracle.delete(op.key)
        else:
            assert oracle.extract_min() == (op.key, op.priority)


def test_no_live_key_below_level_before_extract_leaf():
    # Entering any extract-min leaf, nothing live sits strictly below its
    # node's priority level.
    params = TreeParams(2, 3, 1, seed=3)
    wl = materialize(params)
    tree = build_tree(params)
    oracle = OracleQueue()
    seen_leaf = None
    for op in wl.ops:
        leaf = tree.nodes[op.leaf_id]
        if leaf.kind == EXTRACT_LEAF and op.leaf_id != seen_leaf:
            seen_leaf = op.leaf_id
            below = [kp for kp in oracle.live_items() if kp[1] < leaf.height]
            assert below == []
        if op.kind == INSERT:
            oracle.insert(op.key, op.priority)
        elif op.kind == DELETE:
            oracle.delete(op.key)
        else:
            oracle.extract_min()


def test_workload_file_roundtrip(tmp_path):
    params = TreeParams(2, 2, 2, seed=9)
    wl = materialize(params)
    path = tmp_path / "wl.bin"
    write_workload(wl, path)
    back = read_workload(path)
    assert back.ops == wl.ops
    assert back.variant == "basic"
    assert back.universe == wl.universe
    assert (back.params.beta, back.params.h, back.params.m) == (2, 2, 2)


def test_regeneration_is_byte_identical(tmp_path):
    params = TreeParams(2, 3, 2, seed=4)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    write_workload(materialize(params), p1)
    write_workload(materialize(params), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_transform_never_deletes_absent_key():
    parts = [materialize(TreeParams(2, 2, 1, seed=s, universe_override=64)) for s in (0, 3, 5)]
    wl = transform_no_spurious(parts)
    oracle = OracleQueue()
    for op in wl.ops:
        if op.kind == INSERT:
            oracle.insert(op.key, op.priority)
        elif op.kind == DELETE:
            oracle.delete_key(op.key)  # raises KeyError if the key is absent
        else:
            assert oracle.extract_min() == (op.key, op.priority)


def test_transform_universe_at_sentinel_after_each_tree():
    u = 64
    parts = [materialize(TreeParams(2, 2, 1, seed=s, universe_override=u)) for s in (5, 6)]
    wl = transform_no_spurious(parts)
    tree = build_tree(parts[0].params)
    n_nodes = len(tree)
    last_leaf = tree.leaves[-1]
    boundaries = {t * n_nodes + last_leaf for t in range(len(parts))}
    oracle = OracleQueue()
    idx = 0
    ops = wl.ops
    while idx < len(ops):
        op = ops[idx]
        if op.kind == INSERT:
            oracle.insert(op.key, op.priority)
        elif op.kind == DELETE:
            oracle.delete_key(op.key)
        else:
            oracle.extract_min()
        boundary = op.leaf_id in boundaries and (
            idx + 1 == len(ops) or ops[idx + 1].leaf_id != op.leaf_id
        )
        if boundary:
            items = oracle.live_items()
            assert len(items) == u
            assert all(p == PRIORITY_INF for _, p in items)
        idx += 1


def test_transform_operation_count():
    u = 64
    parts = [materialize(TreeParams(2, 2, 1, seed=s, universe_override=u)) for s in (8, 11)]
    wl = transform_no_spurious(parts)
    total = u
    for part in parts:
        c = part.counts()
        tree = build_tree(part.params)
        matched = sum(
            len(extractions_at_height(part, tree, n.id)) for n in tree.internal_nodes()
        )
        total += 2 * c["insert"] + 2 * c["delete"] + c["extractmin"] + matched
    # a source Insert at an extract-min leaf (re-insert) contributes its one
    # transformed op; insert-leaf inserts contribute two
    src_reinserts = sum(
        1 for part in parts for op in part.ops
        if op.kind == INSERT and build_tree(part.params).nodes[op.leaf_id].kind == EXTRACT_LEAF
    )
    assert len(wl.ops) == total - src_reinserts


def test_transform_default_universe_tiny_tree():
    # beta=2, h=1, m=1: the (m h beta^h)^4 = 16-key default universe is feasible.
    parts = [materialize(TreeParams(2, 1, 1, seed=2))]
    wl = transform_no_spurious(parts)
    assert wl.universe == 16
    assert wl.ops[0].priority == PRIORITY_INF


def test_transform_rejects_mixed_params():
    a = materialize(TreeParams(2, 2, 1, seed=0, universe_override=64))
    b = materialize(TreeParams(2, 2, 2, seed=1, universe_override=256))
    with pytest.raises(ConfigError):
        transform_no_spurious([a, b])


def test_transformed_file_roundtrip(tmp_path):
    parts = [materialize(TreeParams(2, 2, 1, seed=s, universe_override=64)) for s in (0, 3)]
    wl = transform_no_spurious(parts)
    path = tmp_path / "t.bin"
    write_workload(wl, path)
    back = read_workload(path)
    assert back.ops == wl.ops
    assert back.variant == "no_spurious" and back.trees == 2
    assert back.universe == 64


def test_key_assignment_marginals_roughly_uniform():
    # first insert-leaf key over many seeds should spread across the universe
    from pqlab.errors import WorkloadUnderflowError

    u = 64
    firsts = []
    seed = 0
    while len(firsts) < 200:
        seed += 1
        try:
            wl = materialize(TreeParams(2, 1, 1, seed=seed, universe_override=u))
        except WorkloadUnderflowError:
            continue
        firsts.append(wl.ops[0].key)
    hist, _ = np.histogram(firsts, bins=8, range=(0, u))
    assert hist.min() >= 5  # mean 25 per bin; gross non-uniformity would show


# sha256 of repr([(kind, key, priority), ...]).  The first two are ACCEPT-03's
# first seeds; the small-universe delete_heavy case often retries both on a live
# Insert key and on a live key drawn for an absent Delete.
RANDOM_STREAM_PINS = [
    (10_000, 31_000, 4096, "insert_extract",
     "f58e80481a1e225b39cf462c7aacb41f03298f2492ae50e21684f7efa09f4da2"),
    (10_000, 47_000, 4096, "mixed",
     "98bec385dab6a8f86d77346a42f447385e18f156c5847a45eb56fae63cc0e9bb"),
    (2500, 17, 120, "delete_heavy",
     "1eca7c719c2baa62eb93b193e9a183bac1977462ce6cd99f51b20b858fb40728"),
]


@pytest.mark.parametrize("n_ops,seed,universe,profile,digest", RANDOM_STREAM_PINS,
                         ids=[case[3] for case in RANDOM_STREAM_PINS])
def test_random_workload_stream_pinned(n_ops, seed, universe, profile, digest):
    ops = make_random_workload(n_ops, seed, universe=universe, profile=profile).ops
    stream = repr([(op.kind, op.key, op.priority) for op in ops]).encode()
    assert hashlib.sha256(stream).hexdigest() == digest


def test_random_workload_unknown_profile():
    with pytest.raises(ConfigError, match="insert_extract.*mixed.*delete_heavy"):
        make_random_workload(10, 0, profile="bogus")


@pytest.mark.parametrize("universe", [0, (1 << 63) + 1])
def test_random_workload_rejects_universe_outside_key_type(universe):
    with pytest.raises(ConfigError, match="universe"):
        make_random_workload(10, 0, universe=universe)


def test_random_workload_full_key_type_universe():
    ops = make_random_workload(500, 0, universe=1 << 63, profile="mixed").ops
    values = [op.key for op in ops] + [op.priority for op in ops if op.kind != DELETE]
    assert all(0 <= v < 1 << 63 for v in values)
    assert max(values) >= 1 << 62


# Above 2^32 draws take whole words.  3 * 2^30 rejects about a quarter of its
# 32-bit draws and (2^64 + 2) / 3 about a third of its 64-bit draws.
DRAW_BOUNDS = [1, 2, 3, 120, 4096, 1 << 20, 3 << 30, (1 << 32) - 1, 1 << 32, (1 << 32) + 1,
               3 << 40, ((1 << 64) + 2) // 3, (1 << 63) - 1]


@pytest.mark.parametrize("seed", [0, 1, 47_003, 2**40 + 7])
def test_raw_draws_match_numpy_generator(seed):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    draws = _RawDraws(seed)
    choice = np.random.default_rng(seed + 1).integers(0, len(DRAW_BOUNDS) + 1, size=5000).tolist()
    for c in choice:
        if c == len(DRAW_BOUNDS):
            assert draws.random() == rng.random()
        else:
            n = DRAW_BOUNDS[c]
            assert draws.below(n) == int(rng.integers(0, n)), n
