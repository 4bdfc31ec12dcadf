import gc
import hashlib
import math
import weakref

import pytest

from pqlab import (
    BufferedHeap,
    DeviceConfig,
    ReducedQueue,
    TournamentQueue,
    TreeParams,
    build_tree,
)
from pqlab.comm.protocol import (
    CostVector,
    instance_shape,
    run_embedding_protocol,
    sample_instance,
)
from pqlab.cli import make_queue
from pqlab.comm.samplers import SetIntersectionInstance
from pqlab.errors import ConfigError
from pqlab.pq import base

PARAMS = TreeParams(2, 4, 2, seed=0)
CFG = DeviceConfig(B=16, M=256, w=64)


def embed_node(height=2):
    tree = build_tree(PARAMS)
    return next(n.id for n in tree.internal_nodes() if n.height == height)


def tournament_factory(device):
    return TournamentQueue(device, n_hint=1024, seed=5)


def dk_factory(device):
    return ReducedQueue(BufferedHeap(device, n_hint=1024), n0_min=16)


def run_once(factory, seed, v=None, k=2):
    v = embed_node() if v is None else v
    inst = sample_instance(PARAMS, v, seed=seed * 101 + 7)
    return run_embedding_protocol(factory, PARAMS, v, k, inst, CFG, seed=seed)


def test_shape():
    v = embed_node()
    assert instance_shape(PARAMS, v) == (16, 8)


def test_shape_mismatch_rejected():
    v = embed_node()
    bad = SetIntersectionInstance(PARAMS.universe, frozenset({1, 2, 3}), frozenset(range(5)))
    with pytest.raises(ConfigError):
        run_embedding_protocol(tournament_factory, PARAMS, v, 2, bad, CFG, seed=0)


def test_bad_k_rejected():
    v = embed_node()
    inst = sample_instance(PARAMS, v, seed=1)
    with pytest.raises(ConfigError):
        run_embedding_protocol(tournament_factory, PARAMS, v, 7, inst, CFG, seed=0)


@pytest.mark.parametrize("factory", [tournament_factory, dk_factory], ids=["tournament", "dk_heap"])
@pytest.mark.parametrize("seed", range(5))
def test_zero_error(factory, seed):
    res = run_once(factory, seed)
    assert res.alice_output == res.expected == res.bob_output


@pytest.mark.parametrize("k", [2, 3])
def test_request_counts_match_attribution(k):
    for seed in range(4):
        res = run_once(tournament_factory, seed, k=k)
        assert res.alice_requests == res.r_vk
        assert res.bob_requests == res.l_vk


def test_ledger_reconciles_bit_for_bit():
    res = run_once(tournament_factory, 3)
    sums = {("A", 1): 0, ("B", 1): 0, ("A", 2): 0, ("B", 2): 0}
    for m in res.transcript:
        sums[(m.sender, m.phase)] += m.bits
    assert res.cost == CostVector(sums[("A", 1)], sums[("B", 1)], sums[("A", 2)], sums[("B", 2)])


def test_cost_composition_terms():
    res = run_once(tournament_factory, 4)
    w = CFG.w
    bw, mw = CFG.B * w, CFG.M * w
    key_bits = math.ceil(math.log2(PARAMS.universe))
    by = {}
    for m in res.transcript:
        by.setdefault((m.sender, m.phase, m.kind), []).append(m.bits)
    # a1 = request addresses + Alice's rejection traffic
    a1 = sum(by.get(("A", 1, "content_request"), [])) + sum(by.get(("A", 1, "reject_flag"), []))
    a1 += sum(by.get(("A", 1, "resampled_set"), []))
    assert res.cost.a1 == a1
    assert sum(by.get(("A", 1, "content_request"), [])) == w * res.alice_requests
    # b1 includes A-set, memory image, and block replies
    assert sum(by.get(("B", 1, "address_set"), [])) == res.a_set_size * w
    assert by.get(("B", 1, "memory_snapshot")) == [mw]
    assert sum(by.get(("B", 1, "block_content"), [])) == bw * res.alice_requests
    # a2 includes Z-set, memory image, and replies to Bob
    assert sum(by.get(("A", 2, "address_set"), [])) == res.z_set_size * w
    assert by.get(("A", 2, "memory_snapshot")) == [mw]
    assert sum(by.get(("A", 2, "block_content"), [])) == bw * res.bob_requests
    # b2 = request addresses + intersection message
    inter = math.ceil(math.log2(PARAMS.n_updates + 1)) + len(res.expected) * key_bits
    assert res.cost.b2 == w * res.bob_requests + inter


@pytest.mark.parametrize("name,fits", [("tournament", True), ("dk_buffered_heap", False)])
def test_image_words_reported(name, fits):
    # The dk tables over a heap outgrow the M-word memory the ledger prices;
    # the run reports the size rather than hiding it.
    params = TreeParams(2, 6, 2, seed=0)
    v = next(n.id for n in build_tree(params).internal_nodes() if n.height == 3)
    cfg = DeviceConfig(B=16, M=256, w=128)
    res = run_embedding_protocol(lambda dev: make_queue(name, dev, n_hint=4096, seed=0),
                                 params, v, 2, sample_instance(params, v, seed=0), cfg, seed=0)
    assert res.correct
    assert (res.image_words <= cfg.M) == fits
    assert res.csv_row()[-1] == res.image_words
    assert [m.bits for m in res.transcript if m.kind == "memory_snapshot"] == [cfg.M * cfg.w] * 2


def test_exactly_one_phase_transition():
    res = run_once(dk_factory, 1)
    marks = [m for m in res.transcript if m.kind == "phase_transition"]
    assert len(marks) == 1 and marks[0].bits == 0
    # no phase-two message precedes it, no phase-one message follows it
    idx = marks[0].index
    assert all(m.phase == 1 for m in res.transcript[:idx])
    assert all(m.phase == 2 for m in res.transcript[idx + 1 :])


def test_disjoint_instance_empty_intersection_message():
    for seed in range(6):
        res = run_once(tournament_factory, seed)
        if res.expected:
            continue
        inter = [m for m in res.transcript if m.kind == "intersection"][0]
        assert inter.bits == math.ceil(math.log2(PARAMS.n_updates + 1))
        return
    pytest.skip("no disjoint instance in seed range")


def test_deterministic_transcripts():
    a = run_once(tournament_factory, 2)
    b = run_once(tournament_factory, 2)
    assert [(m.kind, m.bits, m.digest) for m in a.transcript] == [
        (m.kind, m.bits, m.digest) for m in b.transcript
    ]


def test_nonempty_intersection_case():
    # force an overlapping instance at a non-root node: zero error must hold
    v = embed_node()
    x_size, y_size = instance_shape(PARAMS, v)
    u = PARAMS.universe
    shared = {5, 11}
    x = frozenset(range(100, 100 + x_size - len(shared))) | shared
    y = frozenset(range(10_000, 10_000 + y_size - len(shared))) | shared
    inst = SetIntersectionInstance(u, x, y)
    for factory in (tournament_factory, dk_factory):
        res = run_embedding_protocol(factory, PARAMS, v, 2, inst, CFG, seed=9)
        assert res.alice_output == res.bob_output == frozenset(shared)
        assert res.alice_requests == res.r_vk and res.bob_requests == res.l_vk


@pytest.mark.parametrize("height", [2, 3, 4])
def test_dk_heap_protocol_with_intersecting_sets(height):
    # sample_instance almost never draws X meeting Y at a tree's default
    # universe; taking half of X from Y makes Alice's deletes remove live
    # keys, so the dk heap discards stale entries during the run.
    params = TreeParams(2, 6, 2, seed=41)
    v = next(n.id for n in build_tree(params).internal_nodes() if n.height == height)
    drawn = sample_instance(params, v, seed=41)
    xs, ys = sorted(drawn.X), sorted(drawn.Y)
    x = frozenset(xs[len(ys) // 2:]) | frozenset(ys[: len(ys) // 2])
    queues = []

    def factory(dev):
        queues.append(make_queue("dk_buffered_heap", dev, n_hint=4096, seed=0))
        return queues[-1]

    res = run_embedding_protocol(factory, params, v, 2, SetIntersectionInstance(drawn.U, x, drawn.Y),
                                 DeviceConfig(B=16, M=256, w=128), seed=41)
    assert res.correct and res.expected
    assert res.alice_requests == res.r_vk and res.bob_requests == res.l_vk
    assert queues[0].stale_discards > 0


@pytest.mark.parametrize("seed", range(6))
def test_dk_heap_requests_match_attribution_where_it_probes(seed):
    # ACCEPT-07/08's dk heap runs at (16, 256), where its root holds every
    # entry and neither player requests a block.  At (8, 128), on the (2,6,2)
    # tree's height-4 node, Alice requests 28 blocks and Bob 26, and each
    # count is what the attribution charges.
    params = TreeParams(2, 6, 2, seed=0)
    v = next(n.id for n in build_tree(params).internal_nodes() if n.height == 4)
    res = run_embedding_protocol(dk_factory, params, v, 2, sample_instance(params, v, seed=seed),
                                 DeviceConfig(B=8, M=128, w=128), seed=seed)
    assert res.correct
    assert (res.alice_requests, res.bob_requests) == (res.r_vk, res.l_vk) == (28, 26)


def test_prefix_distribution_matches_materialize():
    # Embedding soundness at small parameters: per-leaf insert-key marginals
    # of the protocol prefix match direct materialization statistically.
    import numpy as np

    params = TreeParams(2, 2, 1, seed=0, universe_override=64)
    tree = build_tree(params)
    v = next(n.id for n in tree.internal_nodes() if n.height == 1)
    from pqlab.workload import materialize
    from pqlab.errors import WorkloadUnderflowError

    lo_direct = []
    lo_proto = []
    got = 0
    seed = 0
    while got < 120:
        seed += 1
        try:
            wl = materialize(TreeParams(2, 2, 1, seed=seed, universe_override=64))
        except WorkloadUnderflowError:
            continue
        got += 1
        lo_direct.extend(op.key for op in wl.ops[:2])  # root insert-leaf keys
    got = 0
    seed = 0
    while got < 120:
        seed += 1
        try:
            inst = sample_instance(params, v, seed=seed)
            res = run_embedding_protocol(tournament_factory, params, v, 2, inst, CFG, seed=seed)
        except WorkloadUnderflowError:
            continue
        got += 1
        lo_proto.extend(op.key for op in res.prefix_workload.ops[:2])
    # both should be near-uniform over [0, 64); compare coarse histograms
    h1, _ = np.histogram(lo_direct, bins=8, range=(0, 64))
    h2, _ = np.histogram(lo_proto, bins=8, range=(0, 64))
    assert abs(h1.mean() - h2.mean()) < 1e-9
    assert np.abs(h1 - h2).max() <= 30  # ~240 samples in 8 bins, mean 30


@pytest.mark.parametrize("seed, digest", [
    (0, "36116ba1a7e03a37e668266a164b730c418e039ecc938633deb0a9e1748330fd"),
    (1, "216864f87e59ccd1f0c09f47bdf03e4d440702ce57d9683fac096a6a3ffddb6f"),
    (2, "fb72ffdbdbaccdcf7ca552b146fd42d0ae2407e6997f296f64966f76771045a8"),
])
def test_sample_instance_stream_pinned(seed, digest):
    # The protocol's instance draw is part of every transcript; pin it.
    params = TreeParams(2, 6, 2, seed=0)
    v = next(n.id for n in build_tree(params).internal_nodes() if n.height == 3)
    inst = sample_instance(params, v, seed)
    got = hashlib.sha256(repr((sorted(inst.X), sorted(inst.Y))).encode()).hexdigest()
    assert got == digest


def test_run_builds_the_tree_once():
    v = embed_node()
    inst = sample_instance(PARAMS, v, seed=7)
    build_tree.cache_clear()
    run_embedding_protocol(tournament_factory, PARAMS, v, 2, inst, CFG, seed=0)
    assert build_tree.cache_info().misses == 1


@pytest.mark.parametrize("factory", [tournament_factory, dk_factory], ids=["tournament", "dk_heap"])
def test_devices_freed_without_cyclic_gc(factory):
    # Reference counting alone must free the reference device and both
    # replicas with their probe logs: the protocol leaves no cycle behind.
    refs = []

    def recording(device):
        refs.append(weakref.ref(device))
        return factory(device)

    v = embed_node()
    inst = sample_instance(PARAMS, v, seed=7)
    gc.collect()
    gc.disable()
    try:
        run_embedding_protocol(recording, PARAMS, v, 2, inst, CFG, seed=0)
        assert [ref() is None for ref in refs] == [True, True, True]
    finally:
        gc.enable()


def recorded_run(factory, monkeypatch, cfg=CFG):
    """One run at a height-3 node with k=2; returns the result, the devices in creation
    order (reference, Bob, Alice), the replayed op ranges and the segment
    bounds (shared_end, bob1_end, alice_end)."""
    devices, ranges = [], []
    real = base.run_workload

    def recording(device):
        devices.append(device)
        return factory(device)

    def counting(queue, device, workload, *args, lo=0, hi=None, **kwargs):
        ranges.append((lo, len(workload.ops) if hi is None else hi))
        return real(queue, device, workload, *args, lo=lo, hi=hi, **kwargs)

    monkeypatch.setattr(base, "run_workload", counting)
    v = embed_node(3)
    res = run_embedding_protocol(recording, PARAMS, v, 2, sample_instance(PARAMS, v, seed=3), cfg, seed=1)
    tree = build_tree(PARAMS)
    children = tree.nodes[v].children
    first_op = {}
    for i, op in enumerate(res.prefix_workload.ops):
        first_op.setdefault(op.leaf_id, i)
    bounds = (first_op[children[0]], first_op[min(tree.subtree_leaves(children[1]))],
              first_op[tree.subtree_leaves(children[2])[0]])
    return res, devices, ranges, bounds


# At CFG the dk heap's root holds this run's every entry, so its players would
# probe nothing, and at (8, 128) Alice's segment would; at (8, 96) both
# players' segments probe.
PLAYER_CASES = [(tournament_factory, CFG), (dk_factory, DeviceConfig(B=8, M=96, w=64))]


@pytest.mark.parametrize("factory,cfg", PLAYER_CASES, ids=["tournament", "dk_heap"])
def test_players_start_at_the_shared_prefix_end(factory, cfg, monkeypatch):
    # The shared prefix is replayed once, by the reference run; the players
    # start from its state and replay only their own segments.
    res, devices, ranges, (shared_end, _, _) = recorded_run(factory, monkeypatch, cfg)
    n_ops = len(res.prefix_workload.ops)
    assert 0 < shared_end < n_ops and len(devices) == 3
    assert sum(hi - lo for lo, hi in ranges) == 2 * n_ops - shared_end
    for player in devices[1:]:
        assert all(rec.op_index >= shared_end for rec in player.log)


@pytest.mark.parametrize("factory,cfg", PLAYER_CASES, ids=["tournament", "dk_heap"])
def test_player_segments_match_the_reference_log(factory, cfg, monkeypatch):
    # Each player segment probes exactly what the reference run probed for
    # the same ops, so the players ran from the reference run's state.
    res, (ref, bob, alice), _, (shared_end, bob1_end, alice_end) = recorded_run(factory, monkeypatch, cfg)
    end = len(res.prefix_workload.ops)

    def records(dev, spans):
        return [(r.op_index, r.addr, r.access) for r in dev.log
                if any(lo <= r.op_index < hi for lo, hi in spans)]

    for player, spans in ((bob, [(shared_end, bob1_end), (alice_end, end)]), (alice, [(bob1_end, alice_end)])):
        assert records(player, spans) and records(player, spans) == records(ref, spans)
