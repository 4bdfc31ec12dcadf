import math

import pytest

from pqlab import BufferedHeap, Device, DeviceConfig, ReducedQueue
from pqlab.dk import augmented_key_bits
from pqlab.errors import CapabilityError, ConfigError, DivergenceError, EmptyQueueError, EncodingError, StructureOverflowError
from pqlab.ops import EXTRACTMIN
from pqlab.pq.base import run_workload
from pqlab.workload import TreeParams, Workload, insert_extract_workload, make_random_workload, materialize


def make(B=16, M=192, w=64, n_hint=2048):
    dev = Device(DeviceConfig(B=B, M=M, w=w))
    return BufferedHeap(dev, n_hint=n_hint), dev


def test_singleton_roundtrip():
    q, _ = make()
    q.insert(5, 10)
    assert q.extract_min() == (5, 10)
    with pytest.raises(EmptyQueueError):
        q.extract_min()


def test_sorted_inserts_extract_in_order():
    q, _ = make()
    for k in range(200):
        q.insert(k, k)
    assert [q.extract_min() for _ in range(200)] == [(k, k) for k in range(200)]


def test_reverse_inserts_extract_in_order():
    q, _ = make()
    for k in range(200):
        q.insert(k, 199 - k)
    got = [q.extract_min() for _ in range(200)]
    assert got == [(199 - p, p) for p in range(200)]


def test_no_delete_support():
    q, _ = make()
    with pytest.raises(CapabilityError):
        q.delete(1)
    with pytest.raises(CapabilityError):
        q.decrease_key(1, 1)


def test_memory_too_small_rejected():
    dev = Device(DeviceConfig(B=64, M=128, w=64))
    with pytest.raises(ConfigError):
        BufferedHeap(dev, n_hint=1 << 14)


@pytest.mark.parametrize("seed", range(12))
def test_matches_oracle_transcript(seed):
    wl = make_random_workload(2500, seed, universe=600, profile="insert_extract")
    q, dev = make()
    run_workload(q, dev, wl)  # raises DivergenceError on any mismatch


def test_failed_replay_resets_probe_context():
    wl = make_random_workload(400, 3, universe=200, profile="insert_extract")
    bad = next(i for i, op in enumerate(wl.ops) if op.kind == EXTRACTMIN)
    ops = list(wl.ops)
    ops[bad] = ops[bad]._replace(priority=ops[bad].priority + 1)
    q, dev = make()
    with pytest.raises(DivergenceError, match=rf"^op {bad} "):
        run_workload(q, dev, Workload(None, "random", wl.universe, wl.seed, ops))
    dev.read_block(0)
    assert dev.log[-1][:2] == (None, None)


@pytest.mark.parametrize("cfg", [(8, 160, 512), (16, 192, 1024), (64, 1024, 8192), (32, 512, 2048)])
def test_matches_oracle_across_geometries(cfg):
    B, M, nh = cfg
    wl = make_random_workload(3000, 99, universe=700, profile="insert_extract")
    dev = Device(DeviceConfig(B=B, M=M, w=64))
    run_workload(BufferedHeap(dev, n_hint=nh), dev, wl)


def test_snapshot_resume_identical_probes():
    wl = make_random_workload(1200, 7, universe=400, profile="insert_extract")
    q, dev = make()
    half = len(wl.ops) // 2
    run_workload(q, dev, wl, hi=half)
    img = q.memory_image()
    dev2 = dev.copy()
    q2 = BufferedHeap(dev2, n_hint=2048)
    q2.load_memory_image(img)
    tail1 = run_workload(q, dev, wl, lo=half).extractions
    tail2 = run_workload(q2, dev2, wl, lo=half).extractions
    assert tail1 == tail2
    suffix = [(r.addr, r.access) for r in dev.log[len(dev.log) - len(dev2.log):]]
    assert suffix == [(r.addr, r.access) for r in dev2.log]


@pytest.mark.parametrize("B,M,w", [(8, 128, 64), (16, 192, 64), (16, 256, 128), (8, 128, 32)])
def test_image_within_memory_after_every_op(B, M, w):
    wl = make_random_workload(1500, 4, universe=600, profile="insert_extract")
    q, dev = make(B=B, M=M, w=w, n_hint=4096)
    for i in range(len(wl.ops)):
        run_workload(q, dev, wl, lo=i, hi=i + 1)
        image = q.memory_image()
        assert len(image) <= M
        assert all(0 <= word < (1 << w) for word in image)


def test_leaf_overflow_raises():
    q, _ = make(B=8, M=128, n_hint=16)
    for k in range(150):
        q.insert(k, k)
    with pytest.raises(StructureOverflowError, match="leaf 1 overflow"):
        q.insert(150, 150)


def test_counter_limit_raises():
    q, _ = make()
    q.insert(1, 1)
    q.load_memory_image([(1 << 64) - 1] + q.memory_image()[1:])
    with pytest.raises(EncodingError, match="operation counter"):
        q.insert(2, 2)


def test_clear_resets_behavior():
    q, dev = make()
    for k in range(100):
        q.insert(k, k)
    q.clear()
    with pytest.raises(EmptyQueueError):
        q.extract_min()
    q.insert(1, 1)
    assert q.extract_min() == (1, 1)


def test_probe_envelope_insert_then_extract():
    # Regression bound with documented constant c=20 (see module docstring);
    # c'=0 at this scale. Not a proof, a tripwire.
    n = 1 << 12
    B, M = 32, 512
    dev = Device(DeviceConfig(B=B, M=M, w=64))
    q = BufferedHeap(dev, n_hint=n)
    for k in range(n // 2):
        q.insert(k * 7919 % (n // 2), k)
    for _ in range(n // 2):
        q.extract_min()
    bound = 20 * (n / B) * (1 + math.log(max(n, M) / M, M / B))
    assert dev.probe_count <= bound


def test_pending_entries_refill_the_root_without_a_probe():
    """Entries riding the root's pending buffer are merged by the refill in
    memory, not flushed to a child and read back."""
    q, dev = make(B=16, M=256)
    assert q.cap == 16
    for k in range(15, -1, -1):  # each beats the tops maximum, so all 16 join tops
        q.insert(k, k)
    for k in range(16, 28):
        q.insert(k, 100 - k)
    assert (len(q._root.tops), len(q._root.buf)) == (16, 12)
    got = [q.extract_min() for _ in range(28)]
    assert got == [(k, k) for k in range(16)] + [(k, 100 - k) for k in range(27, 15, -1)]
    assert dev.probe_count == 0


def _assert_tops_prefix(heap, node, where):
    """tops sorted, at most cap pending entries, each >= the tops maximum."""
    assert node.tops == sorted(node.tops), where
    assert len(node.buf) <= heap.cap, where
    if node.tops:
        assert min(node.buf, default=node.tops[-1]) >= node.tops[-1], where


@pytest.mark.parametrize("B,M", [(8, 128), (16, 192)])
@pytest.mark.parametrize("traffic", ["insert_then_extract", "mixed_dk", "tree_dk"])
def test_leaves_hold_no_pending_and_header_tail_is_zero(B, M, traffic):
    """Every flush absorbs into a loaded child, so no leaf stores pending entries,
    header words 5..7 stay 0 and word 4 holds the children's bits (module
    docstring); the root and every internal node keep the tops-prefix rule,
    pending entries a refill left included.  Checked after every op, on disk
    through ``peek_block`` (no probe), at every node reachable through set bits."""
    if traffic == "insert_then_extract":
        n = 1500
        wl = insert_extract_workload(range(n), [(k * 7919) % (n // 3) for k in range(n)], n, 0)
        dev = Device(DeviceConfig(B=B, M=M, w=64))
        heap = queue = BufferedHeap(dev, n_hint=n)
    else:
        if traffic == "mixed_dk":
            wl, n_hint = make_random_workload(3000, 8, universe=500, profile="mixed"), 64  # depth 1, so the leaves fill
        else:
            wl, n_hint = materialize(TreeParams(2, 6, 2, seed=5)), 256  # at most 252 entries live
        dev = Device(DeviceConfig(B=B, M=M, w=augmented_key_bits(wl.universe)))
        heap = BufferedHeap(dev, n_hint=n_hint)
        queue = ReducedQueue(heap, n0_min=16)
    leaf_blocks = 0
    for i in range(len(wl.ops)):
        run_workload(queue, dev, wl, lo=i, hi=i + 1)
        probes = dev.probe_count
        for x, node in heap.nodes(peek=True):
            if x != heap.ROOT:
                header = dev.peek_block(heap._node_base(x))[:8]
                assert header[5:] == (0, 0, 0), (x, header)
                assert node.holds(), (x, header)  # a set bit leads to a subtree holding entries
            if heap._is_leaf(x):
                assert not node.buf and node.bits == 0, (x, header)
                leaf_blocks += 1
            else:
                assert 0 <= node.bits < 1 << heap.fanout, (i, x)
                _assert_tops_prefix(heap, node, (i, x))
        assert dev.probe_count == probes  # the check read nothing through the probe counter
    assert leaf_blocks  # the replay reached the leaves
