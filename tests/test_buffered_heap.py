import heapq
import math
import random

import pytest

from pqlab import BufferedHeap, Device, DeviceConfig, ReducedQueue
from pqlab.cli import make_queue
from pqlab.dk import augmented_key_bits
from pqlab.errors import CapabilityError, ConfigError, DivergenceError, EmptyQueueError, StructureOverflowError
from pqlab.ops import EXTRACTMIN
from pqlab.pq.base import ENTRY_WORDS, run_workload
from pqlab.pq.buffered_heap import HEADER_WORDS, _Cursor
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


@pytest.mark.parametrize("B,M,w", [(8, 128, 64), (16, 192, 64), (16, 256, 128), (8, 128, 32), (64, 1024, 64)])
def test_image_within_memory_after_every_op(B, M, w):
    """The image stays within what the audit charged it: M less 2B words of block buffers."""
    wl = make_random_workload(1500, 4, universe=600, profile="insert_extract")
    q, dev = make(B=B, M=M, w=w, n_hint=4096)
    for i in range(len(wl.ops)):
        run_workload(q, dev, wl, lo=i, hi=i + 1)
        image = q.memory_image()
        assert len(image) <= M - 2 * B
        assert all(0 <= word < (1 << w) for word in image)


def test_leaf_overflow_raises():
    # Depth 1, 8 leaves of 20 entries; each root flush sends 28 entries in five runs of 5 or 6
    # to successive leaves, stepping by 5, so the fifth flush's last run is leaf 1's fourth
    # and takes it to 23 entries.
    q, _ = make(B=8, M=128, n_hint=16)
    for k in range(140):
        q.insert(k, k)
    with pytest.raises(StructureOverflowError, match="leaf 1 overflow"):
        q.insert(140, 140)


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


@pytest.mark.parametrize("B,M,root_cap", [(64, 1024, 223), (16, 256, 55), (16, 192, 39), (8, 128, 27)])
def test_root_cap_fills_the_audited_memory(B, M, root_cap):
    """The root's tops and pending each hold root_cap entries, the most whose
    image, the root header and 2 * root_cap two-word entries, fits in M - 2B."""
    q, _ = make(B=B, M=M)
    assert q.root_cap == root_cap >= q.cap
    assert q.ROOT_HEADER + 4 * root_cap <= M - 2 * B < q.ROOT_HEADER + 4 * (root_cap + 1)


def _geometries():
    return [(B, M) for B in (4, 8, 16, 32, 64) for M in range(2 * B, 2049, 8)]


def test_root_cap_rejects_no_geometry_a_cap_sized_root_fit():
    """A geometry is rejected exactly when a root of cap tops and cap pending
    entries would not fit, or a block is narrower than the 8-word node header,
    so sizing the root from M turns no geometry away."""
    for B, M in _geometries():
        dev = Device(DeviceConfig(B=B, M=M, w=64))
        cap = max(4, (M - 64) // 12)
        if B >= HEADER_WORDS and BufferedHeap.ROOT_HEADER + 4 * cap <= M - 2 * B:
            assert BufferedHeap(dev, n_hint=64).root_cap >= cap, (B, M)
        else:
            with pytest.raises(ConfigError):
                BufferedHeap(dev, n_hint=64)


def test_rejects_blocks_narrower_than_the_node_header():
    # The 8-word header is unpacked from block 0 alone: at B = 4 the second
    # flush to a child raised ValueError, so the constructor refuses B < 8.
    for kind in ("buffered_heap", "dk_buffered_heap"):
        with pytest.raises(ConfigError, match="B >= 8"):
            make_queue(kind, Device(DeviceConfig(B=4, M=128, w=64)), n_hint=64, seed=0)
    make_queue("buffered_heap", Device(DeviceConfig(B=8, M=128, w=64)), n_hint=64, seed=0)


def test_ascending_inserts_up_to_n_hint_fit_a_shallow_heap():
    """At (8, 120) the depth-1 leaves hold 16 entries, ten fewer than a full
    root's pending buffer plus one; the root sends it in runs, so none overflows."""
    q, _ = make(B=8, M=120, n_hint=32)
    assert (q.depth, q.leaf_tops_cap, q.root_cap) == (1, 16, 25)
    for k in range(32):
        q.insert(k, k)
    assert [q.extract_min() for _ in range(32)] == [(k, k) for k in range(32)]


@pytest.mark.parametrize("n_hint", [16, 32, 64])
def test_root_flush_sends_no_child_more_than_a_cap_sized_root(n_hint):
    """At every accepted geometry, ascending inserts and then a random
    insert/extract sweep, up to n_hint entries live, give the oracle's answers,
    and every batch the root flushes to a child holds at most cap + 1 entries,
    as a cap-sized root's."""
    for B, M in _geometries():
        try:
            q, _ = make(B=B, M=M, n_hint=n_hint)
        except ConfigError:
            continue
        apply, kids = q._apply, q._children(q.ROOT)

        def spy(x, node, batch):
            assert x not in kids or len(batch) <= q.cap + 1, (B, M, len(batch))
            apply(x, node, batch)

        q._apply = spy
        for k in range(n_hint):
            q.insert(k, k)
        assert [q.extract_min() for _ in range(n_hint)] == [(k, k) for k in range(n_hint)], (B, M)
        rng, live, k = random.Random(B * 4099 + M), [], n_hint
        for _ in range(4 * n_hint):
            if len(live) < n_hint and (not live or rng.random() < 0.6):
                p = rng.randrange(1000)
                q.insert(k, p)
                heapq.heappush(live, (p, k))
                k += 1
            else:
                p, key = heapq.heappop(live)
                assert q.extract_min() == (key, p), (B, M)


def test_full_root_tops_and_pending_extract_without_a_probe():
    """root_cap entries in tops and root_cap more in pending stay resident
    until every one is extracted."""
    q, dev = make(B=16, M=256)
    n = 55  # root_cap at (16, 256)
    for k in range(n - 1, -1, -1):  # each beats the tops maximum, so all join tops
        q.insert(k, k)
    for k in range(n, 2 * n):
        q.insert(k, 1000 - k)
    assert (len(q._root.tops), len(q._root.buf)) == (n, n)
    assert len(q.memory_image()) == q.ROOT_HEADER + 4 * n <= 256 - 2 * 16
    got = [q.extract_min() for _ in range(2 * n)]
    assert got == [(k, k) for k in range(n)] + [(k, 1000 - k) for k in range(2 * n - 1, n - 1, -1)]
    assert dev.probe_count == 0


@pytest.mark.parametrize("B,M", [(64, 1024), (16, 256), (32, 112)])
def test_root_flush_hands_each_child_every_run_position(B, M):
    """Over successive root flushes each child takes the run of the smallest
    entries as well as the run of the largest, so no subtree only collects
    the entries that are extracted last."""
    q, _ = make(B=B, M=M, n_hint=1 << 14)
    route, got = q._route, []

    def spy(x, node):
        out = route(x, node)
        if x == q.ROOT:
            got.append([i for i, _ in out])
        return out

    q._route = spy
    for k in range(2 * q.fanout * (q.root_cap + 1)):
        q.insert(k, k)
    k = len(got[0])
    assert k >= 2 and all(len(runs) == k for runs in got)
    for child in range(q.fanout):
        assert {j for runs in got for j, i in enumerate(runs) if i == child} >= {0, k - 1}, child


def _assert_tops_prefix(heap, x, node, where):
    """tops sorted, at most the node's own capacity of pending entries, each >= the tops maximum."""
    assert node.tops == sorted(node.tops), where
    assert len(node.buf) <= heap._cap_of(x), where
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
                header = dev.peek_block(heap._addr(x))[:8]
                assert header[5:] == (0, 0, 0), (x, header)
                assert node.holds(), (x, header)  # a set bit leads to a subtree holding entries
            if heap._is_leaf(x):
                assert not node.buf and node.bits == 0, (x, header)
                leaf_blocks += 1
            else:
                assert 0 <= node.bits < 1 << heap.fanout, (i, x)
                _assert_tops_prefix(heap, x, node, (i, x))
        assert dev.probe_count == probes  # the check read nothing through the probe counter
    assert leaf_blocks  # the replay reached the leaves


@pytest.mark.parametrize("B", [9, 11])
@pytest.mark.parametrize("kind", ["buffered_heap", "dk_buffered_heap"])
def test_odd_blocks_decode_straddling_entries(kind, B):
    """At odd B a two-word entry at word 8 + 2j can start in a block's last
    word (j = 0 mod 9 at B = 9, j = 1 mod 11 at B = 11), so a refill's cursor
    decodes heads that straddle two blocks; the answers still match the
    transcript."""
    straddled = 0
    next_head = _Cursor.next_head

    def spy(cursor):
        nonlocal straddled
        pos = HEADER_WORDS + ENTRY_WORDS * (cursor.off + cursor.eaten)
        straddled += cursor.full is None and cursor.eaten < cursor.n_tops and pos % B == B - 1
        return next_head(cursor)

    wl = make_random_workload(3000, B, universe=1000, profile="mixed" if kind.startswith("dk_") else "insert_extract")
    w = max(64, augmented_key_bits(wl.universe)) if kind.startswith("dk_") else 64
    dev = Device(DeviceConfig(B=B, M=128, w=w))
    queue = make_queue(kind, dev, n_hint=3000, seed=0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Cursor, "next_head", spy)
        run_workload(queue, dev, wl)
    assert straddled > 0
