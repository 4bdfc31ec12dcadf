import math
import random
from itertools import count

import pytest
from hypothesis import given, settings, strategies as st

from pqlab import Device, DeviceConfig, OracleQueue, TournamentQueue
from pqlab.errors import ConfigError, DivergenceError, EmptyQueueError, EncodingError, StructureOverflowError
from pqlab.ops import EXTRACTMIN
from pqlab.cli import make_queue
from pqlab.device import READ, WRITE
from pqlab.dk import augmented_key_bits
from pqlab.pq.base import run_workload
from pqlab.pq.tournament import M64, S_DEC, S_DEL, S_ERASE, S_INSERT, S_PUSH
from pqlab.workload import Workload, insert_extract_workload, make_random_workload, materialize, TreeParams


def make(B=16, M=256, w=64, n_hint=1024, seed=0, node_blocks=4):
    dev = Device(DeviceConfig(B=B, M=M, w=w))
    return TournamentQueue(dev, n_hint=n_hint, seed=seed, node_blocks=node_blocks), dev


def _stored_words(q, x):
    """Node x's stored words: its whole blocks on disk, or, when resident, its
    span of the image, which is nodes 1..T back to back from word 0."""
    if x > q.T:
        n = q.leaf_blocks if q._is_leaf(x) else q.node_blocks
        return [word for i in range(n) for word in q.device.peek_block(q._addr(x) + i)]
    image, p = q.memory_image(), 0
    for _ in range(x):
        lo, p = p, p + 2 + 2 * image[p] + 3 * (image[p + 1] >> 2)
    return image[lo:p]


def test_basic_ops():
    q, _ = make()
    q.insert(5, 10)
    q.insert(3, 20)
    q.decrease_key(3, 4)
    assert q.extract_min() == (3, 4)
    assert q.extract_min() == (5, 10)
    with pytest.raises(EmptyQueueError):
        q.extract_min()


def test_delete_present_and_absent():
    q, _ = make()
    q.insert(1, 5)
    q.insert(2, 6)
    q.delete(1)
    q.delete(42)  # absent: no effect
    assert q.extract_min() == (2, 6)


def test_decrease_min_rule():
    q, _ = make()
    q.insert(4, 10)
    q.decrease_key(4, 20)  # not a decrease: stays 10
    q.decrease_key(4, 3)
    assert q.extract_min() == (4, 3)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 5: DecreaseKey on an absent key is undefined; a decrease that beats "
                          "the tops maximum adopts a record for a key that was never inserted")
@pytest.mark.parametrize("seed", range(4))
def test_decrease_of_an_absent_key_extracts_no_phantom(seed):
    q, _ = make(seed=seed)
    for k in range(50):
        q.insert(k, 1000 + k)
    q.decrease_key(999999, 0)  # never inserted
    assert q.extract_min() == (0, 1000)


def test_rejects_tiny_blocks():
    dev = Device(DeviceConfig(B=4, M=64, w=64))
    with pytest.raises(ConfigError):
        TournamentQueue(dev)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("profile", ["mixed", "delete_heavy"])
def test_matches_oracle_transcript(seed, profile):
    wl = make_random_workload(1500, seed * 7 + len(profile), universe=300, profile=profile)
    q, dev = make(seed=seed)
    run_workload(q, dev, wl)


@pytest.mark.parametrize("cfg", [(8, 128, 3), (16, 256, 4), (64, 1024, 4)])
def test_matches_oracle_across_geometries(cfg):
    B, M, nb = cfg
    wl = make_random_workload(2000, 41, universe=250, profile="mixed")
    dev = Device(DeviceConfig(B=B, M=M, w=64))
    run_workload(TournamentQueue(dev, n_hint=512, seed=3, node_blocks=nb), dev, wl)


def _tied_workload(profile: str, seed: int) -> Workload:
    """Ops whose priorities lie in [0, 64).  ``fill_drain`` (Insert and
    ExtractMin only) inserts 1000 distinct keys and then extracts them all, so
    all of them are live at once; the random profiles run 3000 ops over keys
    in [0, 64)."""
    if profile == "fill_drain":
        rng = random.Random(seed)
        return insert_extract_workload(rng.sample(range(1000), 1000), [rng.randrange(64) for _ in range(1000)],
                                       1000, seed)
    return make_random_workload(3000, seed, universe=64, profile=profile)


@pytest.mark.parametrize("B,M", [(8, 128), (16, 192), (16, 256), (64, 1024)])
@pytest.mark.parametrize("profile,kind", [(profile, kind) for profile in ("mixed", "delete_heavy")
                                          for kind in ("tournament", "dk_tournament", "dk_buffered_heap")]
                         + [("fill_drain", "buffered_heap")])
def test_tied_priorities_match_transcript(profile, kind, B, M):
    # Most live priorities tie and keys alone break the ties: no entry of
    # either tree carries a timestamp, and every extract must still match the
    # oracle's transcript.  At (8, 128) the runs probe, so tied entries are
    # flushed to disk and merged back.
    probes = 0
    for seed in range(9):
        wl = _tied_workload(profile, seed)
        w = augmented_key_bits(wl.universe) if kind.startswith("dk_") else 64
        dev = Device(DeviceConfig(B=B, M=M, w=max(64, w)))
        run_workload(make_queue(kind, dev, n_hint=3000, seed=seed), dev, wl)
        probes += dev.probe_count
    if (B, M) == (8, 128):
        assert probes


def test_deep_cascades_tiny_buffers():
    # B=8 with 3-block nodes yields capacity-2 buffers: constant flushing.
    wl = make_random_workload(2500, 17, universe=120, profile="delete_heavy")
    dev = Device(DeviceConfig(B=8, M=96, w=64))
    run_workload(TournamentQueue(dev, n_hint=256, seed=9, node_blocks=3), dev, wl)


def test_hard_workload_with_spurious_deletes():
    wl = materialize(TreeParams(2, 4, 2, seed=11))
    q, dev = make(n_hint=2048)
    report = run_workload(q, dev, wl)
    assert report.probes_total == dev.probe_count


def test_snapshot_resume_identical_probes():
    # The image carries the root's pending signals, delete and erase included.
    wl = make_random_workload(1000, 23, universe=300, profile="mixed")
    for w, split, pending in ((64, 500, {S_DEL}), (64, 140, {S_DEL, S_ERASE}), (128, 140, {S_DEL, S_ERASE})):
        q, dev = make(w=w, seed=1)
        run_workload(q, dev, wl, hi=split)
        assert pending <= {sig[0] for sig in q._root.buf}
        img = q.memory_image()
        dev2 = dev.copy()
        q2 = TournamentQueue(dev2, n_hint=1024, seed=1)
        q2.load_memory_image(img)
        assert q2.memory_image() == img
        tail1 = run_workload(q, dev, wl, lo=split).extractions
        tail2 = run_workload(q2, dev2, wl, lo=split).extractions
        assert tail1 == tail2
        assert dev.log[len(dev.log) - len(dev2.log):] == dev2.log


@pytest.mark.parametrize("B,M,w", [(8, 128, 64), (16, 256, 128), (64, 1024, 64)])
def test_image_within_memory_after_every_op(B, M, w):
    # The audit's contract: the image leaves 2B words of M for block buffers.
    wl = make_random_workload(1500, 4, universe=600, profile="mixed")
    q, dev = make(B=B, M=M, w=w, n_hint=4096)
    for i in range(len(wl.ops)):
        run_workload(q, dev, wl, lo=i, hi=i + 1)
        image = q.memory_image()
        assert len(image) <= M - 2 * B
        assert all(0 <= word < (1 << w) for word in image)


@pytest.mark.parametrize("B,M,node_blocks", [(8, 128, 14), (16, 256, 14)])
def test_audit_rejects_images_over_memory(B, M, node_blocks):
    # The largest image is the root words, 2 + 5 * cap: 112 and 222 words
    # here fit M - 2B = 112 and 224, and one more node block raises cap
    # past that (117 and 237 words).
    make(B=B, M=M, node_blocks=node_blocks)
    with pytest.raises(ConfigError, match="largest memory image"):
        make(B=B, M=M, node_blocks=node_blocks + 1)


def test_constructor_rejects_words_too_narrow_for_node_headers():
    # Word 1 of a node is n_sigs << 2 | bits, up to 4 * cap + 3 = 203 at cap 50;
    # the 10-block arena alone would fit 4-bit addresses.
    make(B=64, M=1024, w=8, n_hint=16)
    with pytest.raises(ConfigError, match="too narrow"):
        make(B=64, M=1024, w=7, n_hint=16)


def test_leaf_overflow_raises():
    q, _ = make(B=8, M=128, n_hint=16)
    for k in range(216):
        q.insert(k, k)
    with pytest.raises(StructureOverflowError, match="leaf 4 overflow"):
        q.insert(216, 216)


def test_leaf_overflow_raises_in_the_refill_that_causes_it():
    # Every key routes to leaf 4, below resident node 2.  The 19th extract
    # refills node 2, whose flush overfills leaf 4 while the merge holds it
    # loaded; the merge pops it back within its capacity before it is written,
    # so only a check where the leaf applies its batch raises in this op.
    q, _ = make(B=8, M=128, n_hint=16)
    assert (q.K, q.T, q.cap, q.leaf_cap) == (4, 3, 6, 48)
    keys = (k for k in count() if (k * q._mult) & M64 < 1 << 62)
    for p in range(31):
        q.insert(next(keys), p)
    for p in range(1031, 1067, 2):
        q.extract_min()
        q.insert(next(keys), p)
        q.insert(next(keys), p + 1)
    with pytest.raises(StructureOverflowError, match="leaf 4 overflow"):
        q.extract_min()


def test_route_sends_the_fuller_half_and_keeps_the_rest_in_order():
    q, _ = make()
    half = [[k for k in range(200) if ((k * q._mult) & M64) >> 63 == i] for i in (0, 1)]  # the root's hash bit

    def routed(sides):
        node = q.NODE()
        node.buf = [(S_INSERT, half[i].pop(), word) for word, i in enumerate(sides, 1)]
        want = [[s for s, i in zip(node.buf, sides) if i == side] for side in (0, 1)]
        return q._route(q.ROOT, node), node.buf, want

    for sides, fuller in (([1, 0, 1, 1, 0], 1), ([0, 1, 1, 0], 0), ([1, 1], 1), ([0], 0)):
        batches, kept, want = routed(sides)
        assert batches == [(fuller, want[fuller])] and kept == want[1 - fuller]
    assert routed([])[:2] == ([], [])


@pytest.mark.parametrize("seed", range(10))
def test_route_rehashes_only_what_the_last_flush_did_not_keep(seed):
    # A node keeps the half its last route left (``kept``); routing it again
    # must split the buffer as a full rehash of a copy with kept = 0 does.
    rng = random.Random(seed)
    q, _ = make(seed=seed)

    def sigs():
        return [(S_INSERT, rng.randrange(1 << 20), rng.randrange(1 << 10)) for _ in range(rng.randrange(30))]

    for x in (q.ROOT, 2, 5, 11):  # nodes at four levels hash four different bits
        node = q.NODE()
        for _ in range(5):
            node.buf += sigs()
            fresh = q.NODE()
            fresh.buf = list(node.buf)
            assert fresh.kept == 0
            assert q._route(x, node) == q._route(x, fresh)
            assert node.buf == fresh.buf and node.kept == len(node.buf)


@pytest.mark.parametrize("B,M", [(8, 128), (16, 256), (64, 1024)])
def test_no_node_stores_more_than_cap_signals(B, M):
    # A flush moves only the fuller half, so a node flushes until its buffer
    # fits.  Flushing once left a node over cap at (8, 128), which overran its
    # arena into the next node's blocks and raised "erase lost its target record".
    wl = make_random_workload(2000, 1, universe=5000, profile="mixed")
    q, dev = make(B=B, M=M, n_hint=2000, seed=1)
    for i in range(len(wl.ops)):
        run_workload(q, dev, wl, lo=i, hi=i + 1)
        for x, node in q.nodes(peek=True):
            assert len(node.buf) <= q.cap, (i, x)


def test_refill_reads_no_child_it_wrote():
    # At T = 1 the root's children are on disk.  An extract whose refill
    # flushes the root's buffer keeps each child that flush loaded as that
    # child's refill source, so no block of it is read after it is written.
    wl = make_random_workload(4000, 5, universe=2000, profile="mixed")
    q, dev = make(B=16, M=192, n_hint=2000, seed=3)
    assert q.T == 1
    kids = {q._addr(c) + b for c in q._children(q.ROOT) for b in range(q.node_blocks)}
    refills = 0
    for i, op in enumerate(wl.ops):
        flushes = op.kind == EXTRACTMIN and not q._root.tops and bool(q._root.buf)
        start = len(dev.log)
        run_workload(q, dev, wl, lo=i, hi=i + 1)
        if flushes:
            refills += 1
            written = set()
            for rec in dev.log[start:]:
                if rec.addr in kids:
                    assert not (rec.access == READ and rec.addr in written), (i, rec.addr)
                    if rec.access == WRITE:
                        written.add(rec.addr)
    assert refills == 15


def test_delete_rejects_keys_wider_than_words():
    q, _ = make()
    for k in range(40):
        q.insert(k, 40 - k)
    for bad in (1 << 64, -1):
        with pytest.raises(EncodingError, match=f"key {bad} "):
            q.delete(bad)
    q.delete((1 << 64) - 1)  # widest key: absent, no effect
    for k in range(40, 80):
        q.insert(k, 40 - k)
    assert [q.extract_min() for _ in range(80)] == [(k, 40 - k) for k in range(79, -1, -1)]


@pytest.mark.parametrize("w", [64, 128])
def test_node_layout_pinned(w):
    # A node is [n_tops, n_sigs << 2 | bits] + (key, prio + 2^(w-1))* +
    # (kind, key, prio + 2^(w-1))*, zero-padded to whole blocks; bit i is
    # set iff leaf child i holds entries.
    # Delete and erase signals carry the word of priority 0.  A fixed mix of
    # 320 ops with fresh keys over four leaves, then forced root flushes until
    # its buffer is empty, leave all five signal kinds in the two children's
    # buffers.  At M=192 the children are on disk; at M=256 they are resident
    # (T=3), so their words come from the image, unpadded, and the same ops
    # leave the same words.  The image is those resident nodes and nothing
    # else: no operation counter.
    for M in (192, 256):
        dev = Device(DeviceConfig(B=16, M=M, w=w))
        q = TournamentQueue(dev, n_hint=40, seed=0)
        assert (q.K, q.T) == (4, 1 if M == 192 else 3)
        rng = random.Random(1)
        model: dict[int, tuple[int, list[int]]] = {}  # key -> (priority, decreases)
        live: dict[int, int] = {}
        for key in range(320):
            r = rng.random()
            if r < 0.5 or not live:
                p = rng.randrange(-1000, 1000)
                model[key] = (p, [])
                q.insert(key, p)
                live[key] = p
            elif r < 0.75:
                k = rng.choice(sorted(live))
                p = live[k] - rng.randrange(1, 2000)
                model[k][1].append(p)
                q.decrease_key(k, p)
                live[k] = p
            elif r < 0.9:
                k = rng.choice(sorted(live))
                q.delete(k)
                del live[k]
            else:
                k, _ = q.extract_min()
                del live[k]
        while q._root.buf:
            q._flush(q.ROOT, q._root)
        assert len(q.memory_image()) == sum(len(_stored_words(q, x)) for x in range(1, q.T + 1))

        bias = 1 << (w - 1)
        seen = set()
        for child in (2, 3):
            words = _stored_words(q, child)
            nt, ns, bits = words[0], words[1] >> 2, words[1] & 3
            end = 2 + 2 * nt + 3 * ns
            assert nt <= q.cap and ns <= q.cap
            assert bits == sum(1 << i for i, leaf in enumerate(q._children(child)) if dev.peek_block(q._addr(leaf))[0])
            assert len(words) == (end if child <= q.T else q.node_blocks * q.B)
            assert words[end : -(-end // q.B) * q.B] == [0] * (-end % q.B if child > q.T else 0)
            entries = [tuple(words[i : i + 2]) for i in range(2, 2 + 2 * nt, 2)]
            assert entries == sorted(entries, key=lambda e: (e[1], e[0]))
            for key, word in entries:
                p, decs = model[key]
                assert word - bias in [p] + decs
            for i in range(2 + 2 * nt, end, 3):
                kind, key, word = words[i : i + 3]
                p, decs = model[key]
                seen.add(kind)
                if kind == S_INSERT:
                    assert word == p + bias
                elif kind == S_PUSH:
                    assert word - bias in [p] + decs
                elif kind == S_DEC:
                    assert word - bias in decs
                else:
                    assert kind in (S_DEL, S_ERASE) and word == bias
        assert seen == {S_INSERT, S_DEC, S_DEL, S_ERASE, S_PUSH}


def test_run_workload_range_counts_and_catches_divergence():
    wl = make_random_workload(800, 5, universe=300, profile="mixed")
    lo, hi = 300, 600
    q, dev = make(seed=2)
    run_workload(q, dev, wl, hi=lo)
    mark = dev.probe_count
    rep = run_workload(q, dev, wl, lo=lo, hi=hi)
    assert rep.n_ops == hi - lo
    by_class = (rep.probes_insert, rep.probes_delete, rep.probes_extractmin, rep.probes_decrease)
    assert sum(by_class) == rep.probes_total == dev.probe_count - mark > 0
    assert {r.op_index for r in dev.log[mark:]} <= set(range(lo, hi))
    with pytest.raises(ValueError):
        run_workload(q, dev, wl, lo=hi, hi=len(wl.ops) + 1)

    bad = next(i for i in range(lo + 1, hi) if wl.ops[i].kind == EXTRACTMIN)
    ops = list(wl.ops)
    ops[bad] = ops[bad]._replace(priority=ops[bad].priority + 1)
    tampered = Workload(None, "random", wl.universe, wl.seed, ops)
    q, dev = make(seed=2)
    run_workload(q, dev, tampered, hi=lo)
    with pytest.raises(DivergenceError, match=rf"^op {bad} "):
        run_workload(q, dev, tampered, lo=lo, hi=hi)


def test_reinsert_after_extraction():
    q, _ = make()
    q.insert(9, 1)
    assert q.extract_min() == (9, 1)
    q.insert(9, 2)
    assert q.extract_min() == (9, 2)


def test_clear():
    q, _ = make()
    for k in range(50):
        q.insert(k, k)
    q.clear()
    with pytest.raises(EmptyQueueError):
        q.extract_min()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from("iidxe"), st.integers(0, 15), st.integers(0, 50)),
        max_size=60,
    )
)
def test_small_scripts_match_oracle(script):
    dev = Device(DeviceConfig(B=8, M=128, w=64))
    q = TournamentQueue(dev, n_hint=64, seed=2, node_blocks=3)
    ref = OracleQueue()
    for kind, k, p in script:
        if kind == "i":
            if not ref.is_live(k):
                ref.insert(k, p)
                q.insert(k, p)
        elif kind == "d":
            ref.delete(k)
            q.delete(k)
        elif kind == "x":
            if ref.is_live(k):
                ref.decrease_key(k, p)
                q.decrease_key(k, p)
        else:
            if len(ref):
                assert q.extract_min() == ref.extract_min()
    # drain and compare the full remaining order
    while len(ref):
        assert q.extract_min() == ref.extract_min()
    with pytest.raises(EmptyQueueError):
        q.extract_min()


def test_soak_decrease_heavy_tiny_buffers():
    # Repeated decreases against deep records chain move-ins and erase
    # signals; tiny buffers keep everything in flight.
    import numpy as np

    rng = np.random.default_rng(123)
    dev = Device(DeviceConfig(B=8, M=128, w=64))
    q = TournamentQueue(dev, n_hint=512, seed=7, node_blocks=3)
    ref = OracleQueue()
    live = []
    for _ in range(12000):
        r = rng.random()
        if r < 0.35 or not len(ref):
            k = int(rng.integers(0, 4000))
            if not ref.is_live(k):
                p = int(rng.integers(0, 10**6))
                ref.insert(k, p)
                q.insert(k, p)
                live.append(k)
        elif r < 0.70 and live:
            i = int(rng.integers(0, len(live)))
            k = live[i]
            if ref.is_live(k):
                p = int(rng.integers(0, 10**6))
                ref.decrease_key(k, p)
                q.decrease_key(k, p)
            else:
                live[i] = live[-1]
                live.pop()
        elif r < 0.85:
            k = int(rng.integers(0, 4000))
            ref.delete(k)
            q.delete(k)
        else:
            assert q.extract_min() == ref.extract_min()
    while len(ref):
        assert q.extract_min() == ref.extract_min()


def test_probe_envelope_mixed():
    # Regression bound with documented constant c=20; a tripwire, not a proof.
    n = 1 << 12
    B, M = 32, 512
    wl = make_random_workload(n, 3, universe=1 << 16, profile="mixed")
    dev = Device(DeviceConfig(B=B, M=M, w=64))
    run_workload(TournamentQueue(dev, n_hint=n, seed=0), dev, wl)
    bound = 20 * (n / B) * math.log2(n)
    assert dev.probe_count <= bound


def test_key_index_matches_tops():
    # Every node keeps the set of keys in its tops; check it at every store,
    # at the root after every op of a mixed run with constant flushing, and
    # at the end in every node reachable through set bits.
    wl = make_random_workload(2000, 29, universe=600, profile="mixed")
    dev = Device(DeviceConfig(B=8, M=96, w=64))
    q = TournamentQueue(dev, n_hint=256, seed=5, node_blocks=3)
    store, stored = q._write_node, set()

    def checked_store(x, node):
        assert node.keys == {k: p for p, k in node.tops}, f"node {x}"
        stored.add(x)
        store(x, node)

    q._write_node = checked_store
    for i in range(len(wl.ops)):
        run_workload(q, dev, wl, lo=i, hi=i + 1)
        assert q._root.keys == {k: p for p, k in q._root.tops}
    assert any(q._is_leaf(x) for x in stored) and any(not q._is_leaf(x) for x in stored)
    probes = dev.probe_count
    for x, node in q.nodes(peek=True):
        assert node.keys == {k: p for p, k in node.tops}, f"node {x}"
    assert dev.probe_count == probes


def test_batch_buffers_after_evicting_from_bare_child():
    # Child 2 holds five tops and nothing else, so its subtree is bare.  One
    # forced root flush then sends it nine inserts: seven fill its tops to
    # cap, the eighth overflows them and evicts a push, and the ninth,
    # above every top, must now be buffered behind that push.  Child 2 is on
    # disk at M=192 and resident at M=256.
    for M in (192, 256):
        dev = Device(DeviceConfig(B=16, M=M, w=64))
        q = TournamentQueue(dev, n_hint=40, seed=0)
        assert (q.K, q.cap, q.T) == (4, 12, 1 if M == 192 else 3)
        k = [key for key in range(100, 200) if not (key * q._mult) & (1 << 63)][:14]  # routed to child 2
        for key in range(12):
            q.insert(key, key)  # they fill the root's tops
        for key, p in zip(k, (50, 40, 30, 20, 13)):
            q.insert(key, p)  # the first evicts itself as a push, the other four are buffered
        q._flush(q.ROOT, q._root)
        for key, p in zip(k[5:], (15, 25, 35, 45, 17, 27, 37, 42, 100)):
            q.insert(key, p)  # buffered at the root
        q._flush(q.ROOT, q._root)
        assert q._root.bits == 0b01  # only child 2 holds anything

        bias = 1 << 63
        tops = [(k[4], 13), (k[5], 15), (k[9], 17), (k[3], 20), (k[6], 25), (k[10], 27), (k[2], 30),
                (k[7], 35), (k[11], 37), (k[1], 40), (k[12], 42), (k[8], 45)]
        sigs = [(S_PUSH, k[0], 50), (S_INSERT, k[13], 100)]
        want = [12, 2 << 2]  # two signals; no bit set, as nothing lies below child 2
        for key, p in tops:
            want += [key, p + bias]
        for kind, key, p in sigs:
            want += [kind, key, p + bias]
        pad = q.node_blocks * q.B - len(want) if M == 192 else 0  # disk blocks are zero-padded
        assert _stored_words(q, 2) == want + [0] * pad


@pytest.mark.parametrize("kind", ["tournament", "dk_tournament"])
@pytest.mark.parametrize("B,Ts", [(16, {192: 1, 256: 3}), (64, {512: 1, 1024: 3, 4096: 15})], ids=["B16", "B64"])
def test_resident_nodes_only_drop_their_probes(kind, B, Ts):
    # cap depends only on B and node_blocks, and K only on B and n_hint, so M
    # moves T alone.  Each run's log is the T=1 run's log without the records
    # at nodes 2..T, with the same answers; the image fits M - 2B after every
    # op; and a snapshot taken mid-run and resumed on a device copy replays the
    # tail exactly as the uninterrupted run does.
    wl = make_random_workload(6000, 13, universe=5000, profile="mixed")
    w = augmented_key_bits(wl.universe) if kind.startswith("dk_") else 64
    mid = len(wl.ops) // 2
    runs = {}
    for M, T in Ts.items():
        dev = Device(DeviceConfig(B=B, M=M, w=w))
        q = make_queue(kind, dev, n_hint=4096, seed=4)
        base = getattr(q, "base", q)
        assert base.T == T
        answers = []
        for i in range(len(wl.ops)):
            if i == mid:
                image, resumed_dev, at = q.memory_image(), dev.copy(), (len(answers), len(dev.log))
            answers += run_workload(q, dev, wl, lo=i, hi=i + 1).extractions
            assert len(base.memory_image()) <= M - 2 * B
        resumed = make_queue(kind, resumed_dev, n_hint=4096, seed=4)
        resumed.load_memory_image(image)
        assert resumed.memory_image() == image
        assert run_workload(resumed, resumed_dev, wl, lo=mid).extractions == answers[at[0]:]
        assert resumed_dev.log == dev.log[at[1]:]
        runs[M] = (base, dev.log, answers)
    _, ref_log, ref_answers = runs[min(Ts)]
    for base, log, answers in runs.values():
        resident = {base._addr(x) + b for x in range(2, base.T + 1) for b in range(base.node_blocks)}
        assert answers == ref_answers
        assert log == [r for r in ref_log if r.addr not in resident]
        assert base.T == 1 or len(log) < len(ref_log)


def _decoded(q, x):
    """Node x decoded afresh from the blocks on its device."""
    return q._node_from_words(_stored_words(q, x))


def _same_node(a, b):
    return (a.tops, a.buf, a.bits, a.keys) == (b.tops, b.buf, b.bits, b.keys)


@pytest.mark.parametrize("B,M,source", [(8, 128, "mixed"), (16, 256, "mixed"), (64, 1024, "mixed"),
                                        (16, 256, "tree")])
def test_reused_node_equals_its_decode(monkeypatch, B, M, source):
    # A node the tree wrote comes back at its next read without a decode.  On
    # every such reuse the blocks just read must decode to the same node, and
    # the half its last flush kept must still route to ``kept_to``.
    read, reuses = TournamentQueue._read_node, [0]

    def checked_read(q, x, peek=False):
        kept = q._stored.get(x)
        node = read(q, x, peek)
        if kept is not None and node is kept[0]:
            reuses[0] += 1
            assert not peek and x not in q._stored
            assert _same_node(node, _decoded(q, x)), x
            shift = 64 - x.bit_length()
            assert all(((k * q._mult) & M64) >> shift & 1 == node.kept_to for _, k, _ in node.buf[: node.kept])
        return node

    monkeypatch.setattr(TournamentQueue, "_read_node", checked_read)
    if source == "tree":
        wl = materialize(TreeParams(2, 8, 2, seed=0))
        dev = Device(DeviceConfig(B=B, M=M, w=64))
        run_workload(TournamentQueue(dev, n_hint=len(wl.ops), seed=1), dev, wl)
    else:
        for seed in range(10):  # ACCEPT-03's first ten mixed workloads
            wl = make_random_workload(10_000, 47_000 + seed, universe=4096, profile="mixed")
            dev = Device(DeviceConfig(B=B, M=M, w=64))
            run_workload(TournamentQueue(dev, n_hint=8192, seed=seed), dev, wl)
    assert reuses[0] > 0


def _flushed_to_disk():
    """A queue at T = 1 whose root has flushed, so a child it wrote is kept."""
    q, dev = make(B=16, M=192)
    assert q.T == 1
    k = 0
    while not q._stored:
        q.insert(k, 1000 - k)
        k += 1
    return q, dev


def test_a_poked_block_is_decoded_not_reused():
    q, dev = _flushed_to_disk()
    x, (node, blocks) = next(iter(q._stored.items()))
    dev.poke_block(q._addr(x), list(blocks[0]))  # equal words in a new block: decoded, equal
    got = q._read_node(x)
    assert got is not node and _same_node(got, node)
    q._write_node(x, node)
    other = q.NODE([(q._prio_bias + 7, 12345)], [(S_DEL, 99, q._prio_bias)], 1)
    words = q._node_words(other)
    dev.poke_block(q._addr(x), words + [0] * (q.B - len(words)))
    got = q._read_node(x)
    assert got is not node and _same_node(got, other) and _same_node(got, _decoded(q, x))


def test_a_peek_walk_neither_returns_nor_consumes_a_kept_node():
    q, _ = _flushed_to_disk()
    kept = dict(q._stored)
    walked = [node for _, node in q.nodes(peek=True)]
    assert len(walked) > 1
    assert not any(node is entry[0] for node in walked for entry in kept.values())
    assert q._stored == kept
    x, (node, _) = next(iter(kept.items()))
    assert q._read_node(x) is node


def test_a_read_after_an_overflow_decodes_the_device_blocks():
    # The overflowing insert reads leaf 4, the kept node, and raises before
    # writing it back; the next read must decode what the device holds.
    q, _ = make(B=8, M=128, n_hint=16)
    for k in range(216):
        q.insert(k, k)
    assert 4 in q._stored
    with pytest.raises(StructureOverflowError, match="leaf 4 overflow"):
        q.insert(216, 216)
    assert 4 not in q._stored
    got = q._read_node(4)
    assert _same_node(got, _decoded(q, 4)) and len(got.tops) <= q.leaf_cap
