import pytest

from pqlab import BufferedHeap, Device, DeviceConfig, OracleQueue, ReducedQueue
from pqlab.dk import CTR_BITS, CTR_MASK
from pqlab.errors import ConfigError, DuplicateKeyError, EmptyQueueError
from pqlab.ops import INSERT
from pqlab.pq.base import run_workload
from pqlab.workload import insert_extract_workload, make_random_workload


BASES = pytest.mark.parametrize(
    "make_base", [lambda dev: BufferedHeap(dev, n_hint=4096), lambda dev: OracleQueue()], ids=["buffered_heap", "oracle"]
)


# An n0_min above any test's op count: the rebuild clock never fires.
NEVER = 1 << 30


def over_oracle(n0_min=16):
    return ReducedQueue(OracleQueue(), n0_min=n0_min)


def over_heap(B=16, M=192, n_hint=4096, n0_min=16):
    dev = Device(DeviceConfig(B=B, M=M, w=64))
    return ReducedQueue(BufferedHeap(dev, n_hint=n_hint), n0_min=n0_min), dev


def test_augmented_key_at_counter_zero():
    q = over_oracle(n0_min=NEVER)
    q.insert(5, 10)
    # the first operation runs at counter 0, so the base holds key 5*2^32
    (aug, p) = q.base.live_items()[0]
    assert aug == 5 << CTR_BITS and p == 10


def test_reinsert_after_extraction_updates_last_insert():
    q = over_oracle(n0_min=NEVER)
    q.insert(5, 10)
    assert q.extract_min() == (5, 10)
    q.insert(5, 8)  # legal re-insert
    assert q.is_live(5)
    assert q.extract_min() == (5, 8)


def test_duplicate_live_insert_rejected():
    q = over_oracle()
    q.insert(1, 1)
    with pytest.raises(DuplicateKeyError):
        q.insert(1, 2)


def test_decrease_then_extract_filters_stale():
    q = over_oracle(n0_min=NEVER)
    q.insert(5, 10)   # C=0
    q.decrease_key(5, 7)  # C=1
    assert q.extract_min() == (5, 7)
    assert not q.is_live(5)
    with pytest.raises(EmptyQueueError):
        q.extract_min()  # the stale (5@C0, 10) pair is discarded, queue empty
    assert q.stale_discards == 1


def test_image_holds_one_entry_per_live_key():
    # The image is 8 header words, one (key, counter) pair per live key, then the base.
    q = over_oracle(n0_min=4)
    for k in range(10):
        q.insert(k, 100 - k)
    q.extract_min()
    q.delete(3)
    q.decrease_key(77, 5)   # absent key
    q.decrease_key(5, 1)
    q.extract_min()
    assert len(q) == 7 and q.absent_decreases == 1
    assert len(q.memory_image()) == 8 + 2 * len(q) + len(q.base.memory_image())


def test_decrease_upward_is_stale():
    q = over_oracle(n0_min=NEVER)
    q.insert(5, 10)
    q.decrease_key(5, 12)  # not a decrease; becomes a stale entry
    assert q.extract_min() == (5, 10)


def test_two_decreases_min_survives():
    q = over_oracle(n0_min=NEVER)
    q.insert(5, 20)
    q.decrease_key(5, 9)
    q.decrease_key(5, 4)
    assert q.extract_min() == (5, 4)


def test_absent_decrease_logged_not_fatal():
    q = over_oracle(n0_min=NEVER)
    q.decrease_key(77, 5)
    assert q.absent_decreases == 1
    q.insert(1, 9)
    assert q.extract_min() == (1, 9)
    # the phantom (77, 5) entry was filtered, not returned
    assert q.stale_discards >= 1


def test_delete_recipe():
    q = over_oracle()
    q.insert(7, 5)
    q.delete_key(7)
    with pytest.raises(EmptyQueueError):
        q.extract_min()
    with pytest.raises(KeyError):
        q.delete_key(7)
    q.delete(7)  # tolerant form: no effect


def test_rebuild_threshold_sequence():
    # N0 starts at n0_min=16; after each rebuild N0 = max(|live|//2, 16).
    q = over_oracle(n0_min=16)
    for k in range(10):
        q.insert(k, k)
    assert q.rebuilds == 0
    for k in range(10, 16):
        q.insert(k, k)
    assert q.rebuilds == 1          # 16 ops crossed the threshold
    assert q.n0 == 16               # max(16 // 2, 16)
    for k in range(16, 32):
        q.insert(k, k)
    assert q.rebuilds == 2          # 16 further ops
    assert q.n0 == max(32 // 2, 16) == 16
    for k in range(32, 48):
        q.insert(k, k)
    assert q.rebuilds == 3
    assert q.n0 == max(48 // 2, 16) == 24


def test_rebuild_n0_formula_large():
    q = over_oracle(n0_min=16)
    for k in range(100):
        q.insert(k, k)
    # rebuilds happened; force one more manually and check the formula
    q.rebuild()
    assert q.n0 == max(len(q) // 2, 16) == 50


def test_rebuild_of_empty_queue():
    q = over_oracle(n0_min=16)
    q.rebuild()
    assert q.n0 == 16
    assert q.rebuilds == 1


def test_rebuild_checks_the_counter_limit():
    # The rebuild re-inserts through insert's bookkeeping, so a counter that
    # runs out mid-rebuild raises there, not one op later in extract_min.
    # The decrease leaves a stale entry, so the rebuild does re-insert.
    q = over_oracle(n0_min=4)
    q.insert(0, 0)
    q.insert(1, 1)
    q.decrease_key(0, -1)
    img = q.memory_image()
    q.load_memory_image([CTR_MASK - 1] + img[1:])
    with pytest.raises(ConfigError, match="32-bit"):
        q.insert(10, 10)
    assert q.rebuilds == 0


def test_post_rebuild_equals_fresh_queue():
    q = over_oracle(n0_min=NEVER)
    pairs = [(k, 97 * k % 31) for k in range(20)]
    for k, p in pairs:
        q.insert(k, p)
    q.decrease_key(3, -5)
    q.rebuild()
    fresh = over_oracle(n0_min=NEVER)
    for k, p in sorted(pairs, key=lambda kp: (kp[1], kp[0])):
        fresh.insert(k, min(p, -5) if k == 3 else p)
    got = [q.extract_min() for _ in range(20)]
    want = [fresh.extract_min() for _ in range(20)]
    assert got == want


@pytest.mark.parametrize("seed", range(8))
def test_matches_native_decrease_oracle(seed):
    wl = make_random_workload(2000, 100 + seed, universe=300, profile="mixed")
    q, dev = over_heap()
    run_workload(q, dev, wl)


def test_rebuild_off_also_matches():
    wl = make_random_workload(1500, 5, universe=200, profile="delete_heavy")
    dev = Device(DeviceConfig(B=16, M=192, w=64))
    q = ReducedQueue(BufferedHeap(dev, n_hint=4096), n0_min=NEVER)
    run_workload(q, dev, wl)
    assert q.rebuilds == 0


def test_discard_conservation():
    # Every pair ever pushed into the base is returned, discarded, or still
    # inside: discards = created - returned - remaining.
    wl = make_random_workload(1200, 9, universe=150, profile="mixed")
    q = over_oracle(n0_min=NEVER)
    created = returned = 0
    from pqlab.ops import DECREASE, DELETE, EXTRACTMIN, INSERT

    for op in wl.ops:
        if op.kind == INSERT:
            q.insert(op.key, op.priority)
            created += 1
        elif op.kind == DECREASE:
            q.decrease_key(op.key, op.priority)
            created += 1
        elif op.kind == DELETE:
            was_live = q.is_live(op.key)
            q.delete(op.key)
            if was_live:
                created += 1  # the sentinel decrease inserts one more pair
                returned += 1
        else:
            q.extract_min()
            returned += 1
    assert q.stale_discards == created - returned - len(q.base._live)


def test_size_bound_without_rebuild():
    q = over_oracle(n0_min=NEVER)
    n_ops = 0
    for k in range(64):
        q.insert(k, k)
        n_ops += 1
    for k in range(64):
        q.decrease_key(k, -k)
        n_ops += 1
    assert len(q.base._live) <= n_ops


def test_size_bound_with_rebuilds():
    # base size never exceeds (ops since last rebuild) + (live at that rebuild)
    q = over_oracle(n0_min=16)
    live_at_rebuild = 0
    seen_rebuilds = 0
    wl = make_random_workload(800, 77, universe=120, profile="mixed")
    from pqlab.ops import DECREASE, DELETE, EXTRACTMIN, INSERT

    for op in wl.ops:
        if op.kind == INSERT:
            q.insert(op.key, op.priority)
        elif op.kind == DELETE:
            q.delete(op.key)
        elif op.kind == DECREASE:
            q.decrease_key(op.key, op.priority)
        else:
            q.extract_min()
        if q.rebuilds != seen_rebuilds:
            seen_rebuilds = q.rebuilds
            live_at_rebuild = len(q)
        # +1: live is sampled after the op completes, so a rebuild firing
        # mid-delete can be off by one extraction
        assert len(q.base._live) <= q._ops_since + live_at_rebuild + 1


def test_report_stats_row():
    q = over_oracle()
    q.insert(1, 1)
    q.decrease_key(1, 0)
    stats = q.report_stats()
    assert stats["base"] == "oracle"
    assert stats["ops"] == 2 and stats["live"] == 1


def test_wrapper_key_width_guard():
    dev = Device(DeviceConfig(B=16, M=192, w=40))
    q = ReducedQueue(BufferedHeap(dev, n_hint=256))
    with pytest.raises(Exception):
        q.insert(1 << 20, 0)  # 20 bits of key + 32 counter bits > 40


@BASES
def test_snapshot_roundtrip(make_base):
    wl = make_random_workload(600, 3, universe=200, profile="mixed")
    dev = Device(DeviceConfig(B=16, M=192, w=64))
    q = ReducedQueue(make_base(dev), n0_min=16)
    half = len(wl.ops) // 2
    run_workload(q, dev, wl, hi=half)
    img = q.memory_image()
    dev2 = dev.copy()
    q2 = ReducedQueue(make_base(dev2), n0_min=16)
    q2.load_memory_image(img)
    assert q2.memory_image() == img
    tail1 = run_workload(q, dev, wl, lo=half).extractions
    tail2 = run_workload(q2, dev2, wl, lo=half).extractions
    assert tail1 == tail2


@pytest.mark.parametrize("profile", ["mixed", "delete_heavy"])
@BASES
def test_stale_count_tracks_the_base(make_base, profile):
    # Every base entry is either a live key's current entry or counted stale.
    wl = make_random_workload(1500, 11, universe=200, profile=profile)
    dev = Device(DeviceConfig(B=16, M=192, w=64))
    q = ReducedQueue(make_base(dev), n0_min=16)
    most_stale = 0
    for i in range(len(wl.ops)):
        run_workload(q, dev, wl, lo=i, hi=i + 1)
        assert len(q.base) == len(q) + q._stale
        most_stale = max(most_stale, q._stale)
    assert q.rebuilds > 0 and most_stale > 0 and q.report_stats()["stale"] == q._stale


def test_rebuild_without_stale_entries_costs_nothing():
    # Insert/ExtractMin traffic never leaves a stale entry, so rebuilding
    # must not change the probe log or spend counter values.
    wl = insert_extract_workload(range(600), [(k * 7919) % 200 for k in range(600)], 600, 0)
    logs, stats = [], []
    for n0_min in (16, NEVER):
        dev = Device(DeviceConfig(B=16, M=192, w=64))
        q = ReducedQueue(BufferedHeap(dev, n_hint=4096), n0_min=n0_min)
        run_workload(q, dev, wl)
        logs.append([(r.addr, r.access) for r in dev.log])
        stats.append(q.report_stats())
    assert stats[0]["rebuilds"] > 0 and stats[1]["rebuilds"] == 0
    assert stats[0]["ops"] == stats[1]["ops"] == len(wl.ops)
    assert logs[0] == logs[1]


def test_resume_just_before_a_purging_rebuild():
    # The stale count is part of the image: a replica resumed one insert
    # before a rebuild must purge exactly when the original does.
    wl = make_random_workload(1200, 4, universe=200, profile="mixed")
    dev = Device(DeviceConfig(B=16, M=192, w=64))
    q = ReducedQueue(BufferedHeap(dev, n_hint=4096), n0_min=16)
    at = 0
    while not (q._stale > 0 and q._ops_since == q.n0 - 1 and wl.ops[at].kind == INSERT):
        run_workload(q, dev, wl, lo=at, hi=at + 1)
        at += 1
    dev2 = dev.copy()
    q2 = ReducedQueue(BufferedHeap(dev2, n_hint=4096), n0_min=16)
    q2.load_memory_image(q.memory_image())
    mark, rebuilds = dev.probe_count, q.rebuilds
    run_workload(q, dev, wl, lo=at, hi=at + 1)
    assert q.rebuilds == rebuilds + 1 and q._stale == 0
    run_workload(q, dev, wl, lo=at + 1)
    run_workload(q2, dev2, wl, lo=at)
    assert [(r.addr, r.access) for r in dev.log[mark:]] == [(r.addr, r.access) for r in dev2.log]
