"""Each node's child bits, and the resident memory they replaced.

A node's bit i is set iff child i's subtree holds an entry or a buffered
item; a child whose bit is clear is never read.  The walk below is
``BufferedTree.nodes(peek=True)``, which follows set bits only and makes no probe:
every set bit must lead to a child that holds something, and every record
the queue still owes must be reachable that way.
"""

import pytest

from pqlab import BufferedHeap, Device, DeviceConfig, OracleQueue, ReducedQueue, TournamentQueue
from pqlab.dk import augmented_key_bits
from pqlab.pq.base import run_workload
from pqlab.pq.tournament import S_INSERT, S_PUSH
from pqlab.workload import make_random_workload


def _records(q) -> list:
    """Every record reachable from the root through set bits, checking each bit on the way."""
    before = len(q.device.log)
    records = []
    for x, node in q.nodes(peek=True):
        assert x == q.ROOT or node.holds(), f"a set bit leads to node {x}, whose subtree is empty"
        records += node.tops
        if isinstance(q, BufferedHeap):
            records += node.buf
        else:
            records += [(p, key) for kind, key, p in node.buf if kind in (S_INSERT, S_PUSH)]
        if q._is_leaf(x):
            assert node.bits == 0, x
        else:
            assert 0 <= node.bits < 1 << len(q._children(x)), x
    assert len(q.device.log) == before  # the walk made no probe
    return records


def _check(queue, oracle) -> None:
    """The records behind set bits cover every entry the queue holds."""
    if isinstance(queue, ReducedQueue):
        assert len(_records(queue.base)) == len(queue) + queue.report_stats()["stale"]
    elif isinstance(queue, BufferedHeap):
        assert len(_records(queue)) == len(queue)
    else:  # a decrease or delete may still be on its way to an older copy, so compare keys
        assert {key for _, key in _records(queue)} >= {key for key, _ in oracle.live_items()}


def _make(kind, dev, n_hint):
    if kind.endswith("heap"):
        base = BufferedHeap(dev, n_hint=n_hint)
    else:
        base = TournamentQueue(dev, n_hint=n_hint, seed=3)
    return ReducedQueue(base, n0_min=16) if kind.startswith("dk_") else base


@pytest.mark.parametrize("B,M", [(8, 128), (16, 192)])
@pytest.mark.parametrize("kind", ["tournament", "dk_tournament", "buffered_heap", "dk_buffered_heap"])
def test_child_bits_match_subtrees(kind, B, M):
    profile = "insert_extract" if kind == "buffered_heap" else "mixed"
    wl = make_random_workload(3000, 11, universe=800, profile=profile)
    w = augmented_key_bits(wl.universe) if kind.startswith("dk_") else 64
    dev = Device(DeviceConfig(B=B, M=M, w=w))
    q, oracle, oracle_dev = _make(kind, dev, 1024), OracleQueue(), Device(DeviceConfig(B=B, M=M, w=w))
    half = len(wl.ops) // 2
    for lo in range(0, half, 50):
        run_workload(q, dev, wl, lo=lo, hi=lo + 50)
        run_workload(oracle, oracle_dev, wl, lo=lo, hi=lo + 50)
        _check(q, oracle)
    # Resume from a snapshot on a copy of the device and check the same bits there.
    dev = dev.copy()
    resumed = _make(kind, dev, 1024)
    resumed.load_memory_image(q.memory_image())
    _check(resumed, oracle)
    for lo in range(half, len(wl.ops), 50):
        run_workload(resumed, dev, wl, lo=lo, hi=min(lo + 50, len(wl.ops)))
        run_workload(oracle, oracle_dev, wl, lo=lo, hi=min(lo + 50, len(wl.ops)))
        _check(resumed, oracle)
    # clear() zeroes the root's bits: no node written before it is reachable.
    resumed.clear()
    oracle.clear()
    _check(resumed, oracle)
    for key in range(300):
        resumed.insert(key, (key * 37) % 101)
        oracle.insert(key, (key * 37) % 101)
    _check(resumed, oracle)
    assert [resumed.extract_min() for _ in range(300)] == [oracle.extract_min() for _ in range(300)]
    _check(resumed, oracle)


@pytest.mark.parametrize("cls", [BufferedHeap, TournamentQueue])
@pytest.mark.parametrize("B,M,n_hint", [(64, 1024, 1 << 10), (64, 1024, 1 << 16), (64, 1024, 1 << 20),
                                        (16, 256, 1 << 10), (16, 256, 1 << 16)])
def test_empty_image_is_seq_and_root_header_at_every_n_hint(cls, B, M, n_hint):
    # Every resident node is empty: the heap keeps its root, the tournament nodes 1..3.
    # The image holds no operation counter, only the resident nodes' zero headers.
    q = cls(Device(DeviceConfig(B=B, M=M, w=64)), n_hint=n_hint)
    assert q.T == (3 if cls is TournamentQueue else 1)
    assert q.memory_image() == [0] * (q.T * cls.ROOT_HEADER)


def test_tournament_builds_for_the_paper_tree_at_2_12_4():
    # The paper's (beta, h, m) = (2, 12, 4) tree replays 589,824 ops.
    q = TournamentQueue(Device(DeviceConfig(B=64, M=1024, w=64)), n_hint=589_824)
    assert q.memory_image() == [0, 0] * 3  # nodes 1, 2 and 3

