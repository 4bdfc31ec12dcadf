"""Both trees' arenas tile the disk from block 0 and hold their largest nodes.

For each node id from the root on, the largest node its codec can write (an
internal node with full tops and a full buffer, a leaf with its full
capacity) must touch exactly the blocks [_addr(x), _addr(x + 1)): none
outside, so arenas do not overlap, and every one inside, so no arena leaves a
gap.  The first arena starts at block 0 and the block after the last one is
below 2^w.
"""

import pytest

from pqlab import BufferedHeap, Device, DeviceConfig, TournamentQueue
from pqlab.errors import ConfigError
from pqlab.pq.tournament import S_INSERT


def _ids(q):
    """Every node id, walked from the root through the children of internal nodes."""
    ids, frontier = [], [q.ROOT]
    while frontier:
        ids += frontier
        frontier = [c for x in frontier if not q._is_leaf(x) for c in q._children(x)]
    return sorted(ids)


def _largest(q, x):
    top = (1 << q.w) - 1
    if q._is_leaf(x):
        n_tops = q.leaf_cap if isinstance(q, TournamentQueue) else q.leaf_tops_cap
        return q.NODE([(top, k) for k in range(n_tops)], [])
    tops = [(top, k) for k in range(q.cap)]
    if isinstance(q, TournamentQueue):
        buf = [(S_INSERT, q.cap + k, top) for k in range(q.cap)]
    else:
        buf = [(top, q.cap + k) for k in range(q.cap)]
    return q.NODE(tops, buf, bits=(1 << len(q._children(x))) - 1)


def _check_arenas(q):
    ids = _ids(q)
    assert ids == list(range(q.ROOT, q.ROOT + len(ids)))
    assert q._addr(q.ROOT) == 0
    assert q._addr(q.ROOT + len(ids)) < 1 << q.w
    q.T = 0  # write the resident ids through the disk codec too
    log = q.device.log
    for x in ids:
        start = len(log)
        q._write_node(x, _largest(q, x))
        assert {rec.addr for rec in log[start:]} == set(range(q._addr(x), q._addr(x + 1))), x


@pytest.mark.parametrize("B,M", [(8, 128), (9, 144), (16, 256), (64, 1024)])
def test_heap_arenas_tile_and_fit(B, M):
    _check_arenas(BufferedHeap(Device(DeviceConfig(B=B, M=M, w=64)), n_hint=4096))


@pytest.mark.parametrize("node_blocks", [3, 4])
@pytest.mark.parametrize("B", [8, 16, 64])
def test_tournament_arenas_tile_and_fit(B, node_blocks):
    dev = Device(DeviceConfig(B=B, M=16 * B, w=64))
    _check_arenas(TournamentQueue(dev, n_hint=4096, node_blocks=node_blocks))


@pytest.mark.parametrize("make", [
    lambda dev: BufferedHeap(dev, n_hint=1 << 14),
    lambda dev: TournamentQueue(dev, n_hint=1 << 14),
])
def test_arena_wider_than_the_address_space_is_rejected(make):
    # 8-bit words fit every node header at B=64, M=1024, but not the arena's addresses.
    with pytest.raises(ConfigError, match="8-bit words too narrow to address"):
        make(Device(DeviceConfig(B=64, M=1024, w=8)))
