"""The one block-I/O site of both buffered trees.

``BufferedTree._load``/``_store`` are the only callers of the device's
``read_block``, ``write_block`` and ``peek_block`` in ``pq/`` (``pq/base.py``
module docstring), and ``nodes(peek=True)``, which reads through
``peek_block``, decodes the same nodes as the probed walk.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

from pqlab import BufferedHeap, Device, DeviceConfig
from pqlab.cli import make_queue
from pqlab.dk import augmented_key_bits
from pqlab.pq.base import run_workload
from pqlab.workload import make_random_workload


class CallerDevice(Device):
    """A device that counts each block access by the file and function that made it."""

    def __init__(self, config):
        super().__init__(config)
        self.callers = Counter()

    def _record(self, access):
        code = sys._getframe(2).f_code
        self.callers[access, Path(code.co_filename).name, code.co_name] += 1

    def read_block(self, addr):
        self._record("read")
        return super().read_block(addr)

    def write_block(self, addr, block):
        self._record("write")
        super().write_block(addr, block)

    def peek_block(self, addr):
        self._record("peek")
        return super().peek_block(addr)


def _workload(kind, B):
    profile = "insert_extract" if kind == "buffered_heap" else "mixed"
    wl = make_random_workload(3000, B, universe=1000, profile=profile)
    return wl, max(64, augmented_key_bits(wl.universe)) if kind.startswith("dk_") else 64


@pytest.mark.parametrize("kind,B", [("tournament", 8), ("dk_tournament", 8), ("buffered_heap", 8),
                                    ("dk_buffered_heap", 8), ("buffered_heap", 9)])
def test_load_and_store_are_the_only_block_callers(kind, B):
    """A replay and a peek walk reach the device only from ``_load``/``_store``;
    at B=9 the heap's cursor decodes heads that straddle two blocks
    (``test_odd_blocks_decode_straddling_entries``)."""
    wl, w = _workload(kind, B)
    dev = CallerDevice(DeviceConfig(B=B, M=128, w=w))
    queue = make_queue(kind, dev, n_hint=3000, seed=0)
    run_workload(queue, dev, wl)
    assert sum(1 for _ in getattr(queue, "base", queue).nodes(peek=True)) > 1
    assert {access for access, _, _ in dev.callers} == {"read", "write", "peek"}
    assert {(file, name) for _, file, name in dev.callers} <= {("base.py", "_load"), ("base.py", "_store")}


def _fields(walk):
    return [(x, node.tops, node.buf, node.rr, node.bits) for x, node in walk]


@pytest.mark.parametrize("kind,B", [("tournament", 8), ("buffered_heap", 8), ("buffered_heap", 9)])
def test_peek_walk_decodes_what_the_probed_walk_reads(kind, B):
    """``nodes(peek=True)`` decodes, at no probe, the nodes that ``nodes()`` reads
    with probes on a copy of the device, field by field; the heap's replay
    leaves a header whose tops a refill consumed in part (``tops_offset > 0``),
    so the peek reads the spans that header names, not the arena from word 0."""
    wl, w = _workload(kind, B)
    dev = Device(DeviceConfig(B=B, M=128, w=w))
    queue = make_queue(kind, dev, n_hint=3000, seed=0)
    run_workload(queue, dev, wl)
    probes = dev.probe_count
    peeked = _fields(queue.nodes(peek=True))
    assert dev.probe_count == probes
    copy = dev.copy()
    resumed = make_queue(kind, copy, n_hint=3000, seed=0)
    resumed.load_memory_image(queue.memory_image())
    assert _fields(resumed.nodes()) == peeked
    assert copy.probe_count > 0 and len(peeked) > 1
    if isinstance(queue, BufferedHeap):
        assert any(dev.peek_block(queue._addr(x))[3] > 0 for x, *_ in peeked if x != queue.ROOT)
