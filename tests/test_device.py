import pytest
from hypothesis import given, settings, strategies as st

from pqlab import Device, DeviceConfig, ProbeRecord
from pqlab.errors import AddressError, BlockSizeError, ConfigError, DivergenceError
from pqlab.ops import DECREASE, DELETE, EXTRACTMIN, INSERT, Op
from pqlab.pq.base import PriorityQueueBase, run_workload
from pqlab.workload import Workload


def test_config_examples():
    assert Device(DeviceConfig(B=1, M=2, w=16)).probe_count == 0
    Device(DeviceConfig(B=64, M=1024, w=32))
    with pytest.raises(ConfigError):
        DeviceConfig(B=64, M=64, w=32)


@pytest.mark.parametrize("bad", [dict(B=0, M=2, w=8), dict(B=1, M=0, w=8), dict(B=1, M=2, w=0)])
def test_config_rejects_zero(bad):
    with pytest.raises(ConfigError):
        DeviceConfig(**bad)


def test_unwritten_reads_zero(device):
    assert device.read_block(7) == (0,) * 16
    assert device.probe_count == 1


def test_read_your_writes(device):
    block = tuple(range(16))
    device.write_block(3, block)
    assert device.read_block(3) == block


def test_last_writer_wins(device):
    device.write_block(5, (1,) * 16)
    device.write_block(5, (2,) * 16)
    assert device.read_block(5) == (2,) * 16


def test_no_caching_every_read_counts(device):
    device.write_block(9, (4,) * 16)
    for _ in range(100):
        device.read_block(9)
    reads = [r for r in device.log if r.access == "read"]
    assert len(reads) == 100


def test_interleaved_writes_log_in_order(device):
    for addr in (1, 2, 1):
        device.write_block(addr, (0,) * 16)
    assert [(r.addr, r.access) for r in device.log] == [(1, "write"), (2, "write"), (1, "write")]


def test_probe_count_additivity(device):
    for i in range(3):
        device.read_block(i)
    for i in range(2):
        device.write_block(i, (0,) * 16)
    assert device.probe_count == 5 == len(device.log)


def test_address_range(device):
    for addr in (-1, 1 << 64):
        with pytest.raises(AddressError, match=f"address {addr} "):
            device.read_block(addr)
        with pytest.raises(AddressError, match=f"address {addr} "):
            device.write_block(addr, (0,) * 16)
    assert device.probe_count == 0 and device.log == []


def test_block_size_enforced(device):
    with pytest.raises(BlockSizeError):
        device.write_block(0, (1, 2, 3))
    with pytest.raises(BlockSizeError, match=f"word {1 << 64} "):
        device.write_block(0, (1 << 64,) + (0,) * 15)
    with pytest.raises(BlockSizeError, match="word -1 "):
        device.write_block(0, (0,) * 15 + (-1,))
    assert device.probe_count == 0


def test_poke_checks_words_like_write(device):
    device.poke_block(0, (7,) * 16)
    with pytest.raises(BlockSizeError, match=f"word {1 << 64} "):
        device.poke_block(0, [1 << 64] + [0] * 15)
    with pytest.raises(BlockSizeError, match="word -1 "):
        device.poke_block(0, (0,) * 15 + (-1,))
    with pytest.raises(BlockSizeError, match="3 words"):
        device.poke_block(0, (1, 2, 3))
    assert device.peek_block(0) == (7,) * 16
    assert device.probe_count == 0


class _Prober(PriorityQueueBase):
    """A queue whose probes are known: ``insert(key, n)`` reads block ``key`` n times,
    ``extract_min`` writes block 0 once and returns ``(0, 0)``, ``delete`` never probes,
    and ``decrease_key`` reads block 1 and raises."""

    name = "prober"
    supports_decrease_key = supports_delete = True

    def __init__(self, device):
        self.device = device

    def insert(self, key, priority):
        for _ in range(priority):
            self.device.read_block(key)

    def extract_min(self):
        self.device.write_block(0, (0,) * self.device.config.B)
        return 0, 0

    def delete(self, key):
        pass

    def decrease_key(self, key, priority):
        self.device.read_block(1)
        raise RuntimeError("decrease_key after a probe")


def _stamped(ops, lo=0, hi=None):
    device = Device(DeviceConfig(B=16, M=256, w=64))
    run_workload(_Prober(device), device, Workload(None, "random", 16, 0, ops), lo=lo, hi=hi)
    return device.log


def test_context_tagging():
    # run_workload stamps each op's records with its index and leaf; no leaf reads as None.
    log = _stamped([Op(DELETE, 1, 0, 3), Op(INSERT, 4, 1, 12), Op(EXTRACTMIN, 0, 0, None)])
    assert all(type(r) is ProbeRecord for r in log)
    assert [r._asdict() for r in log] == [
        {"op_index": 1, "leaf_id": 12, "addr": 4, "access": "read"},
        {"op_index": 2, "leaf_id": None, "addr": 0, "access": "write"},
    ]


def test_context_partitions_at_change():
    log = _stamped([Op(INSERT, 0, 3, 1), Op(INSERT, 0, 2, 2)])
    assert [(r.op_index, r.leaf_id) for r in log] == [(0, 1)] * 3 + [(1, 2)] * 2


def test_resumed_range_carries_absolute_indices():
    ops = [Op(INSERT, k, 1, 10 + k) for k in range(5)]
    assert [(r.op_index, r.leaf_id, r.addr) for r in _stamped(ops, lo=2, hi=4)] == [(2, 12, 2), (3, 13, 3)]


def test_the_op_that_raises_is_stamped(device):
    queue = _Prober(device)
    # An ExtractMin whose answer diverges from the transcript, after its write.
    with pytest.raises(DivergenceError, match=r"op 1 \(leaf 7\)"):
        run_workload(queue, device, Workload(None, "random", 16, 0, [Op(INSERT, 2, 1, 5), Op(EXTRACTMIN, 3, 3, 7)]))
    # A queue op that raises after its probe.
    with pytest.raises(RuntimeError):
        run_workload(queue, device, Workload(None, "random", 16, 0, [Op(DELETE, 1, 0, 2), Op(DECREASE, 1, 0, 9)]))
    assert [(r.op_index, r.leaf_id, r.addr) for r in device.log] == [(0, 5, 2), (1, 7, 0), (1, 9, 1)]


def test_probe_outside_run_workload_is_untagged(device):
    device.read_block(0)
    run_workload(_Prober(device), device, Workload(None, "random", 16, 0, [Op(INSERT, 3, 1, 4)]))
    device.write_block(5, (0,) * 16)
    assert [(r.op_index, r.leaf_id) for r in device.log] == [(None, None), (0, 4), (None, None)]


def test_determinism():
    def run():
        d = Device(DeviceConfig(B=4, M=8, w=32))
        d.write_block(1, (9, 8, 7, 6))
        d.read_block(1)
        d.read_block(2)
        return d.log, d.peek_block(1)

    assert run() == run()


def test_copy_is_unlogged_and_independent(device):
    device.write_block(1, (3,) * 16)
    dup = device.copy()
    assert dup.probe_count == 0
    assert dup.peek_block(1) == (3,) * 16
    dup.poke_block(1, (4,) * 16)
    assert device.peek_block(1) == (3,) * 16
    assert device.probe_count == 1  # peek/poke never log


@settings(max_examples=50)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 31)), max_size=60))
def test_conservation_and_replay(script):
    d1 = Device(DeviceConfig(B=2, M=4, w=16))
    d2 = Device(DeviceConfig(B=2, M=4, w=16))
    for d in (d1, d2):
        for is_write, addr in script:
            if is_write:
                d.write_block(addr, (addr, addr + 1))
            else:
                d.read_block(addr)
    assert d1.probe_count == len(script) == len(d1.log)
    assert d1.log == d2.log
    # read-your-writes per address
    last = {}
    for is_write, addr in script:
        if is_write:
            last[addr] = (addr, addr + 1)
    for addr, blk in last.items():
        assert d1.peek_block(addr) == blk
