import pytest
from hypothesis import given, settings, strategies as st

from pqlab import Device, DeviceConfig, ProbeRecord
from pqlab.errors import AddressError, BlockSizeError, ConfigError


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


def test_context_tagging(device):
    device.set_context(5, 12)
    device.read_block(0)
    device.write_block(3, (0,) * 16)
    assert all(type(r) is ProbeRecord for r in device.log)
    assert [r._asdict() for r in device.log] == [
        {"op_index": 5, "leaf_id": 12, "addr": 0, "access": "read"},
        {"op_index": 5, "leaf_id": 12, "addr": 3, "access": "write"},
    ]
    device.set_context(None, None)
    device.read_block(0)
    assert device.log[-1].leaf_id is None


def test_context_partitions_at_change(device):
    device.set_context(0, 1)
    for _ in range(3):
        device.read_block(0)
    device.set_context(1, 2)
    for _ in range(2):
        device.read_block(0)
    leaves = [r.leaf_id for r in device.log]
    assert leaves == [1, 1, 1, 2, 2]


def test_determinism():
    def run():
        d = Device(DeviceConfig(B=4, M=8, w=32))
        d.set_context(0, 0)
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
