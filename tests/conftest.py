import pytest

from pqlab import Device, DeviceConfig


def small_device(B=16, M=256, w=64) -> Device:
    return Device(DeviceConfig(B=B, M=M, w=w))


@pytest.fixture
def device():
    return small_device()
