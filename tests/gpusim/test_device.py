"""Tests for the simulated device configuration and accounting."""

import pytest

from repro.errors import DeviceError
from repro.gpusim.device import Device, DeviceConfig


class TestDeviceConfig:
    def test_shared_bucket_budget(self):
        cfg = DeviceConfig(shared_mem_per_block=1024, bucket_bytes=16)
        assert cfg.max_shared_buckets() == 64

    def test_block_validation(self):
        cfg = DeviceConfig()
        cfg.validate_block(128)
        cfg.validate_block(4)  # sub-warp blocks allowed
        with pytest.raises(DeviceError):
            cfg.validate_block(0)
        with pytest.raises(DeviceError):
            cfg.validate_block(cfg.max_threads_per_block + 1)
        with pytest.raises(DeviceError):
            cfg.validate_block(100)  # not a warp multiple

    def test_cycles_to_seconds(self):
        dev = Device()
        assert dev.cycles_to_seconds(dev.config.clock_hz) == pytest.approx(1.0)

    def test_reset(self):
        dev = Device()
        dev.profiler.charge("x", 5.0)
        dev.reset()
        assert dev.simulated_seconds == 0.0
