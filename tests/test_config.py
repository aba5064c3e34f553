from decimal import Decimal

import pytest

from conftest import make_context
from tensortier.config import (ConfigError, Destination, DeviceConfig,
                               Direction, ExperimentConfig,
                               gbps_to_bytes_per_us, parse_bytes, parse_config,
                               with_device)
from tensortier.trace import synthesize_trace


def test_bandwidth_conversion_is_exact():
    # decimal GB/s to bytes/us must not pick up float error
    assert gbps_to_bytes_per_us(15.754) == 15754
    assert gbps_to_bytes_per_us(3.2) == 3200
    assert gbps_to_bytes_per_us(3.0) == 3000
    assert gbps_to_bytes_per_us(1) == 1000
    with pytest.raises(ConfigError):
        gbps_to_bytes_per_us(0)


def test_default_device_figures():
    dev = DeviceConfig()
    assert dev.gpu_mem_bytes == 40 * 10**9
    assert dev.host_mem_bytes == 128 * 10**9
    assert dev.ssd_capacity_bytes == 3200 * 10**9
    assert dev.ssd_read_bw == 3200
    assert dev.ssd_write_bw == 3000
    assert dev.host_bw == 15754
    assert (dev.ssd_read_latency_us, dev.ssd_write_latency_us) == (20, 16)
    assert dev.host_latency_us == 3
    assert dev.page_size_bytes == 4096
    assert dev.fault_handling_us == 45
    assert dev.fault_chunk_bytes == 2 * 1024 * 1024


def test_ssd_channel_capped_by_interconnect():
    dev = DeviceConfig()
    # media is slower than the link here, so the media rate wins
    assert dev.lane(Destination.SSD, Direction.TO_DEVICE) == (3200, 20)
    assert dev.lane(Destination.SSD, Direction.FROM_DEVICE) == (3000, 16)
    fast = DeviceConfig(ssd_read_bw=99999, ssd_write_bw=99999)
    assert fast.lane(Destination.SSD, Direction.TO_DEVICE)[0] == fast.host_bw
    assert fast.lane(Destination.SSD, Direction.FROM_DEVICE)[0] == fast.host_bw
    assert fast.lane(Destination.HOST, Direction.TO_DEVICE) == (15754, 3)
    # the replay's lanes are those constants, host then SSD, to-device
    # then from-device
    lanes = make_context(synthesize_trace(2, 4096, 4096, 10, 0), fast).lanes
    assert [spec.label for spec in lanes.values()] == [
        "host/to_device", "host/from_device", "ssd/to_device",
        "ssd/from_device"]
    for (dest, direction), spec in lanes.items():
        assert (spec.bw, spec.latency) == fast.lane(dest, direction)
        assert spec.to_device == (direction is Direction.TO_DEVICE)
    assert lanes[Destination.SSD, Direction.TO_DEVICE].bw == fast.host_bw


def test_padding():
    dev = DeviceConfig()
    assert dev.padded(1) == 4096
    assert dev.padded(4096) == 4096
    assert dev.padded(4097) == 8192


def test_parse_bytes_suffixes():
    assert parse_bytes("1024") == 1024
    assert parse_bytes("4KB") == 4000
    assert parse_bytes("64MB") == 64 * 10**6
    assert parse_bytes("40GB") == 40 * 10**9
    assert parse_bytes("3.2TB") == 3200 * 10**9
    with pytest.raises(ConfigError):
        parse_bytes("fast")


def test_parse_bytes_takes_every_exact_decimal():
    # 1.07GB was refused once: float arithmetic made it 1069999999.9999999
    assert parse_bytes("1.07GB") == 1_070_000_000
    refused = 0
    for suffix, mult in (("KB", 10**3), ("MB", 10**6), ("GB", 10**9),
                         ("TB", 10**12)):
        for places, step in ((3, 7), (4, 61)):
            for n in range(1, 50 * 10**places, step):
                text = f"{n // 10**places}.{n % 10**places:0{places}d}"
                exact = Decimal(text) * mult
                if exact == int(exact):
                    assert parse_bytes(text + suffix) == exact, text + suffix
                else:
                    refused += 1
                    with pytest.raises(ConfigError,
                                       match="not a whole number"):
                        parse_bytes(text + suffix)
    assert refused


@pytest.mark.parametrize("text", ["inf", "-inf", "nan", "infinity", "NaN"])
def test_non_finite_values_are_config_errors(text):
    with pytest.raises(ConfigError, match="not a finite number"):
        parse_bytes(text + "KB")
    with pytest.raises(ConfigError, match="not a finite number"):
        gbps_to_bytes_per_us(text)
    with pytest.raises(ConfigError, match="not a finite number"):
        gbps_to_bytes_per_us(float(text))


def test_device_validation():
    with pytest.raises(ConfigError):
        DeviceConfig(gpu_mem_bytes=0)
    with pytest.raises(ConfigError):
        DeviceConfig(ssd_read_latency_us=-1)
    with pytest.raises(ConfigError):
        DeviceConfig(page_size_bytes=4096, fault_chunk_bytes=6000)
    with pytest.raises(ConfigError):
        DeviceConfig(hp_utilization_threshold=0.0)


def test_experiment_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(policy="magic")
    with pytest.raises(ConfigError):
        ExperimentConfig(noise_pct=1.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(workers=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(sweep={"frobnication": [1]})


def test_parse_config_round_trip():
    text = (
        "# experiment\n"
        "gpu_mem_bytes = 12GB\n"
        "ssd_read_bw_gbps = 6.8   # media\n"
        "trace = runs/big.json\n"
        "policy = g10-ssd-only\n"
        "seed = 42\n"
        "noise_pct = 0.2\n"
        "eager = false\n"
        "sweep.policy = g10, base-uvm\n"
        "sweep.gpu_mem_bytes = 10GB, 20GB\n"
    )
    cfg = parse_config(text)
    assert cfg.device.gpu_mem_bytes == 12 * 10**9
    assert cfg.device.ssd_read_bw == 6800
    assert cfg.trace == "runs/big.json"
    assert (cfg.policy, cfg.seed, cfg.noise_pct, cfg.eager) == (
        "g10-ssd-only", 42, 0.2, False)
    assert cfg.sweep == {"policy": ["g10", "base-uvm"],
                         "gpu_mem_bytes": [10 * 10**9, 20 * 10**9]}


def test_parse_config_reports_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("seed = 1\nbogus = 2\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("just words\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("sweep.volume = 11\n")


def test_with_device_replaces_only_device():
    cfg = parse_config("seed = 3\n")
    out = with_device(cfg, gpu_mem_bytes=999)
    assert out.device.gpu_mem_bytes == 999
    assert out.seed == 3
    assert cfg.device.gpu_mem_bytes == DeviceConfig().gpu_mem_bytes
