"""Device and experiment configuration.

Bandwidths are stored as integer bytes per microsecond; config files give
them in GB/s and they are floored on conversion (1 GB = 10^9 bytes). Byte
quantities accept KB/MB/GB/TB suffixes as 10^3 multiples. Both are parsed
as exact decimals; a value that is not a finite number is a ConfigError.

The device has two off-GPU tiers (Destination), each linked to the GPU by
two lanes, one per Direction. DeviceConfig.lane gives a lane's bandwidth
and latency; the planner and the replay read no other lane constants.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from decimal import Context, Decimal


class ConfigError(ValueError):
    """Bad key, value, or file in a configuration."""


class Destination(enum.Enum):
    """An off-GPU tier: where an eviction goes and a prefetch comes from."""

    SSD = "ssd"
    HOST = "host"


class Direction(enum.Enum):
    TO_DEVICE = "to_device"
    FROM_DEVICE = "from_device"


def _scaled(text, scale: int) -> Decimal:
    """The decimal number text (a string or a number) times scale, exactly;
    a ConfigError unless that is a finite number."""
    # exact for up to 100 significant digits; nothing traps, so a bad
    # literal gives NaN and an overflow infinity
    exact = Context(prec=100, traps=[])
    value = exact.multiply(exact.create_decimal(str(text).strip()), scale)
    if not value.is_finite():
        raise ConfigError(f"{text!r} is not a finite number")
    return value


def gbps_to_bytes_per_us(gbps) -> int:
    """Floor GB/s (decimal, 1 GB = 10^9 B) to whole bytes per microsecond."""
    value = _scaled(gbps, 1000)
    if value <= 0:
        raise ConfigError(f"bandwidth must be positive, got {gbps}")
    return int(value)


def transfer_us(nbytes: int, bw: int, latency_us: int) -> int:
    """Latency plus ceil(nbytes / bw), in whole microseconds: the one
    transfer-time rule the planner and the replay share."""
    return latency_us + -(-nbytes // bw)


@dataclass(frozen=True)
class DeviceConfig:
    gpu_mem_bytes: int = 40 * 10**9
    host_mem_bytes: int = 128 * 10**9
    ssd_capacity_bytes: int = 3_200 * 10**9
    ssd_read_bw: int = gbps_to_bytes_per_us(3.2)    # SSD -> GPU, bytes/us
    ssd_write_bw: int = gbps_to_bytes_per_us(3.0)   # GPU -> SSD
    ssd_read_latency_us: int = 20
    ssd_write_latency_us: int = 16
    host_bw: int = gbps_to_bytes_per_us(15.754)     # PCIe, both directions
    host_latency_us: int = 3
    page_size_bytes: int = 4096
    fault_handling_us: int = 45
    fault_chunk_bytes: int = 2 * 1024 * 1024
    num_iterations: int = 1
    hp_utilization_threshold: float = 0.90

    def __post_init__(self):
        for name in ("gpu_mem_bytes", "host_mem_bytes", "ssd_capacity_bytes",
                     "ssd_read_bw", "ssd_write_bw", "host_bw",
                     "page_size_bytes", "fault_chunk_bytes", "num_iterations"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("ssd_read_latency_us", "ssd_write_latency_us",
                     "host_latency_us", "fault_handling_us"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if self.fault_chunk_bytes % self.page_size_bytes:
            raise ConfigError("fault_chunk_bytes must be a multiple of page_size_bytes")
        if not 0.0 < self.hp_utilization_threshold <= 1.0:
            raise ConfigError("hp_utilization_threshold must be in (0, 1]")

    def lane(self, dest: Destination, direction: Direction) -> tuple[int, int]:
        """(bytes/us, latency us) of the lane between the GPU and dest."""
        if dest is Destination.HOST:
            return self.host_bw, self.host_latency_us
        # the SSD path rides the same interconnect, so each direction is
        # capped by both the media and the link
        if direction is Direction.TO_DEVICE:
            return (min(self.ssd_read_bw, self.host_bw),
                    self.ssd_read_latency_us)
        return min(self.ssd_write_bw, self.host_bw), self.ssd_write_latency_us

    def padded(self, size_bytes: int) -> int:
        """Round a tensor size up to whole pages."""
        page = self.page_size_bytes
        return (size_bytes + page - 1) // page * page


POLICY_NAMES = ("ideal", "base-uvm", "deepum-like", "flashneuron-like",
                "g10", "g10-ssd-only")


@dataclass
class ExperimentConfig:
    device: DeviceConfig = field(default_factory=DeviceConfig)
    policy: str = "g10"
    trace: str = ""
    seed: int = 0
    noise_pct: float = 0.0
    eager: bool = True
    workers: int = 1
    sweep: dict[str, list] = field(default_factory=dict)

    def __post_init__(self):
        if self.policy not in POLICY_NAMES:
            raise ConfigError(f"unknown policy {self.policy!r} (one of {', '.join(POLICY_NAMES)})")
        if not 0.0 <= self.noise_pct < 1.0:
            raise ConfigError("noise_pct must be in [0, 1)")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        for axis in self.sweep:
            if axis not in _SWEEP_AXES:
                raise ConfigError(f"unknown sweep axis {axis!r} (one of {', '.join(_SWEEP_AXES)})")


_SUFFIXES = {"KB": 10**3, "MB": 10**6, "GB": 10**9, "TB": 10**12}


def parse_bytes(text: str) -> int:
    """Parse a byte count, accepting decimal KB/MB/GB/TB suffixes."""
    text = text.strip()
    for suffix, mult in _SUFFIXES.items():
        if text.upper().endswith(suffix):
            value = _scaled(text[: -len(suffix)], mult)
            if value != int(value):
                raise ConfigError(f"{text!r} is not a whole number of bytes")
            return int(value)
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"bad byte quantity {text!r}") from None


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ConfigError(f"bad boolean {text!r}")


# config key -> (target field, parser); gbps keys convert into bytes/us fields
_DEVICE_KEYS = {
    "gpu_mem_bytes": ("gpu_mem_bytes", parse_bytes),
    "host_mem_bytes": ("host_mem_bytes", parse_bytes),
    "ssd_capacity_bytes": ("ssd_capacity_bytes", parse_bytes),
    "ssd_read_bw_gbps": ("ssd_read_bw", gbps_to_bytes_per_us),
    "ssd_write_bw_gbps": ("ssd_write_bw", gbps_to_bytes_per_us),
    "host_bw_gbps": ("host_bw", gbps_to_bytes_per_us),
    "ssd_read_latency_us": ("ssd_read_latency_us", int),
    "ssd_write_latency_us": ("ssd_write_latency_us", int),
    "host_latency_us": ("host_latency_us", int),
    "page_size_bytes": ("page_size_bytes", parse_bytes),
    "fault_handling_us": ("fault_handling_us", int),
    "fault_chunk_bytes": ("fault_chunk_bytes", parse_bytes),
    "num_iterations": ("num_iterations", int),
    "hp_utilization_threshold": ("hp_utilization_threshold", float),
}

_EXPERIMENT_KEYS = {
    "policy": ("policy", str),
    "trace": ("trace", str),
    "seed": ("seed", int),
    "noise_pct": ("noise_pct", float),
    "eager": ("eager", _parse_bool),
    "workers": ("workers", int),
}

_SWEEP_PARSERS = {
    "trace": str,
    "policy": str,
    "host_mem_bytes": parse_bytes,
    "gpu_mem_bytes": parse_bytes,
    "ssd_read_bw_gbps": float,
    "ssd_write_bw_gbps": float,
    "ssd_bw_gbps": float,
    "noise_pct": float,
}

_SWEEP_AXES = tuple(_SWEEP_PARSERS)


def parse_config(text: str) -> ExperimentConfig:
    """Parse `key = value` lines; # starts a comment; unknown keys are errors."""
    device_kwargs = {}
    exp_kwargs = {}
    sweep = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            if key.startswith("sweep."):
                axis = key[len("sweep."):]
                if axis not in _SWEEP_PARSERS:
                    raise ConfigError(f"unknown sweep axis {axis!r}")
                sweep[axis] = [_SWEEP_PARSERS[axis](v.strip()) for v in value.split(",")]
            elif key in _DEVICE_KEYS:
                name, parser = _DEVICE_KEYS[key]
                device_kwargs[name] = parser(value)
            elif key in _EXPERIMENT_KEYS:
                name, parser = _EXPERIMENT_KEYS[key]
                exp_kwargs[name] = parser(value)
            else:
                raise ConfigError(f"unknown key {key!r}")
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    return ExperimentConfig(device=DeviceConfig(**device_kwargs), sweep=sweep, **exp_kwargs)


def with_device(cfg: ExperimentConfig, **kwargs) -> ExperimentConfig:
    """Copy cfg with device fields replaced."""
    return replace(cfg, device=replace(cfg.device, **kwargs))
