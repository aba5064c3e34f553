"""Device and experiment configuration.

Bandwidths are stored as integer bytes per microsecond; config files give
them in GB/s and they are floored on conversion (1 GB = 10^9 bytes). Byte
quantities accept KB/MB/GB/TB suffixes as 10^3 multiples.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields, replace
from decimal import Decimal


class ConfigError(ValueError):
    """Bad key, value, or file in a configuration."""


class Channel(enum.Enum):
    HOST = "host"
    SSD = "ssd"


class Direction(enum.Enum):
    TO_DEVICE = "to_device"
    FROM_DEVICE = "from_device"


def gbps_to_bytes_per_us(gbps) -> int:
    """Floor GB/s (decimal, 1 GB = 10^9 B) to whole bytes per microsecond."""
    value = Decimal(str(gbps))
    if value <= 0:
        raise ConfigError(f"bandwidth must be positive, got {gbps}")
    return int(value * 1000)


@dataclass(frozen=True)
class ChannelSpec:
    """One full-duplex link: independent lanes toward and away from the GPU."""

    to_device_bw: int          # bytes/us
    to_device_latency_us: int
    from_device_bw: int
    from_device_latency_us: int

    def bw(self, direction: Direction) -> int:
        return self.to_device_bw if direction is Direction.TO_DEVICE else self.from_device_bw

    def latency(self, direction: Direction) -> int:
        return (self.to_device_latency_us if direction is Direction.TO_DEVICE
                else self.from_device_latency_us)


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

    def channel(self, channel: Channel) -> ChannelSpec:
        if channel is Channel.HOST:
            return ChannelSpec(self.host_bw, self.host_latency_us,
                               self.host_bw, self.host_latency_us)
        # the SSD path rides the same interconnect, so each direction is
        # capped by both the media and the link
        return ChannelSpec(min(self.ssd_read_bw, self.host_bw), self.ssd_read_latency_us,
                           min(self.ssd_write_bw, self.host_bw), self.ssd_write_latency_us)

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
            num = text[: -len(suffix)].strip()
            try:
                value = float(num) * mult
            except ValueError:
                raise ConfigError(f"bad byte quantity {text!r}") from None
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
    "ssd_read_bw_gbps": ("ssd_read_bw", lambda s: gbps_to_bytes_per_us(float(s))),
    "ssd_write_bw_gbps": ("ssd_write_bw", lambda s: gbps_to_bytes_per_us(float(s))),
    "host_bw_gbps": ("host_bw", lambda s: gbps_to_bytes_per_us(float(s))),
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


def _gbps_text(bytes_per_us: int) -> str:
    """Exact decimal GB/s for an integer bytes/us figure (15754 -> '15.754')."""
    text = f"{bytes_per_us // 1000}.{bytes_per_us % 1000:03d}".rstrip("0").rstrip(".")
    return text or "0"


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse(serialize(parse(s))) == parse(s)."""
    gbps_fields = {"ssd_read_bw": "ssd_read_bw_gbps",
                   "ssd_write_bw": "ssd_write_bw_gbps",
                   "host_bw": "host_bw_gbps"}
    inverse = {name: key for key, (name, _) in _DEVICE_KEYS.items()
               if not key.endswith("_gbps")}
    lines = []
    for f in fields(DeviceConfig):
        value = getattr(cfg.device, f.name)
        if f.name in gbps_fields:
            lines.append(f"{gbps_fields[f.name]} = {_gbps_text(value)}")
        else:
            lines.append(f"{inverse[f.name]} = {value}")
    for key, (name, _) in _EXPERIMENT_KEYS.items():
        value = getattr(cfg, name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key} = {value}")
    for axis in cfg.sweep:
        lines.append(f"sweep.{axis} = {', '.join(str(v) for v in cfg.sweep[axis])}")
    return "\n".join(lines) + "\n"


def with_device(cfg: ExperimentConfig, **kwargs) -> ExperimentConfig:
    """Copy cfg with device fields replaced."""
    return replace(cfg, device=replace(cfg.device, **kwargs))
