import pytest

from tensortier.config import DeviceConfig
from tensortier.simulate import ReplayContext
from tensortier.trace import (KernelRecord, TensorDescriptor, TensorKind,
                              WorkloadTrace)
from tensortier.vitality import analyze

# Four-kernel scenario small enough to verify by hand: a 102400-byte device,
# two weights used by the first and last kernels, and two activations born
# in the middle. Every channel moves 4096 bytes/us with a 5 us latency.


def make_device(**overrides) -> DeviceConfig:
    base = dict(
        gpu_mem_bytes=102_400,
        host_mem_bytes=1_000_000,
        ssd_capacity_bytes=10_000_000,
        ssd_read_bw=4096,
        ssd_write_bw=4096,
        host_bw=4096,
        ssd_read_latency_us=5,
        ssd_write_latency_us=5,
        host_latency_us=5,
        page_size_bytes=1024,
        num_iterations=1,
    )
    base.update(overrides)
    return DeviceConfig(**base)


def make_context(trace: WorkloadTrace, dev: DeviceConfig) -> ReplayContext:
    """The context every stage reads: trace's analysis on dev."""
    return ReplayContext(analyze(trace), dev)


def make_s1(with_r: bool) -> WorkloadTrace:
    tensors = {
        0: TensorDescriptor(0, 40_960, TensorKind.GLOBAL),
        1: TensorDescriptor(1, 51_200, TensorKind.INTERMEDIATE),
        2: TensorDescriptor(2, 30_720, TensorKind.INTERMEDIATE),
    }
    k0_in = {0}
    k3_in = {0, 2}
    if with_r:
        tensors[3] = TensorDescriptor(3, 20_480, TensorKind.GLOBAL)
        k0_in = {0, 3}
        k3_in = {0, 2, 3}
    kernels = (
        KernelRecord(0, "k0", 25, frozenset(k0_in), frozenset()),
        KernelRecord(1, "k1", 25, frozenset(), frozenset({1, 2})),
        KernelRecord(2, "k2", 25, frozenset({1}), frozenset({2})),
        KernelRecord(3, "k3", 25, frozenset(k3_in), frozenset()),
    )
    return WorkloadTrace(tensors=tensors, kernels=kernels)


@pytest.fixture
def device() -> DeviceConfig:
    return make_device()


@pytest.fixture
def s1_trace() -> WorkloadTrace:
    return make_s1(with_r=False)


@pytest.fixture
def s1r_trace() -> WorkloadTrace:
    return make_s1(with_r=True)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One verdict line per acceptance criterion at the end of the run."""
    rows = []
    for status, word in (("passed", "PASS"), ("failed", "FAIL"),
                         ("error", "FAIL")):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" in nodeid and getattr(rep, "when", "call") == "call":
                name = nodeid.split("::")[-1]
                rows.append((name, word))
    if not rows:
        return
    terminalreporter.section("acceptance criteria")
    for name, word in sorted(rows):
        terminalreporter.write_line(f"{word}  {name}")
