import pytest

from conftest import make_context, make_device, make_s1
from tensortier.eviction import Destination
from tensortier.policies import (faulting_placement, planned_placement,
                                 flashneuron_plan, run_policy)
from tensortier.trace import (KernelRecord, TensorDescriptor, TensorKind,
                              WorkloadTrace)


def _weight_chain(n=4, size=40_960, dur=100):
    """n weights, kernel i reads exactly weight i; the device holds two."""
    tensors = {i: TensorDescriptor(i, size, TensorKind.GLOBAL)
               for i in range(n)}
    kernels = tuple(KernelRecord(i, f"k{i}", dur, frozenset({i}), frozenset())
                    for i in range(n))
    return WorkloadTrace(tensors=tensors, kernels=kernels)


def _offload_trace():
    """Two offloadable activations born one kernel apart, a resident weight,
    and two throwaway outputs keeping the middle kernels legal."""
    k = TensorKind
    tensors = {
        0: TensorDescriptor(0, 20_480, k.GLOBAL),
        1: TensorDescriptor(1, 40_960, k.INTERMEDIATE),
        2: TensorDescriptor(2, 40_960, k.INTERMEDIATE),
        3: TensorDescriptor(3, 1_024, k.INTERMEDIATE),
        4: TensorDescriptor(4, 1_024, k.INTERMEDIATE),
    }
    kernels = (
        KernelRecord(0, "k0", 25, frozenset({0}), frozenset({1})),
        KernelRecord(1, "k1", 25, frozenset(), frozenset({2})),
        KernelRecord(2, "k2", 25, frozenset(), frozenset({3})),
        KernelRecord(3, "k3", 25, frozenset(), frozenset({4})),
        KernelRecord(4, "k4", 25, frozenset({1}), frozenset()),
        KernelRecord(5, "k5", 25, frozenset({0, 2}), frozenset()),
    )
    return WorkloadTrace(tensors=tensors, kernels=kernels)


def test_unknown_policy_rejected(s1r_trace, device):
    with pytest.raises(ValueError, match="unknown policy"):
        run_policy("lru-only", s1r_trace, device)


def test_ideal_is_compute_only(s1r_trace, device):
    result = run_policy("ideal", s1r_trace, device)
    assert result.policy == "ideal"
    assert result.total_us == result.compute_us == 100
    assert result.stall_us == 0
    assert result.faults == 0
    traffic = result.traffic
    assert (traffic.ssd_read, traffic.ssd_write,
            traffic.host_in, traffic.host_out) == (0, 0, 0, 0)


def testplanned_placement_spills_down_the_hierarchy():
    tensors = {
        0: TensorDescriptor(0, 102_400, TensorKind.GLOBAL),
        1: TensorDescriptor(1, 51_200, TensorKind.GLOBAL),
        2: TensorDescriptor(2, 51_200, TensorKind.GLOBAL),
    }
    kernels = (KernelRecord(0, "k0", 25, frozenset({0, 1, 2}), frozenset()),)
    context = make_context(WorkloadTrace(tensors=tensors, kernels=kernels),
                           make_device(host_mem_bytes=61_440))
    # first weight fills the device, second fits in host, third falls through
    assert planned_placement(context, allow_host=True) == {
        0: "gpu", 1: "host", 2: "ssd"}
    assert planned_placement(context, allow_host=False) == {
        0: "gpu", 1: "ssd", 2: "ssd"}


def testfaulting_placement_prefers_host():
    tensors = {
        0: TensorDescriptor(0, 102_400, TensorKind.GLOBAL),
        1: TensorDescriptor(1, 51_200, TensorKind.GLOBAL),
        2: TensorDescriptor(2, 51_200, TensorKind.GLOBAL),
    }
    kernels = (KernelRecord(0, "k0", 25, frozenset({0, 1, 2}), frozenset()),)
    context = make_context(WorkloadTrace(tensors=tensors, kernels=kernels),
                           make_device(host_mem_bytes=61_440))
    # managed-memory runtimes never pin on the device; oversized residents
    # overflow straight to flash
    assert faulting_placement(context) == {0: "ssd", 1: "host", 2: "ssd"}


def test_correlation_prefetch_beats_demand_faulting():
    trace = _weight_chain()
    dev = make_device(num_iterations=3)
    base = run_policy("base-uvm", trace, dev)
    deep = run_policy("deepum-like", trace, dev)
    # demand faulting re-faults every weight every iteration
    assert base.faults == 12
    assert base.total_us == 2070
    # the recorded iteration-0 faults let later iterations pull each weight
    # in under the previous kernel; only the first weight of an iteration
    # has no kernel ahead of it to hide behind
    assert deep.fault_log == [
        (0, 0, 0), (0, 1, 1), (0, 2, 2), (0, 3, 3), (1, 0, 0), (2, 0, 0)]
    assert deep.faults == 6
    assert deep.total_us == 1620
    assert deep.total_us < base.total_us


def test_flashneuron_offloads_intermediates_in_birth_order():
    result = flashneuron_plan(make_context(_offload_trace(), make_device()))
    picked = [(i.tensor_id, i.dest, i.evict_start, i.evict_end,
               i.prefetch_start, i.prefetch_end) for i in result.plan.items]
    assert picked == [
        (1, Destination.SSD, 25, 40, 85, 100),
        (2, Destination.SSD, 50, 65, 110, 125),
    ]
    assert all(i.scheduled_us == i.latest_safe_us == i.prefetch_start
               for i in result.plan.items)
    assert result.plan.residual_overflow == 0


def test_flashneuron_cannot_fix_global_pressure(s1r_trace, device):
    # both oversize tensors are weights; a policy that only offloads
    # activations has nothing to move
    result = flashneuron_plan(make_context(s1r_trace, device))
    assert result.plan.items == []
    assert result.plan.residual_overflow == 2_048_000


def test_flashneuron_flags_oversized_working_set(device):
    tensors = {0: TensorDescriptor(0, 204_800, TensorKind.INTERMEDIATE)}
    kernels = (KernelRecord(0, "k0", 25, frozenset(), frozenset({0})),)
    result = flashneuron_plan(make_context(
        WorkloadTrace(tensors=tensors, kernels=kernels), device))
    assert result.plan.residual_overflow > 0


def test_flashneuron_run_keeps_host_clean():
    result = run_policy("flashneuron-like", _offload_trace(), make_device())
    assert result.total_us == 150
    assert result.stall_us == 0
    assert result.faults == 0
    assert result.traffic.host_in == result.traffic.host_out == 0
    assert result.traffic.ssd_read == result.traffic.ssd_write == 81_920


def test_ssd_only_variant_never_touches_host():
    trace = make_s1(with_r=True)
    dev = make_device(num_iterations=3)
    full = run_policy("g10", trace, dev)
    ssd_only = run_policy("g10-ssd-only", trace, dev)
    assert full.traffic.host_out > 0
    assert ssd_only.traffic.host_in == ssd_only.traffic.host_out == 0
    # forcing everything through the flash channel costs time
    assert ssd_only.total_us > full.total_us
    ideal = run_policy("ideal", trace, dev)
    base = run_policy("base-uvm", trace, dev)
    assert ideal.total_us <= full.total_us <= base.total_us


def test_same_seed_shares_kernel_durations():
    trace = _weight_chain()
    dev = make_device(num_iterations=3)
    runs = [run_policy(name, trace, dev, seed=7, noise_pct=0.2)
            for name in ("base-uvm", "g10")]
    durations = [[k.end_us - k.start_us for k in r.kernels] for r in runs]
    assert durations[0] == durations[1]
    ideal = run_policy("ideal", trace, dev, seed=7, noise_pct=0.2)
    assert ideal.total_us == ideal.compute_us == sum(durations[0])
