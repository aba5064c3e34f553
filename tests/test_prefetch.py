from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_context, make_device
from reference_planner import latest_safe_prefetch_time
from tensortier import oracle
from tensortier.config import DeviceConfig
from tensortier.eviction import SchedulerState, plan_to_json
from tensortier.policies import flashneuron_plan
from tensortier.prefetch import eager_reschedule, plan_migrations
from tensortier.trace import (KernelRecord, TensorDescriptor, TensorKind,
                              WorkloadTrace, synthesize_trace)


def _spike_trace():
    """A weight idle across a late pressure spike.

    The latest-safe prefetch sits right before the last kernel; once the
    spike tensor dies there is headroom much earlier, so the eager pass
    should pull the prefetch back to the spike's death.
    """
    tensors = {
        0: TensorDescriptor(0, 40_960, TensorKind.GLOBAL),
        1: TensorDescriptor(1, 1_024, TensorKind.INTERMEDIATE),
        2: TensorDescriptor(2, 81_920, TensorKind.INTERMEDIATE),
    }
    kernels = (
        KernelRecord(0, "a", 20, frozenset({0}), frozenset()),
        KernelRecord(1, "b", 20, frozenset(), frozenset({1})),
        KernelRecord(2, "c", 20, frozenset({1}), frozenset({2})),
        KernelRecord(3, "d", 20, frozenset({1}), frozenset()),
        KernelRecord(4, "e", 20, frozenset({0}), frozenset()),
    )
    return WorkloadTrace(tensors, kernels)


def _assert_latest_safe(result):
    """Each booked start is the latest safe start re-derived from the
    lanes."""
    for item in result.plan.items:
        assert item.latest_safe_us == item.prefetch_start
        assert item.scheduled_us == item.latest_safe_us
        assert item.latest_safe_us == latest_safe_prefetch_time(item, result)


def _assert_eager_keeps_slack(result):
    eager_reschedule(result)
    for item in result.plan.items:
        assert item.scheduled_us <= item.latest_safe_us


def _generated_case(seed):
    trace = synthesize_trace(2 + seed % 5, (20_480, 61_440), (8_192, 30_720),
                             (20, 150), seed)
    base = make_device()
    footprint = sum(base.padded(t.size_bytes)
                    for t in trace.tensors.values())
    max_ws = max(sum(base.padded(trace.tensors[t].size_bytes)
                     for t in k.tensors()) for k in trace.kernels)
    dev = make_device(
        gpu_mem_bytes=max(max_ws, footprint // 2 // 1024 * 1024),
        host_mem_bytes=footprint // 4, ssd_read_bw=1024, ssd_write_bw=1024,
        host_bw=16_384, hp_utilization_threshold=0.3)
    return make_context(trace, dev), dev


def test_latest_safe_matches_booked_slot(s1r_trace, device, monkeypatch):
    """The booked start is the latest safe one for greedy plans (s1r and
    generated traces, host route on and off), FlashNeuron-like plans and
    oracle bookings, and the eager pass never moves a prefetch later."""
    result = plan_migrations(make_context(s1r_trace, device), eager=False)
    assert result.plan.items
    _assert_latest_safe(result)
    _assert_eager_keeps_slack(result)

    items = {"greedy": 0, "flashneuron": 0}
    for seed in range(12):
        context, dev = _generated_case(seed)
        for allow_host in (True, False):
            result = plan_migrations(context, allow_host=allow_host,
                                     eager=False)
            items["greedy"] += len(result.plan.items)
            _assert_latest_safe(result)
            _assert_eager_keeps_slack(result)
        result = flashneuron_plan(context)
        items["flashneuron"] += len(result.plan.items)
        _assert_latest_safe(result)
        _assert_eager_keeps_slack(result)
    assert all(items.values()), items

    real_eager = oracle.eager_reschedule

    def checked_eager(result):
        _assert_latest_safe(result)
        real_eager(result)

    monkeypatch.setattr(oracle, "eager_reschedule", checked_eager)
    booked = 0
    for seed in range(3):
        trace = synthesize_trace(3, (20_480, 28_672), (20_480, 28_672),
                                 (100, 200), seed)
        dev = make_device(gpu_mem_bytes=131_072)
        context = make_context(trace, dev)
        start = SchedulerState.initial(context)
        for _, result in oracle._booked(start, context.by_start, True):
            booked += bool(result.plan.items)
            for item in result.plan.items:
                assert item.scheduled_us <= item.latest_safe_us
    assert booked


def test_eager_noop_when_no_headroom(s1r_trace, device):
    # the survivors fill the device during the idle window, so neither
    # prefetch can move up
    lazy = plan_migrations(make_context(s1r_trace, device), eager=False)
    eager = plan_migrations(make_context(s1r_trace, device), eager=True)
    assert plan_to_json(lazy.plan) == plan_to_json(eager.plan)


def test_eager_moves_prefetch_to_spike_death(device):
    trace = _spike_trace()
    lazy = plan_migrations(make_context(trace, device), eager=False)
    eager = plan_migrations(make_context(trace, device), eager=True)

    (item,) = lazy.plan.items
    assert item.tensor_id == 0
    assert (item.evict_start, item.evict_end) == (20, 35)
    assert (item.prefetch_start, item.latest_safe_us) == (65, 65)

    (item,) = eager.plan.items
    # the 81920-byte activation dies at t=60; from there the weight fits
    assert item.latest_safe_us == 65
    assert item.scheduled_us == 60
    assert (item.prefetch_start, item.prefetch_end) == (60, 75)


def test_eager_is_idempotent_on_replan(device):
    # planning twice from scratch is deterministic
    trace = _spike_trace()
    a = plan_migrations(make_context(trace, device), eager=True)
    b = plan_migrations(make_context(trace, device), eager=True)
    assert plan_to_json(a.plan) == plan_to_json(b.plan)


@settings(max_examples=40, deadline=None)
@given(layers=st.integers(2, 5), seed=st.integers(0, 999),
       eager=st.booleans())
# a kernel's working set is larger than GPU memory
@example(layers=2, seed=0, eager=True)
def test_plan_invariants_on_synthetic_traces(layers, seed, eager):
    trace = synthesize_trace(layers, act_size=(4_096, 65_536),
                             weight_size=(4_096, 32_768),
                             dur=(20, 60), seed=seed)
    total_bytes = sum(t.size_bytes for t in trace.tensors.values())
    device = DeviceConfig(
        gpu_mem_bytes=max(total_bytes // 2, 8_192),
        host_mem_bytes=10**7, ssd_capacity_bytes=10**8,
        ssd_read_bw=4096, ssd_write_bw=4096, host_bw=8192,
        ssd_read_latency_us=5, ssd_write_latency_us=5, host_latency_us=2,
        page_size_bytes=1024)
    context = make_context(trace, device)
    result = plan_migrations(context, eager=eager)
    plan = result.plan
    total = plan.total_us
    assert plan.residual_overflow >= 0
    seen = set()
    for item in plan.items:
        key = (item.tensor_id, item.period_start)
        assert key not in seen
        seen.add(key)
        assert item.period_start <= item.evict_start
        assert item.evict_start < item.evict_end
        assert item.evict_end <= item.prefetch_start
        assert item.prefetch_start < item.prefetch_end
        assert item.prefetch_end <= item.period_end
        assert item.scheduled_us == item.prefetch_start
        assert item.scheduled_us <= item.latest_safe_us
        assert item.benefit > 0
        assert item.cost_us == ((item.evict_end - item.evict_start)
                                + (item.prefetch_end - item.prefetch_start))
        if item.wraps:
            # the reload happens in the next iteration's prefix
            assert item.evict_end <= total
            assert item.prefetch_start >= total
        else:
            assert item.period_end <= total
    # the planner never leaves pressure above its starting maximum
    assert result.pressure.max_value() >= 0
    # a kernel's tensors have no inactive period while it runs, so neither
    # planner can bring an oversized working set under capacity
    if max(sum(device.padded(trace.tensors[t].size_bytes)
               for t in k.tensors())
           for k in trace.kernels) > device.gpu_mem_bytes:
        assert plan.residual_overflow > 0
        assert flashneuron_plan(context).plan.residual_overflow > 0
