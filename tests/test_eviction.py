import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_device
from tensortier.config import DeviceConfig
from tensortier.eviction import (Destination, EvictionCandidate,
                                 plan_from_json, plan_to_json,
                                 schedule_evictions, select_best)
from tensortier.trace import (KernelRecord, TensorDescriptor, TensorKind,
                              WorkloadTrace, synthesize_trace)
from tensortier.vitality import InactivePeriod, analyze


def _items(result):
    return [(i.tensor_id, i.dest, i.evict_start, i.evict_end,
             i.prefetch_start, i.prefetch_end, i.benefit, i.cost_us)
            for i in result.plan.items]


def test_s1_schedule(s1_trace, device):
    result = schedule_evictions(analyze(s1_trace), device)
    # one pick: the weight rides the SSD channel through its idle window
    assert _items(result) == [
        (0, Destination.SSD, 25, 40, 60, 75, 409_600, 30)]
    assert result.plan.residual_overflow == 614_400
    assert result.plan.unschedulable == []
    assert not result.plan.infeasible


def test_s1r_schedule(s1r_trace, device):
    result = schedule_evictions(analyze(s1r_trace), device)
    # the small weight goes first (bigger benefit per cost and it fits
    # fully inside the overflow plateau); rescoring then pushes the big
    # weight to the host channel because its SSD window has collapsed
    assert _items(result) == [
        (3, Destination.SSD, 25, 35, 65, 75, 614_400, 20),
        (0, Destination.HOST, 25, 40, 60, 75, 409_600, 30),
    ]
    assert result.plan.residual_overflow == 1_024_000
    assert result.plan.unschedulable == []


def test_s1r_ssd_only(s1r_trace, device):
    result = schedule_evictions(analyze(s1r_trace), device,
                                allow_host=False)
    # with the host forbidden the second pick's usable window is empty
    # (evict and prefetch meet at the midpoint), so the loop stops
    assert [i.tensor_id for i in result.plan.items] == [3]
    assert result.plan.residual_overflow == 1_433_600


def test_cache_and_no_cache_agree(s1r_trace, device):
    a = schedule_evictions(analyze(s1r_trace), device, use_cache=True)
    b = schedule_evictions(analyze(s1r_trace), device, use_cache=False)
    assert plan_to_json(a.plan) == plan_to_json(b.plan)


def _assert_cache_matches(trace, gpu_frac, host_frac, ssd_frac, **device):
    """The cached planner and a from-scratch rescoring give the same plan,
    with the host route on and off."""
    base = make_device()
    sizes = [base.padded(t.size_bytes) for t in trace.tensors.values()]
    max_ws = max(sum(base.padded(trace.tensors[t].size_bytes)
                     for t in k.tensors()) for k in trace.kernels)
    footprint = sum(sizes)
    dev = make_device(
        gpu_mem_bytes=max(max_ws, int(footprint * gpu_frac) // 1024 * 1024),
        host_mem_bytes=int(footprint * host_frac),
        ssd_capacity_bytes=int(footprint * ssd_frac), **device)
    analysis = analyze(trace)
    for allow_host in (True, False):
        cached = schedule_evictions(analysis, dev, allow_host=allow_host)
        fresh = schedule_evictions(analysis, dev, allow_host=allow_host,
                                   use_cache=False)
        assert plan_to_json(cached.plan) == plan_to_json(fresh.plan)


@settings(max_examples=60, deadline=None)
@given(layers=st.integers(1, 8), seed=st.integers(0, 10_000),
       gpu_frac=st.floats(0.3, 0.9), host_frac=st.floats(0.05, 1.0),
       ssd_frac=st.floats(0.05, 1.0), ssd_bw=st.sampled_from([1024, 4096]),
       host_bw=st.sampled_from([1024, 4096, 16_384]),
       threshold=st.sampled_from([0.1, 0.5, 0.9]))
def test_cache_matches_rescoring_on_generated_traces(
        layers, seed, gpu_frac, host_frac, ssd_frac, ssd_bw, host_bw,
        threshold):
    """Cached slot windows and verdicts reproduce a from-scratch rescoring,
    with tight host and flash capacities, slow lanes and busy thresholds."""
    trace = synthesize_trace(layers, (20_480, 61_440), (8_192, 30_720),
                             (20, 150), seed)
    _assert_cache_matches(trace, gpu_frac, host_frac, ssd_frac,
                          ssd_read_bw=ssd_bw, ssd_write_bw=ssd_bw,
                          host_bw=host_bw, hp_utilization_threshold=threshold)


@settings(max_examples=40, deadline=None)
@given(layers=st.integers(2, 10), seed=st.integers(0, 10_000),
       size=st.sampled_from([8_192, 20_480, 40_960]),
       gpu_frac=st.floats(0.1, 0.45), ssd_frac=st.floats(0.1, 1.0),
       bw=st.sampled_from([1024, 2048, 4096]))
def test_cache_matches_rescoring_at_zero_benefit(layers, seed, size,
                                                 gpu_frac, ssd_frac, bw):
    """Uniform sizes under tight GPU memory: one benefit query clamp,
    windows that collapse as the lanes fill, and routes whose benefit falls
    to zero and must stay there."""
    trace = synthesize_trace(layers, size, size, (20, 150), seed)
    _assert_cache_matches(trace, gpu_frac, 1.0, ssd_frac, ssd_read_bw=bw,
                          ssd_write_bw=bw, host_bw=bw)


@settings(max_examples=40, deadline=None)
@given(layers=st.integers(2, 10), seed=st.integers(0, 10_000),
       gpu_frac=st.floats(0.3, 0.8), host_frac=st.floats(0.05, 0.6),
       threshold=st.sampled_from([0.05, 0.3]))
# a host pick leaves a waiting route less than one page short of host
# memory inside its window, so its host check must be redone
@example(layers=4, seed=4722, gpu_frac=0.3508258511974197,
         host_frac=0.1251495071123052, threshold=0.05)
def test_cache_matches_rescoring_with_host_picks(layers, seed, gpu_frac,
                                                 host_frac, threshold):
    """A slow, soon busy SSD lane and a fast host lane: many picks go to the
    host, and their freed windows partly overlap the windows of routes still
    waiting, with host memory tight enough for the capacity check to flip."""
    trace = synthesize_trace(layers, (20_480, 61_440), (8_192, 30_720),
                             (20, 150), seed)
    _assert_cache_matches(trace, gpu_frac, host_frac, 1.0, ssd_read_bw=1024,
                          ssd_write_bw=1024, host_bw=16_384,
                          hp_utilization_threshold=threshold)


def _cand(benefit, cost, start=0, tid=0):
    period = InactivePeriod(tid, start, start + 100)
    return EvictionCandidate(period=period, size_bytes=1, dest=Destination.SSD,
                             evict_start=start, evict_end=start + 1,
                             prefetch_start=start + 50, prefetch_end=start + 51,
                             benefit=benefit, cost_us=cost)


def test_select_best_ratio_is_exact():
    # 100/3 > 33/1 must hold despite both flooring to 33
    a = _cand(100, 3)
    b = _cand(33, 1, tid=1)
    assert select_best([b, a]) is a


def test_select_best_tie_breaks():
    # equal ratio: larger benefit wins
    big = _cand(200, 4, tid=1)
    small = _cand(100, 2, tid=0)
    assert select_best([small, big]) is big
    # equal benefit and cost: earlier period start wins
    early = _cand(100, 2, start=10, tid=5)
    late = _cand(100, 2, start=20, tid=4)
    assert select_best([late, early]) is early
    # identical otherwise: smaller tensor id
    first = _cand(100, 2, tid=1)
    second = _cand(100, 2, tid=2)
    assert select_best([second, first]) is first


def test_zero_benefit_candidates_are_not_applied(device):
    # a third kernel pins everything, so no period has usable slack, and
    # the planner must stop rather than book pointless transfers
    tensors = {
        0: TensorDescriptor(0, 102_400, TensorKind.GLOBAL),
        1: TensorDescriptor(1, 102_400, TensorKind.GLOBAL),
    }
    kernels = (
        KernelRecord(0, "a", 2, frozenset({0, 1}), frozenset()),
        KernelRecord(1, "b", 2, frozenset({0, 1}), frozenset()),
    )
    result = schedule_evictions(analyze(WorkloadTrace(tensors, kernels)),
                                device)
    assert result.plan.items == []
    assert result.plan.residual_overflow > 0


def test_plan_json_round_trip(s1r_trace, device):
    result = schedule_evictions(analyze(s1r_trace), device)
    text = plan_to_json(result.plan)
    doc = json.loads(text)
    assert {e["tensor_id"] for e in doc["evictions"]} == {0, 3}
    again = plan_from_json(text, result.plan.total_us)
    assert plan_to_json(again) == text


def test_schedule_respects_tiny_host(s1r_trace):
    # host too small for the big weight: it cannot move there even though
    # the high-pressure rule asks for it
    device = DeviceConfig(
        gpu_mem_bytes=102_400, host_mem_bytes=1024,
        ssd_capacity_bytes=10_000_000,
        ssd_read_bw=4096, ssd_write_bw=4096, host_bw=4096,
        ssd_read_latency_us=5, ssd_write_latency_us=5, host_latency_us=5,
        page_size_bytes=1024)
    result = schedule_evictions(analyze(s1r_trace), device)
    assert all(i.dest is Destination.SSD for i in result.plan.items)
