from conftest import make_context
from tensortier.config import DeviceConfig, Direction, transfer_us
from tensortier.eviction import Destination
from tensortier.trace import (KernelRecord, TensorDescriptor, TensorKind,
                              WorkloadTrace)
from tensortier.vitality import Timeline, analyze, classify_tensors


def test_timeline(s1_trace):
    tl = Timeline.from_trace(s1_trace)
    assert tl.starts == (0, 25, 50, 75)
    assert tl.ends == (25, 50, 75, 100)
    assert tl.total_us == 100


def test_classification_explicit_and_inferred():
    tensors = {
        0: TensorDescriptor(0, 10, TensorKind.GLOBAL),
        1: TensorDescriptor(1, 10, TensorKind.INTERMEDIATE),
        2: TensorDescriptor(2, 10),  # read first -> global
        3: TensorDescriptor(3, 10),  # written first -> intermediate
    }
    kernels = (
        KernelRecord(0, "a", 5, frozenset({0, 2}), frozenset({1, 3})),
        KernelRecord(1, "b", 5, frozenset({1, 3}), frozenset({2})),
    )
    kinds = classify_tensors(WorkloadTrace(tensors, kernels))
    assert kinds == {0: True, 1: False, 2: True, 3: False}


def test_lifetimes(s1r_trace):
    analysis = analyze(s1r_trace)
    w = analysis.lifetimes[0]
    assert (w.birth_kernel, w.death_kernel, w.is_global) == (0, 3, True)
    p = analysis.lifetimes[1]
    assert (p.birth_kernel, p.death_kernel, p.is_global) == (1, 2, False)


def test_s1_periods(s1_trace, s1r_trace):
    # P and Q are used by adjacent kernels, so only the weights have
    # non-empty inactive periods; the weights' wrap periods are empty
    # because k3 ends exactly one iteration before k0 starts again.
    periods = analyze(s1_trace).periods
    assert [(p.tensor_id, p.start_us, p.end_us, p.wraps_iteration)
            for p in periods] == [(0, 25, 75, False)]
    periods = analyze(s1r_trace).periods
    assert [(p.tensor_id, p.start_us, p.end_us) for p in periods] == [
        (0, 25, 75), (3, 25, 75)]


def test_wrap_period_spans_iteration_boundary():
    # a weight used only by the two middle kernels gets a wrapping period
    # from its last use to its first use in the next iteration
    tensors = {0: TensorDescriptor(0, 10, TensorKind.GLOBAL),
               1: TensorDescriptor(1, 10, TensorKind.INTERMEDIATE)}
    kernels = (
        KernelRecord(0, "a", 25, frozenset({1}), frozenset({1})),
        KernelRecord(1, "b", 25, frozenset({0}), frozenset()),
        KernelRecord(2, "c", 25, frozenset({1}), frozenset()),
        KernelRecord(3, "d", 25, frozenset({0}), frozenset()),
    )
    periods = analyze(WorkloadTrace(tensors, kernels)).periods
    mine = [(p.start_us, p.end_us, p.wraps_iteration)
            for p in periods if p.tensor_id == 0]
    assert mine == [(50, 75, False), (100, 125, True)]


def test_initial_pressure_curve(s1_trace, device):
    curve = make_context(s1_trace, device).pressure
    assert curve.value_at(0) == 40_960
    assert curve.value_at(25) == 122_880
    assert curve.value_at(74) == 122_880
    assert curve.value_at(75) == 71_680
    assert curve.max_value() == 122_880


def test_pressure_uses_padded_sizes():
    tensors = {0: TensorDescriptor(0, 1, TensorKind.GLOBAL)}
    kernels = (KernelRecord(0, "a", 10, frozenset({0}), frozenset()),)
    curve = make_context(WorkloadTrace(tensors, kernels),
                         DeviceConfig()).pressure
    assert curve.value_at(0) == 4096


def test_transfer_time_examples():
    """The planner's route_times and the replay's lanes read one set of
    lane constants."""
    tensors = {0: TensorDescriptor(0, 4096, TensorKind.GLOBAL)}
    kernels = (KernelRecord(0, "a", 10, frozenset({0}), frozenset()),)
    context = make_context(WorkloadTrace(tensors, kernels), DeviceConfig())
    # (outbound, inbound); one page from SSD: 20 us latency +
    # ceil(4096 / 3200)
    assert context.times[Destination.SSD, 4096] == (16 + 2, 22)
    assert context.times[Destination.HOST, 4096][1] == 3 + 1
    # exact multiples do not round up
    lane = context.lanes[Destination.SSD, Direction.TO_DEVICE]
    assert transfer_us(6400, lane.bw, lane.latency) == 22
    assert transfer_us(6401, lane.bw, lane.latency) == 23

