import pytest

from conftest import make_context
from tensortier.instrument import (InconsistentPlanError, Op,
                                   ProgramParseError, emit_program,
                                   parse_program, serialize_program)
from tensortier.prefetch import plan_migrations
from tensortier.trace import (KernelRecord, TensorDescriptor, TensorKind,
                              WorkloadTrace)

S1R_PROGRAM = """\
G10 alloc 0 40960 @0
G10 alloc 3 20480 @0
KERNEL 0 k0 25
G10 pre_evict 0 40960 host @25
G10 pre_evict 3 20480 ssd @25
G10 alloc 1 51200 @25
G10 alloc 2 30720 @25
KERNEL 1 k1 25
KERNEL 2 k2 25
G10 prefetch 0 40960 @60
G10 prefetch 3 20480 @65
G10 free 1 51200 @75
KERNEL 3 k3 25
G10 free 2 30720 @100
"""


def _emit(trace, device, **kwargs):
    context = make_context(trace, device)
    result = plan_migrations(context, **kwargs)
    return emit_program(context, result.plan)


def test_s1r_program_text(s1r_trace, device):
    program = _emit(s1r_trace, device)
    assert serialize_program(program) == S1R_PROGRAM


def test_gap_ordering_within_a_gap(s1r_trace, device):
    # within one gap: frees, then pre-evicts, then allocs, then prefetches,
    # ordered by issue time first
    program = _emit(s1r_trace, device)
    gap1 = program.gaps[1]
    assert [ins.op for ins in gap1] == [
        Op.PRE_EVICT, Op.PRE_EVICT, Op.ALLOC, Op.ALLOC]
    assert [ins.tensor_id for ins in gap1] == [0, 3, 1, 2]


def test_round_trip(s1r_trace, device):
    program = _emit(s1r_trace, device)
    text = serialize_program(program)
    again = parse_program(text)
    assert again == program
    assert serialize_program(again) == text


def test_program_validates_alternation(s1r_trace, device):
    program = _emit(s1r_trace, device)
    program.validate_alternation()


def test_wrap_plan_emits_folded_prefetch():
    # a weight whose idle window crosses the iteration boundary: its
    # prefetch folds into the prefix of the next iteration, so in stream
    # order the prefetch precedes the pre-evict and alternation must be
    # checked circularly
    tensors = {
        0: TensorDescriptor(0, 40_960, TensorKind.GLOBAL),
        1: TensorDescriptor(1, 102_400, TensorKind.INTERMEDIATE),
        2: TensorDescriptor(2, 1_024, TensorKind.INTERMEDIATE),
    }
    kernels = (
        KernelRecord(0, "head", 25, frozenset(), frozenset({2})),
        KernelRecord(1, "mid", 25, frozenset({0}), frozenset()),
        KernelRecord(2, "tail", 25, frozenset(), frozenset({1})),
    )
    trace = WorkloadTrace(tensors, kernels)
    from tensortier.config import DeviceConfig
    device = DeviceConfig(
        gpu_mem_bytes=112_640, host_mem_bytes=10**6,
        ssd_capacity_bytes=10**7,
        ssd_read_bw=4096, ssd_write_bw=4096, host_bw=4096,
        ssd_read_latency_us=5, ssd_write_latency_us=5, host_latency_us=5,
        page_size_bytes=1024)
    context = make_context(trace, device)
    result = plan_migrations(context)
    items = result.plan.items
    assert len(items) == 1 and items[0].wraps
    program = emit_program(context, result.plan)
    program.validate_alternation()
    text = serialize_program(program)
    lines = text.splitlines()
    prefetch_line = next(i for i, l in enumerate(lines) if "prefetch" in l)
    evict_line = next(i for i, l in enumerate(lines) if "pre_evict" in l)
    assert prefetch_line < evict_line
    assert parse_program(text) == program


def test_emit_rejects_foreign_plan(s1_trace, s1r_trace, device):
    result = plan_migrations(make_context(s1r_trace, device))
    with pytest.raises(InconsistentPlanError):
        emit_program(make_context(s1_trace, device), result.plan)


@pytest.mark.parametrize("text", [
    "KERNEL 1 k0 25\n",                     # wrong first index
    "KERNEL 0 k0 25\nKERNEL 2 k1 25\n",     # gap in indices
    "G10 alloc 0 @0\nKERNEL 0 k0 25\n",     # missing size
    "G10 pre_evict 0 4096 @0\nKERNEL 0 k0 25\n",  # pre_evict needs dest
    "G10 prefetch 0 4096 nvme @0\nKERNEL 0 k0 25\n",  # extra token
    "G10 warp 0 4096 @0\nKERNEL 0 k0 25\n",  # unknown op
    "KERNEL 0 k0 twenty\n",
    "HELLO\n",
    b"KERNEL 0 k0 25\n\xff\n",           # not UTF-8
])
def test_parse_rejects_malformed(text):
    with pytest.raises(ProgramParseError):
        parse_program(text)


def test_parse_kernel_names_with_spaces():
    text = "KERNEL 0 conv 3x3 dw 25\n"
    program = parse_program(text)
    assert program.kernels[0].name == "conv 3x3 dw"
    assert program.kernels[0].duration_us == 25
    assert serialize_program(program) == text
