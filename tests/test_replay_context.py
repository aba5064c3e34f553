"""A shared ReplayContext gives what a fresh one gives.

Every plan of `golden/plan_corpus.json` replays through `replay_plan`, as
its policy replays it, from the context's stream; the reference replays the
parsed program text, so it is checked and flattened, under
the placement, host fallback and hook the policy's description in
`policies` gives. Program bytes and whole SimResults, event logs included,
must match. c08-style generated cases replay every policy through one
context per (trace, device) and match both that reference and `run_policy`,
which builds its own context. Planning, and an oracle search through the
context it builds, leave the context as built.
A program not emitted from the context replays from its own alloc/free
stream: one emitted from the same trace on another device replays as its
parsed text does, and one emitted from another trace is refused.
"""

import dataclasses
import hashlib
import json
import pathlib

import pytest
from hypothesis import given, settings

from conftest import make_context, make_device
from test_acceptance import _cases, _suite_case
from tensortier.config import DeviceConfig
from tensortier.eviction import MigrationPlan, plan_to_json
from tensortier.instrument import (emit_program, parse_program,
                                   serialize_program)
from tensortier.oracle import best_assignment
from tensortier import oracle
from tensortier.policies import (_correlation_hook, faulting_placement,
                                 planned_placement, policy_plan, replay_plan,
                                 run_policy)
from tensortier.prefetch import plan_migrations
from tensortier.simulate import (ProgramInconsistentError, ReplayContext,
                                 SimulationError, simulate)
from tensortier.trace import synthesize_trace

PLAN_CORPUS = pathlib.Path(__file__).parent / "golden" / "plan_corpus.json"
REPLAYED = ("base-uvm", "deepum-like", "flashneuron-like", "g10",
            "g10-ssd-only")


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _outcome(fn):
    try:
        return fn()
    except SimulationError as exc:
        return f"SimulationError: {exc}"


def _from_text(policy, context, plan):
    """(program text, replay) of plan as policy, replayed from its parsed
    text: the fault-driven policies start from the faulting
    placement (deepum-like with a fresh correlation hook), the others from
    the planned one; only flashneuron-like and g10-ssd-only keep off host
    memory."""
    allow_host = policy not in ("flashneuron-like", "g10-ssd-only")
    if policy in ("base-uvm", "deepum-like"):
        locations = faulting_placement(context)
    else:
        locations = planned_placement(context, allow_host)
    hook = _correlation_hook() if policy == "deepum-like" else None
    text = serialize_program(emit_program(context, plan))
    return text, _outcome(lambda: simulate(
        context, parse_program(text), policy=policy,
        allow_host_fallback=allow_host, initial_locations=locations,
        on_kernel_start=hook))


def _corpus_plans():
    """(name, context, allow_host, plan, golden digests) for every plan in
    the plan corpus; both routes of a trace share one context."""
    golden = json.loads(PLAN_CORPUS.read_text())
    cases = [(f"suite/{seed}", *_suite_case(seed), golden["suite"][str(seed)])
             for seed in range(30)]
    c04 = make_device(gpu_mem_bytes=131_072)
    cases += [(f"c04/{seed}", synthesize_trace(3, (20_480, 28_672),
                                               (20_480, 28_672), (100, 200),
                                               seed), c04,
               golden["c04"][str(seed)]) for seed in range(100)]
    ladder = synthesize_trace(400, 64_000_000, 16_000_000, (300, 900), 11)
    dev = DeviceConfig()
    footprint = sum(dev.padded(t.size_bytes) for t in ladder.tensors.values())
    cases.append(("ladder/400", ladder, dataclasses.replace(
        dev, gpu_mem_bytes=footprint * 5 // 8), golden["ladder"]["400"]))
    for name, trace, dev, digests in cases:
        context = make_context(trace, dev)
        for route, allow_host in (("host", True), ("ssd-only", False)):
            plan = plan_migrations(context, allow_host=allow_host).plan
            yield f"{name}/{route}", context, allow_host, plan, digests[route]
    c10 = synthesize_trace(200, 64_000_000, 16_000_000, (300, 900), 11)
    context = make_context(c10, dataclasses.replace(
        DeviceConfig(), gpu_mem_bytes=12 * 10**9))
    yield ("c10", context, True,
           plan_migrations(context, allow_host=True).plan, golden["c10"])


def test_corpus_plans_emit_and_replay_alike_with_a_shared_context():
    for name, context, allow_host, plan, digests in _corpus_plans():
        assert _sha(plan_to_json(plan)) == digests["plan"], name
        policy = "g10" if allow_host else "g10-ssd-only"
        text, reference = _from_text(policy, context, plan)
        assert _sha(text) == digests["program"], name
        assert _outcome(lambda: replay_plan(
            policy, context, plan)) == reference, name


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_cases())
def test_generated_policy_replays_alike_with_a_shared_context(case):
    trace, dev = case
    context = make_context(trace, dev)
    for name in REPLAYED:
        plan = policy_plan(name, context)
        shared = _outcome(lambda: replay_plan(name, context, plan))
        assert shared == _from_text(name, context, plan)[1], name
        assert shared == _outcome(lambda: run_policy(name, trace, dev)), name


def _tables(context):
    return (context.sizes, context.pressure.breakpoints(), context.times)


def test_planning_and_searching_leave_the_context_as_built(monkeypatch):
    trace = synthesize_trace(3, (20_480, 28_672), (20_480, 28_672),
                             (100, 200), 0)
    dev = make_device(gpu_mem_bytes=131_072)
    shared = make_context(trace, dev)
    names = ("g10", "g10-ssd-only", "flashneuron-like")
    plans = [plan_to_json(policy_plan(name, shared)) for name in names]
    searched = []

    def build(*args):
        searched.append(ReplayContext(*args))
        return searched[-1]

    monkeypatch.setattr(oracle, "ReplayContext", build)
    best_assignment(shared.analysis, dev)
    fresh = _tables(make_context(trace, dev))
    assert _tables(shared) == fresh
    # the search plans the greedy plan and books every combination on the
    # context it builds
    assert len(searched) == 1 and _tables(searched[0]) == fresh
    assert plans == [plan_to_json(policy_plan(name, make_context(trace, dev)))
                     for name in names]
    assert all(json.loads(plan)["evictions"] for plan in plans)


def test_program_with_its_own_placement_replays_from_its_own_stream():
    trace = synthesize_trace(2, (20_480, 28_672), (20_480, 28_672),
                             (100, 200), 3)
    dev = make_device(gpu_mem_bytes=1 << 20)
    context = make_context(trace, dev)
    emitted = emit_program(context,
                           MigrationPlan(context.analysis.timeline.total_us))
    lines = serialize_program(emitted).splitlines()
    # every free moves to the end of the iteration
    frees = [line for line in lines if line.startswith("G10 free")]
    assert frees
    moved = parse_program("\n".join(
        [line for line in lines if line not in frees] + frees) + "\n")
    shared = simulate(context, moved)
    assert shared == simulate(make_context(trace, dev), moved)
    assert shared != simulate(context, emitted)
    tail = shared.log.splitlines()[-len(frees) - 1:-1]
    assert [e.split()[1] for e in tail] == ["free"] * len(frees)


def test_program_of_another_context_is_checked_and_flattened():
    trace = synthesize_trace(3, (20_480, 28_672), (20_480, 28_672),
                             (100, 200), 0)
    dev = make_device(gpu_mem_bytes=131_072)
    context = make_context(trace, dev)
    program = emit_program(context, policy_plan("g10", context))
    assert any(ins.op.value == "pre_evict" for ins in program.instructions())
    # another trace: its kernels differ, so the program is refused
    other = make_context(synthesize_trace(3, (20_480, 28_672),
                                          (20_480, 28_672), (100, 200), 1),
                         dev)
    with pytest.raises(ProgramInconsistentError):
        simulate(other, program)
    # the same trace on another device: replayed as its parsed text is
    roomier = make_context(trace, make_device(gpu_mem_bytes=262_144))
    parsed = parse_program(serialize_program(program))
    for locations in (None, planned_placement(roomier, True)):
        got = simulate(roomier, program, initial_locations=locations)
        assert got == simulate(roomier, parsed, initial_locations=locations)
    assert got != simulate(context, program,
                           initial_locations=planned_placement(context, True))
