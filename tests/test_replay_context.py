"""A shared ReplayContext gives what a fresh one gives.

Every plan of `golden/plan_corpus.json` and c08-style generated cases under
every replayed policy are emitted and replayed twice: once with no context,
so the program is checked and flattened, and once through one context per
(trace, device) shared by every replay of it, as `run_policy` and the oracle
replay. Program bytes and whole SimResults, event logs included, must match.
A program not emitted from the context replays from its own alloc/free
stream, and a context of another trace or device is refused.
"""

import dataclasses
import hashlib
import json
import pathlib

import pytest
from hypothesis import given, settings

from conftest import make_device
from test_acceptance import _cases, _suite_case
from tensortier.config import DeviceConfig
from tensortier.eviction import MigrationPlan, plan_to_json
from tensortier.instrument import (emit_program, parse_program,
                                   serialize_program)
from tensortier.policies import (planned_placement, policy_plan, replay_plan,
                                 run_policy)
from tensortier.prefetch import plan_migrations
from tensortier.simulate import ReplayContext, SimulationError, simulate
from tensortier.trace import synthesize_trace
from tensortier.vitality import analyze

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


def _both_ways(analysis, dev, plan, context, **kwargs):
    """(program text, replay) with no context and with context."""
    out = []
    for ctx in (None, context):
        program = emit_program(analysis, plan, ctx)
        out.append((serialize_program(program), _outcome(
            lambda: simulate(analysis.trace, program, dev, keep_events=True,
                             context=ctx, **kwargs))))
    return out


def _corpus_plans():
    """(name, analysis, device, allow_host, plan, golden plan digest) for
    every plan in the plan corpus."""
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
        analysis = analyze(trace)
        for route, allow_host in (("host", True), ("ssd-only", False)):
            plan = plan_migrations(analysis, dev, allow_host=allow_host).plan
            yield (f"{name}/{route}", analysis, dev, allow_host, plan,
                   digests[route]["plan"])
    c10 = synthesize_trace(200, 64_000_000, 16_000_000, (300, 900), 11)
    dev = dataclasses.replace(DeviceConfig(), gpu_mem_bytes=12 * 10**9)
    analysis = analyze(c10)
    yield ("c10", analysis, dev, True,
           plan_migrations(analysis, dev, allow_host=True).plan,
           golden["c10"]["plan"])


def test_corpus_plans_emit_and_replay_alike_with_a_shared_context():
    context = None
    for name, analysis, dev, allow_host, plan, digest in _corpus_plans():
        assert _sha(plan_to_json(plan)) == digest, name
        # one context serves both routes of a trace
        if context is None or context.trace is not analysis.trace:
            context = ReplayContext(analysis.trace, dev, analysis)
        fresh, shared = _both_ways(
            analysis, dev, plan, context, allow_host_fallback=allow_host,
            initial_locations=planned_placement(analysis, dev, allow_host))
        assert fresh == shared, name


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_cases())
def test_generated_policy_replays_alike_with_a_shared_context(case):
    trace, dev = case
    analysis = analyze(trace)
    context = ReplayContext(trace, dev, analysis)
    for name in REPLAYED:
        plan = policy_plan(name, analysis, dev)
        fresh, shared = [(serialize_program(emit_program(analysis, plan, ctx)),
                          _outcome(lambda: replay_plan(
                              name, analysis, dev, plan, ctx,
                              keep_events=True)))
                         for ctx in (None, context)]
        assert fresh == shared, name
        assert shared[1] == _outcome(lambda: run_policy(
            name, trace, dev, keep_events=True)), name


def test_program_with_its_own_placement_replays_from_its_own_stream():
    trace = synthesize_trace(2, (20_480, 28_672), (20_480, 28_672),
                             (100, 200), 3)
    dev = make_device(gpu_mem_bytes=1 << 20)
    analysis = analyze(trace)
    context = ReplayContext(trace, dev, analysis)
    emitted = emit_program(analysis, MigrationPlan(analysis.timeline.total_us),
                           context)
    lines = serialize_program(emitted).splitlines()
    # every free moves to the end of the iteration
    frees = [line for line in lines if line.startswith("G10 free")]
    assert frees
    moved = parse_program("\n".join(
        [line for line in lines if line not in frees] + frees) + "\n")
    shared = simulate(trace, moved, dev, keep_events=True, context=context)
    assert shared == simulate(trace, moved, dev, keep_events=True)
    assert shared != simulate(trace, emitted, dev, keep_events=True,
                              context=context)
    tail = shared.events[-len(frees) - 1:-1]
    assert [e.split()[1] for e in tail] == ["free"] * len(frees)


def test_context_of_another_trace_or_device_is_refused():
    trace = synthesize_trace(2, 20_480, 20_480, 100, 0)
    other = synthesize_trace(2, 20_480, 20_480, 100, 0)
    dev = make_device(gpu_mem_bytes=1 << 20)
    analysis = analyze(trace)
    context = ReplayContext(trace, dev, analysis)
    plan = MigrationPlan(analysis.timeline.total_us)
    program = emit_program(analysis, plan, context)
    with pytest.raises(ValueError, match="another trace or config"):
        simulate(other, program, dev, context=context)
    with pytest.raises(ValueError, match="another trace or config"):
        simulate(trace, program, make_device(gpu_mem_bytes=2 << 20),
                 context=context)
    with pytest.raises(ValueError, match="another trace"):
        emit_program(analyze(other), plan, context)
    with pytest.raises(ValueError, match="no analysis"):
        emit_program(analysis, plan, ReplayContext(trace, dev))
    with pytest.raises(ValueError, match="analysis of another trace"):
        ReplayContext(other, dev, analysis)
