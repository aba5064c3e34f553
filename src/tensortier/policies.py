"""Policy drivers: one entry point per memory-management strategy.

Every driver shares the same event engine and the same perturbed kernel
durations for a given seed, so results are directly comparable.

ideal              compute only, migration hardware assumed free
base-uvm           demand faulting from host, no planning at all
deepum-like        demand faulting plus correlation prefetching: iteration 0
                   records which tensors each kernel faulted on, later
                   iterations prefetch the recorded set of a kernel slightly
                   ahead of the current one
flashneuron-like   offloads intermediates to SSD in birth order until the
                   pressure curve fits, earliest-evict/latest-prefetch, no
                   host traffic
g10                vitality-driven greedy planning with eager prefetch and
                   host fallback
g10-ssd-only       the same planner forbidden from touching host memory

Every stage of a run reads one simulate.ReplayContext, built from the
trace's analysis on the device, and takes the trace and the device from it
alone: the planners its padded sizes, period order, initial pressure curve
and transfer times (through the SchedulerState that holds it and the
plan), the placements its sizes, and the emitter and the replay
(simulate(context, program)) its skeleton and stream. replay_plan decides
how a policy replays a plan (initial placement, host fallback, deepum-like
hook); run_policy and the oracle plan and replay through it and one
context.
"""

from __future__ import annotations

from tensortier.config import POLICY_NAMES, DeviceConfig
from tensortier.eviction import (Destination, MigrationPlan, SchedulerState,
                                 score_candidate)
from tensortier.instrument import emit_program
from tensortier.prefetch import assign_latest_safe, plan_migrations
from tensortier.simulate import (GPU, HOST, SSD, ReplayContext, SimResult,
                                 ideal_run, perturb_durations, simulate)
from tensortier.trace import WorkloadTrace
from tensortier.vitality import analyze

# deepum-like prefetches the tensors recorded for this many kernels ahead
LOOKAHEAD = 1


def _durations(trace: WorkloadTrace, config: DeviceConfig, noise_pct: float,
               seed: int):
    if noise_pct <= 0:
        return None
    return perturb_durations(trace, noise_pct, seed, config.num_iterations)


def _spill(context, gpu_free: int, allow_host: bool) -> dict[int, str]:
    """Long-lived tensors fill gpu_free bytes of the device, then host
    memory (when allowed), then flash, in tensor id order."""
    placement = {}
    host_free = context.config.host_mem_bytes
    for tid in sorted(tid for tid, life in context.analysis.lifetimes.items()
                      if life.is_global):
        size = context.sizes[tid]
        if size <= gpu_free:
            placement[tid] = GPU
            gpu_free -= size
        elif allow_host and size <= host_free:
            placement[tid] = HOST
            host_free -= size
        else:
            placement[tid] = SSD
    return placement


def planned_placement(context, allow_host: bool) -> dict[int, str]:
    """Long-lived tensors start on device while they fit, spilling to the
    next tier down."""
    return _spill(context, context.config.gpu_mem_bytes, allow_host)


def faulting_placement(context) -> dict[int, str]:
    """Long-lived tensors begin in host memory, as managed-memory runtimes
    leave them, and fault onto the device on first touch."""
    return _spill(context, 0, True)


def flashneuron_plan(context) -> SchedulerState:
    """Offload intermediates in birth order until the curve fits. Pressure
    left above capacity shows as residual_overflow > 0."""
    lifetimes, gpu = context.analysis.lifetimes, context.config.gpu_mem_bytes
    state = SchedulerState.initial(context)
    for period in context.by_start:
        if lifetimes[period.tensor_id].is_global:
            continue
        if state.pressure.max_value() <= gpu:
            break
        item = score_candidate(period, Destination.SSD, state)
        if item is not None:
            state.book(item)
    state.plan.residual_overflow = state.residual()
    assign_latest_safe(state)
    return state


def _correlation_hook():
    recorded = None

    def hook(engine, iteration, kernel):
        nonlocal recorded
        if iteration == 0:
            return
        if recorded is None:
            recorded = {}
            for it, k, tid in engine.fault_log:
                if it == 0:
                    recorded.setdefault(k, []).append(tid)
        # nothing is recorded past the last kernel
        for tid in recorded.get(kernel + LOOKAHEAD, ()):
            engine.runtime_prefetch(tid)

    return hook


# policy -> (the plan it replays, may it use host memory); ideal replays none
_PLANS = {
    "base-uvm": ("empty", True),
    "deepum-like": ("empty", True),
    "flashneuron-like": ("flashneuron", False),
    "g10": ("greedy", True),
    "g10-ssd-only": ("greedy", False),
}


def policy_plan(name: str, context, *, eager: bool = True) -> MigrationPlan:
    """The plan a policy replays: an empty one for the fault-driven
    policies, the birth-order SSD plan for flashneuron-like and the greedy
    plan for g10 (without the host route for g10-ssd-only)."""
    if name not in _PLANS:
        raise ValueError(f"policy {name!r} replays no plan")
    kind, allow_host = _PLANS[name]
    if kind == "empty":
        return MigrationPlan(total_us=context.analysis.timeline.total_us)
    if kind == "flashneuron":
        return flashneuron_plan(context).plan
    return plan_migrations(context, allow_host=allow_host, eager=eager).plan


def replay_plan(name: str, context, plan: MigrationPlan, *,
                durations=None) -> SimResult:
    """Replay plan as policy name does, emitted from and replayed through
    context."""
    kind, allow_host = _PLANS[name]
    hook = None
    if kind == "empty":
        locations = faulting_placement(context)
        if name == "deepum-like":
            hook = _correlation_hook()
    else:
        locations = planned_placement(context, allow_host)
    return simulate(context, emit_program(context, plan), policy=name,
                    durations=durations, initial_locations=locations,
                    allow_host_fallback=allow_host, on_kernel_start=hook)


def run_policy(name: str, trace: WorkloadTrace, config: DeviceConfig, *,
               seed: int = 0, noise_pct: float = 0.0,
               eager: bool = True) -> SimResult:
    if name not in POLICY_NAMES:
        raise ValueError(f"unknown policy {name!r}")
    durations = _durations(trace, config, noise_pct, seed)
    if name == "ideal":
        return ideal_run(trace, config, durations)

    context = ReplayContext(analyze(trace), config)
    return replay_plan(name, context, policy_plan(name, context, eager=eager),
                       durations=durations)
