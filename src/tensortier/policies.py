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
"""

from __future__ import annotations

from tensortier.config import POLICY_NAMES, DeviceConfig
from tensortier.eviction import (Destination, MigrationPlan, SchedulerState,
                                 SchedulingResult, apply_candidate,
                                 item_from_candidate, score_candidate)
from tensortier.instrument import emit_program
from tensortier.prefetch import assign_latest_safe, plan_migrations
from tensortier.reservations import ChannelReservations
from tensortier.curve import StepCurve
from tensortier.simulate import (GPU, HOST, SSD, SimResult, ideal_run,
                                 perturb_durations, simulate)
from tensortier.trace import WorkloadTrace
from tensortier.vitality import analyze, initial_pressure_curve

DEFAULT_LOOKAHEAD = 1


def _durations(trace: WorkloadTrace, config: DeviceConfig, noise_pct: float,
               seed: int):
    if noise_pct <= 0:
        return None
    return perturb_durations(trace, noise_pct, seed, config.num_iterations)


def _globals_of(analysis):
    return sorted(tid for tid, life in analysis.lifetimes.items()
                  if life.is_global)


def planned_placement(analysis, config: DeviceConfig,
                      allow_host: bool) -> dict[int, str]:
    """Long-lived tensors start on device while they fit, spilling to the
    next tier down."""
    placement = {}
    free = config.gpu_mem_bytes
    host_free = config.host_mem_bytes
    for tid in _globals_of(analysis):
        size = config.padded(analysis.trace.tensors[tid].size_bytes)
        if size <= free:
            placement[tid] = GPU
            free -= size
        elif allow_host and size <= host_free:
            placement[tid] = HOST
            host_free -= size
        else:
            placement[tid] = SSD
    return placement


def faulting_placement(analysis, config: DeviceConfig) -> dict[int, str]:
    """Long-lived tensors begin in host memory, as managed-memory runtimes
    leave them, and fault onto the device on first touch."""
    placement = {}
    host_free = config.host_mem_bytes
    for tid in _globals_of(analysis):
        size = config.padded(analysis.trace.tensors[tid].size_bytes)
        if size <= host_free:
            placement[tid] = HOST
            host_free -= size
        else:
            placement[tid] = SSD
    return placement


def flashneuron_plan(analysis, config: DeviceConfig) -> SchedulingResult:
    """Offload intermediates in birth order until the curve fits.

    Marks the plan infeasible when no schedule can work (a single kernel's
    working set exceeds device memory) or when every candidate is exhausted
    with pressure still above capacity."""
    total = analysis.timeline.total_us
    state = SchedulerState(
        total_us=total,
        pressure=initial_pressure_curve(analysis, config),
        reservations=ChannelReservations(),
        host_occupancy=StepCurve(total),
    )
    plan = MigrationPlan(total_us=total)
    for kernel in analysis.trace.kernels:
        active = sum(config.padded(analysis.trace.tensors[t].size_bytes)
                     for t in kernel.tensors())
        if active > config.gpu_mem_bytes:
            plan.infeasible = True
    sizes = {tid: config.padded(t.size_bytes)
             for tid, t in analysis.trace.tensors.items()}
    periods = sorted(
        (p for p in analysis.periods
         if not analysis.lifetimes[p.tensor_id].is_global),
        key=lambda p: (p.start_us, p.tensor_id))
    for period in periods:
        if state.pressure.max_value() <= config.gpu_mem_bytes:
            break
        cand = score_candidate(period, sizes[period.tensor_id],
                               Destination.SSD, state, config)
        if cand is None:
            continue
        apply_candidate(cand, state, config)
        plan.items.append(item_from_candidate(cand))
    if state.pressure.max_value() > config.gpu_mem_bytes:
        plan.infeasible = True
    plan.residual_overflow = state.pressure.overflow_area(config.gpu_mem_bytes)
    result = SchedulingResult(plan=plan, state=state)
    assign_latest_safe(result)
    return result


def _correlation_hook(lookahead: int):
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
        target = min(kernel + lookahead, len(engine.trace.kernels) - 1)
        for tid in recorded.get(target, ()):
            engine.runtime_prefetch(tid)

    return hook


def run_policy(name: str, trace: WorkloadTrace, config: DeviceConfig, *,
               seed: int = 0, noise_pct: float = 0.0, eager: bool = True,
               lookahead: int = DEFAULT_LOOKAHEAD,
               keep_events: bool = False) -> SimResult:
    if name not in POLICY_NAMES:
        raise ValueError(f"unknown policy {name!r}")
    durations = _durations(trace, config, noise_pct, seed)
    if name == "ideal":
        return ideal_run(trace, config, durations)

    analysis = analyze(trace)
    empty = MigrationPlan(total_us=analysis.timeline.total_us)

    if name == "base-uvm":
        program = emit_program(trace, empty)
        return simulate(trace, program, config, policy=name,
                        durations=durations,
                        initial_locations=faulting_placement(analysis, config),
                        keep_events=keep_events)
    if name == "deepum-like":
        program = emit_program(trace, empty)
        return simulate(trace, program, config, policy=name,
                        durations=durations,
                        initial_locations=faulting_placement(analysis, config),
                        on_kernel_start=_correlation_hook(lookahead),
                        keep_events=keep_events)
    if name == "flashneuron-like":
        result = flashneuron_plan(analysis, config)
        program = emit_program(trace, result.plan)
        return simulate(trace, program, config, policy=name,
                        durations=durations,
                        initial_locations=planned_placement(
                            analysis, config, allow_host=False),
                        allow_host_fallback=False,
                        keep_events=keep_events)

    allow_host = name == "g10"
    result = plan_migrations(analysis, config, allow_host=allow_host,
                             eager=eager)
    program = emit_program(trace, result.plan)
    return simulate(trace, program, config, policy=name,
                    durations=durations,
                    initial_locations=planned_placement(
                        analysis, config, allow_host=allow_host),
                    allow_host_fallback=allow_host,
                    keep_events=keep_events)
