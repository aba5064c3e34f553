"""Prefetch placement.

Eviction booking already parks each prefetch at the latest lane slot that
meets its deadline. That placement is fragile: any upstream delay at run
time turns directly into a stall. The eager pass walks the planned
prefetches in start order and pulls each one as early as GPU headroom and
its lane allow, keeping the original latest feasible start as slack
metadata on the plan item.
"""

from __future__ import annotations

from tensortier.config import DeviceConfig, Direction
from tensortier.curve import wrap_add
from tensortier.eviction import (Destination, SchedulingResult,
                                 schedule_evictions)
from tensortier.vitality import VitalityAnalysis


def latest_safe_prefetch_time(item, state) -> int:
    """Latest feasible start for this item's prefetch, ignoring its own
    booking. In-pipeline this equals the booked start: booking picked the
    latest slot, and later bookings only remove gaps."""
    lane = state.reservations.lane(item.dest.channel, Direction.TO_DEVICE)
    dur = item.prefetch_end - item.prefetch_start
    lane.release(item.owner())
    try:
        if item.wraps:
            rel = lane.latest_slot(dur, item.period_end - state.total_us)
            start = None if rel is None else rel + state.total_us
        else:
            start = lane.latest_slot(dur, item.period_end)
    finally:
        stored = item.prefetch_start
        if item.wraps:
            stored -= state.total_us
        lane.reserve(stored, stored + dur, item.owner())
    if start is None or start < item.prefetch_start:
        raise RuntimeError("booked prefetch window is no longer feasible")
    return start


def assign_latest_safe(result: SchedulingResult) -> None:
    for item in result.plan.items:
        item.latest_safe_us = latest_safe_prefetch_time(item, result.state)
        item.scheduled_us = item.prefetch_start


def eager_reschedule(result: SchedulingResult, config: DeviceConfig) -> None:
    """Pull prefetches earlier where capacity allows.

    For each item (ascending start, then tensor id) the earliest viable
    start is bounded by GPU pressure staying under capacity with the tensor
    back on device from the new start, and by a free slot on the inbound
    lane. Wrapping prefetches stay inside the next iteration's prefix.
    Idempotent: a second pass finds no headroom left.
    """
    state = result.state
    total = state.total_us
    order = sorted(result.plan.items,
                   key=lambda it: (it.scheduled_us, it.tensor_id))
    for item in order:
        size = state.sizes[item.tensor_id]
        cap = config.gpu_mem_bytes - size
        t_i = item.scheduled_us
        if item.wraps:
            m = state.pressure.earliest_below(cap, 0, t_i - total) + total
        else:
            m = state.pressure.earliest_below(cap, item.evict_end, t_i)
        if m >= t_i:
            continue
        lane = state.reservations.lane(item.dest.channel, Direction.TO_DEVICE)
        dur = item.prefetch_end - item.prefetch_start
        lane.release(item.owner())
        if item.wraps:
            start = lane.earliest_slot(dur, m - total) + total
        else:
            start = lane.earliest_slot(dur, m)
        start = min(start, t_i)
        stored = start - total if item.wraps else start
        lane.reserve(stored, stored + dur, item.owner())
        if start < t_i:
            wrap_add(state.pressure, start, t_i, size)
            if item.dest is Destination.HOST:
                wrap_add(state.host_occupancy, start, t_i, -size)
            item.scheduled_us = start
            item.prefetch_start = start
            item.prefetch_end = start + dur


def plan_migrations(analysis: VitalityAnalysis, config: DeviceConfig, *,
                    allow_host: bool = True, eager: bool = True,
                    use_cache: bool = True) -> SchedulingResult:
    """Full planning pipeline: greedy eviction booking, slack annotation,
    then the optional eager pass."""
    result = schedule_evictions(analysis, config, allow_host=allow_host,
                                use_cache=use_cache)
    assign_latest_safe(result)
    if eager:
        eager_reschedule(result, config)
    return result
