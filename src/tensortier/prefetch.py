"""Prefetch placement.

Eviction booking already parks each prefetch at the latest lane slot that
meets its deadline. That placement is fragile: any upstream delay at run
time turns directly into a stall. The eager pass walks the planned
prefetches in start order and pulls each one as early as GPU headroom and
its lane allow, keeping the original latest feasible start as slack
metadata on the plan item. Both passes take the plan's SchedulerState.
"""

from __future__ import annotations

from tensortier.config import Direction
from tensortier.curve import wrap_add
from tensortier.eviction import (Destination, SchedulerState,
                                 schedule_evictions)


def assign_latest_safe(state: SchedulerState) -> None:
    """Record each booked prefetch start as its latest safe start.

    Booking took the latest slot on the inbound lane that meets the
    period's deadline, and later bookings only take lane time, so no later
    start has become free since: the booked start is the latest safe one.
    """
    for item in state.plan.items:
        item.latest_safe_us = item.scheduled_us = item.prefetch_start


def eager_reschedule(state: SchedulerState) -> None:
    """Pull prefetches earlier where capacity allows.

    For each item (ascending start, then tensor id) the earliest viable
    start is bounded by GPU pressure staying under capacity with the tensor
    back on device from the new start, and by a free slot on the inbound
    lane. Wrapping prefetches stay inside the next iteration's prefix.
    Idempotent: a second pass finds no headroom left.
    """
    total, gpu = state.plan.total_us, state.context.config.gpu_mem_bytes
    sizes = state.context.sizes
    order = sorted(state.plan.items,
                   key=lambda it: (it.scheduled_us, it.tensor_id))
    for item in order:
        size = sizes[item.tensor_id]
        cap = gpu - size
        t_i = item.scheduled_us
        if item.wraps:
            m = state.pressure.earliest_below(cap, 0, t_i - total) + total
        else:
            m = state.pressure.earliest_below(cap, item.evict_end, t_i)
        if m >= t_i:
            continue
        lane = state.lanes[item.dest, Direction.TO_DEVICE]
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


def plan_migrations(context, *, allow_host: bool = True,
                    eager: bool = True) -> SchedulerState:
    """Full planning pipeline over context (a simulate.ReplayContext):
    greedy eviction booking, slack annotation, then the optional eager
    pass."""
    state = schedule_evictions(context, allow_host=allow_host)
    assign_latest_safe(state)
    if eager:
        eager_reschedule(state)
    return state
