"""Reference versions of planner steps that src/ does incrementally.

Each recomputes from scratch what the production code keeps up to date, so
tests can require the two to agree exactly.
"""

from tensortier.config import Direction
from tensortier.eviction import (CapacityViolationError, SchedulerState,
                                 _better, choose_destination, score_candidate)
from tensortier.prefetch import assign_latest_safe, eager_reschedule


def select_best(candidates):
    """Argmax of benefit/cost; ties break to larger benefit, earlier period
    start, then smaller tensor id."""
    best = None
    for cand in candidates:
        if best is None or _better(cand, best):
            best = cand
    if best is None:
        raise ValueError("select_best on empty candidate list")
    return best


def schedule_evictions_fresh(context, *, allow_host=True):
    """schedule_evictions with no kept state: every round calls
    choose_destination afresh for every remaining period."""
    config = context.config
    state = SchedulerState.initial(context)
    plan = state.plan
    remaining = {
        (p.tensor_id, p.start_us): p
        for p in sorted(context.analysis.periods,
                        key=lambda p: (p.start_us, p.tensor_id, p.end_us))
    }
    while remaining and state.pressure.max_value() > config.gpu_mem_bytes:
        candidates = []
        for key, period in list(remaining.items()):
            item = choose_destination(period, state, allow_host)
            if item is None:
                del remaining[key]
                plan.unschedulable.append((period.tensor_id, period.start_us,
                                           period.end_us))
            elif item.benefit > 0:
                candidates.append(item)
        if not candidates:
            break
        best = select_best(candidates)
        state.book(best)
        del remaining[best.owner()]
    plan.residual_overflow = state.pressure.overflow_area(config.gpu_mem_bytes)
    return state


def latest_safe_prefetch_time(item, state) -> int:
    """Latest feasible start for this item's prefetch, ignoring its own
    booking: release it, search the inbound lane for the latest slot that
    meets the period's deadline, and book it again where it was."""
    lane = state.lanes[item.dest, Direction.TO_DEVICE]
    dur = item.prefetch_end - item.prefetch_start
    lane.release(item.owner())
    try:
        if item.wraps:
            total = state.plan.total_us
            rel = lane.latest_slot(dur, item.period_end - total)
            start = None if rel is None else rel + total
        else:
            start = lane.latest_slot(dur, item.period_end)
    finally:
        stored = item.prefetch_start
        if item.wraps:
            stored -= state.plan.total_us
        lane.reserve(stored, stored + dur, item.owner())
    if start is None or start < item.prefetch_start:
        raise RuntimeError("booked prefetch window is no longer feasible")
    return start


def book_combo(context, periods, dests):
    """The oracle's booked plan for one assignment of periods (canonical
    order) to destinations (None skips), booked from a fresh state; None
    when it cannot be booked."""
    state = SchedulerState.initial(context)
    for period, dest in zip(periods, dests):
        if dest is None:
            continue
        item = score_candidate(period, dest, state)
        if item is None:
            return None
        try:
            state.book(item)
        except CapacityViolationError:
            return None
    assign_latest_safe(state)
    eager_reschedule(state)
    return state
