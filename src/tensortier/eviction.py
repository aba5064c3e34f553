"""Greedy eviction scheduling.

Each round weighs the remaining inactive periods, picks the route (period
and destination) with the best benefit/cost ratio, and books its eviction
and prefetch windows on the lanes of its destination. Benefit is the
pressure-above-capacity area the freed interval removes; cost is the two
transfer times. Iteration stops once the pressure curve fits GPU memory,
no candidate helps, or periods run out. A planned migration is a PlanItem
from scoring to the emitted program, and SchedulerState.book is the one
way to book one. A SchedulerState holds its plan and its context (a
simulate.ReplayContext), and the planner functions take the state and no
DeviceConfig beside it. They read the context's device, padded sizes,
period order (by_start), initial pressure curve (each plan books on a
copy) and transfer times, and never write them.

Times on the unrolled axis: a wrapping period's prefetch lands in the next
iteration's prefix (window values >= total_us map into [0, total) mod total).

Scoring is incremental and exact: every round gives the same answers as
calling choose_destination afresh for every remaining period (the reference
loop in tests/reference_planner.py does just that), and redoes only what
the last pick can have changed. While the planner runs, the pressure curve
and the flash left only fall, and host occupancy and lane bookings only
grow. Per (period, destination) route the planner keeps the constant parts
(padded size, lanes, and the context's transfer times), the slot starts e0
and p0, the host-capacity verdict and the benefit:

- a slot moves exactly when a new booking on its lane overlaps it, and is
  searched again from where it was; a search that failed keeps failing;
- a passed host check is redone only after a host pick whose occupancy
  change overlaps the window [e1, p0) and leaves less host memory than
  the route's size somewhere; a failed one keeps failing;
- the benefit (the overflow area inside [e1, p0), each point's overflow
  clamped to the route's size) is recomputed when a slot moved, or when a
  pick lowered the pressure inside the window where it was above capacity
  and is now below capacity plus the largest size. A zero benefit stays
  zero: the window only shrinks and the pressure in it only falls.

Per period, the SSD lanes' busy time inside it is kept up to date with
each SSD booking; it only grows, so a busy verdict stays busy. A period's
choice is made again only when one of these changed for it, or an SSD pick
left too little flash for its size. Every other period keeps its choice
from the last round.

A round walks the remaining periods once, by period start and tensor id:
it chooses again where a choice is stale, drops the periods that fit
nowhere (after the walk, in the order a full rescoring drops them) and
keeps the best route with a positive benefit, the only one made a PlanItem.
Once that is booked, picked marks stale what the booking can have changed.

Within a round the routes ask the same questions many times over: routes
of one padded size on a congested lane collapse onto the same slots, and so
onto the same windows. The round's memo (_Memo) answers each distinct slot
search (lane, duration, bounds), host-occupancy maximum (e1, p0) and
benefit (padded size, e1, p0) once, asking the lane or curve on a miss.
That is exact: a round only reads the planner state, and every write to it
is SchedulerState.book between round and picked, which clears the memo
first. score_candidate asks through a fresh memo, so its callers (the
oracle, FlashNeuron and the reference planner) share no answers.

picked walks the remaining periods once and gives each period every
check; a check tests its own overlap, so each forgets only what it is
about and the order they run in does not matter:

- relieved (a benefit moved): the window meets the pieces where the pick
  lowered the pressure from above capacity to below capacity plus the
  largest size.
- booked (a slot moved): a slot of a route to the pick's destination
  meets the pick's booking on its lane.
- ssd_booked (the SSD busy time grew): after an SSD pick, the period meets
  the pick's bookings.
- crowded (a passed host check can fail): after a host pick that leaves
  less host memory than the largest size somewhere, the window meets the
  freed pieces, since a host check reads the occupancy inside its window
  only.
- An SSD pick flips the SSD-capacity verdict only for sizes in
  (flash left, flash left + the pick's size].
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from tensortier.config import Destination, Direction
from tensortier.curve import (StepCurve, wrap_add, wrap_max, wrap_pieces,
                              wrap_window_overflow_area)
from tensortier.reservations import LaneReservations
from tensortier.vitality import InactivePeriod


class CapacityViolationError(RuntimeError):
    """Internal guard: booking an item would break a state invariant."""


@dataclass
class PlanItem:
    tensor_id: int
    period_start: int
    period_end: int
    wraps: bool
    dest: Destination
    evict_start: int
    evict_end: int
    prefetch_start: int      # unrolled (>= total_us when the period wraps)
    prefetch_end: int
    benefit: int             # byte*us of overflow removed by the freed interval
    cost_us: int
    latest_safe_us: int | None = None
    scheduled_us: int | None = None

    def owner(self):
        return (self.tensor_id, self.period_start)


@dataclass
class MigrationPlan:
    total_us: int
    items: list[PlanItem] = field(default_factory=list)
    residual_overflow: int = 0
    unschedulable: list[tuple[int, int, int]] = field(default_factory=list)


@dataclass
class SchedulerState:
    """A plan and the planner bookkeeping it is booked on, over the tables
    of context (a simulate.ReplayContext), which it reads and never
    writes."""

    context: object
    plan: MigrationPlan
    pressure: StepCurve
    lanes: dict[tuple[Destination, Direction], LaneReservations]  # all four
    host_occupancy: StepCurve
    ssd_occupancy: int = 0

    @classmethod
    def initial(cls, context) -> SchedulerState:
        """An empty plan over a copy of the unplanned trace's pressure,
        with an empty lane for each of the context's lane keys."""
        total = context.analysis.timeline.total_us
        return cls(context, MigrationPlan(total), context.pressure.copy(),
                   {key: LaneReservations() for key in context.lanes},
                   StepCurve(total))

    def copy(self) -> SchedulerState:
        """A state to book on apart from this one. Its plan lists the same
        items, which are not copied."""
        plan = self.plan
        return SchedulerState(self.context, MigrationPlan(
            plan.total_us, plan.items[:], plan.residual_overflow,
            plan.unschedulable[:]), self.pressure.copy(),
            {k: v.copy() for k, v in self.lanes.items()},
            self.host_occupancy.copy(), self.ssd_occupancy)

    def book(self, item: PlanItem):
        """Book item's windows on the state, then add it to the plan;
        returns what apply_candidate booked."""
        booked = apply_candidate(item, self)
        self.plan.items.append(item)
        return booked

    def residual(self) -> int:
        """The pressure's overflow area above GPU memory: the one place a
        plan's residual_overflow is computed."""
        return self.pressure.overflow_area(self.context.config.gpu_mem_bytes)


_STALE = object()  # not computed since something it depends on changed


def _overlaps(pieces_a, pieces_b) -> bool:
    for a0, a1 in pieces_a:
        for b0, b1 in pieces_b:
            if a0 < b1 and b0 < a1:
                return True
    return False


def _overlap_us(pieces, interval) -> int:
    lo, hi = interval
    total = 0
    for a, b in pieces:
        if a < hi and lo < b:
            total += min(b, hi) - max(a, lo)
    return total


class _Memo:
    """The state queries a route asks: slot searches on its lanes, the host
    occupancy's maximum over its window and the benefit of its window. Each
    distinct one is asked of the lane or curve once until clear (when that
    is exact: module docstring); score_candidate asks through a fresh memo,
    so its callers share no answers."""

    __slots__ = ("pressure", "host", "cap", "_slots", "_host_max",
                 "_benefits")

    def __init__(self, state: SchedulerState):
        self.pressure = state.pressure
        self.host = state.host_occupancy
        self.cap = state.context.config.gpu_mem_bytes
        self._slots = {}       # (lane, duration, bounds) -> slot start
        self._host_max = {}    # (e1, p0) -> host occupancy maximum
        self._benefits = {}    # (padded size, e1, p0) -> benefit

    def clear(self) -> None:
        self._slots.clear()
        self._host_max.clear()
        self._benefits.clear()

    def earliest_slot(self, lane, dur, lo, hi):
        key = (lane, dur, lo, hi)
        found = self._slots.get(key, _STALE)
        if found is _STALE:
            found = self._slots[key] = lane.earliest_slot(dur, lo, hi)
        return found

    def latest_slot(self, lane, dur, hi):
        key = (lane, dur, hi)
        found = self._slots.get(key, _STALE)
        if found is _STALE:
            found = self._slots[key] = lane.latest_slot(dur, hi)
        return found

    def host_max(self, t0, t1):
        key = (t0, t1)
        found = self._host_max.get(key)
        if found is None:
            found = self._host_max[key] = wrap_max(self.host, t0, t1)
        return found

    def benefit(self, size, t0, t1):
        key = (size, t0, t1)
        found = self._benefits.get(key)
        if found is None:
            found = self._benefits[key] = wrap_window_overflow_area(
                self.pressure, self.cap, size, t0, t1)
        return found


class _Route:
    """Scoring inputs for evicting one period to one destination.

    Size, lanes and transfer times (the context's times) never change.
    The slot starts are kept between rounds: e0 on the outbound lane and
    p0 on the inbound lane (in lane time, before the wrap shift); win is
    the window they make and span its pieces in the iteration. A
    slot is searched within [e_lo, e_hi) or [0, p_hi); a search again
    after a booking took the slot starts from it, since the times it
    skipped were taken before and still are. host_ok caches the
    host-capacity check and benefit the overflow the window removes, each
    for the current window (when they go stale: module docstring).
    """

    __slots__ = ("period", "tensor_id", "period_start", "dest", "size",
                 "cost_us", "e_dur", "p_dur", "from_lane", "to_lane", "e_lo",
                 "e_hi", "p_hi", "shift", "total", "e0", "p0", "win", "span",
                 "host_ok", "benefit")

    def __init__(self, period: InactivePeriod, dest: Destination,
                 state: SchedulerState):
        self.period = period
        self.tensor_id, self.period_start = period.tensor_id, period.start_us
        self.dest = dest
        self.size = state.context.sizes[period.tensor_id]
        self.e_dur, self.p_dur = state.context.times[dest, self.size]
        self.from_lane = state.lanes[dest, Direction.FROM_DEVICE]
        self.to_lane = state.lanes[dest, Direction.TO_DEVICE]
        self.cost_us = self.e_dur + self.p_dur
        self.total = total = state.plan.total_us
        self.e_lo = period.start_us
        if period.wraps_iteration:
            # eviction completes inside this iteration, prefetch lands
            # entirely in the next iteration's prefix
            self.e_hi = total
            self.p_hi = period.end_us - total
            self.shift = total
        else:
            self.e_hi = None
            self.p_hi = period.end_us
            self.shift = 0
        self.e0 = self.p0 = self.win = _STALE
        self.span = ()
        self.host_ok = self.benefit = None

    def window(self, ask: _Memo):
        """(e0, e1, p0) on the unrolled axis, or None if no pair fits."""
        if self.win is not _STALE:
            return self.win
        self.win = None
        if self.e0 is _STALE:
            self.e0 = ask.earliest_slot(self.from_lane, self.e_dur, self.e_lo,
                                        self.e_hi)
        if self.e0 is None:
            return None
        if self.p0 is _STALE:
            self.p0 = ask.latest_slot(self.to_lane, self.p_dur, self.p_hi)
        if self.p0 is None:
            return None
        e1 = self.e0 + self.e_dur
        p0 = self.p0 + self.shift
        if e1 > p0:
            return None
        self.win = (self.e0, e1, p0)
        self.span = wrap_pieces(e1, p0, self.total)
        return self.win

    def candidate(self, state: SchedulerState, ask: _Memo) -> bool:
        """Can the period be evicted this way now? If so, benefit holds the
        overflow the window removes. ask answers the state queries."""
        window = self.window(ask)
        if window is None:
            return False
        config = state.context.config
        if self.dest is Destination.HOST:
            if self.host_ok is None:
                self.host_ok = (ask.host_max(window[1], window[2]) + self.size
                                <= config.host_mem_bytes)
            if not self.host_ok:
                return False
        elif state.ssd_occupancy + self.size > config.ssd_capacity_bytes:
            return False
        if self.benefit is None:
            self.benefit = ask.benefit(self.size, window[1], window[2])
        return True

    def item(self) -> PlanItem:
        """The PlanItem for this route's window (after candidate said yes)."""
        e0, e1, p0 = self.win
        period = self.period
        return PlanItem(period.tensor_id, period.start_us, period.end_us,
                        period.wraps_iteration, self.dest, e0, e1, p0,
                        p0 + self.p_dur, self.benefit, self.cost_us)

    def booked(self, evict, prefetch) -> bool:
        """Forget the slots that a pick to this route's destination took; True
        if one was. evict and prefetch are its (start, end) bookings in
        lane time."""
        e0, p0 = self.e0, self.p0
        moved = False
        if (e0 is not _STALE and e0 is not None
                and evict[0] < e0 + self.e_dur and e0 < evict[1]):
            self.e_lo = e0
            self.e0 = _STALE
            moved = True
        if (p0 is not _STALE and p0 is not None
                and prefetch[0] < p0 + self.p_dur and p0 < prefetch[1]):
            self.p_hi = p0 + self.p_dur
            self.p0 = _STALE
            moved = True
        if moved:
            self.win = _STALE
            self.host_ok = None
            if self.benefit:  # a zero benefit stays zero on a smaller window
                self.benefit = None
        return moved

    def crowded(self, freed, room) -> bool:
        """Forget a passed host check that a host pick can have failed;
        True if it was forgotten. freed holds the pieces of the pick's
        occupancy change and room the host memory left at their fullest
        point."""
        # host_ok is only ever set on a window with both slots found
        if self.host_ok and self.size > room and _overlaps(freed, self.span):
            self.host_ok = None
            return True
        return False

    def relieved(self, pieces) -> bool:
        """Forget the benefit if the pieces where a pick moved the clamped
        overflow overlap the window; True if it was forgotten."""
        if self.benefit and _overlaps(pieces, self.span):
            self.benefit = None
            return True
        return False


def score_candidate(period: InactivePeriod, dest: Destination,
                    state: SchedulerState):
    """The PlanItem for evicting this period to dest: windows, benefit and
    cost, from a fresh route.

    Returns None when no feasible eviction/prefetch window pair exists (or a
    capacity bound already rules the destination out).
    """
    route = _Route(period, dest, state)
    return route.item() if route.candidate(state, _Memo(state)) else None


def _ssd_utilization_high(period: InactivePeriod,
                          state: SchedulerState) -> bool:
    """Is either SSD lane busier than the threshold inside the period?"""
    window = period.end_us - period.start_us
    if window <= 0:
        return False
    pieces = wrap_pieces(period.start_us, period.end_us, state.plan.total_us)
    for direction in Direction:
        lane = state.lanes[Destination.SSD, direction]
        busy = sum(lane.busy_within(a, b) for a, b in pieces)
        if busy > state.context.config.hp_utilization_threshold * window:
            return True
    return False


def choose_destination(period: InactivePeriod, state: SchedulerState,
                       allow_host: bool = True):
    """SSD first; fall back to host when the SSD route is under pressure.

    High pressure means: no feasible SSD windows, a freed interval that no
    longer removes any overflow (zero benefit), or SSD-lane utilization in
    the period beyond the threshold. Returns None when the period cannot be
    scheduled anywhere (drop).
    """
    ssd = score_candidate(period, Destination.SSD, state)
    high_pressure = (ssd is None or ssd.benefit == 0
                     or _ssd_utilization_high(period, state))
    if not high_pressure or not allow_host:
        return ssd
    host = score_candidate(period, Destination.HOST, state)
    return host if host is not None else ssd


def _better(a, b) -> bool:
    """Strictly better benefit/cost ratio, then larger benefit, earlier
    period start, smaller tensor id; for routes and PlanItems alike."""
    lhs = a.benefit * b.cost_us
    rhs = b.benefit * a.cost_us
    if lhs != rhs:
        return lhs > rhs
    if a.benefit != b.benefit:
        return a.benefit > b.benefit
    if a.period_start != b.period_start:
        return a.period_start < b.period_start
    return a.tensor_id < b.tensor_id


def apply_candidate(item: PlanItem, state: SchedulerState):
    """Book the windows and update pressure and occupancy. Returns (evict,
    prefetch, freed): the lane bookings in lane time and the freed pieces."""
    total, config = state.plan.total_us, state.context.config
    owner = item.owner()
    size = state.context.sizes[item.tensor_id]
    evict = (item.evict_start, item.evict_end)
    state.lanes[item.dest, Direction.FROM_DEVICE].reserve(*evict, owner)
    shift = total if item.prefetch_start >= total else 0
    prefetch = (item.prefetch_start - shift, item.prefetch_end - shift)
    state.lanes[item.dest, Direction.TO_DEVICE].reserve(*prefetch, owner)
    freed = wrap_pieces(item.evict_end, item.prefetch_start, total)
    for a, b in freed:
        state.pressure.add(a, b, -size)
    # only the freed pieces fell, and every earlier booking left the rest
    # of the curve non-negative
    for a, b in freed:
        if state.pressure.pieces_between(float("-inf"), 0, a, b):
            raise CapacityViolationError("negative pressure after apply")
    if item.dest is Destination.HOST:
        wrap_add(state.host_occupancy, item.evict_end, item.prefetch_start,
                 size)
        if state.host_occupancy.max_value() > config.host_mem_bytes:
            raise CapacityViolationError("host occupancy above host_mem_bytes")
    else:
        state.ssd_occupancy += size
        if state.ssd_occupancy > config.ssd_capacity_bytes:
            raise CapacityViolationError("ssd occupancy above capacity")
    return evict, prefetch, freed


class _Entry:
    """A remaining period, its two routes, the SSD lanes' busy time inside
    the period (outbound, inbound) and the route it chose in the last round
    (None if neither fits, _STALE once an input of it changed)."""

    __slots__ = ("period", "pieces", "ssd", "host", "busy_out", "busy_in",
                 "busy_limit", "choice")

    def __init__(self, period, state):
        self.period = period
        self.pieces = wrap_pieces(period.start_us, period.end_us,
                                  state.plan.total_us)
        self.ssd = _Route(period, Destination.SSD, state)
        self.host = _Route(period, Destination.HOST, state)
        # the cache is built before any booking, so the SSD lanes are empty
        self.busy_out = self.busy_in = 0
        self.busy_limit = (state.context.config.hp_utilization_threshold
                           * (period.end_us - period.start_us))
        self.choice = _STALE

    def ssd_busy(self) -> bool:
        """_ssd_utilization_high, from the kept busy times."""
        return self.busy_limit > 0 and (self.busy_out > self.busy_limit
                                        or self.busy_in > self.busy_limit)

    def ssd_booked(self, evict, prefetch) -> bool:
        """Add an SSD pick's bookings to the busy times; True if that made
        the SSD lanes count as busy (bookings only add lane time, so a busy
        verdict stays busy)."""
        out = _overlap_us(self.pieces, evict)
        inbound = _overlap_us(self.pieces, prefetch)
        if not (out or inbound):
            return False  # nothing moved, so neither did the verdict
        idle = not self.ssd_busy()
        self.busy_out += out
        self.busy_in += inbound
        return idle and self.ssd_busy()


class _RouteCache:
    """The remaining periods, by period start and tensor id, each with its
    choose_destination answer kept between rounds, and the answers of the
    current round. After each pick, picked walks every remaining period
    once, and each check forgets only what it is about (round,
    invalidation and memo rules: module docstring)."""

    def __init__(self, state: SchedulerState, allow_host: bool):
        self._state = state
        self._allow_host = allow_host
        self._memo = _Memo(state)
        assert not any(state.lanes[Destination.SSD, d].intervals()
                       for d in Direction), "built after a booking"
        self._entries = {(p.tensor_id, p.start_us): _Entry(p, state)
                         for p in state.context.by_start}
        # the largest clamp of any benefit query
        self._max_size = max((entry.ssd.size
                              for entry in self._entries.values()), default=0)

    def _choose(self, entry: _Entry):
        state, memo = self._state, self._memo
        route = entry.ssd if entry.ssd.candidate(state, memo) else None
        if self._allow_host and (route is None or route.benefit == 0
                                 or entry.ssd_busy()):
            if entry.host.candidate(state, memo):
                route = entry.host
        return route

    def round(self):
        """Choose again where stale, drop the periods that fit nowhere and
        select: (the best route with a positive benefit or None, the
        dropped periods in key order)."""
        best = None
        dropped = []
        for key, entry in self._entries.items():
            route = entry.choice
            if route is _STALE:
                route = entry.choice = self._choose(entry)
            if route is None:
                dropped.append(key)
            elif route.benefit > 0 and (best is None or _better(route, best)):
                best = route
        return best, [self._entries.pop(key).period for key in dropped]

    def picked(self, best: PlanItem, booked) -> None:
        """Forget what booking best can have changed; booked is what
        SchedulerState.book returned for it."""
        self._memo.clear()
        del self._entries[best.owner()]
        evict, prefetch, freed = booked
        state = self._state
        config = state.context.config
        size = state.context.sizes[best.tensor_id]
        # The pressure fell by best's size on freed. A benefit clamps the
        # overflow to its route's size, so it moved only where the pressure
        # was above capacity and is now below capacity plus that size.
        cap = config.gpu_mem_bytes
        relieved = [piece for a, b in freed
                    for piece in state.pressure.pieces_between(
                        cap - size, cap + self._max_size, a, b)]
        ssd_pick = best.dest is Destination.SSD
        if ssd_pick:
            flash = config.ssd_capacity_bytes - state.ssd_occupancy
        else:
            room = config.host_mem_bytes - wrap_max(
                state.host_occupancy, best.evict_end, best.prefetch_start)
            crowding = self._max_size > room
        # every check runs, since each one also updates what it keeps
        for entry in self._entries.values():
            dirty = entry.ssd.relieved(relieved)
            dirty |= entry.host.relieved(relieved)
            if ssd_pick:
                # sizes that fitted the flash left before this pick only
                dirty |= flash < entry.ssd.size <= flash + size
                dirty |= entry.ssd.booked(evict, prefetch)
                dirty |= entry.ssd_booked(evict, prefetch)
            else:
                dirty |= entry.host.booked(evict, prefetch)
                if crowding:
                    dirty |= entry.host.crowded(freed, room)
            if dirty:
                entry.choice = _STALE


def schedule_evictions(context, *,
                       allow_host: bool = True) -> SchedulerState:
    """Iterative greedy selection over all inactive periods of context (a
    simulate.ReplayContext)."""
    gpu = context.config.gpu_mem_bytes
    state = SchedulerState.initial(context)
    plan = state.plan
    routes = _RouteCache(state, allow_host)

    # a round over no periods selects nothing, which ends the loop
    while state.pressure.max_value() > gpu:
        best, dropped = routes.round()
        plan.unschedulable.extend((p.tensor_id, p.start_us, p.end_us)
                                  for p in dropped)
        if best is None:
            break
        item = best.item()
        routes.picked(item, state.book(item))

    plan.residual_overflow = state.residual()
    return state


def plan_to_json(plan: MigrationPlan) -> str:
    doc = {
        "evictions": [
            {
                "tensor_id": it.tensor_id,
                "period": [it.period_start, it.period_end],
                "wraps": it.wraps,
                "dest": it.dest.value,
                "evict": [it.evict_start, it.evict_end],
                "prefetch": [it.prefetch_start, it.prefetch_end],
                "benefit": it.benefit,
                "cost_us": it.cost_us,
                "latest_safe_us": it.latest_safe_us,
                "scheduled_us": it.scheduled_us,
            }
            for it in plan.items
        ],
        "residual_overflow": plan.residual_overflow,
        "unschedulable": [
            {"tensor_id": tid, "period": [s, e]}
            for tid, s, e in plan.unschedulable
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def plan_from_json(raw: str | bytes, total_us: int) -> MigrationPlan:
    doc = json.loads(raw)
    plan = MigrationPlan(total_us=total_us)
    for ev in doc["evictions"]:
        plan.items.append(PlanItem(
            tensor_id=ev["tensor_id"],
            period_start=ev["period"][0],
            period_end=ev["period"][1],
            wraps=ev["wraps"],
            dest=Destination(ev["dest"]),
            evict_start=ev["evict"][0],
            evict_end=ev["evict"][1],
            prefetch_start=ev["prefetch"][0],
            prefetch_end=ev["prefetch"][1],
            benefit=ev["benefit"],
            cost_us=ev["cost_us"],
            latest_safe_us=ev["latest_safe_us"],
            scheduled_us=ev["scheduled_us"],
        ))
    plan.residual_overflow = doc["residual_overflow"]
    plan.unschedulable = [(u["tensor_id"], u["period"][0], u["period"][1])
                          for u in doc["unschedulable"]]
    return plan
