"""Greedy eviction scheduling.

Repeatedly scores every remaining inactive period, picks the candidate with
the best benefit/cost ratio, and books its eviction and prefetch windows on
the channel lanes. Benefit is the pressure-above-capacity area the freed
interval removes; cost is the two transfer times. Iteration stops once the
pressure curve fits GPU memory, no candidate helps, or periods run out.

Times on the unrolled axis: a wrapping period's prefetch lands in the next
iteration's prefix (window values >= total_us map into [0, total) mod total).

Scoring is incremental and exact: every round gives the same answers as
calling choose_destination afresh (use_cache=False does just that), and
redoes only what the last pick can have changed. While the planner runs,
the pressure curve and the flash left only fall, and host occupancy and
lane bookings only grow. Per (period, destination) route the planner keeps
the constant parts (padded size, transfer times, lanes), the slot starts
e0 and p0, the host-capacity verdict, the benefit and the
EvictionCandidate made from them:

- a slot moves exactly when a new booking on its lane overlaps it, and is
  searched again from where it was; a search that failed keeps failing;
- a passed host check is redone only after a host pick whose occupancy
  change overlaps the window [e1, p0) and leaves less host memory than
  the route's size somewhere; a failed one keeps failing;
- the benefit (the overflow area inside [e1, p0), each point's overflow
  clamped to the route's size) is recomputed when a slot moved, or when a
  pick lowered the pressure inside the window where it was above capacity
  and is now below capacity plus the largest size. A zero benefit stays
  zero: the window only shrinks and the pressure in it only falls;
- the candidate object is rebuilt only when a slot or the benefit changed.

Per period, the SSD lanes' busy time inside it is kept up to date with
each SSD booking; it only grows, so a busy verdict stays busy. A period's
choice is made again only when one of these changed for it, or an SSD pick
left too little flash for its size. Every other period keeps its choice
from the last round; the periods that fit nowhere any more are dropped in
the order a full rescoring drops them.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

from tensortier.config import Channel, DeviceConfig, Direction
from tensortier.curve import (StepCurve, wrap_add, wrap_max, wrap_pieces,
                              wrap_window_overflow_area)
from tensortier.reservations import ChannelReservations
from tensortier.vitality import (InactivePeriod, VitalityAnalysis,
                                 initial_pressure_curve, transfer_time)


class CapacityViolationError(RuntimeError):
    """Internal guard: applying a candidate would break a state invariant."""


class Destination(enum.Enum):
    SSD = "ssd"
    HOST = "host"

    @property
    def channel(self) -> Channel:
        return Channel.SSD if self is Destination.SSD else Channel.HOST


@dataclass(frozen=True)
class EvictionCandidate:
    period: InactivePeriod
    size_bytes: int          # page-padded
    dest: Destination
    evict_start: int
    evict_end: int
    prefetch_start: int      # unrolled (>= total_us when the period wraps)
    prefetch_end: int
    benefit: int             # byte*us of overflow removed by the freed interval
    cost_us: int

    def owner(self):
        return (self.period.tensor_id, self.period.start_us)


@dataclass
class PlanItem:
    tensor_id: int
    period_start: int
    period_end: int
    wraps: bool
    dest: Destination
    evict_start: int
    evict_end: int
    prefetch_start: int
    prefetch_end: int
    benefit: int
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
    infeasible: bool = False


@dataclass
class SchedulerState:
    """Planner bookkeeping shared by the eviction and prefetch stages."""

    total_us: int
    pressure: StepCurve
    reservations: ChannelReservations
    host_occupancy: StepCurve
    ssd_occupancy: int = 0


@dataclass
class SchedulingResult:
    plan: MigrationPlan
    state: SchedulerState


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


class _Route:
    """Scoring inputs for evicting one period to one destination.

    Size, transfer times and lanes never change. The slot starts are kept
    between rounds: e0 on the outbound lane and p0 on the inbound lane (in
    lane time, before the wrap shift); win is the window they make and span
    its pieces in the iteration. A slot is searched within [e_lo, e_hi) or
    [0, p_hi); a search again after a booking took the slot starts from
    it, since the times it skipped were taken before and still are.
    host_ok caches the host-capacity check, benefit the overflow the window
    removes and cand the candidate, each for the current window (when they
    go stale: module docstring).
    """

    __slots__ = ("period", "dest", "size", "cost_us", "e_dur", "p_dur",
                 "from_lane", "to_lane", "e_lo", "e_hi", "p_hi", "shift",
                 "total", "e0", "p0", "win", "span", "host_ok", "benefit",
                 "cand")

    def __init__(self, period: InactivePeriod, dest: Destination, size: int,
                 state: SchedulerState, config: DeviceConfig):
        spec = config.channel(dest.channel)
        self.period = period
        self.dest = dest
        self.size = size
        self.e_dur = transfer_time(size, spec, Direction.FROM_DEVICE)
        self.p_dur = transfer_time(size, spec, Direction.TO_DEVICE)
        self.cost_us = self.e_dur + self.p_dur
        self.from_lane = state.reservations.lane(dest.channel,
                                                 Direction.FROM_DEVICE)
        self.to_lane = state.reservations.lane(dest.channel,
                                               Direction.TO_DEVICE)
        self.total = state.total_us
        self.e_lo = period.start_us
        if period.wraps_iteration:
            # eviction completes inside this iteration, prefetch lands
            # entirely in the next iteration's prefix
            self.e_hi = state.total_us
            self.p_hi = period.end_us - state.total_us
            self.shift = state.total_us
        else:
            self.e_hi = None
            self.p_hi = period.end_us
            self.shift = 0
        self.e0 = self.p0 = self.win = _STALE
        self.span = ()
        self.host_ok = self.benefit = self.cand = None

    def window(self):
        """(e0, e1, p0) on the unrolled axis, or None if no pair fits."""
        if self.win is not _STALE:
            return self.win
        self.win = None
        if self.e0 is _STALE:
            self.e0 = self.from_lane.earliest_slot(self.e_dur, self.e_lo,
                                                   self.e_hi)
        if self.e0 is None:
            return None
        if self.p0 is _STALE:
            self.p0 = self.to_lane.latest_slot(self.p_dur, self.p_hi)
        if self.p0 is None:
            return None
        e1 = self.e0 + self.e_dur
        p0 = self.p0 + self.shift
        if e1 > p0:
            return None
        self.win = (self.e0, e1, p0)
        self.span = wrap_pieces(e1, p0, self.total)
        return self.win

    def candidate(self, state: SchedulerState, config: DeviceConfig):
        window = self.window()
        if window is None:
            return None
        if self.dest is Destination.HOST:
            if self.host_ok is None:
                self.host_ok = (wrap_max(state.host_occupancy, window[1],
                                         window[2])
                                + self.size <= config.host_mem_bytes)
            if not self.host_ok:
                return None
        elif state.ssd_occupancy + self.size > config.ssd_capacity_bytes:
            return None
        if self.cand is None:
            e0, e1, p0 = window
            if self.benefit is None:
                self.benefit = wrap_window_overflow_area(
                    state.pressure, config.gpu_mem_bytes, self.size, e1, p0)
            self.cand = EvictionCandidate(self.period, self.size, self.dest,
                                          e0, e1, p0, p0 + self.p_dur,
                                          self.benefit, self.cost_us)
        return self.cand

    def booked(self, evict, prefetch) -> bool:
        """Forget the slots that a pick on this route's channel took; True
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
            self.host_ok = self.cand = None
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
            self.benefit = self.cand = None
            return True
        return False


def score_candidate(period: InactivePeriod, size: int, dest: Destination,
                    state: SchedulerState, config: DeviceConfig):
    """Windows, benefit, and cost for evicting this period to dest.

    Returns None when no feasible eviction/prefetch window pair exists (or a
    capacity bound already rules the destination out).
    """
    return _Route(period, dest, size, state, config).candidate(state, config)


def _ssd_utilization_high(period: InactivePeriod, state: SchedulerState,
                          config: DeviceConfig) -> bool:
    """Is either SSD lane busier than the threshold inside the period?"""
    window = period.end_us - period.start_us
    if window <= 0:
        return False
    pieces = wrap_pieces(period.start_us, period.end_us, state.total_us)
    for direction in Direction:
        lane = state.reservations.lane(Channel.SSD, direction)
        busy = sum(lane.busy_within(a, b) for a, b in pieces)
        if busy > config.hp_utilization_threshold * window:
            return True
    return False


def choose_destination(period: InactivePeriod, size: int,
                       state: SchedulerState, config: DeviceConfig,
                       allow_host: bool = True):
    """SSD first; fall back to host when the SSD route is under pressure.

    High pressure means: no feasible SSD windows, a freed interval that no
    longer removes any overflow (zero benefit), or SSD-lane utilization in
    the period beyond the threshold. Returns None when the period cannot be
    scheduled anywhere (drop).
    """
    ssd = score_candidate(period, size, Destination.SSD, state, config)
    high_pressure = (ssd is None or ssd.benefit == 0
                     or _ssd_utilization_high(period, state, config))
    if not high_pressure or not allow_host:
        return ssd
    host = score_candidate(period, size, Destination.HOST, state, config)
    return host if host is not None else ssd


def _better(a: EvictionCandidate, b: EvictionCandidate) -> bool:
    """Strictly better benefit/cost ratio, with deterministic tie-breaks."""
    lhs = a.benefit * b.cost_us
    rhs = b.benefit * a.cost_us
    if lhs != rhs:
        return lhs > rhs
    if a.benefit != b.benefit:
        return a.benefit > b.benefit
    if a.period.start_us != b.period.start_us:
        return a.period.start_us < b.period.start_us
    return a.period.tensor_id < b.period.tensor_id


def select_best(candidates) -> EvictionCandidate:
    """Argmax of benefit/cost; ties break to larger benefit, earlier period
    start, then smaller tensor id."""
    best = None
    for cand in candidates:
        if best is None or _better(cand, best):
            best = cand
    if best is None:
        raise ValueError("select_best on empty candidate list")
    return best


def apply_candidate(cand: EvictionCandidate, state: SchedulerState,
                    config: DeviceConfig) -> None:
    """Book the windows and update pressure and occupancy."""
    total = state.total_us
    owner = cand.owner()
    chan = cand.dest.channel
    state.reservations.lane(chan, Direction.FROM_DEVICE).reserve(
        cand.evict_start, cand.evict_end, owner)
    if cand.prefetch_start >= total:
        state.reservations.lane(chan, Direction.TO_DEVICE).reserve(
            cand.prefetch_start - total, cand.prefetch_end - total, owner)
    else:
        state.reservations.lane(chan, Direction.TO_DEVICE).reserve(
            cand.prefetch_start, cand.prefetch_end, owner)
    wrap_add(state.pressure, cand.evict_end, cand.prefetch_start, -cand.size_bytes)
    if any(v < 0 for _, v in state.pressure.breakpoints()):
        raise CapacityViolationError("negative pressure after apply")
    if cand.dest is Destination.HOST:
        wrap_add(state.host_occupancy, cand.evict_end, cand.prefetch_start,
                 cand.size_bytes)
        if state.host_occupancy.max_value() > config.host_mem_bytes:
            raise CapacityViolationError("host occupancy above host_mem_bytes")
    else:
        state.ssd_occupancy += cand.size_bytes
        if state.ssd_occupancy > config.ssd_capacity_bytes:
            raise CapacityViolationError("ssd occupancy above capacity")


def item_from_candidate(cand: EvictionCandidate) -> PlanItem:
    return PlanItem(
        tensor_id=cand.period.tensor_id,
        period_start=cand.period.start_us,
        period_end=cand.period.end_us,
        wraps=cand.period.wraps_iteration,
        dest=cand.dest,
        evict_start=cand.evict_start,
        evict_end=cand.evict_end,
        prefetch_start=cand.prefetch_start,
        prefetch_end=cand.prefetch_end,
        benefit=cand.benefit,
        cost_us=cand.cost_us,
    )


class _Entry:
    """A remaining period, its two routes, the SSD lanes' busy time inside
    the period (outbound, inbound) and its choice in the last round
    (_STALE once an input of it changed)."""

    __slots__ = ("period", "pieces", "ssd", "host", "busy_out", "busy_in",
                 "busy_limit", "choice")

    def __init__(self, period, size, state, config):
        self.period = period
        self.pieces = wrap_pieces(period.start_us, period.end_us,
                                  state.total_us)
        self.ssd = _Route(period, Destination.SSD, size, state, config)
        self.host = _Route(period, Destination.HOST, size, state, config)
        self.busy_out = sum(self.ssd.from_lane.busy_within(a, b)
                            for a, b in self.pieces)
        self.busy_in = sum(self.ssd.to_lane.busy_within(a, b)
                           for a, b in self.pieces)
        self.busy_limit = (config.hp_utilization_threshold
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
        idle = not self.ssd_busy()
        self.busy_out += _overlap_us(self.pieces, evict)
        self.busy_in += _overlap_us(self.pieces, prefetch)
        return idle and self.ssd_busy()


class _RouteCache:
    """choose_destination for every remaining period, round after round,
    from routes kept between rounds (invalidation rules: module docstring).
    """

    def __init__(self, periods, sizes, state: SchedulerState,
                 config: DeviceConfig, allow_host: bool):
        self._state = state
        self._config = config
        self._allow_host = allow_host
        self._entries = {(p.tensor_id, p.start_us):
                         _Entry(p, sizes[p.tensor_id], state, config)
                         for p in periods}
        # the largest clamp of any benefit query
        self._max_size = max((e.ssd.size for e in self._entries.values()),
                             default=0)

    def _choose(self, entry: _Entry):
        cand = entry.ssd.candidate(self._state, self._config)
        if self._allow_host and (cand is None or cand.benefit == 0
                                 or entry.ssd_busy()):
            host = entry.host.candidate(self._state, self._config)
            if host is not None:
                cand = host
        return cand

    def score(self, remaining):
        """This round's choose_destination result for each remaining key,
        in order; None means the period cannot be scheduled."""
        entries = self._entries
        out = []
        for key in remaining:
            entry = entries[key]
            cand = entry.choice
            if cand is _STALE:
                cand = entry.choice = self._choose(entry)
                if cand is None:
                    del entries[key]
            out.append(cand)
        return out

    def picked(self, best: EvictionCandidate) -> None:
        """Forget what booking best can have changed (after apply_candidate
        booked it)."""
        del self._entries[best.owner()]
        state, config = self._state, self._config
        total = state.total_us
        evict = (best.evict_start, best.evict_end)
        shift = total if best.prefetch_start >= total else 0
        prefetch = (best.prefetch_start - shift, best.prefetch_end - shift)
        freed = wrap_pieces(best.evict_end, best.prefetch_start, total)
        # The pressure fell by best's size on freed. A benefit clamps the
        # overflow to its route's size, so it moved only where the pressure
        # was above capacity and is now below capacity plus that size.
        cap = config.gpu_mem_bytes
        relieved = [piece for a, b in freed
                    for piece in state.pressure.pieces_between(
                        cap - best.size_bytes, cap + self._max_size, a, b)]
        to_ssd = best.dest is Destination.SSD
        if to_ssd:
            flash = config.ssd_capacity_bytes - state.ssd_occupancy
        else:
            room = config.host_mem_bytes - wrap_max(
                state.host_occupancy, best.evict_end, best.prefetch_start)
        for entry in self._entries.values():
            ssd, host = entry.ssd, entry.host
            dirty = ssd.relieved(relieved)
            if host.relieved(relieved):
                dirty = True
            if to_ssd:
                if ssd.booked(evict, prefetch):
                    dirty = True
                # sizes that fitted the flash left before this pick only
                if flash < ssd.size <= flash + best.size_bytes:
                    dirty = True
                if entry.ssd_booked(evict, prefetch):
                    dirty = True
            elif host.booked(evict, prefetch) or host.crowded(freed, room):
                dirty = True
            if dirty:
                entry.choice = _STALE


def schedule_evictions(analysis: VitalityAnalysis, config: DeviceConfig, *,
                       allow_host: bool = True,
                       use_cache: bool = True) -> SchedulingResult:
    """Iterative greedy selection over all inactive periods.

    use_cache=False calls choose_destination afresh for every period in
    every round; it is the reference the cached path must reproduce.
    """
    total = analysis.timeline.total_us
    state = SchedulerState(
        total_us=total,
        pressure=initial_pressure_curve(analysis, config),
        reservations=ChannelReservations(),
        host_occupancy=StepCurve(total),
    )
    plan = MigrationPlan(total_us=total)

    remaining = {
        (p.tensor_id, p.start_us): p
        for p in sorted(analysis.periods,
                        key=lambda p: (p.start_us, p.tensor_id, p.end_us))
    }
    sizes = {tid: config.padded(t.size_bytes)
             for tid, t in analysis.trace.tensors.items()}
    routes = (_RouteCache(remaining.values(), sizes, state, config,
                          allow_host) if use_cache else None)

    while remaining and state.pressure.max_value() > config.gpu_mem_bytes:
        if routes is None:
            scored = [choose_destination(period, sizes[period.tensor_id],
                                         state, config, allow_host)
                      for period in remaining.values()]
        else:
            scored = routes.score(remaining)
        candidates = []
        for key, cand in zip(list(remaining), scored):
            if cand is None:
                period = remaining.pop(key)
                plan.unschedulable.append((period.tensor_id, period.start_us,
                                           period.end_us))
            elif cand.benefit > 0:
                candidates.append(cand)
        if not candidates:
            break
        best = select_best(candidates)
        apply_candidate(best, state, config)
        plan.items.append(item_from_candidate(best))
        del remaining[best.owner()]
        if routes is not None:
            routes.picked(best)

    plan.residual_overflow = state.pressure.overflow_area(config.gpu_mem_bytes)
    return SchedulingResult(plan=plan, state=state)


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
