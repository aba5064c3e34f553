"""Exhaustive reference for the greedy scheduler on small instances.

Enumerates every assignment of inactive periods to {skip, ssd, host},
books each in canonical period order (the context's by_start) through the
same scoring and reservation mechanics the greedy pass uses, then runs each
booked plan through the simulator and keeps the lowest run time (combos tie
on transfer cost, then go to the first). _booked books each shared prefix
once: depth first, options in the order skip, ssd, host, a skip passing the
parent's SchedulerState down and a booking scoring on it and booking on a
copy. Scoring only reads the state, so each leaf is booked as from a fresh
state, an unbookable period prunes exactly the combos with its prefix, and
leaves come in itertools.product order. Each leaf's plan carries its
residual_overflow, as a greedy plan does. The greedy plan is simulated and
admitted to the pool and run-time ties go to it, so the reported optimum is
never worse than greedy, the ratio is always >= 1, and a greedy plan that
matches the enumerated best is reported as the optimal assignment it is.

Every plan, greedy's included, replays through policies.replay_plan as g10
(g10-ssd-only: no host) does. A search builds one simulate.ReplayContext,
and the greedy plan, the booking walk and every replay read its tables
(padded sizes, period order, initial pressure curve, transfer times,
skeleton). Leaf items are shallow copies (plain data).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from tensortier.config import DeviceConfig
from tensortier.eviction import (CapacityViolationError, Destination,
                                 MigrationPlan, SchedulerState,
                                 score_candidate)
from tensortier.policies import policy_plan, replay_plan
from tensortier.prefetch import assign_latest_safe, eager_reschedule
from tensortier.simulate import ReplayContext, SimulationError
from tensortier.vitality import VitalityAnalysis

MAX_PERIODS = 8


@dataclass(frozen=True)
class OracleOutcome:
    best_total_us: int
    greedy_total_us: int
    assignment: tuple[str | None, ...]    # per period, canonical order

    @property
    def ratio(self) -> float:
        return self.greedy_total_us / self.best_total_us


def _booked(booked: SchedulerState, periods, allow_host: bool, combo=()):
    """(combo, booked state) for every bookable combo extending combo."""
    if len(combo) == len(periods):
        leaf = booked.copy()
        leaf.plan.items = list(map(copy.copy, leaf.plan.items))
        leaf.plan.residual_overflow = leaf.residual()
        assign_latest_safe(leaf)
        eager_reschedule(leaf)
        yield combo, leaf
        return
    for dest in (None, Destination.SSD, Destination.HOST)[:2 + allow_host]:
        child = booked
        if dest is not None:
            item = score_candidate(periods[len(combo)], dest, booked)
            if item is None:
                continue
            child = booked.copy()
            try:
                child.book(item)
            except CapacityViolationError:
                continue
        yield from _booked(child, periods, allow_host, combo + (dest,))


def _fingerprint(plan: MigrationPlan):
    return tuple(sorted(
        (i.tensor_id, i.period_start, i.dest.value, i.evict_start,
         i.evict_end, i.scheduled_us, i.prefetch_end)
        for i in plan.items))


def best_assignment(analysis: VitalityAnalysis, config: DeviceConfig, *,
                    allow_host: bool = True) -> OracleOutcome:
    if len(analysis.periods) > MAX_PERIODS:
        raise ValueError(f"{len(analysis.periods)} periods is past the "
                         f"exhaustive search limit")
    policy = "g10" if allow_host else "g10-ssd-only"
    context = ReplayContext(analysis, config)
    periods = context.by_start
    greedy = policy_plan(policy, context)

    def run(plan: MigrationPlan) -> int:
        return replay_plan(policy, context, plan).total_us

    greedy_total = run(greedy)

    combo_best = None
    combo_assign = None
    seen: dict = {_fingerprint(greedy): greedy_total}
    start = SchedulerState.initial(context)
    for combo, booked in _booked(start, periods, allow_host):
        key = _fingerprint(booked.plan)
        if key in seen:
            total = seen[key]
        else:
            try:
                total = run(booked.plan)
            except SimulationError:
                # bookable on paper yet wedges the machine (prefetches pile
                # into a kernel's working set): not a viable plan
                total = None
            seen[key] = total
        if total is None:
            continue
        obj = (total, sum(item.cost_us for item in booked.plan.items))
        if combo_best is None or obj < combo_best:
            combo_best = obj
            combo_assign = tuple(d.value if d else None for d in combo)
    if combo_best is None or combo_best[0] >= greedy_total:
        by_owner = {item.owner(): item.dest.value for item in greedy.items}
        assign = tuple(by_owner.get((p.tensor_id, p.start_us))
                       for p in periods)
        best_total = greedy_total
    else:
        assign = combo_assign
        best_total = combo_best[0]
    return OracleOutcome(best_total_us=best_total, greedy_total_us=greedy_total,
                         assignment=assign)
