"""Per-module spans for the traced run.

`install` wraps the public functions of each tensortier module at every
name callers look them up by: `from ... import` binds copies into other
modules (policies.simulate, prefetch.schedule_evictions, ...), so each
module attribute holding the original function is replaced, not just the
defining one. Nothing under src/ changes.

Every wrapped call adds its self time (its span minus its wrapped child
spans) and one call to its layer's totals. Calls at layer boundaries that
are not on the planner's hot path are also kept as span records
(operation, id, parent, name, start, end) in memory and written out when
the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

STALL_CAUSES = ("alloc", "evict", "fault", "free", "prefetch", "wait")


class Tracer:
    def __init__(self):
        self.stack: list[list] = []      # [name, child seconds, span id]
        self.spans: list[tuple] = []
        self.op_id = 0
        self.op_policy: str | None = None
        self._next_id = 0
        self.reset()

    def reset(self) -> None:
        """Start a new batch of totals; span records are kept."""
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.g10_residuals: list[int] = []

    def wrap(self, name: str, fn, observe=None, record: bool = True):
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = None
            if record:
                self._next_id += 1
                span_id = self._next_id
            frame = [name, 0.0, span_id]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.self_s[name] += t1 - t0 - frame[1]
                self.calls[name] += 1
            if observe is not None:
                observe(self, result, args)
            if stack:
                # the observer's cost is nobody's self time
                stack[-1][1] += perf_counter() - t0
            if record:
                parent = next((f[2] for f in reversed(stack) if f[2]), None)
                self.spans.append((self.op_id, span_id, parent, name, t0, t1))
            return result

        return traced

    def run_op(self, policy: str | None, fn, *args):
        """Run one CLI operation as the root span of its own id."""
        self.op_id += 1
        self.op_policy = policy
        return self.wrap("cli.op", fn)(*args)

    def inside(self, name: str) -> bool:
        return any(f[0] == name for f in self.stack)

    def write_spans(self, path: str) -> None:
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for op, sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({
                    "op": op, "id": sid, "parent": parent, "name": name,
                    "start_us": round((t0 - origin) * 1e6, 1),
                    "end_us": round((t1 - origin) * 1e6, 1)}) + "\n")


# -- observers: counts read off return values and arguments -----------------

def _on_analyze(tr, analysis, args):
    tr.counts["vitality.periods"] += len(analysis.periods)


def _on_schedule(tr, result, args):
    plan = result.plan
    tr.counts["eviction.picks"] += len(plan.items)
    tr.counts["eviction.unschedulable"] += len(plan.unschedulable)
    tr.counts["eviction.residual_overflow"] += plan.residual_overflow
    if tr.op_policy == "g10" and not tr.inside("oracle.best_assignment"):
        tr.g10_residuals.append(plan.residual_overflow)


def _on_eager(tr, _none, args):
    for item in args[0].plan.items:
        slack = item.latest_safe_us - item.scheduled_us
        tr.counts["prefetch.eager_moved"] += slack > 0
        tr.counts["prefetch.slack_us"] += slack


def _on_emit(tr, program, args):
    tr.counts["instrument.directives"] += sum(len(g) for g in program.gaps)


def _on_simulate(tr, res, args):
    c = tr.counts
    c["simulate.kernel_instances"] += len(res.kernels)
    c["simulate.faults"] += res.faults
    c["simulate.stall_us"] += res.stall_us
    for cause, us in res.stall_breakdown.items():
        c[f"simulate.stall_us.{cause}"] += us
    c["simulate.overlap_us"] += res.overlap_us
    t = res.traffic
    c["simulate.traffic_bytes"] += t.ssd_read + t.ssd_write + t.host_in + t.host_out
    if tr.inside("oracle.best_assignment"):
        c["oracle.sim_calls"] += 1


def _on_oracle(tr, outcome, args):
    analysis, config = args[0], args[1]
    bound = analysis.trace.total_us() * config.num_iterations
    tr.counts["oracle.searches"] += 1
    tr.counts["oracle.at_bound"] += outcome.greedy_total_us == bound


# (module, attribute, layer name, observer, keep span records)
TARGETS = (
    ("tensortier.trace", "parse_trace", "trace.parse", None, True),
    ("tensortier.vitality", "analyze", "vitality.analyze", _on_analyze, True),
    ("tensortier.eviction", "schedule_evictions", "eviction.schedule",
     _on_schedule, True),
    ("tensortier.eviction", "choose_destination",
     "eviction.choose_destination", None, False),
    ("tensortier.eviction", "score_candidate", "eviction.score_candidate",
     None, False),
    ("tensortier.eviction", "apply_candidate", "eviction.apply", None, False),
    ("tensortier.curve", "wrap_window_overflow_area", "curve.overflow_area",
     None, False),
    ("tensortier.prefetch", "assign_latest_safe", "prefetch.latest_safe",
     None, True),
    ("tensortier.prefetch", "eager_reschedule", "prefetch.eager", _on_eager,
     True),
    ("tensortier.instrument", "emit_program", "instrument.emit", _on_emit,
     True),
    ("tensortier.instrument", "serialize_program", "instrument.serialize",
     None, True),
    ("tensortier.simulate", "simulate", "simulate.run", _on_simulate, True),
    ("tensortier.policies", "flashneuron_plan", "policies.flashneuron_plan",
     None, True),
    ("tensortier.oracle", "best_assignment", "oracle.best_assignment",
     _on_oracle, True),
    ("tensortier.reporting", "render_csv", "reporting.render", None, True),
    ("tensortier.reporting", "simulation_tables", "reporting.render", None,
     True),
    ("tensortier.reporting", "result_json", "reporting.render", None, True),
    ("tensortier.reporting", "write_tables", "reporting.render", None, True),
)

SLOT_METHODS = ("earliest_slot", "latest_slot")


def install(tracer: Tracer) -> None:
    """Wrap every target at every tensortier module attribute bound to it."""
    modules = [m for name, m in sys.modules.items()
               if name.startswith("tensortier") and m is not None]
    for module_name, attr, layer, observe, record in TARGETS:
        original = getattr(sys.modules[module_name], attr)
        wrapped = tracer.wrap(layer, original, observe, record)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    lanes = sys.modules["tensortier.reservations"].LaneReservations
    for method in SLOT_METHODS:
        setattr(lanes, method,
                tracer.wrap("reservations.slot", getattr(lanes, method),
                            record=False))


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-module figures for one traced batch (names as in BENCHMARK.json)."""
    s, n, c = tr.self_s, tr.calls, tr.counts
    choose = n["eviction.choose_destination"]
    kernels = c["simulate.kernel_instances"]
    searches = c["oracle.searches"]
    out = {
        "trace.parse_s": s["trace.parse"],
        "vitality.analyze_s": s["vitality.analyze"],
        "vitality.analyze_calls": n["vitality.analyze"],
        "vitality.periods": c["vitality.periods"],
        "eviction.schedule_s": s["eviction.schedule"],
        "eviction.choose_destination_calls": choose,
        "eviction.choose_destination_s": s["eviction.choose_destination"],
        "eviction.score_candidate_calls": n["eviction.score_candidate"],
        "eviction.score_candidate_s": s["eviction.score_candidate"],
        "eviction.apply_s": s["eviction.apply"],
        "eviction.picks": c["eviction.picks"],
        "eviction.pick_ratio": c["eviction.picks"] / choose if choose else 0.0,
        "eviction.unschedulable": c["eviction.unschedulable"],
        "eviction.residual_overflow": c["eviction.residual_overflow"],
        "curve.overflow_area_calls": n["curve.overflow_area"],
        "curve.overflow_area_s": s["curve.overflow_area"],
        "reservations.slot_calls": n["reservations.slot"],
        "reservations.slot_s": s["reservations.slot"],
        "prefetch.latest_safe_s": s["prefetch.latest_safe"],
        "prefetch.eager_s": s["prefetch.eager"],
        "prefetch.eager_moved": c["prefetch.eager_moved"],
        "prefetch.slack_us": c["prefetch.slack_us"],
        "instrument.emit_s": s["instrument.emit"],
        "instrument.emit_calls": n["instrument.emit"],
        "instrument.serialize_s": s["instrument.serialize"],
        "instrument.directives": c["instrument.directives"],
        "simulate.run_s": s["simulate.run"],
        "simulate.calls": n["simulate.run"],
        "simulate.kernel_instances": kernels,
        "simulate.host_us_per_kernel":
            s["simulate.run"] * 1e6 / kernels if kernels else 0.0,
        "simulate.faults": c["simulate.faults"],
        "simulate.stall_us": c["simulate.stall_us"],
        **{f"simulate.stall_us.{cause}": c[f"simulate.stall_us.{cause}"]
           for cause in STALL_CAUSES},
        "simulate.overlap_us": c["simulate.overlap_us"],
        "simulate.traffic_bytes": c["simulate.traffic_bytes"],
        "policies.flashneuron_plan_s": s["policies.flashneuron_plan"],
        "oracle.best_assignment_s": s["oracle.best_assignment"],
        "oracle.sim_calls": c["oracle.sim_calls"],
        "oracle.at_bound_share":
            c["oracle.at_bound"] / searches if searches else 0.0,
        "reporting.render_s": s["reporting.render"],
        "cli.op_self_s": s["cli.op"],
    }
    return out
