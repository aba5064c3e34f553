"""Tensor vitality analysis.

Walks a trace once to decide which tensors pre-exist the iteration (global)
and which are born and die inside it, then derives per-tensor lifetimes,
inactive periods, and the GPU memory pressure curve the planner works
against. All times are integer microseconds on the single-iteration axis;
global tensors additionally get a wrapping period whose end lies in the next
replay (end_us > total_us). The analysis is characterised once per device by
a simulate.ReplayContext, which the planners, the emitter, the replay and
the analyze tables (reporting.characterization_tables) all read.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

from tensortier.curve import StepCurve
from tensortier.trace import TensorKind, WorkloadTrace


@dataclass(frozen=True)
class Timeline:
    """Kernel start/end times for one iteration of the trace."""

    starts: tuple[int, ...]
    ends: tuple[int, ...]
    total_us: int

    @classmethod
    def from_trace(cls, trace: WorkloadTrace) -> "Timeline":
        edges = tuple(accumulate((k.duration_us for k in trace.kernels),
                                 initial=0))
        return cls(edges[:-1], edges[1:], edges[-1])


class TensorLifetime(NamedTuple):
    tensor_id: int
    birth_kernel: int      # first kernel that references the tensor
    death_kernel: int      # last kernel that references it
    is_global: bool


class InactivePeriod(NamedTuple):
    """A span where the tensor is inactive but not dead.

    start_us is the end of the last kernel using it; end_us the start of the
    next one. For a wrapping period end_us = total_us + start(first use),
    i.e. the next use lies in the following iteration.
    """

    tensor_id: int
    start_us: int
    end_us: int
    wraps_iteration: bool = False

    def length_us(self) -> int:
        return self.end_us - self.start_us


@dataclass(frozen=True)
class VitalityAnalysis:
    trace: WorkloadTrace
    timeline: Timeline
    lifetimes: dict[int, TensorLifetime]
    periods: tuple[InactivePeriod, ...]


def _uses(trace: WorkloadTrace) -> dict[int, list[int]]:
    """Sorted kernel indices referencing each tensor."""
    uses: dict[int, list[int]] = {tid: [] for tid in trace.tensors}
    for k in trace.kernels:
        for tid in k.inputs | k.outputs:
            uses[tid].append(k.index)
    return uses


def classify_tensors(trace: WorkloadTrace) -> dict[int, bool]:
    """tensor id -> is_global.

    Explicit kinds are preserved; unspecified tensors are global iff some
    kernel reads them strictly before any kernel writes them.
    """
    glob, unknown = TensorKind.GLOBAL, TensorKind.UNSPECIFIED
    out = {tid: desc.kind is glob for tid, desc in trace.tensors.items()}
    unspecified = [tid for tid, desc in trace.tensors.items()
                   if desc.kind is unknown]
    if not unspecified:
        return out
    first_read: dict[int, int] = {}
    first_write: dict[int, int] = {}
    for k in trace.kernels:
        for tid in k.inputs:
            first_read.setdefault(tid, k.index)
        for tid in k.outputs:
            first_write.setdefault(tid, k.index)
    for tid in unspecified:
        r = first_read.get(tid)
        w = first_write.get(tid)
        out[tid] = r is not None and (w is None or r < w)
    return out


def _lifetimes(kinds: dict[int, bool],
               uses: dict[int, list[int]]) -> dict[int, TensorLifetime]:
    return {tid: TensorLifetime(tid, refs[0], refs[-1], kinds[tid])
            for tid, refs in uses.items() if refs}


def _inactive_periods(kinds: dict[int, bool], uses: dict[int, list[int]],
                      timeline: Timeline) -> tuple[InactivePeriod, ...]:
    """All non-empty inactive periods, ordered by (tensor id, start)."""
    starts, ends = timeline.starts, timeline.ends
    periods = []
    for tid in sorted(uses):
        refs = uses[tid]
        if not refs:
            continue
        for k1, k2 in zip(refs, refs[1:]):
            start = ends[k1]
            end = starts[k2]
            if start < end:
                periods.append(InactivePeriod(tid, start, end))
        if kinds[tid]:
            # the tensor survives into the next replay of the trace
            start = ends[refs[-1]]
            end = timeline.total_us + starts[refs[0]]
            if start < end:
                periods.append(InactivePeriod(tid, start, end, True))
    return tuple(periods)


def analyze(trace: WorkloadTrace) -> VitalityAnalysis:
    timeline = Timeline.from_trace(trace)
    kinds = classify_tensors(trace)
    uses = _uses(trace)
    return VitalityAnalysis(
        trace=trace,
        timeline=timeline,
        lifetimes=_lifetimes(kinds, uses),
        periods=_inactive_periods(kinds, uses, timeline),
    )


def initial_pressure_curve(analysis: VitalityAnalysis,
                           sizes: dict[int, int]) -> StepCurve:
    """GPU memory pressure with no migrations planned.

    A tensor occupies memory from the start of its birth kernel to the end of
    its death kernel; global tensors span the whole iteration. sizes maps
    each tensor id to its page-padded size.
    """
    timeline = analysis.timeline
    curve = StepCurve(timeline.total_us)
    for life in analysis.lifetimes.values():
        size = sizes[life.tensor_id]
        if life.is_global:
            curve.add(0, timeline.total_us, size)
        else:
            curve.add(timeline.starts[life.birth_kernel],
                      timeline.ends[life.death_kernel], size)
    return curve
