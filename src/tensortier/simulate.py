"""Discrete-event execution of an instrumented program on the memory tiers.

One compute stream walks the program: allocations and frees run at their
stream position, kernels run when every tensor they touch is on device.
Migration directives are armed when their iteration begins and fire at
their planned absolute times (never earlier), joining the per-tier,
per-direction transfer lanes. A kernel that needs a tensor with a transfer
already pending simply waits for it; a kernel that needs a tensor nobody is
moving takes a demand fault, serviced in pinned-memory-sized chunks with a
fixed handling overhead per chunk, queued at the head of the inbound lane.

GPU bytes are charged when an inbound transfer starts and released when an
outbound transfer finishes, mirroring the planner's accounting. All engine
arithmetic uses page-padded sizes.

A ReplayContext, built from a trace's analysis on a device, holds what
every stage reads of them: the trace and the device, the padded sizes (the
one place they are padded), each kernel's working-set bytes, the four
lanes' constants (DeviceConfig.lane, keyed by destination and direction),
and, built on first use so that a stage builds only what it reads,
instrument's skeleton (a Program of no directives), its stream and each
kernel's sorted ids, the periods in canonical order (by_start), the initial
pressure curve and the planner's transfer times. The planners (through the
SchedulerState that holds it) and the analyze tables read its attributes
and never import it.
simulate(context, program) replays on the context's trace and device, and
takes them from nowhere else. A replay, not the context's construction,
raises the first working set over capacity. A program emitted from the
context replays from its stream unchecked (exact: instrument's docstring);
any other program, one emitted from another context included, is checked
against the trace and flattened.

A replay keeps one event log, a list of text entries. Every event appends
its lines to it, each built whole (time stamp and newline included) by one
f-string at the event; a run-ahead (below) appends all its skipped
boundaries as one entry, joined at C level, and a steady-state replay
(below) one entry per copied iteration. `run` joins the log once, hashes
it once and returns the text as `SimResult.log`, with its sha256 as
`event_log_sha256`.

Work per event is kept to what changed, under five rules that leave every
event log and figure as a full re-evaluation would:

- Chunk train. When a fault chunk lands with bytes still to move, the same
  transfer is cut to the next chunk and restarted on its lane at once. The
  lane stays busy, its queue and the GPU bytes (charged at the first chunk)
  stay as they were, so nothing the compute stream reads has changed.
- Stream re-evaluation. Every other transfer completion, every enqueued
  fault, prefetch or eviction and every unpark goes through `_kick`, which
  bumps a state epoch; those are all the changes to what a blocked stream
  step reads (free bytes, the parked list, tensor locations and pending
  flags, host and SSD use, lane heads). A blocked step takes the epoch
  after its own run as its idle mark. Each completion but a quiet chunk
  landing (below) arms a stream advance, which runs the blocked step again
  only if (1) the epoch moved since that mark and (2) the step is not an
  alloc that still waits. Otherwise the run would change nothing: the
  block's start is already noted, and its stall is charged to the cause of
  the advance that finally resolves it. (1) holds although the step's own
  run may move the epoch (a fault, an LRU eviction): a blocked step is
  idempotent. A kernel queues its faults, whose fetches start or park at
  once, before it computes its deficit from the parked list, and
  `_lru_evict` counts the bytes already outgoing, so a second run finds
  every missing tensor pending, the same deficit, and either that deficit
  covered or no victim the first run passed over. (2) A blocked alloc,
  which keeps its padded size in `_alloc_wait`, logs or queues something
  only when that size fits in free (it allocates) or free plus the
  outgoing bytes falls short of it (`_lru_evict` looks for more victims).
  In between, `run` drops the advance and takes the idle mark, as the run
  would.
- Run-ahead. Every full fault chunk takes the same time, so a landing
  chunk also lands, in closed form, the chunks after it whose boundaries
  fall strictly before the heap's next event, never the train's last one.
  Two conditions make that exact. (1) The next event is later than every
  skipped boundary, so no other event runs in between and none sees them.
  (2) The stream advance the landing arms is a no-op, which is when the
  stream's idle epoch is current (a train belongs to the kernel the stream
  is blocked on, so no kernel runs meanwhile). A stale epoch means some
  directive changed what the blocked step reads since it last ran, and the
  step must run again at this landing. A train restart leaves the epoch
  alone, so the condition holds at every skipped boundary, and each skipped
  landing would only log its two lines, add its bytes and overlap, and
  restart the train. The one completion pushed, for the chunk that ends
  at or after the next event, gets a later sequence number than everything
  in the heap, as the push at the previous boundary would have, so
  equal-time events keep their order. Overlap is additive over contiguous
  intervals while no kernel starts or ends, so one `_add_overlap` call
  covers the merged interval. A quiet landing, under (2) with no other
  event due at its instant, arms no advance: it would pop next, a no-op.
  Any other landing arms one, since an event due then may move the epoch
  (a trigger arms no advance) or arm its own advance, with another cause.
- Advances off the heap. The heap pops entries in (time, rank, sequence
  number) order, and numbers only grow. An armed advance takes its number
  but is not pushed; `run` calls it as soon as no heap entry at or before
  (now, `_R_STREAM`, that number) remains, which is exactly when the heap
  would have popped it. Only entries at its own instant can come first,
  so now stays put meanwhile: until it runs it counts as an event due now,
  so no run-ahead passes it and no iteration start is quiescent, and a
  quiet landing's test needs no change, since arming again is a no-op.
- Steady state. At the start of iteration j >= 2 the run ends with copies of
  iteration j-1 in place of iterations j to N-1 when (1) the start is
  quiescent: no event is due, every lane is idle with an empty queue,
  nothing is parked, no tensor is pending in or out or holds a retry, and no
  block is open; (2) its state key equals the one kept at the start of j-1:
  each tensor's location and last_use (relative to the iteration's first
  kernel instance), and the time since the last kernel ended; and (3)
  duration rows j-1 to N-1 are equal (noise 0). The GPU, host and SSD byte
  counts are left out of the key: with nothing in flight they are sums over
  the locations. Iteration j then starts from iteration j-1's state shifted
  by its length, runs the same durations and directives, and reads nothing
  outside the key: every event it sees is one it pushes (the heap is empty),
  its transfers overlap only kernels that run after the start, and the LRU
  victims depend only on the tensors' state, not on stale heap entries
  (`_lru_evict`). So it repeats iteration j-1 shifted, and by induction so
  does every later one. Each copy logs the template's lines with times and
  iteration numbers moved and adds its kernel stats, fault-log entries and
  counter deltas; `done` follows where the last copy ends. The template is
  iteration 1 or later because a hook may act differently in iteration 0
  (below).

Progress bound. While the stream waits on a kernel, `_lru_evict` pins the
kernel's tensors, so a tensor it faulted can leave the GPU again only by a
pre-eviction directive, and each armed directive (one per pre_evict and
iteration) evicts at most once. A correct run therefore takes at most the
kernel's tensor count plus iterations times the program's pre_evicts
faults in one block; one more raises SimulationError, so an engine defect
that faults two tensors against each other fails instead of running on.
The bound is read only when a fault is taken and the block has already
taken as many faults as the kernel has tensors.

An `on_kernel_start` hook must act the same in every iteration after the
first, given the same engine state, since the iterations a steady-state
replay copies do not call it.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import chain, repeat
from typing import NamedTuple

from tensortier.config import (Destination, DeviceConfig, Direction,
                               transfer_us)
from tensortier.eviction import route_times
from tensortier.instrument import Op, Program, program_skeleton
from tensortier.trace import WorkloadTrace
from tensortier.vitality import VitalityAnalysis, initial_pressure_curve


class SimulationError(RuntimeError):
    """The machine cannot make progress (e.g. a working set over capacity)."""


class ProgramInconsistentError(ValueError):
    """Program and trace disagree."""


GPU = "gpu"
HOST = "host"
SSD = "ssd"
_TIERS = {GPU: GPU, HOST: HOST, SSD: SSD}  # the engine tests these by identity

# bound once: each attribute lookup on an Enum class goes through a
# descriptor (lanes and transfers carry no enum members for the same reason)
_PRE_EVICT = Op.PRE_EVICT

# compute stream steps besides "kernel"
_STEP_OF = {Op.ALLOC: "alloc", Op.FREE: "free"}
_DIRECTIVE_OPS = (Op.PRE_EVICT, Op.PREFETCH)

# heap ranks: transfer completions resolve first, then armed directives,
# then the compute stream
_R_COMPLETE = 0
_R_TRIGGER = 1
_R_STREAM = 2


@dataclass
class Traffic:
    ssd_read: int = 0
    ssd_write: int = 0
    host_in: int = 0
    host_out: int = 0


class KernelStat(NamedTuple):
    instance: int
    iteration: int
    kernel_index: int
    name: str
    start_us: int
    end_us: int
    stall_us: int


@dataclass
class SimResult:
    policy: str
    total_us: int
    compute_us: int
    stall_us: int
    overlap_us: int
    faults: int
    traffic: Traffic
    kernels: list[KernelStat]
    stall_breakdown: dict[str, int]
    fault_log: list[tuple[int, int, int]]   # (iteration, kernel, tensor)
    event_log_sha256: str
    log: str                             # the event log (module docstring)


class _Mark(NamedTuple):
    """An iteration start kept as the template of a steady-state replay."""
    key: tuple
    now: int
    logged: int          # log entries before it
    stats: int           # kernel stats before it
    faults: int          # fault-log entries before it
    overlap_us: int
    stalls: dict[str, int]
    moved: tuple[int, ...]


class _Tensor:
    __slots__ = ("id", "size", "loc", "pending_in", "pending_out",
                 "last_use", "retry_fetch")

    def __init__(self, tid: int, size: int):
        self.id = tid
        self.size = size                 # padded
        self.loc: str | None = None
        self.pending_in = False
        self.pending_out = False
        self.last_use = -1
        self.retry_fetch = None          # directive to re-arm after evict lands


class _Xfer:
    __slots__ = ("tensor", "lane", "nbytes", "kind", "extra_us",
                 "tail_bytes", "need", "evict_for_space", "dest_loc")

    def __init__(self, tensor: _Tensor, lane: _Lane, nbytes: int, kind: str, *,
                 extra_us: int = 0, tail_bytes: int = 0, need: int = 0,
                 evict_for_space: bool = False, dest_loc: str | None = None):
        self.tensor = tensor
        self.lane = lane
        self.nbytes = nbytes
        self.kind = kind                 # prefetch | evict | fault
        self.extra_us = extra_us
        self.tail_bytes = tail_bytes     # fault bytes still to move after this
        self.need = need                 # GPU bytes to reserve at lane head
        self.evict_for_space = evict_for_space
        self.dest_loc = dest_loc


# a transfer lane's constants, read by the engine and by route_times
LaneSpec = NamedTuple("LaneSpec", [("label", str), ("to_device", bool),
                                   ("bw", int), ("latency", int)])


class _Lane:
    __slots__ = ("label", "to_device", "bw", "latency", "queue", "current",
                 "started_at", "moved")

    def __init__(self, spec: LaneSpec):
        self.label, self.to_device, self.bw, self.latency = spec
        self.queue: deque[_Xfer] = deque()
        self.current: _Xfer | None = None
        self.started_at = 0
        self.moved = 0                   # bytes delivered


class _Running:
    """The kernel on the compute stream and the pre-evictions it defers."""

    __slots__ = ("kernel", "tensors", "defers")

    def __init__(self, kernel: int, tensors: tuple[int, ...]):
        self.kernel = kernel
        self.tensors = tensors
        self.defers: list = []


class ReplayContext:
    """A trace's tables on a device (module docstring); unfit is the error
    a replay raises, or None."""

    def __init__(self, analysis: VitalityAnalysis, config: DeviceConfig):
        trace = analysis.trace
        self.analysis, self.trace, self.config = analysis, trace, config
        self.sizes = {tid: config.padded(t.size_bytes)
                      for tid, t in trace.tensors.items()}
        self.working_sets = tuple(
            sum(map(self.sizes.__getitem__, kernel.tensors()))
            for kernel in trace.kernels)
        self.unfit = next(
            (f"kernel {kernel.index} working set ({need} bytes) cannot fit "
             f"in GPU memory"
             for kernel, need in zip(trace.kernels, self.working_sets)
             if need > config.gpu_mem_bytes), None)
        self.lanes = {(dest, d): LaneSpec(f"{dest.value}/{d.value}",
                                          d is Direction.TO_DEVICE,
                                          *config.lane(dest, d))
                      for dest in (Destination.HOST, Destination.SSD)
                      for d in Direction}

    @cached_property
    def skeleton(self):
        return Program(*program_skeleton(self.analysis))

    @cached_property
    def stream(self):
        return _flatten(self.skeleton)

    @cached_property
    def ids(self):
        return tuple(tuple(sorted(kernel.tensors()))
                     for kernel in self.trace.kernels)

    @cached_property
    def by_start(self):
        """The inactive periods by start, then tensor id: the order the
        planners walk and the oracle assigns in. A tensor's periods start
        at the ends of distinct uses and do not overlap, so no two share a
        start and no third key is needed."""
        return tuple(sorted(self.analysis.periods,
                            key=lambda p: (p.start_us, p.tensor_id)))

    @cached_property
    def pressure(self):
        """The initial pressure curve; every plan books on a copy."""
        return initial_pressure_curve(self.analysis, self.sizes)

    @cached_property
    def times(self):
        """The planner's transfer times (eviction.route_times)."""
        return route_times(self)


class _Engine:
    def __init__(self, context: ReplayContext, program: Program, *,
                 policy: str, durations=None, initial_locations=None,
                 allow_host_fallback: bool = True, on_kernel_start=None):
        emitted = program.origin is context
        if not emitted:
            _check_program(context.trace, program)
        if context.unfit:
            raise SimulationError(context.unfit)
        self.config = config = context.config
        self.policy = policy
        self.allow_host_fallback = allow_host_fallback
        self.on_kernel_start = on_kernel_start

        n = len(program.kernels)
        self.iterations = config.num_iterations
        if durations is None:
            durations = [[k.duration_us for k in program.kernels]
                         for _ in range(self.iterations)]
        if (len(durations) != self.iterations
                or any(len(row) != n for row in durations)):
            raise ProgramInconsistentError("durations shape mismatch")
        self.durations = durations
        # the first iteration whose duration row repeats to the end, kept
        # as a steady-state template from there on (module docstring);
        # never when no later start could replay it
        steady = self.iterations - 1
        while steady > 1 and durations[steady - 1] == durations[steady]:
            steady -= 1
        self._steady_from = (steady if steady < self.iterations - 1
                             else self.iterations)
        self._mark: _Mark | None = None

        sizes, self._ids = context.sizes, context.ids
        self.tensors = {tid: _Tensor(tid, size) for tid, size in sizes.items()}
        self._needed = [tuple(map(self.tensors.__getitem__, k))
                        for k in self._ids]
        self._names = [kernel.name for kernel in program.kernels]
        self.free = config.gpu_mem_bytes
        self.host_used = 0
        self.ssd_used = 0
        # LRU candidates: a heap of (last_use, id) entries (see _lru_evict)
        self._lru: list[tuple[int, int]] = []
        for tid, given in sorted((initial_locations or {}).items()):
            tensor = self.tensors[tid]
            loc = tensor.loc = _TIERS.get(given)
            if loc is GPU:
                if tensor.size > self.free:
                    raise SimulationError("initial placement over GPU capacity")
                self.free -= tensor.size
                self._lru_add(tensor)
            elif loc is HOST:
                self.host_used += tensor.size
            elif loc is SSD:
                self.ssd_used += tensor.size
            else:
                raise ValueError(f"bad initial location {given!r}")

        self.lanes = list(map(_Lane, context.lanes.values()))
        host_in, host_out, ssd_in, ssd_out = self.lanes
        self._fetch_lane = {HOST: host_in, SSD: ssd_in}    # by source tier
        self._evict_lane = {HOST: host_out, SSD: ssd_out}  # by destination
        self.parked: list[_Xfer] = []
        self._outgoing = 0               # bytes of evictions queued or moving
        self._chunk = config.fault_chunk_bytes

        self.now = 0
        self.events: list = []
        self._seq = 0
        self._armed: tuple | None = None  # (now, _R_STREAM, seq, cause)
        self._epoch = 0                  # bumped by every _kick
        self._idle_epoch: int | None = None  # epoch a no-op blocked step saw

        # stream cursor: per-iteration flat list of alloc/free/kernel steps
        self.stream = context.stream if emitted else _flatten(program)
        self._directives = [ins for ins in program.instructions()
                            if ins.op in _DIRECTIVE_OPS]
        self.iter_index = 0
        self.pos = 0
        self.iter_started = False
        self.running: _Running | None = None
        self.block_started: int | None = None
        self._block_faults = 0           # fault-log entries before the block
        self._alloc_wait = 0             # bytes of the alloc blocked on, or 0
        self.finished = False
        self.prev_end = 0                # end of previous kernel instance

        self.kernel_stats: list[KernelStat] = []
        self.fault_log: list[tuple[int, int, int]] = []
        self.overlap_us = 0
        self.stall_breakdown: dict[str, int] = {}
        # of it, waits since a kernel start: the last ones delay no kernel
        self._tail: dict[str, int] = {}
        self._log: list[str] = []        # event log entries (module docstring)

    # -- event plumbing -----------------------------------------------------

    def _arm_advance(self, cause: str) -> None:
        if self._armed is None and not self.finished:
            self._seq += 1
            self._armed = (self.now, _R_STREAM, self._seq, cause)

    # -- lanes --------------------------------------------------------------

    def _kick(self, lane: _Lane) -> None:
        self._epoch += 1
        queue = lane.queue
        while lane.current is None and queue:
            head = queue.popleft()
            if head.need:
                if head.need > self.free:
                    if head.evict_for_space:
                        self._lru_evict(head.need - self.free, cause="prefetch")
                    self.parked.append(head)
                    self._log.append(
                        f"{self.now} park {head.kind} t{head.tensor.id}\n")
                    continue
                self.free -= head.need
                head.need = 0
            self._start(lane, head)

    def _start(self, lane: _Lane, xfer: _Xfer) -> None:
        lane.current = xfer
        now = lane.started_at = self.now
        self._log.append(f"{now} xfer_start {xfer.kind} t{xfer.tensor.id} "
                             f"{lane.label} {xfer.nbytes}\n")
        self._seq += 1
        heappush(self.events, (
            now + transfer_us(xfer.nbytes, lane.bw, lane.latency)
            + xfer.extra_us, _R_COMPLETE, self._seq, self._complete, (lane,)))

    def _complete(self, lane: _Lane) -> None:
        xfer = lane.current
        tensor = xfer.tensor
        if xfer.tail_bytes:
            self._run_train(lane, xfer)
            # a quiet landing arms no advance (module docstring)
            if self._idle_epoch != self._epoch or self.events[0][0] == self.now:
                self._arm_advance(xfer.kind)
            return
        lane.moved += xfer.nbytes
        self._add_overlap(lane.started_at, self.now)
        self._log.append(f"{self.now} xfer_done {xfer.kind} t{tensor.id}\n")

        lane.current = None
        if lane.to_device:
            if tensor.loc is HOST:
                self.host_used -= tensor.size
            elif tensor.loc is SSD:
                self.ssd_used -= tensor.size
            tensor.loc = GPU
            tensor.pending_in = False
            self._lru_add(tensor)
        else:
            self.free += tensor.size
            self._outgoing -= tensor.size
            tensor.loc = xfer.dest_loc
            tensor.pending_out = False
            if xfer.dest_loc is HOST:
                self.host_used += tensor.size
            else:
                self.ssd_used += tensor.size
            if tensor.retry_fetch is not None:
                directive, iteration = tensor.retry_fetch
                tensor.retry_fetch = None
                self._trigger(directive, iteration)
            if self.parked:
                self._unpark()
        self._kick(lane)
        self._arm_advance(xfer.kind)

    def _run_train(self, lane: _Lane, xfer: _Xfer) -> None:
        """Land a fault chunk with bytes still to move, then the chunks
        after it up to the heap's next event (module docstring, chunk train
        and run-ahead), and restart the train's lane head on the next one."""
        chunk = self._chunk
        step = transfer_us(chunk, lane.bw, lane.latency) + xfer.extra_us
        start = self.now
        # full chunks that land with no event of their own: every one before
        # the last that ends before the next event (an armed advance is due now)
        ahead = 0
        if self._idle_epoch == self._epoch and self._armed is None:
            ahead = (xfer.tail_bytes - 1) // chunk
            if self.events:
                ahead = max(0, min(ahead,
                                   (self.events[0][0] - start - 1) // step))
        end = start + ahead * step
        done = f" xfer_done {xfer.kind} t{xfer.tensor.id}\n"
        restart = (f" xfer_start {xfer.kind} t{xfer.tensor.id} "
                   f"{lane.label} {chunk}\n")
        if ahead:
            stamps = list(map(str, range(start, end, step)))
            self._log.append("".join(chain.from_iterable(
                zip(stamps, repeat(done), stamps, repeat(restart)))))
        self._log.append(f"{end}{done}")
        lane.moved += xfer.nbytes + ahead * chunk
        self._add_overlap(lane.started_at, end)
        self.now = end
        # the next chunk keeps the lane head
        nb = min(chunk, xfer.tail_bytes - ahead * chunk)
        xfer.nbytes = nb
        xfer.tail_bytes -= ahead * chunk + nb
        self._start(lane, xfer)

    def _unpark(self) -> None:
        waiting, self.parked = self.parked, []
        by_lane: dict[_Lane, list[_Xfer]] = {}
        for xfer in waiting:
            by_lane.setdefault(xfer.lane, []).append(xfer)
        for lane, items in by_lane.items():
            lane.queue.extendleft(reversed(items))
        for lane in self.lanes:
            self._kick(lane)

    def _add_overlap(self, start: int, end: int) -> None:
        # a running kernel's stat holds its planned end, at or after end
        for stat in reversed(self.kernel_stats):
            if stat.end_us <= start:
                break
            lo = max(start, stat.start_us)
            hi = min(end, stat.end_us)
            if lo < hi:
                self.overlap_us += hi - lo

    # -- migrations ----------------------------------------------------------

    def _enqueue_fetch(self, tensor: _Tensor, kind: str, *,
                       evict_for_space: bool = False) -> None:
        lane = self._fetch_lane[tensor.loc]
        tensor.pending_in = True
        if kind == "fault":
            nb = min(self._chunk, tensor.size)
            lane.queue.appendleft(_Xfer(
                tensor, lane, nb, "fault",
                extra_us=self.config.fault_handling_us,
                tail_bytes=tensor.size - nb, need=tensor.size))
        else:
            lane.queue.append(_Xfer(tensor, lane, tensor.size, kind,
                                    need=tensor.size,
                                    evict_for_space=evict_for_space))
        self._kick(lane)

    def _enqueue_evict(self, tensor: _Tensor, dest_loc: str, *,
                       front: bool = False) -> None:
        lane = self._evict_lane[dest_loc]
        tensor.pending_out = True
        self._outgoing += tensor.size
        xfer = _Xfer(tensor, lane, tensor.size, "evict", dest_loc=dest_loc)
        if front:
            lane.queue.appendleft(xfer)
        else:
            lane.queue.append(xfer)
        self._kick(lane)

    def _dest(self, tensor: _Tensor, host: bool) -> str:
        """Host memory if host is set and has room for tensor, else flash."""
        if host and self.host_used + tensor.size <= self.config.host_mem_bytes:
            return HOST
        if self.ssd_used + tensor.size > self.config.ssd_capacity_bytes:
            raise SimulationError("no tier can hold the evicted tensor")
        return SSD

    def _lru_add(self, tensor: _Tensor) -> None:
        """Enter a tensor that has just come onto the GPU as an LRU
        candidate."""
        heap = self._lru
        heappush(heap, (tensor.last_use, tensor.id))
        if len(heap) > 2 * len(self.tensors):
            # drop the entries of tensors that left and stale duplicates
            heap[:] = [(t.last_use, t.id) for t in self.tensors.values()
                       if t.loc is GPU and not t.pending_out]
            heapify(heap)

    def _lru_evict(self, deficit: int, cause: str) -> None:
        """Queue least-recently-used victims worth at least deficit bytes.

        Victims go in (last_use, id) order. Every tensor on the GPU with no
        eviction queued has a heap entry keyed at or below its own key: one
        is pushed when it comes onto the GPU, and its last_use only grows
        there (a kernel launch sets it to the newest instance). Entries of
        tensors that left are dropped and an entry whose key is off is
        pushed again under the tensor's key, so the first entry to reach
        the top with its tensor's key names the least recently used one.
        """
        outgoing = self._outgoing
        if outgoing >= deficit:
            return
        pinned = self.running.tensors if self.running is not None else ()
        if self.pos < len(self.stream):
            kind, k = self.stream[self.pos]
            if kind == "kernel":
                pinned += self._ids[k]
        heap = self._lru
        tensors = self.tensors
        held = []
        while outgoing < deficit and heap:
            entry = heappop(heap)
            last_use, tid = entry
            victim = tensors[tid]
            if victim.loc is not GPU or victim.pending_out:
                continue
            if last_use != victim.last_use:
                heappush(heap, (victim.last_use, tid))
            elif tid in pinned:
                held.append(entry)
            else:
                self._log.append(
                    f"{self.now} lru_evict t{tid} cause {cause}\n")
                self._enqueue_evict(
                    victim, self._dest(victim, self.allow_host_fallback),
                    front=True)
                outgoing += victim.size
        for entry in held:
            heappush(heap, entry)

    # -- armed directives ----------------------------------------------------

    def _arm_iteration(self, iteration: int) -> None:
        # issue times are offsets into the iteration; anchoring them to the
        # actual start keeps the planned stagger even when replay slips
        for ins in self._directives:
            self._seq += 1
            heappush(self.events, (self.now + ins.issue_us, _R_TRIGGER,
                                   self._seq, self._trigger, (ins, iteration)))

    def _trigger(self, ins, iteration: int) -> None:
        tensor = self.tensors[ins.tensor_id]
        running = self.running
        if ins.op is _PRE_EVICT:
            if tensor.loc is not GPU or tensor.pending_in or tensor.pending_out:
                self._log.append(
                    f"{self.now} skip pre_evict t{tensor.id}\n")
                return
            if running is not None and tensor.id in running.tensors:
                running.defers.append((ins, iteration))
                self._log.append(
                    f"{self.now} defer pre_evict t{tensor.id}\n")
                return
            self._enqueue_evict(
                tensor, self._dest(tensor, ins.dest is Destination.HOST))
        else:
            # an eviction still in flight (or parked behind the running
            # kernel) is this prefetch's partner: hold and re-fire once it
            # completes rather than dropping the reload
            deferred_evict = running is not None and any(
                d.op is _PRE_EVICT and d.tensor_id == tensor.id
                for d, _ in running.defers)
            if tensor.pending_out or deferred_evict:
                tensor.retry_fetch = (ins, iteration)
                self._log.append(f"{self.now} hold prefetch t{tensor.id}\n")
                return
            # loc None: replay slipped behind the plan and the tensor has
            # not been (re)born this iteration, so there is nothing to move
            if tensor.loc in (GPU, None) or tensor.pending_in:
                self._log.append(f"{self.now} skip prefetch t{tensor.id}\n")
                return
            self._enqueue_fetch(tensor, "prefetch")

    # -- compute stream ------------------------------------------------------

    def _advance(self, cause: str) -> None:
        self._idle_epoch = None
        stream, tensors = self.stream, self.tensors
        while not self.finished:
            if self.running is not None:
                return
            pos = self.pos
            if pos == 0 and not self.iter_started:
                if (self.iter_index >= self._steady_from
                        and self._fast_forward()):
                    return
                self.iter_started = True
                self._log.append(
                    f"{self.now} iteration {self.iter_index}\n")
                self._arm_iteration(self.iter_index)
            if pos >= len(stream):
                self.iter_index += 1
                if self.iter_index >= self.iterations:
                    self.finished = True
                    self._log.append(f"{self.now} done\n")
                    return
                self.pos = 0
                self.iter_started = False
                continue
            kind, payload = stream[pos]
            if kind == "alloc":
                done = self._do_alloc(tensors[payload], cause)
            elif kind == "free":
                done = self._do_free(tensors[payload])
            else:
                # _start_kernel moves the cursor itself once it launches,
                # after on_kernel_start has seen it on the kernel
                done = self._start_kernel(payload, cause)
            if not done:
                # idle even if this run moved the epoch (module docstring)
                self._idle_epoch = self._epoch
                return
            if kind != "kernel":
                self.pos = pos + 1

    def _note_block(self) -> None:
        if self.block_started is None:
            self.block_started = self.now
            self._block_faults = len(self.fault_log)

    def _resolve_block(self, cause: str) -> None:
        """End the open block (callers test that one is open)."""
        waited = self.now - self.block_started
        if waited:
            for waits in (self.stall_breakdown, self._tail):
                waits[cause] = waits.get(cause, 0) + waited
        self.block_started = None

    def _do_alloc(self, tensor: _Tensor, cause: str) -> bool:
        if tensor.loc is not None or tensor.pending_in or tensor.pending_out:
            return True
        if tensor.size > self.free:
            # evict what can go now; a short result is not fatal, the next
            # transfer completion retries and true wedges hit the drain check
            self._note_block()
            self._alloc_wait = tensor.size
            self._lru_evict(tensor.size - self.free, cause="alloc")
            return False
        if self.block_started is not None:
            self._alloc_wait = 0
            self._resolve_block(cause if cause != "none" else "alloc")
        self.free -= tensor.size
        tensor.loc = GPU
        self._lru_add(tensor)
        self._log.append(f"{self.now} alloc t{tensor.id}\n")
        return True

    def _do_free(self, tensor: _Tensor) -> bool:
        if tensor.pending_in or tensor.pending_out:
            self._note_block()
            return False
        if self.block_started is not None:
            self._resolve_block("free")
        loc = tensor.loc
        tensor.loc = None
        tensor.last_use = -1
        # log before _unpark so a transfer funded by this free appears
        # after the free that paid for it
        self._log.append(f"{self.now} free t{tensor.id}\n")
        if loc is GPU:
            self.free += tensor.size
            if self.parked:
                self._unpark()
        elif loc is HOST:
            self.host_used -= tensor.size
        elif loc is SSD:
            self.ssd_used -= tensor.size
        return True

    def _start_kernel(self, k: int, cause: str) -> bool:
        """Launch kernel k, or note the block and fetch what it lacks."""
        needed = self._needed[k]
        for tensor in needed:
            if tensor.loc is not GPU or tensor.pending_out:
                self._fetch_missing(k, needed)
                return False
        start = self.now
        stall = start - self.prev_end
        if self.block_started is not None:
            self._resolve_block(cause)
        self._tail = {}
        iteration = self.iter_index
        instance = iteration * len(self._needed) + k
        end = start + self.durations[iteration][k]
        for tensor in needed:
            tensor.last_use = instance
        self.running = _Running(k, self._ids[k])
        self.kernel_stats.append(KernelStat(
            instance, iteration, k, self._names[k], start, end, stall))
        self._log.append(f"{start} kernel_start {k} iter {iteration}\n")
        if self.on_kernel_start is not None:
            self.on_kernel_start(self, iteration, k)
        self.pos += 1
        self._seq += 1
        heappush(self.events, (end, _R_STREAM, self._seq, self._end_kernel, ()))
        return True

    def _fetch_missing(self, k: int, needed) -> None:
        """Note the block of kernel k and fetch what it lacks."""
        self._note_block()
        missing = [t for t in needed if t.loc is not GPU or t.pending_out]
        for tensor in missing:
            if tensor.pending_in or tensor.pending_out:
                continue
            if tensor.loc is None:
                raise SimulationError(
                    f"kernel {k} touches unallocated tensor {tensor.id}")
            # a block with as many faults as the kernel has tensors is
            # rare, one past the bound a defect (module docstring,
            # progress bound)
            if len(self.fault_log) - self._block_faults >= len(needed):
                self._check_refaults(k, len(needed))
            self.fault_log.append((self.iter_index, k, tensor.id))
            self._log.append(f"{self.now} fault t{tensor.id} kernel {k}\n")
            self._enqueue_fetch(tensor, "fault")
        # transfers stuck waiting for space block this kernel: make
        # room. Their bytes exceed free, since a transfer parks only
        # when it needs more and every rise of free unparks at once.
        deficit = sum(xfer.tensor.size for xfer in self.parked
                      if xfer.tensor in missing)
        if deficit:
            self._lru_evict(deficit - self.free, cause="wait")

    def _check_refaults(self, k: int, n: int) -> None:
        """Raise if the block of kernel k, which touches n tensors, has
        taken as many faults as a correct run can (module docstring,
        progress bound)."""
        bound = n + self.iterations * sum(
            ins.op is _PRE_EVICT for ins in self._directives)
        if len(self.fault_log) - self._block_faults >= bound:
            raise SimulationError(
                f"no progress: kernel {k} of iteration {self.iter_index} "
                f"faults more than the {bound} times its {n} tensors and "
                f"the run's {bound - n} pre-evictions allow")

    def _end_kernel(self) -> None:
        info = self.running
        self.running = None
        self.prev_end = self.now
        self._log.append(f"{self.now} kernel_end {info.kernel}\n")
        for ins, iteration in info.defers:
            self._trigger(ins, iteration)
        self._advance("none")

    # -- steady state ---------------------------------------------------------

    def _fast_forward(self) -> bool:
        """At an iteration start, replay the previous iteration to the end
        of the run if this start repeats its state (module docstring,
        steady state); otherwise keep this start as the next template."""
        mark, self._mark = self._mark, None
        tensors = self.tensors.values()
        if (self.events or self._armed is not None or self.parked
                or self.block_started is not None
                or any(lane.current is not None or lane.queue
                       for lane in self.lanes)
                or any(t.pending_in or t.pending_out
                       or t.retry_fetch is not None for t in tensors)):
            return False
        base = self.iter_index * len(self._needed)
        key = (self.prev_end - self.now,
               tuple(t.loc for t in tensors),
               tuple(t.last_use - base if t.last_use >= 0 else None
                     for t in tensors))
        if mark is not None and mark.key == key:
            self._replay(mark)
            return True
        if self.iter_index < self.iterations - 1:
            self._mark = _Mark(key, self.now, len(self._log),
                               len(self.kernel_stats), len(self.fault_log),
                               self.overlap_us, dict(self.stall_breakdown),
                               tuple(lane.moved for lane in self.lanes))
        return False

    def _replay(self, mark: _Mark) -> None:
        """Finish the run with copies of the iteration since mark, each
        shifted by its length."""
        first = self.iter_index - 1      # the template iteration
        runs = self.iterations - 1 - first
        period = self.now - mark.now
        n = len(self._needed)
        # the template as a %-format: its times become %d fields and its
        # iteration numbers a NUL (no log line holds either character)
        lines = [line.partition(" ") for line in
                 "".join(self._log[mark.logged:]).splitlines()]
        times = [int(t) for t, _, _ in lines]
        fmt = "%d " + "\n%d ".join([rest for _, _, rest in lines]) + "\n"
        fmt = fmt.replace(f"%d iteration {first}\n", "%d iteration \0\n")
        fmt = fmt.replace(f" iter {first}\n", " iter \0\n")
        stats = self.kernel_stats[mark.stats:]
        faults = self.fault_log[mark.faults:]
        for r in range(1, runs + 1):
            shift = r * period
            self._log.append(fmt.replace("\0", str(first + r))
                             % tuple(map(shift.__add__, times)))
            self.kernel_stats.extend(
                KernelStat(s.instance + r * n, s.iteration + r,
                           s.kernel_index, s.name, s.start_us + shift,
                           s.end_us + shift, s.stall_us) for s in stats)
            self.fault_log.extend((it + r, k, tid) for it, k, tid in faults)
        self.overlap_us += runs * (self.overlap_us - mark.overlap_us)
        for cause, total in self.stall_breakdown.items():
            self.stall_breakdown[cause] = total + runs * (
                total - mark.stalls.get(cause, 0))
        for lane, moved in zip(self.lanes, mark.moved):
            lane.moved += runs * (lane.moved - moved)
        self.prev_end += runs * period
        self.now += runs * period
        self.iter_index = self.iterations
        self.finished = True
        self._log.append(f"{self.now} done\n")

    # -- runtime hook surface -------------------------------------------------

    def runtime_prefetch(self, tid: int) -> None:
        """Queue a best-effort fetch of an off-device tensor, evicting
        least-recently-used tensors if it needs room."""
        tensor = self.tensors[tid]
        if tensor.loc in (GPU, None) or tensor.pending_in or tensor.pending_out:
            return
        self._enqueue_fetch(tensor, "prefetch", evict_for_space=True)

    # -- driver ----------------------------------------------------------------

    def run(self) -> SimResult:
        self._arm_advance("none")
        events = self.events
        while True:
            armed = self._armed
            if armed is not None and (not events or events[0] > armed):
                # where the heap would pop it (module docstring)
                self._armed = None
                # otherwise the blocked step would change nothing
                if self._idle_epoch != self._epoch:
                    wait = self._alloc_wait
                    if wait and self.free < wait <= self.free + self._outgoing:
                        # an alloc that would neither log nor queue anything
                        self._idle_epoch = self._epoch
                    else:
                        self._advance(armed[3])
            elif events:
                t, _rank, _seq, fn, args = heappop(events)
                if t < self.now:
                    raise SimulationError("event time went backwards")
                self.now = t
                fn(*args)
            else:
                break
        if not self.finished:
            raise SimulationError("deadlock: event queue drained mid-program")
        log = "".join(self._log)
        host_in, host_out, ssd_in, ssd_out = self.lanes
        return SimResult(
            policy=self.policy,
            total_us=self.prev_end,
            compute_us=sum(sum(row) for row in self.durations),
            stall_us=sum(ks.stall_us for ks in self.kernel_stats),
            overlap_us=self.overlap_us,
            faults=len(self.fault_log),
            traffic=Traffic(ssd_read=ssd_in.moved, ssd_write=ssd_out.moved,
                            host_in=host_in.moved, host_out=host_out.moved),
            kernels=self.kernel_stats,
            stall_breakdown={c: us - self._tail.get(c, 0) for c, us in sorted(
                self.stall_breakdown.items()) if us > self._tail.get(c, 0)},
            fault_log=self.fault_log,
            event_log_sha256=hashlib.sha256(log.encode()).hexdigest(),
            log=log,
        )


def _flatten(program: Program) -> list[tuple[str, int]]:
    """One iteration's stream: each gap's allocations and frees (by tensor
    id), then the kernel the gap precedes; the last gap precedes none."""
    stream = []
    for k, gap in enumerate(program.gaps):
        stream += [(step, ins.tensor_id) for ins in gap
                   if (step := _STEP_OF.get(ins.op))]
        if k < len(program.kernels):
            stream.append(("kernel", k))
    return stream


def _check_program(trace: WorkloadTrace, program: Program) -> None:
    if len(program.kernels) != len(trace.kernels):
        raise ProgramInconsistentError("kernel count mismatch")
    for pk, tk in zip(program.kernels, trace.kernels):
        if (pk.index, pk.name, pk.duration_us) != (tk.index, tk.name,
                                                   tk.duration_us):
            raise ProgramInconsistentError(f"kernel {pk.index} mismatch")
    for ins in program.instructions():
        if ins.tensor_id not in trace.tensors:
            raise ProgramInconsistentError(
                f"directive names unknown tensor {ins.tensor_id}")


def simulate(context: ReplayContext, program: Program, *,
             policy: str = "g10", durations=None, initial_locations=None,
             allow_host_fallback: bool = True,
             on_kernel_start=None) -> SimResult:
    """Replay program on context's trace and device (module docstring)."""
    engine = _Engine(context, program, policy=policy, durations=durations,
                     initial_locations=initial_locations,
                     allow_host_fallback=allow_host_fallback,
                     on_kernel_start=on_kernel_start)
    return engine.run()


def ideal_run(trace: WorkloadTrace, config: DeviceConfig,
              durations=None) -> SimResult:
    """Compute-only reference: kernels back to back, no migration at all."""
    n = len(trace.kernels)
    if durations is None:
        durations = [[k.duration_us for k in trace.kernels]
                     for _ in range(config.num_iterations)]
    stats = []
    lines = []
    clock = 0
    for j, row in enumerate(durations):
        for k in range(n):
            end = clock + row[k]
            stats.append(KernelStat(j * n + k, j, k, trace.kernels[k].name,
                                    clock, end, 0))
            lines.append(f"{clock} kernel {k}\n")
            clock = end
    log = "".join(lines)
    return SimResult(
        policy="ideal", total_us=clock, compute_us=clock, stall_us=0,
        overlap_us=0, faults=0, traffic=Traffic(), kernels=stats,
        stall_breakdown={}, fault_log=[],
        event_log_sha256=hashlib.sha256(log.encode()).hexdigest(), log=log)


def perturb_durations(trace: WorkloadTrace, noise_pct: float, seed: int,
                      iterations: int) -> list[list[int]]:
    """Per-instance kernel durations drawn uniformly within +-noise_pct."""
    rng = random.Random(seed)
    return [[max(1, round(kernel.duration_us
                          * rng.uniform(1.0 - noise_pct, 1.0 + noise_pct)))
             for kernel in trace.kernels] for _ in range(iterations)]


def ssd_lifetime_years(capacity_bytes: int, write_bytes_per_us: float, *,
                       dwpd: float = 30.0, rated_days: float = 1825.0) -> float:
    """Years until the drive's rated write endurance is consumed at the
    given sustained write rate."""
    if write_bytes_per_us <= 0:
        raise ValueError("write rate must be positive")
    endurance_bytes = dwpd * rated_days * capacity_bytes
    lifetime_us = endurance_bytes / write_bytes_per_us
    return lifetime_us / 1e6 / (365.0 * 86400.0)
