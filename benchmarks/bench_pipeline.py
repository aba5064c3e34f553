"""Stage bench: the g10 pipeline timed stage by stage on fixed workloads.

    PYTHONPATH=src python3 benchmarks/bench_pipeline.py [--label TEXT]

Appends one entry to BENCH_pipeline.json at the repository root (--out
changes the file). Each workload is a seeded trace serialized to text, so
parsing is timed too. Every run walks the whole chain once, timing each
stage on the previous stage's output: parse, analyze (the vitality
analysis and the simulate.ReplayContext built from it, which every later
stage reads), schedule_evictions, assign_latest_safe, eager_reschedule,
emit_program and the g10 simulate through the context, as run_policy
replays. The context builds its tables on first use, so the initial
pressure curve and transfer times are timed in schedule_evictions, the
program skeleton in emit_program and its alloc/free stream in the replay.
After one warm-up run, each stage reports the median of five runs in
milliseconds and in units of a fixed pure-Python reference work (the same
work perfbench times), timed between stages, since this host's speed moves
from one minute to the next.

One more, untimed run per workload counts the planner's work by wrapping
package functions for the length of one schedule_evictions call: benefit
queries, slot searches, host-capacity checks, periods checked for a
benefit change, picks and drops.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from tensortier import eviction
from tensortier.config import DeviceConfig
from tensortier.eviction import Destination, schedule_evictions
from tensortier.instrument import emit_program
from tensortier.policies import planned_placement
from tensortier.prefetch import assign_latest_safe, eager_reschedule
from tensortier.reservations import LaneReservations
from tensortier.simulate import ReplayContext, simulate
from tensortier.trace import parse_trace, serialize_trace, synthesize_trace
from tensortier.vitality import analyze

ROOT = Path(__file__).resolve().parent.parent
# perfbench's reference work, so the two benches share a unit (run.py
# imports its neighbours by their bare names)
sys.path.insert(0, str(ROOT / "perfbench"))
from run import timed_reference  # noqa: E402

RUNS = 5                # timed runs per workload, after one warm-up
STAGES = ("parse", "analyze", "schedule_evictions", "assign_latest_safe",
          "eager_reschedule", "emit_program", "simulate_g10")


@dataclasses.dataclass
class Workload:
    name: str
    layers: int
    act_size: object
    weight_size: object
    dur: object
    seed: int
    gpu_mem_bytes: int | None = None   # None: 5/8 of the padded footprint

    def inputs(self) -> tuple[bytes, DeviceConfig]:
        trace = synthesize_trace(self.layers, self.act_size, self.weight_size,
                                 self.dur, self.seed)
        dev = DeviceConfig()
        gpu = self.gpu_mem_bytes
        if gpu is None:
            gpu = sum(dev.padded(t.size_bytes)
                      for t in trace.tensors.values()) * 5 // 8
        dev = dataclasses.replace(dev, gpu_mem_bytes=gpu)
        return serialize_trace(trace).encode(), dev


def _ladder(layers: int) -> Workload:
    return Workload(f"L{layers}", layers, 64_000_000, 16_000_000, (300, 900),
                    11)


# c10 is `tensortier gen --layers 200 --seed 11` under 12 GB of GPU memory;
# the ladder is the same generator at 5/8 of the padded footprint
WORKLOADS = (Workload("c10", 200, 64_000_000, 16_000_000, (300, 900), 11,
                      12 * 10**9),
             _ladder(200), _ladder(400), _ladder(800))


def _stages(text: bytes, dev: DeviceConfig):
    """The chain's stages in order, each a callable of the previous
    stage's output."""
    ctx = {}

    def parse(_):
        return parse_trace(text)

    def build_context(trace):
        ctx["context"] = ReplayContext(analyze(trace), dev)
        return ctx["context"]

    def latest_safe(state):
        assign_latest_safe(state)
        return state

    def eager(state):
        eager_reschedule(state)
        return state.plan

    def emit(plan):
        return emit_program(ctx["context"], plan)

    def replay(program):
        context = ctx["context"]
        return simulate(context, program, policy="g10",
                        initial_locations=planned_placement(context, True))

    return (parse, build_context, schedule_evictions, latest_safe, eager,
            emit, replay)


def time_chain(text: bytes, dev: DeviceConfig) -> dict[str, tuple]:
    """One pass of the pipeline: stage -> (seconds, reference units)."""
    out = {}
    value = None
    ref = timed_reference()
    for name, stage in zip(STAGES, _stages(text, dev)):
        t0 = perf_counter()
        value = stage(value)
        seconds = perf_counter() - t0
        after = timed_reference()
        out[name] = (seconds, 2 * seconds / (ref + after))
        ref = after
    return out


@contextmanager
def _patched(owner, name, make):
    original = getattr(owner, name)
    setattr(owner, name, make(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def planner_counts(text: bytes, dev: DeviceConfig) -> dict:
    """What one schedule_evictions call on this input asks, counted by
    wrapping the functions that answer it."""
    context = ReplayContext(analyze(parse_trace(text)), dev)
    counts = dict.fromkeys(("benefit_queries", "slot_searches",
                            "host_checks", "benefit_checks"), 0)
    in_round = [False]

    def counting(key, when=lambda *a: True):
        def make(fn):
            def wrapped(*args, **kwargs):
                if when(*args):
                    counts[key] += 1
                return fn(*args, **kwargs)
            return wrapped
        return make

    def marking(fn):
        def wrapped(*args, **kwargs):
            in_round[0] = True
            try:
                return fn(*args, **kwargs)
            finally:
                in_round[0] = False
        return wrapped

    with (_patched(eviction, "wrap_window_overflow_area",
                   counting("benefit_queries")),
          _patched(LaneReservations, "earliest_slot",
                   counting("slot_searches")),
          _patched(LaneReservations, "latest_slot",
                   counting("slot_searches")),
          # a host check is a wrap_max on host occupancy inside a round
          _patched(eviction, "wrap_max",
                   counting("host_checks", lambda *a: in_round[0])),
          _patched(eviction._RouteCache, "round", marking),
          # one benefit check per period: count its SSD route's
          _patched(eviction._Route, "relieved",
                   counting("benefit_checks",
                            lambda route, *a: route.dest is Destination.SSD))):
        plan = schedule_evictions(context).plan
    picks = len(plan.items)
    return {"periods": len(context.analysis.periods), **counts,
            "benefit_checks_per_pick":
                round(counts["benefit_checks"] / picks, 1) if picks else 0.0,
            "picks": picks, "drops": len(plan.unschedulable)}


def bench(workloads=WORKLOADS, runs: int = RUNS, warmup: int = 1) -> dict:
    """Stage medians and planner counts per workload."""
    results = {}
    for wl in workloads:
        text, dev = wl.inputs()
        samples = {name: [] for name in STAGES}
        for k in range(warmup + runs):
            timed = time_chain(text, dev)
            if k >= warmup:
                for name, sample in timed.items():
                    samples[name].append(sample)
        results[wl.name] = {
            "stages": {
                name: {"ms": round(statistics.median(
                           s for s, _ in samples[name]) * 1e3, 3),
                       "ref": round(statistics.median(
                           r for _, r in samples[name]), 2)}
                for name in STAGES},
            "counts": planner_counts(text, dev),
        }
    return results


def _commit() -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "describe", "--always",
                              "--dirty"], capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return out or None


def append_entry(path: Path, entry: dict) -> None:
    entries = json.loads(path.read_text()) if path.exists() else []
    entries.append(entry)
    path.write_text(json.dumps(entries, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="",
                        help="what this entry measures, e.g. a change name")
    parser.add_argument("--out", default=str(ROOT / "BENCH_pipeline.json"))
    args = parser.parse_args(argv)
    entry = {"label": args.label, "commit": _commit(),
             "python": platform.python_version(), "cpus": os.cpu_count(),
             "runs": RUNS, "workloads": bench()}
    append_entry(Path(args.out), entry)
    json.dump(entry, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
