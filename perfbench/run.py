"""Benchmark of the tensortier pipeline through its command line.

    python3 perfbench/run.py --workload c10-plan --seed 1 --seconds 30 --trace 0

One process runs one workload in a closed loop, one `tensortier.cli.main`
operation at a time, on trace and config files written during set-up from
the seed. The workload's fixed batch of operations repeats until the time
is up; every operation's outputs are checked. The report lines name every
metric with its unit and sample count; the last line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics listed in BENCHMARK.json. Host
times are gated in units of a fixed reference work timed around every
operation, since the host's own speed moves by a quarter from one minute
to the next; wall times are printed beside them.
--trace 1 runs untraced batches for half the time, then wraps each
module's public functions (tracing.py) and reports BENCHMARK.json's
per-layer metrics from the traced batches, the tracing overhead, and
whether traced and untraced outputs are identical.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracing import Tracer, install, layer_metrics
from workloads import WORKLOADS, CheckFailed, C10_TRIPWIRE

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUPS = 3              # set-ups before each untraced batch; setup_s is
                        # the median of all of them

# units of layer figures that are printed but not listed in BENCHMARK.json
REPORT_UNITS = {
    "instrument.serialize_s": "s", "policies.flashneuron_plan_s": "s",
    "oracle.best_assignment_s": "s", "oracle.at_bound_share": "ratio",
}


@dataclass
class Batch:
    op_seconds: list[float]
    op_refs: list[float] = field(default_factory=list)
    outcomes: dict = field(default_factory=dict)
    failed: int = 0
    layers: dict | None = None
    g10_residuals: list[int] | None = None

    @property
    def seconds(self) -> float:
        return sum(self.op_seconds)

    def digest_lines(self) -> list[str]:
        return [f"{label} {key}={value}"
                for label in sorted(self.outcomes)
                for key, value in sorted(self.outcomes[label].digests.items())]

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.digest_lines()).encode()).hexdigest()


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def say(line: str) -> None:
    print(line, flush=True)


def reference_work() -> int:
    """A fixed piece of pure-Python work that does not touch the program:
    integer arithmetic, dict updates and a sort, a few milliseconds long.
    Timed between operations, it gives the host's speed at that moment,
    which on a shared host moves by a quarter within minutes."""
    counts: dict[int, int] = {}
    keys = [(i * 7919) % 4099 for i in range(12_000)]
    for i, key in enumerate(keys):
        counts[key] = counts.get(key, 0) + i
    keys.sort()
    return sum(counts.values()) + keys[len(keys) // 2]


def timed_reference() -> float:
    t0 = perf_counter()
    reference_work()
    return perf_counter() - t0


def batch_seconds(batches: list[Batch]) -> float:
    """One batch's wall time: the sum of each operation's median over the
    batches, so a short slow spell of the host weighs on one sample only."""
    return sum(statistics.median(times)
               for times in zip(*(b.op_seconds for b in batches)))


def batch_refs(batches: list[Batch]) -> float:
    """One batch's time in units of the reference work, summed over
    operations like batch_seconds. Each operation counts in units of the
    mean of the reference times just before and just after it."""
    return sum(statistics.median(refs)
               for refs in zip(*(b.op_refs for b in batches)))


def import_program() -> None:
    """Import tensortier afresh, as a new process would."""
    for name in [n for n in sys.modules if n.split(".")[0] == "tensortier"]:
        del sys.modules[name]
    importlib.import_module("tensortier.cli")


def timed_setups(workload) -> list[float]:
    """SETUPS set-ups from scratch: an empty work directory, a fresh import
    of the program, the workload's input files. Each writes the same files."""
    times = []
    for _ in range(SETUPS):
        shutil.rmtree(workload.work, ignore_errors=True)
        os.makedirs(workload.work)
        t0 = perf_counter()
        import_program()
        workload.setup()
        times.append(perf_counter() - t0)
    return times


def run_batch(ops, tracer: Tracer | None) -> Batch:
    from tensortier.cli import main
    batch = Batch(op_seconds=[])
    ref_before = timed_reference()
    for op in ops:
        t0 = perf_counter()
        try:
            code = (tracer.run_op(op.policy, main, op.argv) if tracer
                    else main(op.argv))
        except Exception:  # counted below as a failed operation
            traceback.print_exc()
            code = None
        seconds = perf_counter() - t0
        ref_after = timed_reference()
        batch.op_seconds.append(seconds)
        batch.op_refs.append(2 * seconds / (ref_before + ref_after))
        ref_before = ref_after
        try:
            if code != 0:
                raise CheckFailed(f"exit code {code}")
            batch.outcomes[op.label] = op.check()
        except Exception:  # one failed operation; the run goes on
            batch.failed += 1
            print(f"FAILED {op.label}", file=sys.stderr)
            traceback.print_exc()
    if tracer:
        batch.layers = layer_metrics(tracer)
        batch.g10_residuals = list(tracer.g10_residuals)
    return batch


def run_until(ops, deadline: float, tracer: Tracer | None = None,
              before_batch=None) -> list[Batch]:
    """Whole batches, at least one, while the next is expected to end in
    time. `before_batch` runs ahead of every batch after the first."""
    batches = []
    while True:
        if tracer:
            tracer.reset()
        batches.append(run_batch(ops, tracer))
        if perf_counter() + batches[-1].seconds > deadline:
            return batches
        if before_batch:
            before_batch()


def environment() -> dict:
    from tensortier import curve
    return {
        "curve_backend": curve.BACKEND,
        "TENSORTIER_CURVE": os.environ.get("TENSORTIER_CURVE", ""),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "numpy_importable": importlib.util.find_spec("numpy") is not None,
    }


def simulated_figures(workload, batch: Batch) -> dict:
    """Print the quality of the simulated runs, which repeats exactly for a
    seed; return the listed figure."""
    outcomes = list(batch.outcomes.values())
    g10 = [o for o in outcomes if o.policy == "g10"]
    if not g10:
        return {}
    slowdown = geomean(o.total_us / o.base_us for o in g10)
    say(f"metric g10_slowdown {slowdown:.6f} x "
        f"(simulated, geometric mean over n={len(g10)} g10 runs)")
    faults = [o.faults for o in g10 if o.faults is not None]
    if faults:
        say(f"metric g10_faults {sum(faults)} count "
            f"(simulated, sum over n={len(faults)} g10 runs)")
    gaps = [o.gap for o in outcomes if o.gap is not None]
    if gaps:
        at_bound = sum(o.total_us == o.base_us for o in g10)
        say(f"metric oracle_gap {statistics.fmean(gaps):.6f} x "
            f"(simulated, mean greedy/best over n={len(gaps)} searches)")
        say(f"property oracle.at_bound_share {at_bound / len(g10):.4f} "
            f"({at_bound} of {len(g10)} greedy plans equal the sum of "
            f"kernel durations)")
    by_policy: dict[str, list[float]] = {}
    for o in outcomes:
        if o.policy and o.total_us:
            by_policy.setdefault(o.policy, []).append(o.total_us / o.base_us)
    if len(by_policy) > 1:
        for policy, ratios in sorted(by_policy.items()):
            say(f"layer policies.slowdown.{policy} {geomean(ratios):.6f} x "
                f"(simulated, geometric mean over n={len(ratios)} cells)")
    trip = workload.tripwire(batch.outcomes)
    if trip is not None:
        diff = {k: (v, C10_TRIPWIRE[k]) for k, v in trip.items()
                if v != C10_TRIPWIRE[k]}
        say("tripwire c10 " + " ".join(f"{k}={v}" for k, v in trip.items())
            + (" match" if not diff else
               " MISMATCH " + " ".join(f"{k}: got {g} want {w}"
                                       for k, (g, w) in diff.items())))
    return {"g10_slowdown": slowdown}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced workload size, for smoke.py")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    units.update(REPORT_UNITS)

    workload = WORKLOADS[args.workload](
        work=str(OUT / args.workload), seed=args.seed, small=args.small)
    say(f"perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
        + (" small" if args.small else ""))
    setups = timed_setups(workload)
    workload.build_ops()
    say("env " + json.dumps(environment(), sort_keys=True))

    start = perf_counter()
    half = args.seconds / 2 if args.trace else args.seconds
    # set-ups are sampled between batches too, so that setup_s sees the
    # same spells of the host as run_s
    untraced = run_until(
        workload.ops, start + half,
        before_batch=lambda: setups.extend(timed_setups(workload)))
    batches = list(untraced)
    values = {
        "setup_s": statistics.median(setups),
        "run_s": batch_seconds(untraced),
        "run_ref": batch_refs(untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    op_seconds = [t for b in untraced for t in b.op_seconds]
    op_refs = [r for b in untraced for r in b.op_refs]
    values["op_p50_ms"] = statistics.median(op_seconds) * 1000
    values["op_p50_ref"] = statistics.median(op_refs)
    say(f"metric setup_s {values['setup_s']:.6f} s "
        f"(median of n={len(setups)} set-ups, {SETUPS} before each "
        f"untraced batch)")
    say(f"metric run_s {values['run_s']:.6f} s ({len(workload.ops)} "
        f"operations, each the median of n={len(untraced)} batches)")
    say(f"metric run_ref {values['run_ref']:.4f} ref (the same, each "
        f"operation over the reference work timed around it)")
    say(f"metric op_p50_ms {values['op_p50_ms']:.3f} ms "
        f"(n={len(op_seconds)} operations)")
    say(f"metric op_p50_ref {values['op_p50_ref']:.4f} ref "
        f"(n={len(op_refs)} operations)")
    if len(op_seconds) >= 100:
        p90_ms = statistics.quantiles(op_seconds, n=10)[-1] * 1000
        p90_ref = statistics.quantiles(op_refs, n=10)[-1]
        say(f"metric op_p90_ms {p90_ms:.3f} ms, op_p90_ref {p90_ref:.4f} ref "
            f"(n={len(op_seconds)} operations)")
    else:
        say(f"metric op_p90_ms n/a (n={len(op_seconds)} operations, under 100)")
    say(f"metric peak_rss_mb {values['peak_rss_mb']:.3f} MiB")
    values.update(simulated_figures(workload, untraced[0]))

    if args.trace:
        tracer = Tracer()
        install(tracer)
        traced = run_until(workload.ops, start + args.seconds, tracer)
        batches += traced
        for name in traced[0].layers:
            values[name] = statistics.median(b.layers[name] for b in traced)
            say(f"layer {name} {values[name]:.9g} {units.get(name, '')} "
                f"(median of n={len(traced)} traced batches)")
        overhead = batch_refs(traced) / values["run_ref"]
        say(f"tracing overhead {overhead:.4f}x (traced run_ref over "
            f"untraced run_ref {values['run_ref']:.4f} ref)")
        residuals = traced[0].g10_residuals
        if args.workload == "sweep-replay" and residuals:
            fits = sum(r == 0 for r in residuals)
            say(f"property sweep.g10_fit_share {fits / len(residuals):.4f} "
                f"({fits} of {len(residuals)} g10 plans have "
                f"residual_overflow == 0)")
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(str(spans))
        say(f"spans {len(tracer.spans)} written to {spans.relative_to(ROOT)}")

    for line in untraced[0].digest_lines():
        say(f"digest {line}")
    digests = {b.digest() for b in batches if not b.failed}
    say(f"digest-all {untraced[0].digest()} "
        f"({'identical' if len(digests) == 1 else 'DIFFERENT'} across "
        f"{len(batches)} batches" + (", traced and untraced" if args.trace
                                      else "") + ")")

    failed = sum(b.failed for b in batches)
    listed = bench["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": sum(len(b.op_seconds) for b in batches),
        "failed": failed,
        # a failed operation can leave a figure unmeasured
        "metrics": {m["name"]: {"value": (values.get(m["name"], 0.0) if failed
                                          else values[m["name"]]),
                                "unit": m["unit"]}
                    for m in listed},
    }
    say(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
