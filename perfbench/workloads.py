"""The benchmark's workloads: seeded inputs written during set-up, the CLI
operations that run on them, and the checks every operation's outputs pass.

Operations go through `tensortier.cli.main` only. Each workload is built so
that most of its time lands in one layer and little in another; README.md
in this directory says which, and what each should move.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field

PAGE = 4096          # default page size of the device model


class CheckFailed(Exception):
    """An operation's output broke one of the benchmark's checks."""


@dataclass
class Outcome:
    """What the checks read back from one operation's outputs."""

    digests: dict[str, str]
    policy: str | None = None      # simulated run this outcome describes
    total_us: int = 0              # simulated run time
    base_us: int = 0               # ideal run, or sum of kernel durations
    faults: int | None = None
    gap: float | None = None       # oracle: greedy over best
    plan_counts: tuple[int, int] | None = None   # evictions, unschedulable


@dataclass
class Op:
    label: str
    argv: list[str]
    check: object                  # callable: () -> Outcome
    policy: str | None = None


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _gen(path: str, *flags: str) -> None:
    from tensortier.cli import main
    if main(["gen", "--out", path, *flags]) != 0:
        raise RuntimeError(f"gen {' '.join(flags)} failed")


def _trace_facts(path: str) -> tuple[int, int]:
    """(sum of kernel durations, page-padded footprint) of a trace file."""
    doc = json.loads(_read(path))
    kernel_us = sum(k["duration_us"] for k in doc["kernels"])
    footprint = sum(-(-t["size_bytes"] // PAGE) * PAGE for t in doc["tensors"])
    return kernel_us, footprint


def check_plan(out: str, total_us: int) -> Outcome:
    from tensortier.eviction import plan_from_json, plan_to_json
    from tensortier.instrument import parse_program, serialize_program
    plan_text = _read(os.path.join(out, "plan.json"))
    program_text = _read(os.path.join(out, "program.txt"))
    _require(plan_to_json(plan_from_json(plan_text, total_us)) == plan_text,
             "plan.json does not round-trip")
    _require(serialize_program(parse_program(program_text)) == program_text,
             "program.txt does not round-trip")
    doc = json.loads(plan_text)
    return Outcome(digests={"plan.json": _sha(plan_text),
                            "program.txt": _sha(program_text)},
                   plan_counts=(len(doc["evictions"]), len(doc["unschedulable"])))


def check_simulate(out: str, policy: str) -> Outcome:
    text = _read(os.path.join(out, "result.json"))
    doc = json.loads(text)
    _require(doc["policy"] == policy, f"result.json policy {doc['policy']}")
    _require(doc["total_us"] >= doc["ideal_us"], "total_us < ideal_us")
    rows = _read(os.path.join(out, "kernels.csv")).splitlines()[1:]
    replayed = sum(int(end) - int(start)
                   for _, start, end, *_ in (r.split(",") for r in rows))
    _require(doc["compute_us"] == replayed,
             "compute_us is not the sum of replayed durations")
    return Outcome(digests={"event_log_sha256": doc["event_log_sha256"],
                            "result.json": _sha(text)},
                   policy=policy, total_us=doc["total_us"],
                   base_us=doc["ideal_us"], faults=doc["faults"])


def check_oracle(out: str, kernel_us: int) -> Outcome:
    text = _read(os.path.join(out, "oracle.json"))
    doc = json.loads(text)
    _require(doc["ratio"] >= 1, "oracle ratio below 1")
    _require(doc["best_total_us"] <= doc["greedy_total_us"],
             "oracle best above greedy")
    _require(doc["greedy_total_us"] >= kernel_us,
             "greedy total below the sum of kernel durations")
    return Outcome(digests={"oracle.json": _sha(text)}, policy="g10",
                   total_us=doc["greedy_total_us"], base_us=kernel_us,
                   gap=doc["greedy_total_us"] / doc["best_total_us"])


@dataclass
class Workload:
    work: str                      # directory for inputs and outputs
    seed: int
    small: bool = False            # reduced size, for the smoke check
    ops: list[Op] = field(default_factory=list)

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def setup(self) -> None:
        """Write traces and configs; runs inside the timed set-up."""
        raise NotImplementedError

    def build_ops(self) -> None:
        """Fill self.ops; runs after set-up, outside its timing."""
        raise NotImplementedError

    def tripwire(self, outcomes: dict[str, Outcome]) -> dict | None:
        return None


# ROADMAP.md tripwire: the c10 figures of the initial baseline
C10_TRIPWIRE = {"total_us": 948_520, "ideal_us": 236_301, "faults": 137,
                "evictions": 66, "unschedulable": 353}


class C10Plan(Workload):
    """The c10 acceptance trace, planned then simulated as in the README
    quick start. The trace is fixed, not drawn from the seed: the ROADMAP
    tripwire is defined on it, and a 200-layer trace's plan time moves by
    more than the run_s bound from one generator seed to the next."""

    def setup(self):
        layers, mem = (20, "1.2GB") if self.small else (200, "12GB")
        _gen(self.path("c10.json"), "--layers", str(layers), "--seed", "11")
        _write(self.path("c10.cfg"),
               f"trace = c10.json\ngpu_mem_bytes = {mem}\n")

    def build_ops(self):
        kernel_us, _ = _trace_facts(self.path("c10.json"))
        cfg = self.path("c10.cfg")
        plan_out, sim_out = self.path("plan"), self.path("simulate")
        self.ops = [
            Op("plan", ["plan", "--config", cfg, "--out", plan_out],
               lambda: check_plan(plan_out, kernel_us), "g10"),
            Op("simulate", ["simulate", "--config", cfg, "--out", sim_out],
               lambda: check_simulate(sim_out, "g10"), "g10"),
        ]

    def tripwire(self, outcomes: dict[str, Outcome]) -> dict | None:
        """Observed c10 figures next to the ROADMAP's, or None when the
        workload runs at reduced size."""
        if self.small or not {"plan", "simulate"} <= outcomes.keys():
            return None
        sim, plan = outcomes["simulate"], outcomes["plan"]
        return {"total_us": sim.total_us, "ideal_us": sim.base_us,
                "faults": sim.faults, "evictions": plan.plan_counts[0],
                "unschedulable": plan.plan_counts[1]}


SWEEP_POLICIES = ("base-uvm", "deepum-like", "flashneuron-like", "g10",
                  "g10-ssd-only")


class SweepReplay(Workload):
    """Twenty seeded 32-layer traces, six replayed iterations each, under
    every planned and fault-driven policy: 100 `simulate` cells. The traces
    take turns at 0.5x and 0.75x of their footprint, with and without 20%
    duration noise. Twenty traces rather than five under all four
    conditions, because the cost and quality of one trace's cells move with
    its random sizes."""

    CONDITIONS = ((50, "0"), (50, "0.2"), (75, "0"), (75, "0.2"))

    def setup(self):
        rng = random.Random(f"sweep-replay/{self.seed}")
        n_traces, layers = (4, 8) if self.small else (20, 32)
        for i in range(n_traces):
            trace = self.path(f"t{i:02d}.json")
            _gen(trace, "--layers", str(layers), "--act-size", "32MB:96MB",
                 "--weight-size", "8MB:24MB", "--dur", "300:900",
                 "--seed", str(rng.randrange(1, 2**31)))
            _, footprint = _trace_facts(trace)
            share, noise = self.CONDITIONS[i % len(self.CONDITIONS)]
            gpu = footprint * share // 100 // PAGE * PAGE
            _write(self.path(f"t{i:02d}-m{share}-n{noise}.cfg"),
                   f"trace = t{i:02d}.json\ngpu_mem_bytes = {gpu}\n"
                   f"num_iterations = 6\nnoise_pct = {noise}\n"
                   f"seed = {rng.randrange(2**31)}\n")

    def build_ops(self):
        for cfg in sorted(f for f in os.listdir(self.work) if f.endswith(".cfg")):
            for policy in SWEEP_POLICIES:
                label = f"{cfg[:-4]}/{policy}"
                out = self.path("out", label)
                self.ops.append(Op(
                    label, ["simulate", "--config", self.path(cfg),
                            "--policy", policy, "--out", out],
                    lambda out=out, policy=policy: check_simulate(out, policy),
                    policy))


class OracleSmall(Workload):
    """Twelve instances of the c04 generator, seeds drawn from outside
    c04's 0..99, each one exhaustive `oracle` search."""

    # conftest.make_device(gpu_mem_bytes=131072) as a config file
    DEVICE = ("gpu_mem_bytes = 131072\nhost_mem_bytes = 1000000\n"
              "ssd_capacity_bytes = 10000000\nssd_read_bw_gbps = 4.096\n"
              "ssd_write_bw_gbps = 4.096\nhost_bw_gbps = 4.096\n"
              "ssd_read_latency_us = 5\nssd_write_latency_us = 5\n"
              "host_latency_us = 5\npage_size_bytes = 1024\n")

    def setup(self):
        rng = random.Random(f"oracle-small/{self.seed}")
        for s in rng.sample(range(100, 2**31), 2 if self.small else 12):
            _gen(self.path(f"s{s}.json"), "--layers", "3",
                 "--act-size", "20480:28672", "--weight-size", "20480:28672",
                 "--dur", "100:200", "--seed", str(s))
            _write(self.path(f"s{s}.cfg"), f"trace = s{s}.json\n" + self.DEVICE)

    def build_ops(self):
        for cfg in sorted(f for f in os.listdir(self.work) if f.endswith(".cfg")):
            label = cfg[:-4]
            kernel_us, _ = _trace_facts(self.path(label + ".json"))
            out = self.path("out", label)
            self.ops.append(Op(
                label, ["oracle", "--config", self.path(cfg), "--out", out],
                lambda out=out, k=kernel_us: check_oracle(out, k), "g10"))


WORKLOADS = {"c10-plan": C10Plan, "sweep-replay": SweepReplay,
             "oracle-small": OracleSmall}
