"""Command line front end.

Subcommands: analyze, plan, simulate, sweep, oracle, gen. Results go to the
--out directory, or stream to stdout as `# <name>` sections when --out is
'-'. Exit codes: 0 success, 1 bad input or validation failure, 2 I/O
failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from dataclasses import replace

from tensortier.config import (POLICY_NAMES, ConfigError, ExperimentConfig,
                               gbps_to_bytes_per_us, parse_bytes, parse_config,
                               with_device)
from tensortier.eviction import plan_to_json
from tensortier.instrument import emit_program, serialize_program
from tensortier.oracle import best_assignment
from tensortier.policies import policy_plan, run_policy
from tensortier.reporting import (characterization_tables, render_csv,
                                  result_json, simulation_tables, write_tables)
from tensortier.simulate import ReplayContext, SimulationError
from tensortier.trace import parse_trace, serialize_trace, synthesize_trace
from tensortier.vitality import analyze

_INPUT_ERRORS = (SimulationError, ValueError)


class _Parser(argparse.ArgumentParser):
    # usage problems are input errors, not I/O errors
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of this process; parse_args keeps no state between
    calls, so every main call can reuse it."""
    parser = _Parser(prog="tensortier")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, policy=False, workers=False):
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default="-",
                       help="output directory, or - for stdout")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        if policy:
            p.add_argument("--policy", choices=POLICY_NAMES, default=None,
                           help="override the config policy")
        if workers:
            p.add_argument("--workers", type=int, default=None,
                           help="parallel sweep processes")

    common(sub.add_parser("analyze", help="tensor occupancy and period tables"))
    common(sub.add_parser("plan", help="write plan.json and program.txt"),
           policy=True)
    common(sub.add_parser("simulate", help="run one policy end to end"),
           policy=True)
    common(sub.add_parser("sweep", help="run the config's sweep axes"),
           policy=True, workers=True)
    common(sub.add_parser("oracle",
                          help="exhaustive plan search on a small trace"),
           policy=True)

    gen = sub.add_parser("gen", help="synthesize a layered training trace")
    gen.add_argument("--out", default="-", help="trace file, or - for stdout")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--layers", type=int, default=6)
    gen.add_argument("--act-size", default="64MB",
                     help="activation bytes, value or lo:hi range")
    gen.add_argument("--weight-size", default="16MB",
                     help="weight bytes, value or lo:hi range")
    gen.add_argument("--dur", default="300:900",
                     help="kernel duration in us, value or lo:hi range")
    return parser


def _load(args) -> tuple[ExperimentConfig, str]:
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    # replace runs the config's own checks on every override, as
    # _apply_axis does on every sweep value
    overrides = {name: getattr(args, name, None)
                 for name in ("seed", "policy", "workers")}
    cfg = replace(cfg, **{name: value for name, value in overrides.items()
                          if value is not None})
    return cfg, os.path.dirname(os.path.abspath(args.config))


def _load_trace(cfg: ExperimentConfig, base_dir: str):
    if not cfg.trace:
        raise ConfigError("config has no trace path")
    path = cfg.trace
    if not os.path.isabs(path):
        path = os.path.join(base_dir, path)
    with open(path, "rb") as fh:
        return parse_trace(fh.read())


def _cmd_analyze(args) -> int:
    cfg, base = _load(args)
    context = ReplayContext(analyze(_load_trace(cfg, base)), cfg.device)
    write_tables(characterization_tables(context), args.out)
    return 0


def _cmd_plan(args) -> int:
    cfg, base = _load(args)
    context = ReplayContext(analyze(_load_trace(cfg, base)), cfg.device)
    plan = policy_plan(cfg.policy, context, eager=cfg.eager)
    write_tables({
        "plan.json": plan_to_json(plan),
        "program.txt": serialize_program(emit_program(context, plan)),
    }, args.out)
    return 0


def _cmd_simulate(args) -> int:
    cfg, base = _load(args)
    trace = _load_trace(cfg, base)
    result = run_policy(cfg.policy, trace, cfg.device, seed=cfg.seed,
                        noise_pct=cfg.noise_pct, eager=cfg.eager)
    tables = simulation_tables(result)
    tables["result.json"] = result_json(result)
    write_tables(tables, args.out)
    return 0


def _apply_axis(cfg: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    if axis in ("trace", "policy", "noise_pct"):
        return replace(cfg, **{axis: value})
    if axis in ("gpu_mem_bytes", "host_mem_bytes"):
        return with_device(cfg, **{axis: value})
    if axis == "ssd_read_bw_gbps":
        return with_device(cfg, ssd_read_bw=gbps_to_bytes_per_us(value))
    if axis == "ssd_write_bw_gbps":
        return with_device(cfg, ssd_write_bw=gbps_to_bytes_per_us(value))
    if axis == "ssd_bw_gbps":
        bw = gbps_to_bytes_per_us(value)
        return with_device(cfg, ssd_read_bw=bw, ssd_write_bw=bw)
    raise ConfigError(f"unknown sweep axis {axis!r}")


def _sweep_cell(cfg: ExperimentConfig, base: str, axes: tuple[str, ...],
                combo: tuple) -> list:
    for axis, value in zip(axes, combo):
        cfg = _apply_axis(cfg, axis, value)
    trace = _load_trace(cfg, base)
    result = run_policy(cfg.policy, trace, cfg.device, seed=cfg.seed,
                        noise_pct=cfg.noise_pct, eager=cfg.eager)
    row = list(combo)
    if "policy" not in axes:
        row.append(cfg.policy)
    return row + [result.total_us, result.compute_us, result.stall_us,
                  result.faults]


def _cmd_sweep(args) -> int:
    cfg, base = _load(args)
    if not cfg.sweep:
        raise ConfigError("config defines no sweep axes")
    axes = tuple(sorted(cfg.sweep))
    # a bad value fails the command before any cell runs
    for axis in axes:
        for value in cfg.sweep[axis]:
            _apply_axis(cfg, axis, value)
    combos = list(itertools.product(*(cfg.sweep[a] for a in axes)))
    if cfg.workers > 1:
        # imported here: only a parallel sweep needs the process pool, and
        # the import costs every other CLI process resident memory
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            rows = list(pool.map(_sweep_cell, itertools.repeat(cfg),
                                 itertools.repeat(base),
                                 itertools.repeat(axes), combos))
    else:
        rows = [_sweep_cell(cfg, base, axes, combo) for combo in combos]
    header = list(axes)
    if "policy" not in axes:
        header.append("policy")
    header += ["total_us", "ideal_us", "stall_us", "faults"]
    write_tables({"sweep.csv": render_csv(header, rows)}, args.out)
    return 0


def _cmd_oracle(args) -> int:
    cfg, base = _load(args)
    trace = _load_trace(cfg, base)
    outcome = best_assignment(analyze(trace), cfg.device,
                              allow_host=cfg.policy != "g10-ssd-only")
    doc = {
        "best_total_us": outcome.best_total_us,
        "greedy_total_us": outcome.greedy_total_us,
        "ratio": outcome.ratio,
        "assignment": list(outcome.assignment),
    }
    write_tables({"oracle.json": json.dumps(doc, indent=2) + "\n"}, args.out)
    return 0


def _int_or_range(text: str, parse=int):
    if ":" in text:
        lo, hi = text.split(":", 1)
        return (parse(lo), parse(hi))
    return parse(text)


def _cmd_gen(args) -> int:
    trace = synthesize_trace(
        layers=args.layers,
        act_size=_int_or_range(args.act_size, parse_bytes),
        weight_size=_int_or_range(args.weight_size, parse_bytes),
        dur=_int_or_range(args.dur, int),
        seed=args.seed,
    )
    text = serialize_trace(trace)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "plan": _cmd_plan,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "oracle": _cmd_oracle,
    "gen": _cmd_gen,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
