"""Release gate: ten checks covering the planner, the runtime, and the CLI.

Each test here is one verdict line in the terminal summary. The first seven
pin quantitative behavior on seeded workload suites, c08 is a bundle of
structural invariants driven by generated cases, c09 freezes the worked
four-kernel schedule byte for byte, and c10 times the full pipeline on a
400-kernel trace. Generators were chosen by scanning parameter regions, not
by trimming assertions; if one of these fails, the product regressed.
"""

import json
import pathlib
import statistics
import time

from hypothesis import given, settings, strategies as st

from conftest import make_context, make_device, make_s1
from tensortier.cli import main
from tensortier.config import Destination, Direction, gbps_to_bytes_per_us
from tensortier.eviction import (CapacityViolationError, SchedulerState,
                                 apply_candidate, choose_destination,
                                 plan_to_json)
from tensortier.instrument import Op, emit_program, serialize_program
from tensortier.oracle import best_assignment
from tensortier.policies import run_policy
from tensortier.prefetch import plan_migrations
from tensortier.trace import parse_trace, synthesize_trace

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _padded_sizes(trace, dev):
    return {tid: dev.padded(t.size_bytes) for tid, t in trace.tensors.items()}


def _suite_case(seed):
    """Oversubscribed six-layer instance; footprint 1.5x..3x capacity."""
    trace = synthesize_trace(6, (30_000, 60_000), (8_000, 16_000),
                             (50, 150), seed)
    sizes = _padded_sizes(trace, make_device())
    footprint = sum(sizes.values())
    oversub = 1.5 + 1.5 * seed / 29
    cap = (int(footprint / oversub) // 1024) * 1024
    max_ws = max(sum(sizes[t] for t in k.tensors()) for k in trace.kernels)
    assert cap >= max_ws
    dev = make_device(gpu_mem_bytes=cap, host_mem_bytes=10_000_000,
                      num_iterations=3)
    return trace, dev


def test_c01_ssd_endurance_formula():
    from tensortier.simulate import ssd_lifetime_years
    # 3.2 TB drive rated 30 full writes/day for five years, drained at half
    # of a 3 GB/s write channel
    write_rate = gbps_to_bytes_per_us(3.0) * 0.5
    years = ssd_lifetime_years(3_200 * 10**9, write_rate)
    assert abs(years - 3.70) <= 0.05


def test_c02_fitting_traces_match_ideal_exactly():
    t0 = time.monotonic()
    for seed in range(50):
        layers = 1 + seed % 4
        trace = synthesize_trace(layers, (512, 3_000), (512, 3_000),
                                 (10, 60), seed)
        dev = make_device()
        result = plan_migrations(make_context(trace, dev))
        assert not result.plan.items
        assert result.plan.residual_overflow == 0
        planned = run_policy("g10", trace, dev)
        ideal = run_policy("ideal", trace, dev)
        assert planned.total_us == ideal.total_us
        assert planned.kernels == ideal.kernels
        assert planned.faults == 0 and planned.stall_us == 0
        assert planned.traffic.ssd_read == planned.traffic.ssd_write == 0
        assert planned.traffic.host_in == planned.traffic.host_out == 0
    assert time.monotonic() - t0 < 1.0


def test_c03_ample_periods_run_without_stall():
    # periods of several hundred us against ~15 us transfers: the planner
    # must hide every migration it books
    t0 = time.monotonic()
    for seed in range(20):
        layers = 5 + seed % 3
        trace = synthesize_trace(layers, (30_000, 50_000), (1_024, 2_048),
                                 (300, 500), seed)
        dev = make_device(gpu_mem_bytes=150_000)
        planned = run_policy("g10", trace, dev)
        ideal = run_policy("ideal", trace, dev)
        assert planned.traffic.ssd_write + planned.traffic.host_out > 0
        assert planned.total_us <= 1.01 * ideal.total_us
    assert time.monotonic() - t0 < 5.0


def test_c04_greedy_tracks_exhaustive_optimum():
    t0 = time.monotonic()
    nonempty = 0
    # every outcome, recorded with `python tests/test_oracle.py c04`
    golden = json.loads((GOLDEN / "c04_outcomes.json").read_text())
    for seed in range(100):
        trace = synthesize_trace(3, (20_480, 28_672), (20_480, 28_672),
                                 (100, 200), seed)
        dev = make_device(gpu_mem_bytes=131_072)
        context = make_context(trace, dev)
        analysis = context.analysis
        assert len(analysis.periods) <= 6
        outcome = best_assignment(analysis, dev)
        assert outcome.ratio <= 1.2, (seed, outcome.ratio)
        recorded = {"best_total_us": outcome.best_total_us,
                    "greedy_total_us": outcome.greedy_total_us,
                    "assignment": list(outcome.assignment)}
        assert recorded == golden[str(seed)], seed

        plan = plan_migrations(context).plan
        if not plan.items:
            continue
        nonempty += 1
        first = plan.items[0]
        state = SchedulerState.initial(context)
        for period in analysis.periods:
            cand = choose_destination(period, state)
            if cand is not None:
                assert (first.benefit * cand.cost_us
                        >= cand.benefit * first.cost_us), seed
    assert nonempty == 100
    assert time.monotonic() - t0 < 120.0


def test_c05_policy_ordering_and_throughput():
    t0 = time.monotonic()
    totals = {p: [] for p in ("ideal", "base-uvm", "deepum-like",
                              "flashneuron-like", "g10")}
    for seed in range(30):
        trace, dev = _suite_case(seed)
        row = {p: run_policy(p, trace, dev).total_us for p in totals}
        assert row["ideal"] <= row["g10"] <= row["base-uvm"], seed
        for p, v in row.items():
            totals[p].append(row["ideal"] / v)
    medians = {p: statistics.median(v) for p, v in totals.items()}
    assert medians["g10"] > medians["flashneuron-like"]
    assert medians["g10"] > medians["deepum-like"]
    assert time.monotonic() - t0 < 120.0


def test_c06_slow_ssd_shifts_traffic_to_host():
    t0 = time.monotonic()
    trace = synthesize_trace(4, 40_960, 4_096, 100, 0)
    footprint = sum(_padded_sizes(trace, make_device()).values())
    dev = make_device(gpu_mem_bytes=(int(footprint / 1.8) // 1024) * 1024,
                      ssd_read_bw=409, ssd_write_bw=409)
    smart = run_policy("g10", trace, dev)
    ssd_only = run_policy("g10-ssd-only", trace, dev)
    assert smart.traffic.host_in + smart.traffic.host_out > 0
    assert ssd_only.traffic.host_in == ssd_only.traffic.host_out == 0
    assert ssd_only.traffic.ssd_write > 0
    assert time.monotonic() - t0 < 10.0


def test_c07_noise_robustness_and_eager_gain():
    # plans are built from clean durations; replay shakes them +-20%
    t0 = time.monotonic()
    slow = {True: [], False: []}
    for seed in range(30):
        trace, dev = _suite_case(seed)
        for eager in (True, False):
            clean = run_policy("g10", trace, dev, eager=eager)
            noisy = run_policy("g10", trace, dev, eager=eager,
                               noise_pct=0.2, seed=seed + 1)
            slow[eager].append(noisy.total_us / clean.total_us)
    assert statistics.median(slow[True]) <= 1.05
    assert statistics.median(slow[True]) < statistics.median(slow[False])
    assert time.monotonic() - t0 < 120.0


# -- c08: generated-case invariants ------------------------------------------

@st.composite
def _cases(draw):
    layers = draw(st.integers(1, 3))
    a_lo = draw(st.integers(1_000, 12_000))
    w_lo = draw(st.integers(1_000, 12_000))
    trace = synthesize_trace(
        layers,
        (a_lo, a_lo + draw(st.integers(0, 8_000))),
        (w_lo, w_lo + draw(st.integers(0, 8_000))),
        (draw(st.integers(10, 40)), draw(st.integers(41, 90))),
        draw(st.integers(0, 9_999)),
    )
    sizes = _padded_sizes(trace, make_device())
    max_ws = max(sum(sizes[t] for t in k.tensors()) for k in trace.kernels)
    frac = draw(st.floats(0.3, 1.1))
    gpu = max(max_ws, (int(sum(sizes.values()) * frac) // 1024) * 1024)
    dev = make_device(gpu_mem_bytes=gpu, host_mem_bytes=200_000,
                      num_iterations=draw(st.integers(1, 2)))
    return trace, dev


_PROP = settings(max_examples=170, deadline=None, derandomize=True)
_POLICIES = st.sampled_from(("g10", "base-uvm", "deepum-like",
                             "flashneuron-like", "g10-ssd-only"))


def _replay(events, sizes):
    """Walk an event log; return (peak resident, lane byte sums, per-tensor
    transfer directions in start order)."""
    resident = peak = 0
    in_flight = {}
    lanes = {"ssd/to_device": 0, "ssd/from_device": 0,
             "host/to_device": 0, "host/from_device": 0}
    dirs = {}
    for line in events:
        parts = line.split()
        tag = parts[1]
        if tag == "alloc":
            resident += sizes[int(parts[2][1:])]
        elif tag == "free":
            resident -= sizes[int(parts[2][1:])]
        elif tag == "xfer_start":
            tid = int(parts[3][1:])
            lane = parts[4]
            lanes[lane] += int(parts[5])
            direction = lane.split("/")[1]
            in_flight[tid] = direction
            if direction == "to_device":
                resident += sizes[tid]
            dirs.setdefault(tid, []).append(direction)
        elif tag == "xfer_done":
            tid = int(parts[3][1:])
            if in_flight.pop(tid) == "from_device":
                resident -= sizes[tid]
        peak = max(peak, resident)
    return peak, lanes, dirs


@_PROP
@given(_cases())
def _prop_pressure_monotone_under_apply(case):
    trace, dev = case
    context = make_context(trace, dev)
    state = SchedulerState.initial(context)
    applied = 0
    for period in context.by_start:
        if applied >= 4:
            break
        cand = choose_destination(period, state)
        if cand is None:
            continue
        before = state.pressure.copy()
        try:
            apply_candidate(cand, state)
        except CapacityViolationError:
            continue
        applied += 1
        for t, _ in before.breakpoints() + state.pressure.breakpoints():
            assert state.pressure.value_at(t) <= before.value_at(t)


@_PROP
@given(_cases())
def _prop_reservations_disjoint(case):
    trace, dev = case
    result = plan_migrations(make_context(trace, dev))
    for dest in Destination:
        for d in Direction:
            ivals = sorted(result.lanes[dest, d].intervals())
            for (_, e0, _), (s1, _, _) in zip(ivals, ivals[1:]):
                assert e0 <= s1


@_PROP
@given(_cases(), _POLICIES)
def _prop_residency_bounded(case, policy):
    trace, dev = case
    res = run_policy(policy, trace, dev)
    peak, _, _ = _replay(res.log.splitlines(), _padded_sizes(trace, dev))
    assert peak <= dev.gpu_mem_bytes
    # every wait in the breakdown delays a kernel
    assert sum(res.stall_breakdown.values()) == res.stall_us


@_PROP
@given(_cases(), _POLICIES)
def _prop_traffic_conserved(case, policy):
    trace, dev = case
    res = run_policy(policy, trace, dev)
    _, lanes, dirs = _replay(res.log.splitlines(), _padded_sizes(trace, dev))
    assert lanes["ssd/to_device"] == res.traffic.ssd_read
    assert lanes["ssd/from_device"] == res.traffic.ssd_write
    assert lanes["host/to_device"] == res.traffic.host_in
    assert lanes["host/from_device"] == res.traffic.host_out
    # a tensor never moves the same way twice in a row
    for tid, seq in dirs.items():
        for x, y in zip(seq, seq[1:]):
            assert x != y, tid


@_PROP
@given(_cases())
def _prop_plan_byte_identical(case):
    trace, dev = case
    first, second = make_context(trace, dev), make_context(trace, dev)
    a = plan_migrations(first)
    b = plan_migrations(second)
    assert plan_to_json(a.plan) == plan_to_json(b.plan)
    assert (serialize_program(emit_program(first, a.plan))
            == serialize_program(emit_program(second, b.plan)))


@_PROP
@given(_cases())
def _prop_directives_alternate(case):
    trace, dev = case
    context = make_context(trace, dev)
    result = plan_migrations(context)
    program = emit_program(context, result.plan)
    seq = {}
    for ins in program.instructions():
        if ins.op in (Op.PRE_EVICT, Op.PREFETCH):
            seq.setdefault(ins.tensor_id, []).append((ins.issue_us, ins.op))
    wrapping = {it.tensor_id for it in result.plan.items if it.wraps}
    for tid, pairs in seq.items():
        ops = [op for _, op in sorted(pairs, key=lambda p: p[0])]
        assert ops.count(Op.PRE_EVICT) == ops.count(Op.PREFETCH)
        if tid not in wrapping:
            assert ops[0] is Op.PRE_EVICT
        for x, y in zip(ops, ops[1:]):
            assert x is not y


def test_c08_invariants_hold_on_generated_cases():
    # six properties x 170 examples = 1020 generated cases
    t0 = time.monotonic()
    _prop_pressure_monotone_under_apply()
    _prop_reservations_disjoint()
    _prop_residency_bounded()
    _prop_traffic_conserved()
    _prop_plan_byte_identical()
    _prop_directives_alternate()
    assert time.monotonic() - t0 < 120.0


def test_c09_worked_schedule_is_frozen():
    # four-kernel scenario: the small weight goes to flash first (best
    # benefit per transfer microsecond), the large one to the host
    result = plan_migrations(make_context(make_s1(with_r=True), make_device()))
    assert plan_to_json(result.plan) == (GOLDEN / "s1r_plan.json").read_text()


def test_c10_full_pipeline_under_budget(tmp_path):
    t0 = time.monotonic()
    trace_path = tmp_path / "big.json"
    assert main(["gen", "--out", str(trace_path), "--layers", "200",
                 "--seed", "11"]) == 0
    assert len(parse_trace(trace_path.read_bytes()).kernels) == 400

    cfg = tmp_path / "exp.cfg"
    cfg.write_text("trace = big.json\n"
                   "gpu_mem_bytes = 12GB\n"
                   "sweep.policy = ideal, g10\n"
                   "sweep.ssd_bw_gbps = 3.2, 6.4\n")
    for cmd in ("plan", "simulate", "sweep"):
        assert main([cmd, "--config", str(cfg),
                     "--out", str(tmp_path / cmd)]) == 0

    assert (tmp_path / "plan" / "plan.json").exists()
    assert (tmp_path / "plan" / "program.txt").exists()
    headers = {
        "simulate/kernels.csv": "index,start,end,stall_us,slowdown",
        "simulate/summary.csv": ("policy,total_us,ideal_us,compute_us,"
                                 "overlap_us,stall_us,faults"),
        "simulate/traffic.csv": "ssd_read,ssd_write,host_in,host_out",
        "sweep/sweep.csv": ("policy,ssd_bw_gbps,total_us,ideal_us,"
                            "stall_us,faults"),
    }
    for rel, header in headers.items():
        first = (tmp_path / rel).read_text().splitlines()[0]
        assert first == header, rel
    assert json.loads((tmp_path / "simulate" / "result.json")
                      .read_text())["policy"] == "g10"
    assert time.monotonic() - t0 < 30.0
