"""End-to-end checks of the command line front end.

Each test drives main(argv) against real files in tmp_path; the few that
wrap internals only watch them, so these double as smoke tests for the
whole pipeline behind each subcommand.
"""

import json
import os

import pytest

from conftest import make_s1
from tensortier import cli, policies
from tensortier.cli import main
from tensortier.config import parse_config
from tensortier.eviction import plan_to_json
from tensortier.instrument import serialize_program
from tensortier.simulate import ideal_run, perturb_durations
from tensortier.trace import parse_trace, serialize_trace, synthesize_trace
from test_instrument import S1R_PROGRAM

# mirrors the conftest device, spelled in config-file vocabulary
DEVICE_LINES = """\
gpu_mem_bytes = 102400
host_mem_bytes = 1000000
ssd_capacity_bytes = 10000000
ssd_read_bw_gbps = 4.096
ssd_write_bw_gbps = 4.096
host_bw_gbps = 4.096
ssd_read_latency_us = 5
ssd_write_latency_us = 5
host_latency_us = 5
page_size_bytes = 1024
"""


def write_setup(tmp_path, extra="", trace_name="s1r.json"):
    """Drop the S1+R trace and a config next to it; return the config path."""
    (tmp_path / trace_name).write_text(serialize_trace(make_s1(with_r=True)))
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(DEVICE_LINES + f"trace = {trace_name}\n" + extra)
    return str(cfg)


def test_simulate_writes_result_files(tmp_path):
    cfg = write_setup(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["kernels.csv", "result.json", "summary.csv", "traffic.csv"]
    doc = json.loads((out / "result.json").read_text())
    assert doc["policy"] == "g10"
    assert doc["total_us"] == 130
    assert doc["ideal_us"] == 100
    assert doc["faults"] == 0
    assert doc["traffic"] == {"ssd_read": 20480, "ssd_write": 20480,
                              "host_in": 40960, "host_out": 40960}


def test_simulate_streams_sorted_sections_to_stdout(tmp_path, capsys):
    cfg = write_setup(tmp_path)
    assert main(["simulate", "--config", cfg]) == 0
    output = capsys.readouterr().out
    headers = [line for line in output.splitlines() if line.startswith("# ")]
    assert headers == ["# kernels.csv", "# result.json", "# summary.csv",
                       "# traffic.csv"]


def test_simulate_policy_override(tmp_path):
    cfg = write_setup(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--policy", "ideal"]) == 0
    doc = json.loads((out / "result.json").read_text())
    assert doc["policy"] == "ideal"
    assert doc["total_us"] == doc["ideal_us"] == 100


def test_plan_writes_plan_and_program(tmp_path):
    cfg = write_setup(tmp_path)
    out = tmp_path / "out"
    assert main(["plan", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "program.txt").read_text() == S1R_PROGRAM
    plan = json.loads((out / "plan.json").read_text())
    assert [ev["dest"] for ev in plan["evictions"]] == ["ssd", "host"]


def test_plan_honors_ssd_only_policy(tmp_path):
    cfg = write_setup(tmp_path, extra="policy = g10-ssd-only\n")
    out = tmp_path / "out"
    assert main(["plan", "--config", cfg, "--out", str(out)]) == 0
    plan = json.loads((out / "plan.json").read_text())
    assert [ev["dest"] for ev in plan["evictions"]] == ["ssd"]


# a slow SSD lane, so g10 also books host evictions, under 2/5 of the
# padded footprint of _policy_trace
POLICY_DEVICE = DEVICE_LINES.replace("102400", "180224").replace(
    "ssd_read_bw_gbps = 4.096\nssd_write_bw_gbps = 4.096",
    "ssd_read_bw_gbps = 1.024\nssd_write_bw_gbps = 1.024")


def _policy_setup(tmp_path):
    trace = synthesize_trace(6, (20_480, 61_440), (8_192, 30_720), (20, 150),
                             6)
    (tmp_path / "t.json").write_text(serialize_trace(trace))
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(POLICY_DEVICE + "trace = t.json\n")
    return str(cfg)


@pytest.mark.parametrize("policy, dests", [
    ("base-uvm", set()), ("deepum-like", set()),
    ("flashneuron-like", {"ssd"}), ("g10", {"ssd", "host"}),
    ("g10-ssd-only", {"ssd"})])
def test_plan_writes_what_simulate_replays(tmp_path, monkeypatch, policy,
                                           dests):
    cfg = _policy_setup(tmp_path)
    replayed = []
    emit, simulate = policies.emit_program, policies.simulate

    def watching_emit(context, plan):
        replayed.append(plan_to_json(plan))
        return emit(context, plan)

    def watching_simulate(context, program, **kwargs):
        replayed.append(serialize_program(program))
        return simulate(context, program, **kwargs)

    monkeypatch.setattr(policies, "emit_program", watching_emit)
    monkeypatch.setattr(policies, "simulate", watching_simulate)
    out = tmp_path / "out"
    assert main(["plan", "--config", cfg, "--out", str(out),
                 "--policy", policy]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim"),
                 "--policy", policy]) == 0
    plan_text = (out / "plan.json").read_text()
    assert replayed == [plan_text, (out / "program.txt").read_text()]
    assert {ev["dest"] for ev in json.loads(plan_text)["evictions"]} == dests


def test_plan_for_ideal_is_an_input_error(tmp_path, capsys):
    cfg = write_setup(tmp_path)
    out = tmp_path / "out"
    assert main(["plan", "--config", cfg, "--out", str(out),
                 "--policy", "ideal"]) == 1
    assert "error: policy 'ideal' replays no plan" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_writes_characterization_tables(tmp_path):
    cfg = write_setup(tmp_path)
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["active_vs_total.csv", "period_cdf.csv",
                     "period_scatter.csv"]
    assert "0,k0,61440,61440" in (out / "active_vs_total.csv").read_text()


def test_working_set_over_capacity_plans_but_does_not_replay(tmp_path,
                                                             capsys):
    # one byte short of kernel 3's working set (tensors 0, 2 and 3), the
    # largest of the trace
    (tmp_path / "s1r.json").write_text(serialize_trace(make_s1(with_r=True)))
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(DEVICE_LINES.replace("102400", "92159")
                   + "trace = s1r.json\n")
    out = tmp_path / "plan"
    assert main(["plan", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "plan.json").read_text())["residual_overflow"] > 0
    assert (out / "program.txt").exists()
    for command in ("simulate", "oracle"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: kernel 3 working set (92160 bytes) cannot fit in GPU "
            "memory\n")
        assert not out.exists()


def test_oracle_reports_matching_greedy_plan(tmp_path):
    cfg = write_setup(tmp_path)
    out = tmp_path / "out"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "oracle.json").read_text())
    assert doc == {"best_total_us": 130, "greedy_total_us": 130,
                   "ratio": 1.0, "assignment": ["host", "ssd"]}


def test_oracle_ssd_only_exposes_greedy_gap(tmp_path):
    cfg = write_setup(tmp_path, extra="policy = g10-ssd-only\n")
    out = tmp_path / "out"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "oracle.json").read_text())
    assert doc["best_total_us"] == 130
    assert doc["greedy_total_us"] == 273
    assert doc["ratio"] == pytest.approx(273 / 130)
    assert doc["assignment"] == ["ssd", None]


def test_sweep_policy_axis_owns_the_policy_column(tmp_path):
    cfg = write_setup(
        tmp_path,
        extra="sweep.policy = ideal, g10\nsweep.ssd_bw_gbps = 4.096, 2.048\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "policy,ssd_bw_gbps,total_us,ideal_us,stall_us,faults"
    assert len(lines) == 5
    assert lines[1].startswith("ideal,4.096000,100,100,0")


def test_sweep_appends_config_policy_when_not_an_axis(tmp_path):
    cfg = write_setup(tmp_path, extra="sweep.ssd_bw_gbps = 4.096, 2.048\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "ssd_bw_gbps,policy,total_us,ideal_us,stall_us,faults"
    assert all(",g10," in line for line in lines[1:])


def test_sweep_parallel_rows_match_serial(tmp_path):
    extra = "sweep.policy = ideal, base-uvm, g10\n"
    cfg = write_setup(tmp_path, extra=extra)
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert main(["sweep", "--config", cfg, "--out", str(serial)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(parallel),
                 "--workers", "3"]) == 0
    assert (serial / "sweep.csv").read_bytes() == \
        (parallel / "sweep.csv").read_bytes()


@pytest.mark.parametrize("flag, line, message", [
    (["--workers", "0"], "", "workers must be >= 1"),
    ([], "workers = 0\n", "workers must be >= 1"),
    ([], "sweep.noise_pct = 0.1, 1.5\n", "noise_pct must be in [0, 1)"),
], ids=["workers-flag", "workers-key", "noise-axis"])
def test_sweep_settings_are_checked(tmp_path, capsys, monkeypatch, flag,
                                    line, message):
    """A flag or a sweep value is checked as the same key in the config
    is, before any cell runs. The noise axis is applied last, after the
    memory axis, and its good value comes first."""
    cfg = write_setup(tmp_path, extra="sweep.gpu_mem_bytes = 102400\n" + line)
    out = tmp_path / "out"
    cells = []
    run_policy = cli.run_policy

    def counted(*args, **kwargs):
        cells.append(args)
        return run_policy(*args, **kwargs)

    monkeypatch.setattr(cli, "run_policy", counted)
    assert main(["sweep", "--config", cfg, "--out", str(out)] + flag) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()
    assert cells == []


def test_sweep_without_axes_is_an_input_error(tmp_path, capsys):
    cfg = write_setup(tmp_path)
    assert main(["sweep", "--config", cfg]) == 1
    assert "error: config defines no sweep axes" in capsys.readouterr().err


def test_trace_path_resolves_against_config_dir(tmp_path, monkeypatch):
    nest = tmp_path / "experiments"
    data = nest / "data"
    data.mkdir(parents=True)
    (data / "s1r.json").write_text(serialize_trace(make_s1(with_r=True)))
    cfg = nest / "exp.cfg"
    cfg.write_text(DEVICE_LINES + "trace = data/s1r.json\n")
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", os.path.join("experiments", "exp.cfg"),
                 "--out", str(out)]) == 0
    assert json.loads((out / "result.json").read_text())["total_us"] == 130


def test_missing_trace_key_is_an_input_error(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(DEVICE_LINES)
    assert main(["analyze", "--config", str(cfg)]) == 1
    assert "error: config has no trace path" in capsys.readouterr().err


def test_config_errors_carry_line_numbers(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("trace = t.json\nwarp_factor = 9\n")
    assert main(["analyze", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err and "warp_factor" in err


@pytest.mark.parametrize("line", [
    "gpu_mem_bytes = infKB", "host_bw_gbps = inf", "host_bw_gbps = nan",
    "sweep.ssd_bw_gbps = 3.2, inf"])
def test_non_finite_values_are_input_errors(tmp_path, capsys, line):
    cfg = write_setup(tmp_path, extra=line + "\n")
    command = "sweep" if line.startswith("sweep.") else "simulate"
    assert main([command, "--config", cfg, "--out",
                 str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not a finite number" in err


def test_missing_config_file_is_an_io_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    assert main(["simulate", "--config", missing]) == 2
    assert capsys.readouterr().err.startswith("io error:")


def test_usage_errors_return_one(capsys):
    assert main(["simulate"]) == 1           # missing --config
    assert main([]) == 1                     # missing subcommand
    assert main(["frobnicate"]) == 1         # unknown subcommand
    capsys.readouterr()


def test_main_builds_one_parser_per_process(tmp_path, monkeypatch, capsys):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "tensortier":  # not a subcommand's parser
            built.append(self)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    cfg = write_setup(tmp_path, extra="num_iterations = 3\nnoise_pct = 0.2\n")
    trace = make_s1(with_r=True)
    device = parse_config((tmp_path / "exp.cfg").read_text()).device
    runs = []
    for policy, seed in (("g10", "7"), ("ideal", "8")):
        out = tmp_path / policy
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--policy", policy, "--seed", seed]) == 0
        runs.append(json.loads((out / "result.json").read_text()))
    assert len(built) == 1
    # the second call parsed its own overrides, not the first call's
    assert [doc["policy"] for doc in runs] == ["g10", "ideal"]
    for doc, seed in zip(runs, (7, 8)):
        assert doc["ideal_us"] == ideal_run(
            trace, device, perturb_durations(trace, 0.2, seed, 3)).total_us
    assert runs[0]["ideal_us"] != runs[1]["ideal_us"]
    assert main(["simulate", "--config", cfg, "--policy", "bogus"]) == 1
    assert "invalid choice" in capsys.readouterr().err
    assert len(built) == 1


def test_bad_policy_choice_is_a_usage_error(tmp_path, capsys):
    cfg = write_setup(tmp_path)
    assert main(["simulate", "--config", cfg, "--policy", "bogus"]) == 1
    assert "invalid choice" in capsys.readouterr().err


def test_gen_writes_a_parseable_layered_trace(tmp_path):
    path = tmp_path / "trace.json"
    assert main(["gen", "--out", str(path), "--layers", "3",
                 "--act-size", "2KB", "--weight-size", "1024",
                 "--dur", "50"]) == 0
    trace = parse_trace(path.read_bytes())
    assert len(trace.kernels) == 6
    assert len(trace.tensors) == 9
    assert trace.tensors[0].size_bytes == 1024    # weight, plain bytes
    assert trace.tensors[3].size_bytes == 2000    # activation, decimal KB suffix
    assert all(k.duration_us == 50 for k in trace.kernels)


def test_gen_is_deterministic_per_seed(tmp_path):
    args = ["gen", "--layers", "4", "--act-size", "1000:2000",
            "--weight-size", "500:900", "--dur", "50:100"]
    a, b, c = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    assert main(args + ["--out", str(a), "--seed", "7"]) == 0
    assert main(args + ["--out", str(b), "--seed", "7"]) == 0
    assert main(args + ["--out", str(c), "--seed", "8"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_gen_streams_to_stdout(capsys):
    assert main(["gen", "--layers", "2", "--act-size", "1024",
                 "--weight-size", "1024", "--dur", "10"]) == 0
    trace = parse_trace(capsys.readouterr().out.encode())
    assert len(trace.kernels) == 4


def test_gen_rejects_an_empty_range(capsys):
    assert main(["gen", "--dur", "900:300"]) == 1
    assert "empty range" in capsys.readouterr().err


def test_noise_runs_reproduce_per_seed(tmp_path):
    cfg = write_setup(tmp_path, extra="noise_pct = 0.25\n")
    outs = [tmp_path / name for name in ("r1", "r2", "r3")]
    for out, seed in zip(outs, ("3", "3", "4")):
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--seed", seed]) == 0
    docs = [json.loads((out / "result.json").read_text()) for out in outs]
    assert docs[0] == docs[1]
    assert docs[0]["event_log_sha256"] != docs[2]["event_log_sha256"]


def test_ideal_column_is_the_perturbed_ideal_run(tmp_path):
    extra = ("num_iterations = 3\nnoise_pct = 0.2\n"
             "sweep.policy = base-uvm, g10\n")
    cfg = write_setup(tmp_path, extra=extra)
    device = parse_config((tmp_path / "exp.cfg").read_text()).device
    trace = make_s1(with_r=True)
    ideal_us = ideal_run(trace, device,
                         perturb_durations(trace, 0.2, 7, 3)).total_us
    assert ideal_us != 300  # the noise moved it off the unperturbed sum
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--seed", "7"]) == 0
    doc = json.loads((out / "result.json").read_text())
    assert doc["ideal_us"] == ideal_us
    assert main(["sweep", "--config", cfg, "--out", str(out),
                 "--seed", "7"]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == [str(ideal_us)] * 2


def test_non_utf8_trace_is_an_input_error(tmp_path, capsys):
    cfg = write_setup(tmp_path)
    (tmp_path / "s1r.json").write_bytes(b"\xff")
    assert main(["simulate", "--config", cfg]) == 1
    assert "error: not valid JSON: " in capsys.readouterr().err
