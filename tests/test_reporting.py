import json

from hypothesis import given, settings

from conftest import make_context
from test_acceptance import _cases
from tensortier.policies import run_policy
from tensortier.reporting import (characterization_tables, render_csv,
                                  result_json, simulation_tables,
                                  write_tables)
from tensortier.simulate import (KernelStat, SimResult, SimulationError,
                                 Traffic, ideal_run)

REPLAYED = ("base-uvm", "deepum-like", "flashneuron-like", "g10",
            "g10-ssd-only")


def test_render_csv_formats_floats_fixed():
    text = render_csv(["a", "b"], [[1, 0.5], ["x", 2.0 / 3.0]])
    assert text == "a,b\n1,0.500000\nx,0.666667\n"


def test_render_csv_quotes_embedded_commas():
    text = render_csv(["name"], [["conv, depthwise"]])
    assert text == 'name\n"conv, depthwise"\n'


def test_render_csv_mixed_rows_are_byte_stable():
    # recorded before rows were formatted in one pass
    text = render_csv(["n", "ratio", "name"],
                      [[1, 1 / 3, "conv, depthwise"], [-7, 2.0, "fc"],
                       [10**12, 1e-7, 'a "b"']])
    assert text == ('n,ratio,name\n1,0.333333,"conv, depthwise"\n'
                    '-7,2.000000,fc\n1000000000000,0.000000,"a ""b"""\n')


def test_characterization_tables(s1r_trace, device):
    tables = characterization_tables(make_context(s1r_trace, device))
    assert set(tables) == {"active_vs_total.csv", "period_cdf.csv",
                           "period_scatter.csv"}
    assert tables["active_vs_total.csv"].splitlines() == [
        "kernel_index,name,active_bytes,total_bytes",
        "0,k0,61440,61440",
        "1,k1,81920,143360",
        "2,k2,81920,143360",
        "3,k3,92160,92160",
    ]
    # both weights idle for the same 50us, so the cdf collapses to one step
    assert tables["period_cdf.csv"].splitlines() == [
        "length_us,cum_fraction",
        "50,1.000000",
    ]
    assert tables["period_scatter.csv"].splitlines() == [
        "tensor_id,size_bytes,length_us",
        "0,40960,50",
        "3,20480,50",
    ]


def test_simulation_tables(s1r_trace, device):
    result = run_policy("g10", s1r_trace, device)
    # the ideal_us column is the compute time, which is the ideal run's
    assert ideal_run(s1r_trace, device).total_us == result.compute_us
    tables = simulation_tables(result)
    assert tables["summary.csv"].splitlines() == [
        "policy,total_us,ideal_us,compute_us,overlap_us,stall_us,faults",
        "g10,130,100,100,10,30,0",
    ]
    assert tables["traffic.csv"].splitlines() == [
        "ssd_read,ssd_write,host_in,host_out",
        "20480,20480,40960,40960",
    ]
    lines = tables["kernels.csv"].splitlines()
    assert lines[0] == "index,start,end,stall_us,slowdown"
    assert lines[1] == "0,0,25,0,1.000000"
    assert lines[2] == "1,40,65,15,1.600000"
    assert len(lines) == 5


def _render_csv_kernels(result):
    """kernels.csv as render_csv writes it from rows of values."""
    rows = []
    for ks in result.kernels:
        duration = ks.end_us - ks.start_us
        rows.append([ks.instance, ks.start_us, ks.end_us, ks.stall_us,
                     (ks.stall_us + duration) / duration])
    return render_csv(["index", "start", "end", "stall_us", "slowdown"], rows)


def test_kernels_csv_matches_render_csv_on_s1r(s1r_trace, device):
    for name in REPLAYED:
        for noise in (0.0, 0.2):
            result = run_policy(name, s1r_trace, device, seed=3,
                                noise_pct=noise)
            assert (simulation_tables(result)["kernels.csv"]
                    == _render_csv_kernels(result)), (name, noise)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_cases())
def test_kernels_csv_matches_render_csv_on_generated_cases(case):
    trace, dev = case
    for name in REPLAYED:
        for noise in (0.0, 0.2):
            try:
                result = run_policy(name, trace, dev, seed=5,
                                    noise_pct=noise)
            except SimulationError:
                continue
            assert (simulation_tables(result)["kernels.csv"]
                    == _render_csv_kernels(result)), (name, noise)


def test_kernels_csv_rounds_slowdowns_as_render_csv():
    # (duration, stall): 1/128 and 3/128 are exact binary halves at the
    # seventh decimal (round half to even), 1/2e6 and 3/2e6 inexact ones,
    # 1/3 a repeating fraction; 10**13 needs no exponent
    spans = [(128, 1), (128, 3), (2_000_000, 1), (2_000_000, 3), (3, 1),
             (640, 1), (1, 0), (7, 10**13)]
    kernels, now = [], 0
    for i, (duration, stall) in enumerate(spans):
        start = now + stall
        kernels.append(KernelStat(i, start, start + duration, stall))
        now = start + duration
    result = SimResult("g10", now, now, 0, 0, 0, Traffic(), kernels, {}, [],
                       "", "")
    text = simulation_tables(result)["kernels.csv"]
    assert text == _render_csv_kernels(result)
    assert text.splitlines()[1:3] == ["0,1,129,1,1.007812",
                                      "1,132,260,3,1.023438"]


def test_result_json_round_trips(s1r_trace, device):
    result = run_policy("g10", s1r_trace, device)
    doc = json.loads(result_json(result))
    assert doc["policy"] == "g10"
    assert doc["total_us"] == 130
    assert doc["ideal_us"] == 100
    assert doc["traffic"] == {"ssd_read": 20480, "ssd_write": 20480,
                              "host_in": 40960, "host_out": 40960}
    assert doc["event_log_sha256"] == result.event_log_sha256
    assert set(doc) == {"policy", "total_us", "ideal_us", "compute_us",
                        "overlap_us", "stall_us", "faults", "traffic",
                        "stall_breakdown", "event_log_sha256"}


def test_write_tables_to_directory(tmp_path):
    out = tmp_path / "results"
    write_tables({"a.csv": "x,y\n1,2\n", "b.json": "{}\n"}, str(out))
    assert (out / "a.csv").read_text() == "x,y\n1,2\n"
    assert (out / "b.json").read_text() == "{}\n"


def test_write_tables_streams_sorted_sections(capsys):
    write_tables({"b.csv": "B\n", "a.csv": "A\n"}, "-")
    assert capsys.readouterr().out == "# a.csv\nA\n# b.csv\nB\n"
