"""The names the benchmark's traced run wraps still exist, and its
observers read the arguments and results they are given.

`perfbench/tracing.py` wraps package functions by module and attribute
name, and `perfbench/run.py` reads `tensortier.curve.BACKEND`. Its
observers read the positional arguments and return values of the wrapped
functions. A rename or a signature change in the package would otherwise
surface only when the benchmark runs. The tracing module is loaded from its
file. `install` patches the package for the rest of the process, so the
traced CLI run happens in a subprocess.
"""

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

from test_cli import write_setup

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_traced_targets_resolve():
    missing = [(name, attr) for name, attr, *_ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(name), attr,
                                       None))]
    assert missing == []


def test_traced_slot_methods_exist():
    lanes = importlib.import_module("tensortier.reservations").LaneReservations
    assert [m for m in tracing.SLOT_METHODS if not hasattr(lanes, m)] == []


def test_curve_backend_is_readable():
    assert hasattr(importlib.import_module("tensortier.curve"), "BACKEND")


# plan, simulate and oracle through cli.main, each a traced operation;
# prints the exit codes and the figures the benchmark reports
_TRACED_RUN = """
import json, sys
perfbench, cfg, out = sys.argv[1:]
sys.path.insert(0, perfbench)
from tensortier import cli
from tracing import Tracer, install, layer_metrics
tracer = Tracer()
install(tracer)
codes = [tracer.run_op("g10", cli.main, [command, "--config", cfg,
                                         "--out", f"{out}/{command}"])
         for command in ("plan", "simulate", "oracle")]
metrics = layer_metrics(tracer)
print(json.dumps({"codes": codes,
                  "searches": tracer.counts["oracle.searches"],
                  **{name: metrics[name] for name in (
                      "simulate.calls", "eviction.picks",
                      "oracle.sim_calls")}}))
"""


def _perfbench_files():
    out = ROOT / ".perfbench"
    return sorted((str(p), p.stat().st_mtime_ns) for p in out.rglob("*"))


def test_traced_cli_run_feeds_every_observer(tmp_path):
    cfg = write_setup(tmp_path)
    before = _perfbench_files()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, str(ROOT / "perfbench"), cfg,
         str(tmp_path)], capture_output=True, text=True, env=env,
        cwd=tmp_path, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    report = json.loads(done.stdout)
    assert report["codes"] == [0, 0, 0]
    assert report["searches"] == 1
    assert min(report[name] for name in ("simulate.calls", "eviction.picks",
                                         "oracle.sim_calls")) > 0
    assert _perfbench_files() == before
