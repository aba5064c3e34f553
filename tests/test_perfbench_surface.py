"""The names the benchmark's traced run wraps still exist.

`perfbench/tracing.py` wraps package functions by module and attribute
name, and `perfbench/run.py` reads `tensortier.curve.BACKEND`. A rename in
the package would otherwise surface only when the benchmark runs. The
tracing module is loaded from its file, and `install` is never called: it
patches the package for the rest of the process.
"""

import importlib
import importlib.util
import pathlib

TRACING = (pathlib.Path(__file__).resolve().parent.parent / "perfbench"
           / "tracing.py")
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
