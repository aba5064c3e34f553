"""Exhaustive oracle: hand-checked cases, guards, and pinned outcomes.

`golden/oracle_outcomes.json` holds the `OracleOutcome` of every c04 seed
where the search beats the greedy plan, so the booking of enumerated
assignments decides the answer. Record it with
`PYTHONPATH=src python tests/test_oracle.py`, which prints it as JSON.
"""

import json
import pathlib
import sys

import pytest

from conftest import make_device
from tensortier.oracle import MAX_PERIODS, best_assignment
from tensortier.trace import synthesize_trace
from tensortier.vitality import analyze

GOLDEN = pathlib.Path(__file__).parent / "golden" / "oracle_outcomes.json"

# c04 seeds (out of 100) whose optimum is below the greedy total
SEARCH_WINS = (11, 26, 29, 38, 41, 50, 54, 63, 65, 70, 75, 76, 83, 90)


def _c04_outcome(seed):
    trace = synthesize_trace(3, (20_480, 28_672), (20_480, 28_672),
                             (100, 200), seed)
    out = best_assignment(analyze(trace), make_device(gpu_mem_bytes=131_072))
    return {"best_total_us": out.best_total_us,
            "greedy_total_us": out.greedy_total_us,
            "assignment": list(out.assignment)}


def outcomes():
    return {str(seed): _c04_outcome(seed) for seed in SEARCH_WINS}


def test_s1_greedy_is_optimal(s1_trace, device):
    out = best_assignment(analyze(s1_trace), device)
    assert out.best_total_us == out.greedy_total_us == 130
    assert out.ratio == 1.0
    assert out.assignment == ("ssd",)


def test_s1r_greedy_pick_lies_in_optimal_plan(s1r_trace, device):
    out = best_assignment(analyze(s1r_trace), device)
    assert out.best_total_us == out.greedy_total_us == 130
    # canonical order puts the big weight first; the reported optimum is the
    # greedy plan itself, so its first pick (the small weight) is in it
    assert out.assignment == ("host", "ssd")


def test_ssd_only_enumeration_beats_ratio_trap(s1r_trace, device):
    out = best_assignment(analyze(s1r_trace), device, allow_host=False)
    # greedy's best-ratio pick (the small weight) saturates the flash lane
    # and collapses the big weight's window; enumeration shows moving the
    # big weight alone clears the plateau. This trap is why the planner
    # falls back to host memory under pressure when it is allowed to.
    assert out.assignment == ("ssd", None)
    assert out.best_total_us == 130
    assert out.greedy_total_us == 273
    assert out.ratio == pytest.approx(2.1)


def test_zero_period_trace_collapses_to_greedy():
    trace = synthesize_trace(1, 1024, 1024, 25, seed=0)
    analysis = analyze(trace)
    assert not analysis.periods
    out = best_assignment(analysis, make_device())
    assert out.assignment == ()
    assert out.best_total_us == out.greedy_total_us
    assert out.ratio == 1.0


@pytest.mark.parametrize("allow_host", [True, False])
def test_ratio_floor_and_assignment_shape(allow_host):
    dev = make_device(gpu_mem_bytes=131_072)
    allowed = {None, "ssd"} | ({"host"} if allow_host else set())
    for seed in range(4):
        trace = synthesize_trace(3, (20_480, 28_672), (20_480, 28_672),
                                 (100, 200), seed=seed)
        analysis = analyze(trace)
        out = best_assignment(analysis, dev, allow_host=allow_host)
        assert out.greedy_total_us >= out.best_total_us
        assert out.ratio >= 1.0
        assert len(out.assignment) == len(analysis.periods)
        assert set(out.assignment) <= allowed


def test_period_limit_guard(device):
    big = analyze(synthesize_trace(4, 4096, 4096, 25, seed=0))
    assert len(big.periods) == 9 > MAX_PERIODS
    with pytest.raises(ValueError, match="exhaustive search limit"):
        best_assignment(big, device)


def test_search_wins_match_golden():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden, key=int) == [str(s) for s in SEARCH_WINS]
    for seed, outcome in outcomes().items():
        assert outcome["best_total_us"] < outcome["greedy_total_us"], seed
        assert outcome == golden[seed], seed


if __name__ == "__main__":
    json.dump(outcomes(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
