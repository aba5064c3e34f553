"""Replay corpus: simulator output pinned across engine rewrites.

`golden/replay_corpus.json` holds, for every replay, the event-log digest,
`total_us`, `overlap_us`, faults, stall breakdown and traffic, or the class
and message of the `SimulationError`/`ValueError` it raised. It covers c10
simulated under g10 through the CLI, the 30 `_suite_case` seeds and 200
generated cases, the last two under every policy. The generated cases span
1-6 layers, GPU memory at 0.3-1.0 of the footprint, 1-3 iterations, fault
chunks of 1-8 pages and of 2 MiB, fault handling of 0, 3 and 20 us, tight
and ample host memory, and noise 0 and 0.2. A speed change to the engine
must leave every record as it is.

Record it with `PYTHONPATH=src python tests/test_replay_corpus.py`, which
prints the corpus as JSON.
"""

import hashlib
import json
import pathlib
import random
import sys
import tempfile

from conftest import make_device
from test_acceptance import _padded_sizes, _suite_case
from tensortier.cli import main
from tensortier.config import POLICY_NAMES
from tensortier.policies import run_policy
from tensortier.simulate import SimulationError
from tensortier.trace import synthesize_trace

GOLDEN = pathlib.Path(__file__).parent / "golden" / "replay_corpus.json"
GENERATED = 200


def _record(result):
    assert hashlib.sha256(result.log.encode()).hexdigest() == (
        result.event_log_sha256)
    t = result.traffic
    return {
        "sha": result.event_log_sha256,
        "total_us": result.total_us,
        "overlap_us": result.overlap_us,
        "faults": result.faults,
        "stall_breakdown": result.stall_breakdown,
        "traffic": [t.ssd_read, t.ssd_write, t.host_in, t.host_out],
    }


def _replay(policy, trace, dev, **kwargs):
    try:
        return _record(run_policy(policy, trace, dev, **kwargs))
    except (SimulationError, ValueError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def _all_policies(trace, dev, **kwargs):
    return {p: _replay(p, trace, dev, **kwargs) for p in POLICY_NAMES}


def _c10(workdir):
    work = pathlib.Path(workdir)
    assert main(["gen", "--out", str(work / "c10.json"), "--layers", "200",
                 "--seed", "11"]) == 0
    (work / "c10.cfg").write_text(
        "trace = c10.json\ngpu_mem_bytes = 12GB\npolicy = g10\n")
    assert main(["simulate", "--config", str(work / "c10.cfg"),
                 "--out", str(work / "sim")]) == 0
    doc = json.loads((work / "sim" / "result.json").read_text())
    t = doc["traffic"]
    return {
        "sha": doc["event_log_sha256"],
        "total_us": doc["total_us"],
        "overlap_us": doc["overlap_us"],
        "faults": doc["faults"],
        "stall_breakdown": doc["stall_breakdown"],
        "traffic": [t["ssd_read"], t["ssd_write"], t["host_in"], t["host_out"]],
    }


def _suite():
    return {str(seed): _all_policies(*_suite_case(seed)) for seed in range(30)}


def generated_case(i):
    """Case i of the generated set: (trace, device, run_policy kwargs)."""
    rng = random.Random(f"replay-corpus/{i}")
    trace = synthesize_trace(rng.randint(1, 6), (8_000, 60_000),
                             (4_000, 24_000), (20, 150), rng.randrange(10**6))
    sizes = _padded_sizes(trace, make_device())
    footprint = sum(sizes.values())
    max_ws = max(sum(sizes[t] for t in k.tensors()) for k in trace.kernels)
    cap = int(footprint * rng.uniform(0.3, 1.0)) // 1024 * 1024
    if i % 10:
        # every tenth case may keep a working set over capacity
        cap = max(cap, max_ws)
    page = 1024
    chunk = rng.choice([page * rng.randint(1, 8), 2 * 1024 * 1024])
    host = (rng.randint(1, 4) * footprint // 8 // page * page
            if rng.random() < 0.5 else 10_000_000)
    dev = make_device(gpu_mem_bytes=cap, host_mem_bytes=host,
                      num_iterations=rng.randint(1, 3),
                      fault_chunk_bytes=chunk,
                      fault_handling_us=rng.choice([0, 3, 20]))
    noise = rng.choice([0.0, 0.2])
    return trace, dev, {"seed": rng.randrange(1000), "noise_pct": noise}


def _generated():
    out = {}
    for i in range(GENERATED):
        trace, dev, kwargs = generated_case(i)
        out[str(i)] = _all_policies(trace, dev, **kwargs)
    return out


def corpus(workdir):
    return {"c10": _c10(workdir), "suite": _suite(), "generated": _generated()}


def _golden():
    return json.loads(GOLDEN.read_text())


def test_c10_replay_matches_corpus(tmp_path):
    assert _c10(tmp_path) == _golden()["c10"]


def test_suite_replays_match_corpus():
    golden = _golden()["suite"]
    for seed, records in _suite().items():
        assert records == golden[seed], seed


def test_generated_replays_match_corpus():
    golden = _golden()["generated"]
    for i, records in _generated().items():
        assert records == golden[i], i


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(corpus(tmp), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
