"""Plan corpus: planner output pinned byte for byte across planner rewrites.

`golden/plan_corpus.json` holds sha256 digests of `plan_to_json` and
`serialize_program` for the c10 trace planned through the CLI, the 30
`_suite_case` seeds, the 100 c04 seeds and the L = 400 ladder trace (the last
three with the host route on and off). A speed change to scoring must leave
every digest as it is.

Record it with `PYTHONPATH=src python tests/test_plan_corpus.py`, which
prints the corpus as JSON.
"""

import dataclasses
import hashlib
import json
import pathlib
import sys
import tempfile

from conftest import make_context, make_device
from test_acceptance import _suite_case
from tensortier.cli import main
from tensortier.config import DeviceConfig
from tensortier.eviction import plan_to_json
from tensortier.instrument import emit_program, serialize_program
from tensortier.prefetch import plan_migrations
from tensortier.trace import synthesize_trace

GOLDEN = pathlib.Path(__file__).parent / "golden" / "plan_corpus.json"


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _digests(trace, dev):
    context = make_context(trace, dev)
    out = {}
    for route, allow_host in (("host", True), ("ssd-only", False)):
        plan = plan_migrations(context, allow_host=allow_host).plan
        out[route] = {
            "plan": _sha(plan_to_json(plan)),
            "program": _sha(serialize_program(emit_program(context, plan))),
        }
    return out


def _c10(workdir):
    work = pathlib.Path(workdir)
    assert main(["gen", "--out", str(work / "c10.json"), "--layers", "200",
                 "--seed", "11"]) == 0
    (work / "c10.cfg").write_text("trace = c10.json\ngpu_mem_bytes = 12GB\n")
    assert main(["plan", "--config", str(work / "c10.cfg"),
                 "--out", str(work / "plan")]) == 0
    return {
        "plan": _sha((work / "plan" / "plan.json").read_text()),
        "program": _sha((work / "plan" / "program.txt").read_text()),
    }


def _suite():
    return {str(seed): _digests(*_suite_case(seed)) for seed in range(30)}


def _c04():
    dev = make_device(gpu_mem_bytes=131_072)
    return {
        str(seed): _digests(synthesize_trace(3, (20_480, 28_672),
                                             (20_480, 28_672), (100, 200),
                                             seed), dev)
        for seed in range(100)
    }


def _ladder():
    """The L = 400 rung of the plan-time ladder: 1,197 periods, GPU memory
    at 0.625 of the padded footprint of the default device."""
    trace = synthesize_trace(400, 64_000_000, 16_000_000, (300, 900), 11)
    dev = DeviceConfig()
    footprint = sum(dev.padded(t.size_bytes) for t in trace.tensors.values())
    dev = dataclasses.replace(dev, gpu_mem_bytes=footprint * 5 // 8)
    return {"400": _digests(trace, dev)}


def corpus(workdir):
    return {"c10": _c10(workdir), "suite": _suite(), "c04": _c04(),
            "ladder": _ladder()}


def _golden():
    return json.loads(GOLDEN.read_text())


def test_c10_plan_matches_corpus(tmp_path):
    assert _c10(tmp_path) == _golden()["c10"]


def test_suite_plans_match_corpus():
    golden = _golden()["suite"]
    for seed, digests in _suite().items():
        assert digests == golden[seed], seed


def test_c04_plans_match_corpus():
    golden = _golden()["c04"]
    for seed, digests in _c04().items():
        assert digests == golden[seed], seed


def test_ladder_plans_match_corpus():
    assert _ladder() == _golden()["ladder"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(corpus(tmp), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
