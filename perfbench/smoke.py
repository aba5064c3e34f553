"""Smoke check of the benchmark itself.

Runs every workload in BENCHMARK.json at reduced size, untraced and traced,
and asserts that each run is correct and that its last line names exactly
the metrics BENCHMARK.json lists for that mode, each with its unit.

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import numbers
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(bench: dict, cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([*bench["command"], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check_result(bench: dict, workload: str, trace: int) -> list[str]:
    where = f"{workload} --trace {trace}"
    proc = run(bench, ROOT, "--workload", workload, "--seed", "1",
               "--seconds", "1", "--trace", str(trace), "--small")
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result.get("correct") and result.get("failed") == 0
            and result.get("attempted", 0) >= 1):
        problems.append(f"{where}: not correct\n{proc.stderr}")
    listed = bench["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in listed}:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ {m['name'] for m in listed})}")
    for m in listed:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {got.get('unit')!r}")
        value = got.get("value")
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            problems.append(f"{where}: {m['name']} value {value!r}")
        elif not trace and value <= 0:
            problems.append(f"{where}: {m['name']} is {value}, not positive")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    runs = 0
    for workload in bench["workloads"]:
        for trace in (0, 1):
            problems += check_result(bench, workload["name"], trace)
            runs += 1
    for problem in problems:
        print(f"FAIL {problem}")
    if problems:
        return 1
    print(f"smoke: {runs} runs correct, every listed metric emitted with "
          f"its unit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
