"""CSV and JSON rendering of analysis and simulation results.

Every table is built as text so it can go to a file in a result directory
or be streamed to stdout as sections separated by `# <name>` comment lines.
render_csv quotes fields as the csv module does; kernels.csv, all numbers,
is written one f-string per row, in the bytes render_csv would write.

The analyze tables are written from a simulate.ReplayContext. A run's
ideal_us is its compute_us: every policy replays the same durations, so
their sum is the ideal run.
"""

from __future__ import annotations

import csv
import io
import json
import os

from tensortier.simulate import SimResult


def render_csv(header: list[str], rows: list[list]) -> str:
    """Floats are written with six decimals, every other value as the csv
    module writes it (str(), quoted where needed)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([f"{v:.6f}" if isinstance(v, float) else v for v in row]
                     for row in rows)
    return buf.getvalue()


def characterization_tables(context) -> dict[str, str]:
    """Each kernel's working set against everything live while it runs
    (the initial pressure's maximum over it), and the inactive periods."""
    trace, analysis = context.trace, context.analysis
    occupancy_rows = [[k.index, k.name, active,
                       context.pressure.max_over(start, end)]
                      for k, active, start, end in zip(
                          trace.kernels, context.working_sets,
                          analysis.timeline.starts, analysis.timeline.ends)]

    lengths = sorted(p.length_us() for p in analysis.periods)
    cdf_rows = []
    n = len(lengths)
    for i, length in enumerate(lengths):
        if i + 1 < n and lengths[i + 1] == length:
            continue
        cdf_rows.append([length, (i + 1) / n])

    scatter_rows = [[p.tensor_id, trace.tensors[p.tensor_id].size_bytes,
                     p.length_us()] for p in analysis.periods]

    return {
        "active_vs_total.csv": render_csv(
            ["kernel_index", "name", "active_bytes", "total_bytes"],
            occupancy_rows),
        "period_cdf.csv": render_csv(["length_us", "cum_fraction"], cdf_rows),
        "period_scatter.csv": render_csv(
            ["tensor_id", "size_bytes", "length_us"], scatter_rows),
    }


def simulation_tables(result: SimResult) -> dict[str, str]:
    # a row with no stall has slowdown d / d, exactly 1.0
    kernel_rows = [f"{i},{start},{end},{stall},"
                   f"{(stall + end - start) / (end - start):.6f}\n" if stall
                   else f"{i},{start},{end},0,1.000000\n"
                   for i, start, end, stall in result.kernels]
    summary_rows = [[result.policy, result.total_us, result.compute_us,
                     result.compute_us, result.overlap_us, result.stall_us,
                     result.faults]]
    t = result.traffic
    traffic_rows = [[t.ssd_read, t.ssd_write, t.host_in, t.host_out]]
    return {
        "kernels.csv": ("index,start,end,stall_us,slowdown\n"
                        + "".join(kernel_rows)),
        "summary.csv": render_csv(
            ["policy", "total_us", "ideal_us", "compute_us", "overlap_us",
             "stall_us", "faults"], summary_rows),
        "traffic.csv": render_csv(
            ["ssd_read", "ssd_write", "host_in", "host_out"], traffic_rows),
    }


def result_json(result: SimResult) -> str:
    doc = {
        "policy": result.policy,
        "total_us": result.total_us,
        "ideal_us": result.compute_us,
        "compute_us": result.compute_us,
        "overlap_us": result.overlap_us,
        "stall_us": result.stall_us,
        "faults": result.faults,
        "traffic": {
            "ssd_read": result.traffic.ssd_read,
            "ssd_write": result.traffic.ssd_write,
            "host_in": result.traffic.host_in,
            "host_out": result.traffic.host_out,
        },
        "stall_breakdown": result.stall_breakdown,
        "event_log_sha256": result.event_log_sha256,
    }
    return json.dumps(doc, indent=2) + "\n"


def write_tables(tables: dict[str, str], out: str) -> None:
    """out is a directory, or '-' to stream sections to stdout."""
    if out == "-":
        import sys
        for name in sorted(tables):
            sys.stdout.write(f"# {name}\n")
            sys.stdout.write(tables[name])
        return
    os.makedirs(out, exist_ok=True)
    for name, text in tables.items():
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            fh.write(text)
