#!/usr/bin/env python3
"""Summarize a directory of BENCH_<scenario>.json anchors as markdown tables.

Usage: python3 scripts/summarize_results.py [anchor_dir]   (default: .)
Prints one table per scenario to stdout: a row per manager, a column per
cell/measure — the `manager/cell/measure` convention of the anchors' metric
keys (`repro matrix`). The tables in EXPERIMENTS.md are regenerated with
`repro matrix --tier full --anchors DIR` followed by this script. Telemetry
series (`telemetry_*.csv` from `repro watch`) in the same directory get a
per-run summary.
"""
import csv
import json
import sys
from pathlib import Path

DIR = Path(sys.argv[1] if len(sys.argv) > 1 else ".")


def table(headers, rows):
    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join("---" for _ in headers) + "|"]
    for r in rows:
        out.append("| " + " | ".join(str(c) for c in r) + " |")
    return "\n".join(out)


def pivot(metrics):
    """Rows by manager, columns by cell/measure, both in anchor order."""
    rows, cols = {}, []
    for m in metrics:
        manager, _, rest = m["key"].partition("/")
        if rest not in cols:
            cols.append(rest)
        rows.setdefault(manager, {})[rest] = m["value"]
    body = [[mgr] + [f"{vals[c]:.4g}" if c in vals else "—" for c in cols]
            for mgr, vals in rows.items()]
    return ["manager"] + cols, body


def main():
    for path in sorted(DIR.glob("BENCH_*.json")):
        anchor = json.loads(path.read_text())
        prov = anchor["provenance"]
        print(f"\n### {anchor['scenario']} ({anchor['tier']} tier, "
              f"git {prov.get('git', '?')}, {prov.get('workers', '?')} workers)\n")
        print(table(*pivot(anchor["metrics"])))

    telemetry = sorted(DIR.glob("telemetry_*.csv"))
    if telemetry:
        print("\n### Telemetry (repro watch, per-window series)\n")
        body = []
        for path in telemetry:
            with open(path) as fh:
                # Skip the provenance comment above the header.
                rows = list(csv.DictReader(
                    ln for ln in fh if not ln.lstrip().startswith("#")))
            if not rows:
                continue
            label = path.stem[len("telemetry_"):]
            span_ms = max(float(r["t_ms"]) for r in rows)
            peak_allocs = max(float(r["allocs_per_sec"]) for r in rows)
            worst_p99 = max(int(r["malloc_p99_ns"]) for r in rows)
            cuts = sum(1 for r in rows if r["boundary"] in ("1", "true"))
            dropped = max(int(r["dropped_events"]) for r in rows)
            body.append([
                label, len(rows), f"{span_ms:.0f}", f"{peak_allocs:,.0f}",
                f"{worst_p99:,}", cuts, dropped,
            ])
        print(table(
            ["run", "windows", "span ms", "peak allocs/s",
             "worst p99 ns", "boundary cuts", "trace drops"],
            body,
        ))


if __name__ == "__main__":
    main()
