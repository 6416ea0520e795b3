#!/usr/bin/env python3
"""Check that two `mp2p matrix --json` reports hold the same simulated cells.

    python3 results/evidence/matrix_cells_equal.py A.json B.json

Either file may be at matrix schema 1 (one compact line, every cell
tagged `matrix_schema`, with the host fields `events`, `wall_secs` and
`events_per_sec`), schema 2 (one cell per line, no host fields) or
schema 3 (one run per line: `{"cell":KEY,"p95_latency_secs":X,
"report":<the run's RunReport::to_json()>}`).

Schemas 1 and 2 are read as written; the schema tags and the host fields
are dropped. A schema-3 line is read back into the schema-2 fields:

- `scenario`, `strategy`, `point` and `seed` are the parts of its key
  (`scenario/strategy[/point]/s<seed>`);
- `transmissions`, `bytes`, `queries_served`, `mean_latency_secs`,
  `fresh_fraction` and `stale_served` are the report's keys of those
  names, `traffic_per_min` its `traffic_per_minute` and
  `p95_latency_secs` the line's own field: copies, compared as the
  digits written;
- `failure_rate` is `queries_failed / queries_issued` (0 when nothing
  was issued) and `dominant_blame` the largest count of
  `consistency.blame` (ties go to the earlier cause of
  `BlameCause::ALL`; `none` without a consistency section or a stale
  serve): derived, compared as exact f64 and as labels;
- `measured_ms` is `measured_secs` x 1000, compared as an exact f64 with
  a schema-2 cell's `sim_ms - warmup_ms`.

A schema-2 cell's `peers`, `sim_ms` and `warmup_ms` are inputs of the
scenario, not measured numbers, and a schema-3 line does not repeat
them; they are compared only when both sides carry them. Two schema-3
reports are compared on every field of every report, digit for digit.

Cells must come in the same order. Prints one line per cell and exits 1
on the first difference.
"""

import json
import sys

NOT_SIMULATED = {"matrix_schema", "events", "wall_secs", "events_per_sec"}

# BlameCause::ALL, in order (crates/trace/src/event.rs).
BLAME_ORDER = [
    "partitioned",
    "invalidate_lost",
    "crash_wipe",
    "lease_orphan",
    "race_in_flight",
    "update_never_sent",
]

# Schema-2 field -> the schema-3 report key it copies.
COPIED = {
    "traffic_per_min": "traffic_per_minute",
    "transmissions": "transmissions",
    "bytes": "bytes",
    "queries_served": "queries_served",
    "mean_latency_secs": "mean_latency_secs",
    "fresh_fraction": "fresh_fraction",
    "stale_served": "stale_served",
}

# Fields compared as exact f64 rather than as digits.
DERIVED = {"failure_rate", "measured_ms"}


def dominant_blame(report):
    consistency = report.get("consistency")
    if consistency is None:
        return "none"
    blame = {cause: int(n) for cause, n in consistency["blame"].items()}
    if sorted(blame) != sorted(BLAME_ORDER):
        raise SystemExit(f"unknown blame causes {sorted(blame)}")
    if sum(blame.values()) == 0:
        return "none"
    top = max(blame.values())
    return next(cause for cause in BLAME_ORDER if blame[cause] == top)


def from_run(line):
    parts = line["cell"].split("/")
    if len(parts) not in (3, 4) or not parts[-1].startswith("s"):
        raise SystemExit(f"cannot read cell key {line['cell']!r}")
    report = line["report"]
    cell = {"scenario": parts[0], "strategy": parts[1]}
    if len(parts) == 4:
        cell["point"] = parts[2]
    cell["seed"] = parts[-1][1:]
    for field, key in COPIED.items():
        cell[field] = report[key]
    cell["p95_latency_secs"] = line["p95_latency_secs"]
    issued = int(report["queries_issued"])
    cell["failure_rate"] = int(report["queries_failed"]) / issued if issued else 0.0
    cell["dominant_blame"] = dominant_blame(report)
    cell["measured_ms"] = float(report["measured_secs"]) * 1000.0
    return cell


def from_cell(cell):
    cell = {k: v for k, v in cell.items() if k not in NOT_SIMULATED}
    cell["failure_rate"] = float(cell["failure_rate"])
    cell["measured_ms"] = float(int(cell["sim_ms"]) - int(cell["warmup_ms"]))
    return cell


def load(path):
    with open(path, encoding="utf-8") as f:
        report = json.load(f, parse_float=str, parse_int=str)
    schema = report.get("matrix_schema", "1")
    if schema == "3":
        return schema, report["cells"]
    return schema, [from_cell(cell) for cell in report["cells"]]


def key(cell):
    point = "/" + cell["point"] if "point" in cell else ""
    return f'{cell["scenario"]}/{cell["strategy"]}{point}/s{cell["seed"]}'


def main(a_path, b_path):
    (a_schema, a), (b_schema, b) = load(a_path), load(b_path)
    both_runs = a_schema == b_schema == "3"
    if not both_runs:
        a = [from_run(c) if a_schema == "3" else c for c in a]
        b = [from_run(c) if b_schema == "3" else c for c in b]
    keys = [c["cell"] if both_runs else key(c) for c in a]
    if keys != [c["cell"] if both_runs else key(c) for c in b]:
        print(f"cell lists differ: {keys} vs {[c['cell'] if both_runs else key(c) for c in b]}")
        return 1
    for k, ca, cb in zip(keys, a, b):
        if both_runs:
            shared = ca.keys() | cb.keys()
        else:
            shared = ca.keys() & cb.keys()
        moved = sorted(f for f in shared if ca.get(f) != cb.get(f))
        if moved:
            print(f"{k}: differs in {', '.join(moved)}")
            return 1
        if both_runs:
            print(f"{k}: p95 and {len(ca['report'])} report fields equal")
        else:
            derived = len(shared & DERIVED)
            print(f"{k}: {len(shared)} simulated fields equal ({derived} derived)")
    print(f"all {len(a)} cells equal")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
