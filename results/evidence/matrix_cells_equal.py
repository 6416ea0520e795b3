#!/usr/bin/env python3
"""Check that two `mp2p matrix --json` reports hold the same simulated cells.

    python3 results/evidence/matrix_cells_equal.py A.json B.json

Either file may be at matrix schema 1 (one compact line, every cell
tagged `matrix_schema`, with the host fields `events`, `wall_secs` and
`events_per_sec`) or schema 2 (one cell per line, no host fields). The
schema tags and the host fields are dropped; every other field of every
cell must be spelled identically, in the same cell order. Numbers are
compared as the digits written, not as parsed floats. Prints one line
per cell and exits 1 on the first difference.
"""

import json
import sys

NOT_SIMULATED = {"matrix_schema", "events", "wall_secs", "events_per_sec"}


def cells(path):
    with open(path, encoding="utf-8") as f:
        report = json.load(f, parse_float=str, parse_int=str)
    return [
        {k: v for k, v in cell.items() if k not in NOT_SIMULATED}
        for cell in report["cells"]
    ]


def key(cell):
    point = "/" + cell["point"] if "point" in cell else ""
    return f'{cell["scenario"]}/{cell["strategy"]}{point}/s{cell["seed"]}'


def main(a_path, b_path):
    a, b = cells(a_path), cells(b_path)
    if [key(c) for c in a] != [key(c) for c in b]:
        print(f"cell lists differ: {[key(c) for c in a]} vs {[key(c) for c in b]}")
        return 1
    for ca, cb in zip(a, b):
        if ca != cb:
            moved = sorted(k for k in ca.keys() | cb.keys() if ca.get(k) != cb.get(k))
            print(f"{key(ca)}: differs in {', '.join(moved)}")
            return 1
        print(f"{key(ca)}: {len(ca)} simulated fields equal")
    print(f"all {len(a)} cells equal")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
