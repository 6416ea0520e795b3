"""Counts re-adoptions in an `mp2p run --trace` journal.

A re-adoption is a `promoted` relay_transition for a (node, item) that
is already a relay: promoted before, with no `demoted` since. Prints the
count, the number of `promoted` records and the largest gap between a
repeat and the promotion it repeats.

    mp2p run --seed 3981 --sim 30 --trace t.jsonl
    python3 results/evidence/readoptions.py t.jsonl
"""
import json
import sys

relay = {}
total = repeats = worst_gap = 0
with open(sys.argv[1]) as journal:
    for line in journal:
        if '"relay_transition"' not in line:
            continue
        record = json.loads(line)
        key = (record["node"], record["item"])
        if record["kind"] == "promoted":
            total += 1
            if key in relay:
                repeats += 1
                worst_gap = max(worst_gap, record["t"] - relay[key])
            else:
                relay[key] = record["t"]
        elif record["kind"] == "demoted":
            relay.pop(key, None)
print(f"{repeats} of {total} promoted records repeat a live relay role; "
      f"largest gap {worst_gap} ms")
