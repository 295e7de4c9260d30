#!/usr/bin/env python3
"""Checks that two BENCH_solver_micro.json files record the same searches.

Usage: check_search_identity.py BASELINE.json CANDIDATE.json

Pivot counts, node counts, cut counts, objectives and statuses are
deterministic (fixed seeds, deterministic branching), so a change that does
not mean to alter the search must reproduce every record exactly. Only the
fields that depend on the machine or the build are ignored: wall times
(fields ending in `_seconds`), the ratios computed from them (`wall_speedup`,
`speedup_vs_mono`) and the env record's `build_type`, `compiler`,
`hardware_threads` and `git_sha`. Exits 1 and lists every difference
otherwise.
"""

import json
import sys

IGNORED_FIELDS = {"wall_speedup", "speedup_vs_mono"}
IGNORED_ENV_FIELDS = {"build_type", "compiler", "hardware_threads", "git_sha"}


def comparable(record):
    ignored = IGNORED_FIELDS
    if record.get("kind") == "env":
        ignored = ignored | IGNORED_ENV_FIELDS
    return {
        key: value
        for key, value in record.items()
        if not key.endswith("_seconds") and key not in ignored
    }


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        baseline = json.load(f)
    with open(argv[2]) as f:
        candidate = json.load(f)
    problems = []
    if len(baseline) != len(candidate):
        problems.append(f"record count {len(baseline)} -> {len(candidate)}")
    for index, (old, new) in enumerate(zip(baseline, candidate)):
        old_fields, new_fields = comparable(old), comparable(new)
        for key in sorted(old_fields.keys() | new_fields.keys()):
            if old_fields.get(key) != new_fields.get(key):
                problems.append(
                    f"record {index} ({old.get('kind')} {old.get('model', '')} "
                    f"{old.get('mode', '')}): {key} "
                    f"{old_fields.get(key)!r} -> {new_fields.get(key)!r}"
                )
    for line in problems:
        print(line)
    print(f"{len(baseline)} baseline records, {len(problems)} differences")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
