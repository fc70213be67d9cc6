#!/usr/bin/env python3
"""List what moved between two driver artifacts.

    python3 tools/stats_diff.py OLD NEW [--rtol 1e-9]

OLD and NEW are both SWEEP files (schema moentwine.sweep.v1, written by
the bench drivers) or both --stats files (schema moentwine.stats.v1).
Every SWEEP row field, or every stats metric field, whose relative change
|new - old| / |old| exceeds --rtol is printed, largest move first, after
a one-line summary. Rows are matched by their "index"; a row or field
present on one side only counts as an infinite move. Exits 1 when
anything moved, 0 when nothing did, 2 on unreadable input. Standard
library only.
"""

import argparse
import json
import math
import signal
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    schema = doc.get("schema")
    if schema == "moentwine.sweep.v1":
        return schema, {row["index"]: row for row in doc["rows"]}
    if schema == "moentwine.stats.v1":
        return schema, doc["stats"]
    raise ValueError("%s: unknown schema %r" % (path, schema))


def relative_move(old, new):
    """|new - old| / |old|, inf for a non-numeric or from-zero move."""
    numeric = (int, float)
    if isinstance(old, bool) or isinstance(new, bool) or \
            not isinstance(old, numeric) or not isinstance(new, numeric):
        return 0.0 if old == new else math.inf
    if old == new:
        return 0.0
    if old == 0:
        return math.inf
    return abs(new - old) / abs(old)


def diff_groups(old, new):
    """Yields (group, field, old, new) for every field of every group."""
    for group in sorted(set(old) | set(new), key=str):
        a = old.get(group, {})
        b = new.get(group, {})
        for field in sorted(set(a) | set(b)):
            yield group, field, a.get(field), b.get(field)


def main():
    # Quiet exit when piped into head.
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--rtol", type=float, default=1e-9,
                        help="relative tolerance (default 1e-9)")
    args = parser.parse_args()
    try:
        old_schema, old = load(args.old)
        new_schema, new = load(args.new)
    except (OSError, ValueError, KeyError, TypeError) as e:
        print("stats_diff: %s" % e, file=sys.stderr)
        return 2
    if old_schema != new_schema:
        print("stats_diff: schemas differ: %s vs %s"
              % (old_schema, new_schema), file=sys.stderr)
        return 2

    moves = []
    moved_groups = set()
    for group, field, a, b in diff_groups(old, new):
        rel = relative_move(a, b)
        if rel > args.rtol:
            moves.append((rel, group, field, a, b))
            moved_groups.add(group)
    moves.sort(key=lambda m: (-m[0], str(m[1]), m[2]))

    unit = "rows" if old_schema == "moentwine.sweep.v1" else "metrics"
    largest = ", ".join("%s %s %.3g" % (g, f, r)
                        for r, g, f, _, _ in moves[:3])
    print("%d of %d %s moved, %d fields beyond rtol %g%s"
          % (len(moved_groups), len(set(old) | set(new)), unit,
             len(moves), args.rtol,
             "; largest: " + largest if moves else ""))
    for rel, group, field, a, b in moves:
        label = ""
        if unit == "rows":
            row = new.get(group) or old.get(group)
            label = " (%s)" % row.get("label", "")
        print("%10.4g  %s%s.%s: %s -> %s"
              % (rel, group, label, field, a, b))
    return 1 if moves else 0


if __name__ == "__main__":
    sys.exit(main())
