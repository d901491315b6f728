#!/usr/bin/env python3
"""Compare two output trees cell by cell.

For two trees written by ``tools/readme_outputs.sh`` (or any two
directories of CSV, JSON and text files) print, per file that differs, the
number of numeric cells that differ with their largest absolute and
relative difference, and every difference that is not numeric: a file
found in one tree only, a changed row count or key set, a changed text
cell.  A cell is a CSV field, a JSON leaf, or a whitespace-separated word
of any other file; JSON is recognised by its content, so a command's
standard output that holds JSON is compared as JSON.  Files identical
byte for byte are counted, not listed; a CSV or text file is compared a
line at a time, so a table of millions of cells needs no more memory
than its text.  Exits 0 when the trees are identical, else 1.

    usage: python3 tools/compare_outputs.py DIR1 DIR2
"""

import csv
import io
import itertools
import json
import math
import os
import sys

# non-numeric differences printed per file; the rest are counted
SHOWN = 5


def chunks(text: str, name: str):
    """The (where, value) cells of one file, in lists: one list of all JSON
    leaves, by their key path, or one list per line of CSV fields or text
    words, by line and column, so that a large table is compared a line
    at a time."""
    try:
        yield list(_json_cells(json.loads(text), ""))
        return
    except ValueError:
        pass
    if name.endswith(".csv"):
        rows = csv.reader(io.StringIO(text))
    else:
        rows = (line.split() for line in text.splitlines())
    for i, row in enumerate(rows, 1):
        yield [(f"line {i} col {j}", value) for j, value in enumerate(row, 1)]


def _json_cells(node, where: str):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _json_cells(value, f"{where}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _json_cells(value, f"{where}[{i}]")
    else:
        yield where or ".", node


def number(value):
    """The value as a float, or None for text, booleans and null."""
    if isinstance(value, bool) or value is None:
        return None
    try:
        return float(value)
    except ValueError:
        return None


def compare(path1: str, path2: str, name: str) -> tuple:
    """(numeric cells that differ, max abs, max rel, non-numeric lines)."""
    with open(path1, encoding="utf-8") as f1, open(path2, encoding="utf-8") as f2:
        text1, text2 = f1.read(), f2.read()
    count, max_abs, max_rel, other = 0, 0.0, 0.0, []
    for chunk1, chunk2 in itertools.zip_longest(chunks(text1, name), chunks(text2, name),
                                                fillvalue=[]):
        one, two = dict(chunk1), dict(chunk2)
        for where in sorted(one.keys() ^ two.keys()):
            side = "first" if where in one else "second"
            other.append(f"{where} only in the {side} tree")
        for where in [w for w in one if w in two]:
            a, b = one[where], two[where]
            if a == b:
                continue
            x, y = number(a), number(b)
            if x is None or y is None:
                other.append(f"{where}: {a!r} != {b!r}")
            elif not (x == y or (math.isnan(x) and math.isnan(y))):
                count += 1
                gap = abs(x - y)
                max_abs = max(max_abs, gap)
                max_rel = max(max_rel, gap / max(abs(x), abs(y)))
    return count, max_abs, max_rel, other


def files(root: str) -> set:
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root) for f in names}


def main(argv) -> int:
    if len(argv) != 3:
        print(f"usage: {argv[0]} DIR1 DIR2", file=sys.stderr)
        return 2
    root1, root2 = argv[1], argv[2]
    names1, names2 = files(root1), files(root2)
    same, differ = 0, False
    for name in sorted(names1 ^ names2):
        print(f"{name}: only in {root1 if name in names1 else root2}")
        differ = True
    for name in sorted(names1 & names2):
        path1, path2 = os.path.join(root1, name), os.path.join(root2, name)
        with open(path1, "rb") as f1, open(path2, "rb") as f2:
            if f1.read() == f2.read():
                same += 1
                continue
        differ = True
        try:
            count, max_abs, max_rel, other = compare(path1, path2, name)
        except UnicodeDecodeError:
            print(f"{name}: binary files differ")
            continue
        print(f"{name}: {count} numeric cells differ, max abs {max_abs:.3g}, "
              f"max rel {max_rel:.3g}; {len(other)} other differences")
        for line in other[:SHOWN]:
            print(f"    {line}")
        if len(other) > SHOWN:
            print(f"    ... {len(other) - SHOWN} more")
    print(f"{same} files identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
