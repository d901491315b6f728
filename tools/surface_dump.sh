#!/bin/sh
# Write every premium surface of the quote_grid benchmark workload at
# harness seeds 1-3 into OUTDIR, one `QuoteSurface.to_csv` file per
# parameter set and (T, q_max), with the optliq package found under
# REPO/src.  The parameter sets come from the bench/workloads.py next to
# this script, so two checkouts solve the same inputs; a set that is the
# same at every seed is written once, under its label, and a seeded draw
# under its seed and label.  A set the solver refuses is written as a .txt
# file holding the error.  `tools/compare_outputs.py DIR1 DIR2` then counts,
# per surface, the quotes that differ and their largest difference in
# Ticks.  The three seeds write about 2 GB.  Needs no network.
#
#   usage: tools/surface_dump.sh REPO OUTDIR
set -eu

if [ $# -ne 2 ]; then
    echo "usage: $0 REPO OUTDIR" >&2
    exit 2
fi
bench=$(cd "$(dirname "$0")/../bench" && pwd)
repo=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)
PYTHONPATH="$repo/src"
export PYTHONPATH
unset OPTLIQ_CONFIG_DIR

BENCH_DIR="$bench" OUT_DIR="$out" python3 - <<'PY'
import os
import sys
import tempfile

sys.path.insert(0, os.environ["BENCH_DIR"])
import workloads  # noqa: E402
from optliq import OptliqError, quote_surface, solve_grid  # noqa: E402

grid = workloads.QuoteGrid()
solved = {}  # file name -> parameters written under it
for seed in (1, 2, 3):
    with tempfile.TemporaryDirectory() as tmp:
        ops = grid.make_inputs(seed, tmp)["ops"]
    for label, p, _ in (op for param_set in ops for op in param_set):
        name = label if solved.get(label, p) == p else f"seed{seed},{label}"
        if name in solved:
            continue
        solved[name] = p
        path = os.path.join(os.environ["OUT_DIR"], name)
        try:
            quote_surface(solve_grid(p)).to_csv(path + ".csv")
        except OptliqError as exc:
            with open(path + ".txt", "w", encoding="utf-8") as fh:
                fh.write(f"{type(exc).__name__}: {exc}\n")
PY
