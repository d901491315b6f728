#!/bin/sh
# Write the summaries of the mc_ensemble and mc_policies benchmark workloads
# into OUTDIR, one text file per workload and harness seed (1-20), with the
# optliq package found under REPO/src.  The parameters, surfaces, policies
# and path counts come from the bench/workloads.py next to this script, so
# two checkouts simulate the same inputs; every field of every SimSummary is
# written as repr text (arrays in full, as lists), so `diff -r DIR1 DIR2` of
# two runs prints nothing exactly when their summaries are bit-identical.
# Needs no network.
#
#   usage: tools/mc_dump.sh REPO OUTDIR
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

import numpy as np

sys.path.insert(0, os.environ["BENCH_DIR"])
import workloads  # noqa: E402
from spans import NullRecorder  # noqa: E402
from optliq import (OptimalSurface, SimConfig,  # noqa: E402
                    simulate_ensemble)


def lines(tag, summary):
    """One line per field of ``summary``, arrays in full."""
    out = []
    for name in ("pnl_mean", "pnl_std", "utility_mean", "utility_stderr",
                 "terminal_inventory_hist", "price_terminal_mean",
                 "price_terminal_stderr", "mc_stderr_curve"):
        value = getattr(summary, name)
        if isinstance(value, np.ndarray):
            value = value.tolist()
        out.append(f"{tag} {name}={value!r}")
    curve = summary.trading_curve
    out.append(f"{tag} times={curve.times.tolist()!r}")
    out.append(f"{tag} expected_inventory={curve.expected_inventory.tolist()!r}")
    return out


def write(name, seed, text):
    with open(os.path.join(os.environ["OUT_DIR"], f"{name}-seed{seed}.txt"), "w") as f:
        f.write("\n".join(text) + "\n")


rec = NullRecorder()
ens, pol = workloads.McEnsemble(), workloads.McPolicies()
ens_state = ens.setup(ens.make_inputs(1, ""), rec)
pol_state = pol.setup(pol.make_inputs(1, ""), rec)
for seed in range(1, 21):
    cfg = SimConfig(params=workloads.FORCED, q0=ens.q0, dt=ens.dt,
                    n_paths=workloads.ENSEMBLE_PATHS, seed=seed,
                    policy=OptimalSurface(ens_state["surface"]))
    write(ens.name, seed, lines("optimal", simulate_ensemble(cfg)))
    runs = pol._simulate(pol_state["policies"], seed)
    write(pol.name, seed,
          [line for i, run in enumerate(runs) for line in lines(f"policy{i}", run)])
PY
