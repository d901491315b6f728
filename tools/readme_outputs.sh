#!/bin/sh
# Write every file of the README's standard experiments into OUTDIR, plus
# the other output forms of each subcommand, with the optliq package found
# under REPO/src.  Two checkouts give the same outputs when, after one run
# each into two directories, `diff -r DIR1 DIR2` prints nothing; where they
# differ, `tools/compare_outputs.py DIR1 DIR2` counts the differing cells per
# file.  Standard output of a command is kept as a file named after it.
# Needs no network.
#
#   usage: tools/readme_outputs.sh REPO OUTDIR
set -eu

if [ $# -ne 2 ]; then
    echo "usage: $0 REPO OUTDIR" >&2
    exit 2
fi
repo=$(cd "$1" && pwd)
mkdir -p "$2"
cd "$2"
PYTHONPATH="$repo/src"
export PYTHONPATH
unset OPTLIQ_CONFIG_DIR

optliq() {
    python3 -m optliq "$@"
}

# the README's standard experiments, in its order
python3 - <<'PY'
from optliq import ModelParams
ModelParams().to_config_file("reference.cfg")
PY
optliq quotes --config reference.cfg --out quotes_5min.csv
optliq quotes --config reference.cfg --set T=7200 --out quotes_2h.csv
optliq closed-form --config reference.cfg --which asymptotic > closed_form_asymptotic.stdout
optliq sweep --config reference.cfg --sweep mu=-0.01,0,0.01 --out dep_mu.csv
optliq sweep --config reference.cfg --sweep sigma=0,0.3,0.6 --out dep_sigma.csv
optliq sweep --config reference.cfg --sweep A=0.05,0.1,0.15 --out dep_A.csv
optliq sweep --config reference.cfg --sweep k=0.2,0.3,0.4 --out dep_k.csv
optliq sweep --config reference.cfg --set sigma=3 --sweep k=0.2,0.3,0.4 --out dep_k_highvol.csv
optliq sweep --config reference.cfg --sweep gamma=0.01,0.05,0.1 --out dep_gamma.csv
optliq sweep --config reference.cfg --sweep b=0,3,20 --out dep_b.csv
optliq simulate --config reference.cfg --paths 100000 --dt 0.05 --seed 1 \
    --policy optimal --out sim_out/
python3 - <<'PY'
from optliq import synthetic_tape
synthetic_tape(7200.0, sigma=0.3, big_a=0.1, k=0.3, mid0=1000.0,
               seed=1).write_csv("tape.csv")
PY
optliq calibrate --tape tape.csv --gamma-target 1.0 --out calib.json
optliq backtest --tape tape.csv --q0 3 --delta-t 30 --warmup 1800 \
    --gamma-mode quote_target --gamma-value 1.0 --out bt_out/

# the other output forms
optliq solve --config reference.cfg --out w.csv
optliq solve --config reference.cfg --format json --out w.json
optliq quotes --config reference.cfg --format json --out quotes_5min.json
optliq sweep --config reference.cfg --sweep mu=-0.01,0,0.01 --format json --out dep_mu.json
optliq simulate --config reference.cfg --paths 1 --seed 3 --events --out sim_one/
# market orders below a threshold, and a premium whose fill rate overflows
# so that every unit sells at once
optliq simulate --config reference.cfg --paths 1000 --seed 1 \
    --policy fallback:5 --out sim_fallback/
optliq simulate --config reference.cfg --set sigma=3 --paths 1000 --seed 1 \
    --policy fixed:-1e4 --out sim_overflow/
# the multi-policy path: the optimal surface and the fixed quotes 0..3
# over common draws, one stats entry per policy
python3 - <<'PY'
import json
from optliq import (FixedQuote, ModelParams, OptimalSurface, quote_surface,
                    simulate_policies, solve_grid)
params = ModelParams()
policies = [OptimalSurface(quote_surface(solve_grid(params)))]
policies += [FixedQuote(float(d)) for d in range(4)]
runs = simulate_policies(params, policies, q0=6, dt=0.05, n_paths=2048, seed=1)
with open("sim_policies.json", "w") as f:
    json.dump([run.stats_json_dict() for run in runs], f, indent=2)
PY
optliq calibrate --tape tape.csv --gamma-target 1.0 > calibrate.stdout
optliq closed-form --config reference.cfg --set sigma=0 --which nodrift --t 100 \
    --out nodrift.json
optliq closed-form --config reference.cfg --set sigma=0 --which binf-curve --q0 4 \
    --points 11 --out binf_curve.csv

# a tape shaped like the replay benchmark's: the spread alternates 1 and 2
# Ticks every minute, so two spread buckets are fitted, and the backtest
# re-quotes every 5 s from q0 = 10, at q >= 2 and at q = 1
python3 - <<'PY'
from optliq import synthetic_tape
schedule = [(60.0 * i, 1.0 + i % 2) for i in range(120)]
synthetic_tape(7200.0, sigma=0.3, big_a=0.2, k=0.3, mid0=1000.0,
               spread_schedule=schedule, seed=1).write_csv("tape_replay.csv")
PY
optliq calibrate --tape tape_replay.csv --gamma-target 1.0 --horizon 1800 \
    --out calib_replay.json
optliq backtest --tape tape_replay.csv --q0 10 --delta-t 5 --warmup 2700 \
    --horizon 1800 --recalib-window 1800 --gamma-mode quote_target --gamma-value 1.0 \
    --out bt_replay/
