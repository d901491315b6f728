#!/bin/sh
# Write the ledgers of the tape_replay benchmark workload into OUTDIR, one
# text file per harness seed (1-20 and 1001), with the optliq package found
# under REPO/src.  The tapes and episode configs come from the
# bench/workloads.py next to this script, so two checkouts replay the same
# inputs; `diff -r DIR1 DIR2` of two runs then prints nothing when their
# calibrations, orders (raw_delta as repr), fills, gamma_used, sigma_hat and
# marks are identical.  Needs no network.
#
#   usage: tools/replay_ledgers.sh REPO OUTDIR
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
from optliq import calibrate_tape, load_tape, run_backtest  # noqa: E402

replay = workloads.TapeReplay()
for seed in [*range(1, 21), 1001]:
    with tempfile.TemporaryDirectory() as tmp:
        inputs = replay.make_inputs(seed, tmp)
        tape = load_tape(inputs["path"])
    cal = calibrate_tape(tape, gamma_target=workloads.QUOTE_TARGET,
                         horizon=workloads.EPISODE_HORIZON)
    lines = [f"calibration {cal.to_json_dict()!r}"]
    for i, cfg in enumerate(inputs["configs"]):
        led = run_backtest(tape, cfg)
        lines.append(f"episode {i} gamma_used={led.gamma_used!r} "
                     f"sigma_hat={led.sigma_hat!r} mark={led.mark!r} "
                     f"cash_end={led.cash_end!r} q_end={led.q_end}")
        lines += [f"order t={o.t_insert!r} q={o.q_before} quote={o.quote_ticks} "
                  f"price={o.order_price!r} raw_delta={o.raw_delta!r}"
                  for o in led.orders]
        lines += [f"fill t={f.t!r} price={f.price!r} q_after={f.q_after} "
                  f"order={f.order_index}" for f in led.fills]
    with open(os.path.join(os.environ["OUT_DIR"], f"seed{seed}.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")
PY
