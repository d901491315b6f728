"""Measure the benchmark over several seeds and write a baseline file.

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

Runs every workload once per seed with tracing off, and records for each
end-to-end metric the ten values, their median and quartiles, and the
spread (interquartile range over the median); for the scaled times also
the same figures of the unscaled wall times.  Then runs one traced run
twice on the same seed and fails unless the deterministic counts agree.
Run it from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DETERMINISTIC = ("simulate.path_steps", "backtest.requotes",
                 "backtest.rows_scanned", "ode.spectral_fallbacks",
                 "ode.solve_failures")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect result\n{proc.stdout}")
    if not trace:
        full = os.path.join(ROOT, ".bench_out", f"{workload}-seed{seed}.json")
        with open(full, encoding="utf-8") as fh:
            result["wall_metrics"] = json.load(fh)["extra"]["wall_metrics"]
    return result


def _quartiles(vals: list) -> dict:
    q1, median, q3 = statistics.quantiles(vals, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": vals}


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seeds = parse_seeds(args.seeds)
    out = {"host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                    "python": platform.python_version()},
           "seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    for wl in spec["workloads"]:
        name = wl["name"]
        values, wall, attempted, failed = {}, {}, [], []
        for seed in seeds:
            result = run(name, seed, spec["run_seconds"], 0)
            attempted.append(result["attempted"])
            failed.append(result["failed"])
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
            for key, value in result["wall_metrics"].items():
                wall.setdefault(key, []).append(value)
        summary = {key: _quartiles(vals) for key, vals in values.items()}
        for key, stats in summary.items():
            line = (f"{name:12} {key:18} median {stats['median']:.6g} "
                    f"spread {stats['spread']:.4f}")
            if key in wall:
                stats["wall"] = _quartiles(wall[key])
                line += f" (wall time: spread {stats['wall']['spread']:.4f})"
            print(line, flush=True)
        out["workloads"][name] = {"metrics": summary, "attempted": attempted,
                                  "failed": failed}
    # every traced run covers all workloads; mc_ensemble adds the least
    traced = [run("mc_ensemble", seeds[0], spec["run_seconds"], 1) for _ in range(2)]
    counts = [{k: t["metrics"][k]["value"] for k in DETERMINISTIC} for t in traced]
    out["deterministic_counts"] = counts[0]
    print("deterministic counts:", counts[0])
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    if counts[0] != counts[1]:
        print(f"deterministic counts differ between runs: {counts}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
