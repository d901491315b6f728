"""Benchmark for optliq: one workload per run, or all of them in turn.

    python3 bench/run.py --workload quote_grid --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ``src/`` next
to this directory; without it the run exits with an error and prints no
result.  With ``--trace 0`` the workload runs whole passes until
``--seconds`` have elapsed and the end-to-end metrics are reported; with
``--trace 1`` one pass of every workload runs under the span recorder and
the per-layer metrics are reported.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Full results, failures and run metadata go to ``.bench_out/``.

See ``README.md`` in this directory for the workloads and metrics.
"""

from __future__ import annotations

import os

# one thread issues the operations; BLAS threads would contend with it on
# a small machine and make the timings jitter (must precede numpy's import)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse
import ctypes
import glob
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 7
SETUP_REFERENCE_S = 0.05   # reference loop time before and after each child
MAX_FAILURE_LINES = 20

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "throughput_per_s": "1/s"}


def _import_package():
    """Import optliq from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "optliq", "__init__.py")):
        sys.exit(f"bench: no package at {SRC}/optliq; run from a full checkout")
    sys.path.insert(0, SRC)
    import optliq
    if not os.path.abspath(optliq.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: optliq imported from {optliq.__file__}, not {SRC}")
    return optliq


def _openblas_threads():
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_revision():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            return fh.read().strip()
    return ref[5:]


def metadata(optliq, args, sizes) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_threads": _openblas_threads(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "optliq": optliq.__version__,
        "git_revision": _git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_sizes": sizes,
        "loop": "closed, one process, one thread",
    }


def measure_setup(workload: str, probe) -> tuple:
    """Seconds from a fresh interpreter to the end of set-up, several times.

    Each child imports the package and runs the workload's set-up (the
    policy-surface solve for the Monte Carlo workloads), then exits; the
    benchmark's own input generation is not part of it.  The child prints
    the system-wide monotonic clock when its set-up ends: waiting for its
    exit would add the child's teardown and the 50-ms steps in which
    ``subprocess`` polls a child that has a timeout.  The reference loop
    runs before and after each child.  Returns the wall times and the
    scaled times.
    """
    wall, scaled = [], []
    for _ in range(SETUP_REPEATS):
        probe.sample(SETUP_REFERENCE_S)
        start = time.perf_counter()
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--setup-only", "--workload", workload],
                              check=True, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=120)
        elapsed = float(proc.stdout.split()[-1]) - t0
        probe.sample(SETUP_REFERENCE_S)
        wall.append(elapsed)
        scaled.append(probe.scaled(start, elapsed))
    return wall, scaled


def _summary(results) -> dict:
    failures = [f for r in results for f in r.failures]
    return {"attempted": sum(r.attempted for r in results),
            "failed": len({f["op"] for f in failures}),
            "wrong": sum(r.wrong for r in results), "failures": failures}


def _per_call_medians(results, times_of) -> list:
    """Each call's median time over the passes; every pass makes the same
    calls, in the same order."""
    return [statistics.median(times) for times in zip(*map(times_of, results))]


def run_timed(wl, args, workdir):
    from refspeed import REFERENCE_S, SpeedProbe
    from spans import NullRecorder
    from workloads import tail
    rec = NullRecorder()
    probe = SpeedProbe()
    inputs = wl.make_inputs(args.seed, workdir)
    setup_wall, setup_scaled = measure_setup(wl.name, probe)
    state = wl.setup(inputs, rec)
    state["speed"] = probe
    results = []
    probe.sample(SETUP_REFERENCE_S)
    t0 = time.perf_counter()
    while not results or time.perf_counter() - t0 < args.seconds:
        res = wl.run_pass(state, rec, len(results))
        # keep the check figures, free the outputs before the next pass
        res.detail = {k: v for k, v in res.detail.items() if isinstance(v, float)}
        results.append(res)
    wall_s = time.perf_counter() - t0
    for r in results:
        r.scaled_s = [probe.scaled(start, d) for start, d in zip(r.op_t0, r.op_s)]
    op_ms = [ms for r in results for ms in r.op_ms]
    busy_s = sum(r.busy_s for r in results)
    work = sum(r.work for r in results)
    summary = _summary(results)
    tail_pct, tail_ms = tail(op_ms)
    # Every pass repeats the same calls on the same inputs, so each call's
    # time is taken as its median over the passes, after scaling to the
    # reference speed (refspeed.py); the wall-time figures are kept too.
    call_s = _per_call_medians(results, lambda r: r.scaled_s)
    call_ms = _per_call_medians(results, lambda r: [
        1e3 * sum(r.scaled_s[i] for i in group) for group in r.groups])
    wall_call_s = _per_call_medians(results, lambda r: r.op_s)
    wall_call_ms = _per_call_medians(results, lambda r: r.op_ms)
    speed = [REFERENCE_S / s for _, s in probe.samples]
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "throughput_per_s": results[0].work / sum(call_s),
    }
    wall = {
        "setup_s": statistics.median(setup_wall),
        "throughput_per_s": results[0].work / sum(wall_call_s),
    }
    # printed, not bounded: on tape_replay the episode lengths, and so
    # their median, change with the seed's tape
    p50_ms = statistics.median(call_ms)
    wall["p50_ms"] = statistics.median(wall_call_ms)
    if any(r.work != results[0].work or len(r.op_s) != len(call_s) for r in results):
        summary["wrong"] += 1
        summary["failures"].append({"op": f"{wl.name}:passes", "kind": "check",
                                    "message": "passes differ in work or calls"})
    thr, p50, tail_name = wl.metric_names
    lines = [
        f"{wl.name} seed {args.seed}: {len(results)} passes, {len(op_ms)} timed "
        f"operations, {work:g} {wl.unit} in {busy_s:.3f} s busy ({wall_s:.3f} s wall)",
        f"  machine speed against the reference: median "
        f"{statistics.median(speed):.3f}, range {min(speed):.3f}-{max(speed):.3f} "
        f"over {len(speed)} reference runs; times below are scaled to speed 1 "
        f"(wall time in brackets)",
        f"  {thr:<22} {metrics['throughput_per_s']:.6g} 1/s  "
        f"[{wall['throughput_per_s']:.6g}]  (throughput_per_s, per-call "
        f"medians over {len(results)} passes)",
        f"  {p50:<22} {p50_ms:.6g} ms  [{wall['p50_ms']:.6g}]  "
        f"(median of {len(call_ms)} per-call medians over {len(results)} passes)",
        (f"  {tail_name:<22} {tail_ms:.6g} ms wall  (p{tail_pct:g}, n={len(op_ms)}, "
         f"{int(len(op_ms) * (1 - tail_pct / 100))} beyond)" if tail_pct else
         f"  {tail_name:<22} n/a  (n={len(op_ms)}: under 40 samples)"),
        f"  {'failed_ratio':<22} {summary['failed'] / summary['attempted']:.6g}  "
        f"({summary['failed']}/{summary['attempted']})",
        f"  {'setup_s':<22} {metrics['setup_s']:.6g} s  [{wall['setup_s']:.6g}]  "
        f"(median of {SETUP_REPEATS})",
        f"  {'peak_rss_mb':<22} {metrics['peak_rss_mb']:.6g} MB",
    ]
    details = {}
    for r in results:
        for key, value in r.detail.items():
            if isinstance(value, float):
                details.setdefault(key, []).append(value)
    if details:
        lines.append("  checks: " + ", ".join(
            f"{k} {(min if k.startswith('min_') else max)(v):.3g}"
            for k, v in details.items()))
    extra = {"setup_wall_s": setup_wall, "setup_scaled_s": setup_scaled,
             "wall_metrics": wall, "reference_samples": probe.samples,
             "op_ms": op_ms,
             "tail": {"percentile": tail_pct, "value_ms": tail_ms},
             "named_metrics": {thr: metrics["throughput_per_s"],
                               p50: p50_ms, tail_name: tail_ms,
                               "failed_ratio": summary["failed"] / summary["attempted"]},
             "counts_per_pass": [r.counts for r in results]}
    return metrics, summary, lines, inputs["sizes"], extra


def run_traced(wl, args, workdir):
    """One pass of every workload under the span recorder, then the named
    workload's pass once more untraced, for the tracing overhead."""
    from spans import NullRecorder, SpanRecorder
    from workloads import WORKLOADS
    rec = SpanRecorder()
    metrics, results, sizes = {}, [], {}
    lines = []
    overhead = None
    for other in WORKLOADS.values():
        inputs = other.make_inputs(args.seed, workdir)
        sizes[other.name] = inputs["sizes"]
        state = other.setup(inputs, rec)
        t0 = time.perf_counter()
        res = other.run_pass(state, rec, 0)
        traced_s = time.perf_counter() - t0
        if other is wl:
            # the untraced pass runs second, so that every workload's traced
            # pass is its first; any warm-up cost then counts as overhead
            t0 = time.perf_counter()
            plain = other.run_pass(state, NullRecorder(), 0)
            untraced_s = time.perf_counter() - t0
            overhead = traced_s - untraced_s
            # the deterministic counts must repeat exactly on a rerun
            if plain.counts != res.counts:
                res.fail(f"{wl.name}:counts", "check",
                         f"counts differ between two passes: {plain.counts} "
                         f"vs {res.counts}", wrong=True)
            lines.append(f"{wl.name}: pass {untraced_s:.3f} s untraced, "
                         f"{traced_s:.3f} s traced, overhead {overhead:.4f} s")
        metrics.update(other.layer_metrics(state, res, rec))
        results.append(res)
    self_s = rec.self_time_by_layer()
    for layer in ("ode", "model", "simulate", "market_data", "backtest"):
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    # both Monte Carlo workloads solve their policy surface in set-up
    metrics["ode.policy_surface_s"] = sum(rec.durations("ode.policy_surface"))
    metrics["trace.overhead_s"] = overhead
    lines.append("self time by layer (s): " + ", ".join(
        f"{k} {v:.4g}" for k, v in sorted(self_s.items())))
    spans_path = os.path.join(OUT_DIR, f"{wl.name}-seed{args.seed}-spans.json")
    rec.write(spans_path)
    lines.append(f"{len(rec.spans)} spans written to {os.path.relpath(spans_path, ROOT)}")
    summary = _summary(results)
    return metrics, summary, lines, sizes, {"self_time_s": self_s}


def _per_layer_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_all(args) -> int:
    """Run every workload in its own process and collect the results."""
    from workloads import WORKLOADS
    combined, ok = {}, True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, stdout=subprocess.PIPE,
            text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}")
            ok = False
            continue
        combined[name] = json.loads(lines[-1])
        ok &= combined[name]["correct"]
    path = os.path.join(OUT_DIR, f"all-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(combined, fh, indent=2)
    print(f"results of {len(combined)} workloads written to {os.path.relpath(path, ROOT)}")
    return 0 if ok and len(combined) == len(WORKLOADS) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    # One CPU for this process and, by inheritance, its set-up children, so
    # that the reference loop runs where the timed code runs: each virtual
    # CPU of a shared host is slowed by its own neighbours.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    optliq = _import_package()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from spans import NullRecorder
    from workloads import WORKLOADS
    if args.workload == "all":
        os.makedirs(OUT_DIR, exist_ok=True)
        return run_all(args)
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{', '.join(WORKLOADS)} or all")
    wl = WORKLOADS[args.workload]
    if args.setup_only:
        wl.setup(wl.make_inputs(args.seed, "") if wl.name.startswith("mc_")
                 else {}, NullRecorder())
        print(time.monotonic())
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        run = run_traced if args.trace else run_timed
        metrics, summary, lines, sizes, extra = run(wl, args, workdir)
    units = _per_layer_units() if args.trace else E2E_UNITS
    correct = summary["wrong"] == 0 and all(
        isinstance(v, (int, float)) for v in metrics.values())
    result = {"correct": correct, "attempted": summary["attempted"],
              "failed": summary["failed"],
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    for f in summary["failures"][:MAX_FAILURE_LINES]:
        lines.append(f"  failed {f['op']}: {f['kind']}: {f['message']}")
    if len(summary["failures"]) > MAX_FAILURE_LINES:
        lines.append(f"  ... {len(summary['failures']) - MAX_FAILURE_LINES} more "
                     "failures in the full result")
    if args.trace:
        width = max(map(len, units))
        lines += [f"  {k:<{width}} {metrics[k]:.6g} {u}" for k, u in units.items()]
    suffix = "-trace" if args.trace else ""
    record = dict(result, metadata=metadata(optliq, args, sizes),
                  failures=summary["failures"], extra=extra)
    path = os.path.join(OUT_DIR, f"{wl.name}-seed{args.seed}{suffix}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    print("\n".join(lines))
    print(f"full result written to {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
