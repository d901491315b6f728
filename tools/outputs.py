#!/usr/bin/env python3
"""Dump the outputs of optliq's four pipelines, and compare two dumps.

    python3 tools/outputs.py dump REPO OUTDIR [CASE ...]
    python3 tools/outputs.py compare A B

``dump`` imports optliq from REPO/src and writes each named case, or all
four, into OUTDIR/CASE.  Tables are ``.npy`` files, one row per item:

readme    the 40 files of the README's command-line experiments, the other
          output forms of each subcommand, and a calibration and backtest
          of a tape shaped like the replay benchmark's;
ledgers   tape_replay, seeds 1-20 and 1001: the calibration (JSON), and per
          episode (gamma_used, sigma_hat, mark, cash_end, q_end), per order
          (episode, t_insert, q_before, quote_ticks, order_price, raw_delta)
          and per fill (episode, t, price, q_after, order_index or NaN);
surfaces  every quote_grid surface of seeds 1-3 as columns (t, delta_1,
          ..., delta_q_max), under its label, or its seed and label where
          the set changes with the seed; a refused set as a .txt error;
mc        mc_ensemble and mc_policies, seeds 1-20: per policy the scalars
          (SUMMARY_SCALARS), the terminal inventory counts (q = 0..q0) and
          the curves (times, expected_inventory, mc_stderr_curve).

The benchmark inputs come from the bench/workloads.py next to this tool,
through ``make_inputs`` and ``setup``, so every REPO gets the same inputs.

``compare`` exits 0 when the two trees are identical byte for byte, else 1,
and prints per differing file the count of numeric cells that differ, their
largest absolute and relative difference, and each non-numeric difference:
a file in one tree only, a changed shape or key set, a changed text cell.
A ``.npy`` file is compared as an array; in any other file a cell is a JSON
leaf, a CSV field or a whitespace-separated word.
"""

import argparse
import contextlib
import csv
import filecmp
import io
import json
import os
import shlex
import sys
import tempfile

import numpy as np

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
SUMMARY_SCALARS = ("pnl_mean", "pnl_std", "utility_mean", "utility_stderr",
                   "price_terminal_mean", "price_terminal_stderr")
SHOWN = 5  # non-numeric differences printed per file; the rest are counted

# the README's standard experiments in its order, then the other output
# forms of each subcommand; "> FILE" keeps a command's standard output
README_COMMANDS = """
quotes --config reference.cfg --out quotes_5min.csv
quotes --config reference.cfg --set T=7200 --out quotes_2h.csv
closed-form --config reference.cfg --which asymptotic > closed_form_asymptotic.stdout
sweep --config reference.cfg --sweep mu=-0.01,0,0.01 --out dep_mu.csv
sweep --config reference.cfg --sweep sigma=0,0.3,0.6 --out dep_sigma.csv
sweep --config reference.cfg --sweep A=0.05,0.1,0.15 --out dep_A.csv
sweep --config reference.cfg --sweep k=0.2,0.3,0.4 --out dep_k.csv
sweep --config reference.cfg --set sigma=3 --sweep k=0.2,0.3,0.4 --out dep_k_highvol.csv
sweep --config reference.cfg --sweep gamma=0.01,0.05,0.1 --out dep_gamma.csv
sweep --config reference.cfg --sweep b=0,3,20 --out dep_b.csv
simulate --config reference.cfg --paths 100000 --dt 0.05 --seed 1 --policy optimal --out sim_out/
calibrate --tape tape.csv --gamma-target 1.0 --out calib.json
backtest --tape tape.csv --q0 3 --delta-t 30 --warmup 1800 --gamma-mode quote_target \
    --gamma-value 1.0 --out bt_out/
solve --config reference.cfg --out w.csv
solve --config reference.cfg --format json --out w.json
quotes --config reference.cfg --format json --out quotes_5min.json
sweep --config reference.cfg --sweep mu=-0.01,0,0.01 --format json --out dep_mu.json
simulate --config reference.cfg --paths 1 --seed 3 --events --out sim_one/
# market orders below a threshold, and a premium whose fill rate overflows
# so that every unit sells at once
simulate --config reference.cfg --paths 1000 --seed 1 --policy fallback:5 --out sim_fallback/
simulate --config reference.cfg --set sigma=3 --paths 1000 --seed 1 --policy fixed:-1e4 \
    --out sim_overflow/
calibrate --tape tape.csv --gamma-target 1.0 > calibrate.stdout
closed-form --config reference.cfg --set sigma=0 --which nodrift --t 100 --out nodrift.json
closed-form --config reference.cfg --set sigma=0 --which binf-curve --q0 4 --points 11 \
    --out binf_curve.csv
# the replay-shaped tape: two spread buckets, a re-quote every 5 s from
# q0 = 10, at q >= 2 and at q = 1
calibrate --tape tape_replay.csv --gamma-target 1.0 --horizon 1800 --out calib_replay.json
backtest --tape tape_replay.csv --q0 10 --delta-t 5 --warmup 2700 --horizon 1800 \
    --recalib-window 1800 --gamma-mode quote_target --gamma-value 1.0 --out bt_replay/
"""


# ------------------------------------------------------------------ dump

def _bench():
    """bench/workloads.py and a recorder that records nothing."""
    if BENCH not in sys.path:
        sys.path.insert(0, BENCH)
    import spans
    import workloads
    return workloads, spans.NullRecorder()


def _save(outdir: str, name: str, rows) -> None:
    np.save(os.path.join(outdir, name + ".npy"), np.asarray(rows, dtype=float))


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def readme(outdir: str) -> None:
    """README_COMMANDS and the README's Python steps, in this process."""
    from optliq import (FixedQuote, ModelParams, OptimalSurface, quote_surface,
                        simulate_policies, solve_grid, synthetic_tape)
    from optliq.cli import main

    os.makedirs(outdir, exist_ok=True)
    home = os.getcwd()
    os.chdir(outdir)
    try:
        ModelParams().to_config_file("reference.cfg")
        synthetic_tape(7200.0, sigma=0.3, big_a=0.1, k=0.3, mid0=1000.0,
                       seed=1).write_csv("tape.csv")
        # the spread alternates 1 and 2 Ticks every minute
        schedule = [(60.0 * i, 1.0 + i % 2) for i in range(120)]
        synthetic_tape(7200.0, sigma=0.3, big_a=0.2, k=0.3, mid0=1000.0,
                       spread_schedule=schedule, seed=1).write_csv("tape_replay.csv")
        for line in README_COMMANDS.replace("\\\n", "").splitlines():
            args, _, stdout_file = line.partition(" > ")
            argv = shlex.split(args, comments=True)
            if not argv:
                continue
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                code = main(argv)
            if code:
                raise SystemExit(f"optliq {args}: exit {code}")
            if stdout_file:
                _write(stdout_file, text.getvalue())
        # the optimal surface and the fixed quotes 0..3 over common draws
        params = ModelParams()
        policies = [OptimalSurface(quote_surface(solve_grid(params)))]
        policies += [FixedQuote(float(d)) for d in range(4)]
        runs = simulate_policies(params, policies, q0=6, dt=0.05, n_paths=2048, seed=1)
        _write("sim_policies.json", json.dumps([r.stats_json_dict() for r in runs], indent=2))
    finally:
        os.chdir(home)


def ledgers(outdir: str, seeds=(*range(1, 21), 1001)) -> None:
    from optliq import calibrate_tape, load_tape, run_backtest

    workloads, _ = _bench()
    replay = workloads.TapeReplay()
    os.makedirs(outdir, exist_ok=True)
    for seed in seeds:
        with tempfile.TemporaryDirectory() as tmp:
            inputs = replay.make_inputs(seed, tmp)
            tape = load_tape(inputs["path"])
        cal = calibrate_tape(tape, gamma_target=workloads.QUOTE_TARGET,
                             horizon=workloads.EPISODE_HORIZON)
        _write(os.path.join(outdir, f"seed{seed}-calibration.json"),
               json.dumps(cal.to_json_dict(), indent=2, sort_keys=True))
        episodes, orders, fills = [], [], []
        for i, cfg in enumerate(inputs["configs"]):
            led = run_backtest(tape, cfg)
            episodes.append((led.gamma_used, led.sigma_hat, led.mark, led.cash_end, led.q_end))
            orders += [(i, o.t_insert, o.q_before, o.quote_ticks, o.order_price, o.raw_delta)
                       for o in led.orders]
            fills += [(i, f.t, f.price, f.q_after,
                       np.nan if f.order_index is None else f.order_index) for f in led.fills]
        _save(outdir, f"seed{seed}-episodes", episodes)
        _save(outdir, f"seed{seed}-orders", orders)
        _save(outdir, f"seed{seed}-fills", fills)


def surfaces(outdir: str) -> None:
    from optliq import OptliqError, quote_surface, solve_grid

    workloads, _ = _bench()
    grid = workloads.QuoteGrid()
    os.makedirs(outdir, exist_ok=True)
    solved = {}  # file name -> parameters written under it
    for seed in (1, 2, 3):
        with tempfile.TemporaryDirectory() as tmp:
            ops = grid.make_inputs(seed, tmp)["ops"]
        for label, p, _ in (op for param_set in ops for op in param_set):
            name = label if solved.get(label, p) == p else f"seed{seed},{label}"
            if name in solved:
                continue
            solved[name] = p
            try:
                surface = quote_surface(solve_grid(p))
            except OptliqError as exc:
                _write(os.path.join(outdir, name + ".txt"), f"{type(exc).__name__}: {exc}\n")
                continue
            _save(outdir, name, np.column_stack((surface.times, surface.values)))


def _save_summaries(outdir: str, stem: str, summaries) -> None:
    _save(outdir, stem + "-scalars",
          [[getattr(s, name) for name in SUMMARY_SCALARS] for s in summaries])
    _save(outdir, stem + "-hist",
          [[s.terminal_inventory_hist[q] for q in range(s.config.q0 + 1)] for s in summaries])
    _save(outdir, stem + "-curves",
          [(s.trading_curve.times, s.trading_curve.expected_inventory, s.mc_stderr_curve)
           for s in summaries])


def mc(outdir: str, seeds=range(1, 21)) -> None:
    from optliq import OptimalSurface, SimConfig, simulate_ensemble, simulate_policies

    workloads, rec = _bench()
    ens, pol = workloads.McEnsemble(), workloads.McPolicies()
    surface = ens.setup(ens.make_inputs(1, ""), rec)["surface"]
    policies = pol.setup(pol.make_inputs(1, ""), rec)["policies"]
    os.makedirs(outdir, exist_ok=True)
    for seed in seeds:
        cfg = SimConfig(params=workloads.FORCED, q0=ens.q0, dt=ens.dt,
                        n_paths=workloads.ENSEMBLE_PATHS, seed=seed,
                        policy=OptimalSurface(surface))
        _save_summaries(outdir, f"{ens.name}-seed{seed}", [simulate_ensemble(cfg)])
        runs = simulate_policies(workloads.REF, policies, q0=pol.q0, dt=pol.dt,
                                 n_paths=workloads.POLICY_PATHS, seed=seed)
        _save_summaries(outdir, f"{pol.name}-seed{seed}", runs)


CASES = {"readme": readme, "ledgers": ledgers, "surfaces": surfaces, "mc": mc}


def dump(repo: str, outdir: str, names) -> None:
    src = os.path.realpath(os.path.join(repo, "src"))
    sys.path.insert(0, src)
    os.environ.pop("OPTLIQ_CONFIG_DIR", None)
    import optliq
    if not os.path.realpath(optliq.__file__).startswith(src + os.sep):
        raise SystemExit(f"optliq was imported from {optliq.__file__}, not from {src}")
    for name in names or CASES:
        CASES[name](os.path.join(outdir, name))


# --------------------------------------------------------------- compare

def _cells_differ(x, y) -> tuple:
    """(cells that differ, max abs, max rel difference) of two numeric
    arrays of one shape.  NaN equals NaN; a difference that is NaN (an
    infinity or a NaN against a number) is counted but sets no maximum."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    differ = ~((x == y) | (np.isnan(x) & np.isnan(y)))
    x, y = x[differ], y[differ]
    with np.errstate(invalid="ignore"):
        gap = np.abs(x - y)
        rel = gap / np.maximum(np.abs(x), np.abs(y))
    return (int(differ.sum()), float(np.fmax.reduce(gap, initial=0.0)),
            float(np.fmax.reduce(rel, initial=0.0)))


def _compare_npy(path1: str, path2: str) -> tuple:
    x, y = np.load(path1, allow_pickle=False), np.load(path2, allow_pickle=False)
    if x.shape != y.shape:
        return 0, 0.0, 0.0, [f"shape {x.shape} != {y.shape}"]
    return *_cells_differ(x, y), []


def _cells(path: str) -> dict:
    """The cells of a text file by where they are: JSON leaves by key path,
    else CSV fields or whitespace-separated words by line and column."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return dict(_json_cells(json.loads(text), ""))
    except ValueError:
        pass
    rows = (csv.reader(io.StringIO(text)) if path.endswith(".csv")
            else (line.split() for line in text.splitlines()))
    return {f"line {i} col {j}": value
            for i, row in enumerate(rows, 1) for j, value in enumerate(row, 1)}


def _json_cells(node, where: str):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _json_cells(value, f"{where}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _json_cells(value, f"{where}[{i}]")
    else:
        yield where or ".", node


def _number(value):
    """The value as a float, or None for text, booleans and null."""
    if isinstance(value, bool) or value is None:
        return None
    try:
        return float(value)
    except ValueError:
        return None


def _compare_text(path1: str, path2: str) -> tuple:
    one, two = _cells(path1), _cells(path2)
    other = [f"{where} only in the {'first' if where in one else 'second'} tree"
             for where in sorted(one.keys() ^ two.keys())]
    xs, ys = [], []
    for where in (w for w in one if w in two and one[w] != two[w]):
        x, y = _number(one[where]), _number(two[where])
        if x is None or y is None:
            other.append(f"{where}: {one[where]!r} != {two[where]!r}")
        else:
            xs.append(x)
            ys.append(y)
    return *_cells_differ(xs, ys), other


def _files(root: str) -> set:
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root) for f in names}


def compare(root1: str, root2: str) -> int:
    names1, names2 = _files(root1), _files(root2)
    for name in sorted(names1 ^ names2):
        print(f"{name}: only in {root1 if name in names1 else root2}")
    same = 0
    for name in sorted(names1 & names2):
        path1, path2 = os.path.join(root1, name), os.path.join(root2, name)
        if filecmp.cmp(path1, path2, shallow=False):
            same += 1
            continue
        diff = _compare_npy if name.endswith(".npy") else _compare_text
        count, max_abs, max_rel, other = diff(path1, path2)
        print(f"{name}: {count} numeric cells differ, max abs {max_abs:.3g}, "
              f"max rel {max_rel:.3g}; {len(other)} other differences")
        for line in other[:SHOWN]:
            print(f"    {line}")
        if len(other) > SHOWN:
            print(f"    ... {len(other) - SHOWN} more")
    print(f"{same} files identical")
    return int(same < len(names1 | names2))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    dump_parser = commands.add_parser(
        "dump", help="write the outputs of the optliq under REPO/src into OUTDIR")
    dump_parser.add_argument("repo", metavar="REPO")
    dump_parser.add_argument("outdir", metavar="OUTDIR")
    dump_parser.add_argument("cases", metavar="CASE", nargs="*",
                             help=f"one of {', '.join(CASES)}; all when none is named")
    compare_parser = commands.add_parser(
        "compare", help="exit 0 when two dumps are identical, else 1, saying what differs")
    compare_parser.add_argument("a", metavar="A")
    compare_parser.add_argument("b", metavar="B")
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare(args.a, args.b)
    unknown = [name for name in args.cases if name not in CASES]
    if unknown:
        dump_parser.error(f"unknown case {unknown[0]!r}; choose from {', '.join(CASES)}")
    dump(args.repo, args.outdir, args.cases)
    return 0


if __name__ == "__main__":
    sys.exit(main())
