"""Command-line interface.

Subcommands: solve, quotes, sweep, closed-form, simulate, calibrate,
backtest.  Config files carry model parameters as flat key=value lines
(keys mu, sigma, A, k, gamma, b, T, q_max) with optional [sim] and
[backtest] sections (keys in :data:`SECTIONS`; others are refused);
``--set key=value`` / ``--set section.key=value`` override file values,
and explicit flags override both.  Only what the user set reaches the
library, which owns the defaults.  Relative ``--config`` paths fall back
to $OPTLIQ_CONFIG_DIR when not found locally.

Exit codes: 0 success, 2 usage, 3 domain or regime error, 4 data error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import closed_forms as cf
from .backtest import BacktestConfig, run_backtest, summarize
from .errors import (CalibrationError, DataError, NoAsymptoteError,
                     ParameterError, RegimeError, UsageError)
from .market_data import calibrate_tape, load_tape
from .model import CONFIG_KEY_TO_FIELD, ModelParams, parse_config
from .ode import DEFAULT_N_STEPS, quote_surface, solve_grid
from .simulate import (FixedQuote, MarketOrderFallback, OptimalSurface,
                       SimConfig, simulate_ensemble, simulate_path)

CONFIG_DIR_ENV = "OPTLIQ_CONFIG_DIR"
SWEEPABLE = ("mu", "sigma", "A", "k", "gamma", "b")


class Setting(NamedTuple):
    """A [sim] or [backtest] key: its flag, the cast of a file or --set
    value, the config field it sets and, only for a SimConfig field that
    has none, its default."""

    flag: str
    cast: Callable
    field: str
    default: object = None
    choices: Optional[tuple] = None
    help: Optional[str] = None


#: [sim] key -> :class:`optliq.simulate.SimConfig` field; q0 defaults to q_max
SIM_SETTINGS = {
    "q0": Setting("--q0", int, "q0"),
    "dt": Setting("--dt", float, "dt", 0.05,
                  help="reporting grid step (s) of curve.csv; fill times are exact"),
    "paths": Setting("--paths", int, "n_paths", 1000),
    "seed": Setting("--seed", int, "seed", 0),
    "s0": Setting("--s0", float, "s0"),
    "policy": Setting("--policy", str, "policy", "optimal",
                      help="optimal | fixed:<delta> | fallback:<threshold>"),
}

#: [backtest] key -> :class:`optliq.backtest.BacktestConfig` field
BACKTEST_SETTINGS = {
    "q0": Setting("--q0", int, "q0"),
    "delta_t": Setting("--delta-t", float, "delta_t"),
    "rounding": Setting("--rounding", str, "rounding", choices=("nearest", "randomized")),
    "seed": Setting("--seed", int, "seed"),
    "recalib_window": Setting("--recalib-window", float, "recalib_window"),
    "warmup": Setting("--warmup", float, "warmup"),
    "gamma_mode": Setting("--gamma-mode", str, "gamma_mode",
                          choices=("fixed", "quote_target")),
    "gamma_value": Setting("--gamma-value", float, "gamma_value"),
    "fallback_threshold": Setting("--fallback-threshold", float, "market_order_threshold"),
    "b": Setting("--b", float, "b"),
    "horizon": Setting("--horizon", float, "horizon"),
    "reference": Setting("--reference", str, "reference", choices=("mid", "bid")),
    "sampling_dt": Setting("--sampling-dt", float, "sampling_dt"),
    "n_min": Setting("--n-min", int, "n_min"),
}

SECTIONS = {"sim": SIM_SETTINGS, "backtest": BACKTEST_SETTINGS}


def _resolve_config_path(path: str) -> str:
    if os.path.exists(path) or os.path.isabs(path):
        return path
    base = os.environ.get(CONFIG_DIR_ENV)
    if base:
        candidate = os.path.join(base, path)
        if os.path.exists(candidate):
            return candidate
    return path


def _apply_overrides(model_items: dict, sections: dict, sets):
    for item in sets or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if "." in key:
            section, _, sub = key.partition(".")
            sections.setdefault(section, {})[sub] = value.strip()
        else:
            model_items[key] = value.strip()


def _load_params(args) -> tuple:
    model_items, sections = {}, {}
    if getattr(args, "config", None):
        path = _resolve_config_path(args.config)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                model_items, sections = parse_config(fh)
        except OSError as exc:
            raise DataError(f"cannot read config {path}: {exc}") from exc
        except ParameterError as exc:
            raise UsageError(f"{path}: {exc}") from exc
    _apply_overrides(model_items, sections, getattr(args, "set", None))
    for key in model_items:
        if key not in CONFIG_KEY_TO_FIELD:
            raise UsageError(f"unknown model parameter key {key!r}")
    for name, items in sections.items():
        if name not in SECTIONS:
            raise UsageError(f"unknown section [{name}] (keys {list(items)}); "
                             f"sections are [sim] and [backtest]")
        for key in items:
            if key not in SECTIONS[name]:
                raise UsageError(f"unknown key {key!r} in [{name}]; known keys: "
                                 f"{', '.join(SECTIONS[name])}")
    try:
        params = ModelParams.from_mapping(model_items)
    except ParameterError as exc:
        raise UsageError(str(exc)) from exc
    return params, sections


def _settings(args, sections: dict, name: str) -> dict:
    """Config fields of section ``name`` that the user set, from the file
    and --set, then from the flags, which win; plus the table defaults."""
    values = {}
    for key, raw in sections.get(name, {}).items():
        setting = SECTIONS[name][key]
        try:
            values[setting.field] = setting.cast(raw)
        except ValueError as exc:
            raise UsageError(f"bad [{name}] value {key}={raw!r}") from exc
    for key, setting in SECTIONS[name].items():
        flag = getattr(args, key)
        if flag is not None:
            values[setting.field] = flag
        elif setting.default is not None:
            values.setdefault(setting.field, setting.default)
    return values


def _given(args, *names) -> dict:
    """The named flags the user set, as keyword arguments."""
    return {n: getattr(args, n) for n in names if getattr(args, n) is not None}


# -- subcommands -----------------------------------------------------------


def cmd_solve(args) -> int:
    params, _ = _load_params(args)
    grid = solve_grid(params, n_steps=args.steps)
    if args.format == "csv":
        grid.to_csv(args.out)
    else:
        grid.to_json(args.out)
    return 0


def cmd_quotes(args) -> int:
    params, _ = _load_params(args)
    surface = quote_surface(solve_grid(params, n_steps=args.steps))
    if args.format == "csv":
        surface.to_csv(args.out)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(surface.to_json_dict(), fh)
    return 0


def cmd_sweep(args) -> int:
    params, _ = _load_params(args)
    name, _, raw_values = args.sweep.partition("=")
    name = name.strip()
    if name not in SWEEPABLE:
        raise UsageError(f"sweep parameter must be one of {SWEEPABLE}, got {name!r}")
    try:
        values = [float(v) for v in raw_values.split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"bad sweep values {raw_values!r}") from exc
    if not values:
        raise UsageError("sweep needs at least one value")
    field = CONFIG_KEY_TO_FIELD[name]
    columns = []
    for value in values:
        p = params.with_(**{field: value})
        surface = quote_surface(solve_grid(p, n_steps=args.steps))
        columns.append(surface.values[0])  # premiums at t = 0, q = 1..q_max
    header = ["q"] + [f"{name}={v:g}" for v in values]
    if args.format == "csv":
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row_q in range(params.q_max):
                cells = [str(row_q + 1)] + [f"{col[row_q]:.17g}" for col in columns]
                fh.write(",".join(cells) + "\n")
    else:
        payload = {"param": name, "values": values,
                   "q": list(range(1, params.q_max + 1)),
                   "quotes": [list(map(float, col)) for col in columns]}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    return 0


def cmd_closed_form(args) -> int:
    params, _ = _load_params(args)
    which = args.which
    if which == "binf-curve":
        if args.out is None:
            raise UsageError("binf-curve requires --out for the CSV")
        times = np.linspace(0.0, params.horizon, args.points)
        curve = cf.binf_trading_curve(params, args.q0, times)
        curve.to_csv(args.out)
        return 0
    qs = [args.q] if args.q is not None else list(range(1, params.q_max + 1))
    t = args.t
    values = {}
    for q in qs:
        if which == "asymptotic":
            values[q] = cf.asymptotic_quote(params, q)
        elif which == "nodrift":
            values[q] = cf.nodrift_novol_quote(params, t, q)
        elif which == "risk-neutral":
            values[q] = cf.risk_neutral_quote(params, t, q)
        elif which == "binf-quote":
            values[q] = cf.binf_quote(params, t, q)
        else:  # binf-w
            values[q] = cf.binf_w(params, t, q)
    payload = {"which": which, "t": t, "values": {str(q): v for q, v in values.items()}}
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _build_policy(spec: str, params: ModelParams, steps: int):
    if spec == "optimal":
        return OptimalSurface(quote_surface(solve_grid(params, n_steps=steps)))
    kind, _, value = spec.partition(":")
    if kind == "fixed":
        try:
            delta = float(value)
        except ValueError as exc:
            raise UsageError(f"bad fixed policy {spec!r}") from exc
        return FixedQuote(delta)
    if kind == "fallback":
        try:
            kwargs = {"threshold": float(value)} if value else {}
        except ValueError as exc:
            raise UsageError(f"bad fallback policy {spec!r}") from exc
        return MarketOrderFallback(quote_surface(solve_grid(params, n_steps=steps)),
                                   **kwargs)
    raise UsageError(f"unknown policy {spec!r} (optimal | fixed:<d> | fallback:<t>)")


def cmd_simulate(args) -> int:
    params, sections = _load_params(args)
    settings = _settings(args, sections, "sim")
    settings.setdefault("q0", params.q_max)
    if args.events and settings["n_paths"] != 1:
        raise UsageError("--events requires paths=1")
    settings["policy"] = _build_policy(settings["policy"], params, args.steps)
    cfg = SimConfig(params=params, **settings)
    os.makedirs(args.out, exist_ok=True)
    summary = simulate_ensemble(cfg)
    summary.curve_to_csv(os.path.join(args.out, "curve.csv"))
    summary.stats_to_json(os.path.join(args.out, "stats.json"))
    if args.events:
        simulate_path(cfg, 0).to_events_csv(os.path.join(args.out, "events.csv"))
    return 0


def _parse_offsets(spec: str):
    try:
        start, stop, step = (float(x) for x in spec.split(":"))
    except ValueError as exc:
        raise UsageError(f"--offsets expects start:stop:step, got {spec!r}") from exc
    if not (np.isfinite([start, stop, step]).all() and step > 0 and start <= stop):
        raise UsageError(f"--offsets {spec!r} must be finite with step > 0 and "
                         f"start <= stop")
    return tuple(np.arange(start, stop + 1e-12, step))


def cmd_calibrate(args) -> int:
    tape = load_tape(args.tape, **_given(args, "tick_size"))
    kwargs = _given(args, "sampling_dt", "window", "n_min", "gamma_target",
                    "b", "horizon")
    if args.offsets is not None:
        kwargs["distance_grid"] = _parse_offsets(args.offsets)
    result = calibrate_tape(tape, **kwargs)
    if args.out:
        result.to_json(args.out)
    else:
        print(json.dumps(result.to_json_dict(), indent=2, sort_keys=True))
    return 0


def backtest_config(args) -> BacktestConfig:
    """The protocol settings of a parsed ``backtest`` command line."""
    _, sections = _load_params(args)
    return BacktestConfig(**_settings(args, sections, "backtest"))


def cmd_backtest(args) -> int:
    tape = load_tape(args.tape, **_given(args, "tick_size"))
    ledger = run_backtest(tape, backtest_config(args))
    os.makedirs(args.out, exist_ok=True)
    ledger.write_csvs(args.out)
    report = summarize(ledger)
    payload = report.to_json_dict()
    payload.update(q_end=ledger.q_end, cash_end=ledger.cash_end,
                   gamma_used=ledger.gamma_used, sigma_hat=ledger.sigma_hat,
                   mid_end=ledger.mid_end, start_time=ledger.start_time,
                   end_time=ledger.end_time)
    with open(os.path.join(args.out, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return 0


# -- parser ----------------------------------------------------------------


def _add_model_flags(sp):
    sp.add_argument("--config", help="config file (flat model keys, "
                    "optional [sim]/[backtest] sections)")
    sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                    help="override a config value (repeatable; "
                    "section keys as section.key=value)")


def _add_settings_flags(sp, table: dict):
    for key, setting in table.items():
        sp.add_argument(setting.flag, dest=key, type=setting.cast,
                        choices=setting.choices, help=setting.help)


def _add_solver_flags(sp):
    sp.add_argument("--steps", type=int, default=DEFAULT_N_STEPS,
                    help="time grid steps")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optliq",
        description="Optimal limit-order liquidation: quote solving, "
                    "closed forms, Monte Carlo, calibration and backtests.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve the w grid and export it")
    _add_model_flags(sp)
    _add_solver_flags(sp)
    sp.add_argument("--out", required=True)
    sp.add_argument("--format", default="csv", choices=("csv", "json"))
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("quotes", help="solve and export the premium surface")
    _add_model_flags(sp)
    _add_solver_flags(sp)
    sp.add_argument("--out", required=True)
    sp.add_argument("--format", default="csv", choices=("csv", "json"))
    sp.set_defaults(func=cmd_quotes)

    sp = sub.add_parser("sweep", help="time-0 premiums across one parameter")
    _add_model_flags(sp)
    _add_solver_flags(sp)
    sp.add_argument("--sweep", required=True, metavar="PARAM=V1,V2,...")
    sp.add_argument("--out", required=True)
    sp.add_argument("--format", default="csv", choices=("csv", "json"))
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("closed-form", help="evaluate a closed-form expression")
    _add_model_flags(sp)
    sp.add_argument("--which", required=True,
                    choices=("asymptotic", "nodrift", "risk-neutral",
                             "binf-quote", "binf-w", "binf-curve"))
    sp.add_argument("--q", type=int)
    sp.add_argument("--t", type=float, default=0.0)
    sp.add_argument("--q0", type=int, default=6, help="for binf-curve")
    sp.add_argument("--points", type=int, default=101, help="for binf-curve")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_closed_form)

    sp = sub.add_parser("simulate", help="Monte Carlo ensemble of the dynamics")
    _add_model_flags(sp)
    _add_solver_flags(sp)
    sp.add_argument("--out", required=True, help="output directory")
    _add_settings_flags(sp, SIM_SETTINGS)
    sp.add_argument("--events", action="store_true",
                    help="also write the fill log (paths=1 only)")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("calibrate", help="estimate sigma, (A, k) and gamma "
                        "from a tape")
    sp.add_argument("--tape", required=True)
    sp.add_argument("--tick-size", type=float, help="currency per Tick")
    sp.add_argument("--sampling-dt", type=float)
    sp.add_argument("--offsets", metavar="START:STOP:STEP",
                    help="premium offsets (Ticks) of the intensity fit")
    sp.add_argument("--window", type=float)
    sp.add_argument("--n-min", type=int)
    sp.add_argument("--gamma-target", type=float)
    sp.add_argument("--b", type=float)
    sp.add_argument("--horizon", type=float)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_calibrate)

    sp = sub.add_parser("backtest", help="replay the quoting protocol on a tape")
    _add_model_flags(sp)
    sp.add_argument("--tape", required=True)
    sp.add_argument("--tick-size", type=float, help="currency per Tick")
    sp.add_argument("--out", required=True, help="output directory")
    _add_settings_flags(sp, BACKTEST_SETTINGS)
    sp.set_defaults(func=cmd_backtest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ParameterError, RegimeError, NoAsymptoteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DataError, CalibrationError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
