"""Command-line interface.

Subcommands: solve, quotes, sweep, closed-form, simulate, calibrate,
backtest.  Config files carry model parameters as flat key=value lines
(keys mu, sigma, A, k, gamma, b, T, q_max) with optional [sim] and
[backtest] sections; ``--set key=value`` / ``--set section.key=value``
override file values, and explicit flags override both.  Relative
``--config`` paths fall back to $OPTLIQ_CONFIG_DIR when not found locally.

Each section, the model keys included, has one :class:`Setting` table in
:data:`SECTIONS`, and each flag that sets a library value is a key of one
such table, spelled with ``-`` for ``_``.  A key that its table lacks, or
a value that its cast cannot parse, is a usage error.  Only what the user
set reaches the library, which owns the defaults and checks every value:
an out-of-domain value exits 3 from a flag, --set or a file alike.

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
from .errors import (CalibrationError, DataError, ParameterError, RegimeError,
                     UsageError)
from .market_data import calibrate_tape, load_tape
from .model import CONFIG_KEY_TO_FIELD, MODEL_SECTION, ModelParams, _write_csv, parse_config
from .ode import DEFAULT_N_STEPS, quote_surface, solve_grid, solve_w
from .simulate import (FixedQuote, MarketOrderFallback, OptimalSurface,
                       SimConfig, simulate_ensemble, simulate_path)

CONFIG_DIR_ENV = "OPTLIQ_CONFIG_DIR"
SWEEPABLE = ("mu", "sigma", "A", "k", "gamma", "b")


class Setting(NamedTuple):
    """One library setting: the cast of its flag, file or --set value, the
    field or keyword it sets and, only for a SimConfig field that has
    none, its default.  Its flag is its key with ``_`` spelled ``-``; the
    library checks the cast value."""

    cast: Callable
    field: str
    default: object = None
    help: Optional[str] = None


#: [sim] key -> :class:`optliq.simulate.SimConfig` field; q0 defaults to q_max
SIM_SETTINGS = {
    "q0": Setting(int, "q0"),
    "dt": Setting(float, "dt", 0.05,
                  help="reporting grid step (s) of curve.csv; fill times are exact"),
    "paths": Setting(int, "n_paths", 1000),
    "seed": Setting(int, "seed", 0),
    "s0": Setting(float, "s0"),
    "policy": Setting(str, "policy", "optimal",
                      help="optimal | fixed:<delta> | fallback:<threshold>"),
}

#: [backtest] key -> :class:`optliq.backtest.BacktestConfig` field
BACKTEST_SETTINGS = {
    "q0": Setting(int, "q0"),
    "delta_t": Setting(float, "delta_t"),
    "rounding": Setting(str, "rounding", help="nearest | randomized"),
    "seed": Setting(int, "seed"),
    "recalib_window": Setting(float, "recalib_window"),
    "warmup": Setting(float, "warmup"),
    "gamma_mode": Setting(str, "gamma_mode", help="fixed | quote_target"),
    "gamma_value": Setting(float, "gamma_value"),
    "fallback_threshold": Setting(float, "market_order_threshold"),
    "b": Setting(float, "b"),
    "horizon": Setting(float, "horizon"),
    "reference": Setting(str, "reference", help="mid | bid"),
    "sampling_dt": Setting(float, "sampling_dt"),
    "n_min": Setting(int, "n_min"),
}


def _parse_offsets(spec: str):
    try:
        start, stop, step = (float(x) for x in spec.split(":"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expects start:stop:step, got {spec!r}") from exc
    if not (np.isfinite([start, stop, step]).all() and step > 0 and start <= stop):
        raise argparse.ArgumentTypeError(
            f"{spec!r} must be finite with step > 0 and start <= stop")
    return tuple(np.arange(start, stop + 1e-12, step))


#: ``--tick-size`` -> :func:`optliq.market_data.load_tape`
TAPE_SETTINGS = {"tick_size": Setting(float, "tick_size", help="currency per Tick")}

#: calibrate flags -> :func:`optliq.market_data.calibrate_tape` keywords
CALIBRATE_SETTINGS = {
    "sampling_dt": Setting(float, "sampling_dt"),
    "offsets": Setting(_parse_offsets, "distance_grid",
                       help="premium offsets (Ticks) of the intensity fit, "
                            "as start:stop:step"),
    "window": Setting(float, "window"),
    "n_min": Setting(int, "n_min"),
    "gamma_target": Setting(float, "gamma_target"),
    "b": Setting(float, "b"),
    "horizon": Setting(float, "horizon"),
}

#: model key -> :class:`optliq.model.ModelParams` field
MODEL_SETTINGS = {key: Setting(int if field == "q_max" else float, field)
                  for key, field in CONFIG_KEY_TO_FIELD.items()}

#: section -> its table, the model keys under MODEL_SECTION
SECTIONS = {MODEL_SECTION: MODEL_SETTINGS, "sim": SIM_SETTINGS,
            "backtest": BACKTEST_SETTINGS}


def _resolve_config_path(path: str) -> str:
    if os.path.exists(path) or os.path.isabs(path):
        return path
    base = os.environ.get(CONFIG_DIR_ENV)
    if base:
        candidate = os.path.join(base, path)
        if os.path.exists(candidate):
            return candidate
    return path


def _where(name) -> str:
    return "model" if name is MODEL_SECTION else f"[{name}]"


def _sections(args) -> dict:
    """The raw values of the config file and of --set, which wins, as
    ``{section: {key: raw}}``; an unknown section or key is refused."""
    sections = {}
    if getattr(args, "config", None):
        path = _resolve_config_path(args.config)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                sections = parse_config(fh)
        except OSError as exc:
            raise DataError(f"cannot read config {path}: {exc}") from exc
        except ParameterError as exc:
            raise UsageError(f"{path}: {exc}") from exc
    for item in getattr(args, "set", None) or []:
        key, eq, raw = item.partition("=")
        if not eq:
            raise UsageError(f"--set expects key=value, got {item!r}")
        name, dot, key = key.strip().partition(".")
        if not dot:
            name, key = MODEL_SECTION, name
        sections.setdefault(name, {})[key] = raw.strip()
    for name, items in sections.items():
        if name not in SECTIONS:
            raise UsageError(f"unknown section [{name}] (keys {list(items)}); "
                             f"sections are [sim] and [backtest]")
        for key in items:
            if key not in SECTIONS[name]:
                raise UsageError(f"unknown {_where(name)} key {key!r}; known keys: "
                                 f"{', '.join(SECTIONS[name])}")
    return sections


def _flags(args, table: dict) -> dict:
    """Fields of ``table`` that the user set by flag."""
    return {setting.field: getattr(args, key) for key, setting in table.items()
            if getattr(args, key) is not None}


def _settings(sections: dict, name, flags: dict) -> dict:
    """Fields of section ``name`` that the user set, from the file and
    --set, then from ``flags``, which win; plus the table defaults."""
    table = SECTIONS[name]
    values = {}
    for key, raw in sections.get(name, {}).items():
        try:
            values[table[key].field] = table[key].cast(raw)
        except ValueError as exc:
            raise UsageError(f"bad {_where(name)} value {key}={raw!r}") from exc
    values.update(flags)
    for setting in table.values():
        if setting.default is not None:
            values.setdefault(setting.field, setting.default)
    return values


def _load_params(args) -> tuple:
    """The model parameters of a command line, and its raw sections."""
    sections = _sections(args)
    return ModelParams(**_settings(sections, MODEL_SECTION, {})), sections


def _write_json(path, payload, pretty: bool) -> None:
    """Write ``payload`` as JSON to the file ``path``, or print it when there
    is no ``path``; either way the text ends in a newline.  Compact for the
    solver exports, indented with sorted keys (``pretty``) for the reports."""
    text = json.dumps(payload, indent=2, sort_keys=True) if pretty else json.dumps(payload)
    if not path:
        print(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


# -- subcommands -----------------------------------------------------------


def cmd_solve(args) -> int:
    """``solve`` exports the w grid, ``quotes`` the premium surface on it."""
    params, _ = _load_params(args)
    table = solve_grid(params, n_steps=args.steps)
    if args.command == "quotes":
        table = quote_surface(table)
    if args.format == "csv":
        table.to_csv(args.out)
    else:
        _write_json(args.out, table.to_json_dict(), pretty=False)
    return 0


def cmd_sweep(args) -> int:
    params, _ = _load_params(args)
    name, _, raw_values = args.sweep.partition("=")
    name = name.strip()
    if name not in SWEEPABLE:
        raise UsageError(f"sweep parameter must be one of {SWEEPABLE}, got {name!r}")
    setting = MODEL_SETTINGS[name]
    try:
        values = [setting.cast(v) for v in raw_values.split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"bad sweep values {raw_values!r}") from exc
    if not values:
        raise UsageError("sweep needs at least one value")
    # a CSV column is read back by its header, so two values that print
    # alike in it are refused before anything is solved
    header = ["q"] + [f"{name}={v:g}" for v in values]
    if args.format == "csv":
        for i, label in enumerate(header[1:]):
            first = header.index(label) - 1
            if first < i:
                raise UsageError(
                    f"sweep values {values[first]!r} and {values[i]!r} share the CSV "
                    f"header {label!r}; give values that differ in their first 6 "
                    f"significant digits, or use --format json")
    # premiums at t = 0, q = 1..q_max
    columns = [solve_w(params.with_(**{setting.field: value})).quotes_at(0.0)
               for value in values]
    qs = list(range(1, params.q_max + 1))
    if args.format == "csv":
        _write_csv(args.out, header, zip(qs, *(col.tolist() for col in columns)))
    else:
        _write_json(args.out, {"param": name, "values": values, "q": qs,
                               "quotes": [col.tolist() for col in columns]}, pretty=False)
    return 0


#: closed-form --which name -> the expression, called as f(params, t, q);
#: binf-curve writes the trading curve of binf_trading_curve instead
CLOSED_FORMS = {
    "asymptotic": lambda params, t, q: cf.asymptotic_quote(params, q),
    "nodrift": cf.nodrift_novol_quote,
    "risk-neutral": cf.risk_neutral_quote,
    "binf-quote": cf.binf_quote,
    "binf-w": cf.binf_w,
    "binf-curve": cf.binf_trading_curve,
}


def cmd_closed_form(args) -> int:
    params, _ = _load_params(args)
    form = CLOSED_FORMS[args.which]
    if form is cf.binf_trading_curve:
        if args.out is None:
            raise UsageError(f"{args.which} requires --out for the CSV")
        times = np.linspace(0.0, params.horizon, args.points)
        form(params, args.q0, times).to_csv(args.out)
        return 0
    qs = [args.q] if args.q is not None else range(1, params.q_max + 1)
    values = {str(q): form(params, args.t, q) for q in qs}
    _write_json(args.out, {"which": args.which, "t": args.t, "values": values}, pretty=True)
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
    settings = _settings(sections, "sim", _flags(args, SIM_SETTINGS))
    settings.setdefault("q0", params.q_max)
    if args.events and settings["n_paths"] != 1:
        raise UsageError("--events requires paths=1")
    settings["policy"] = _build_policy(settings["policy"], params, args.steps)
    cfg = SimConfig(params=params, **settings)
    os.makedirs(args.out, exist_ok=True)
    summary = simulate_ensemble(cfg)
    summary.curve_to_csv(os.path.join(args.out, "curve.csv"))
    _write_json(os.path.join(args.out, "stats.json"), summary.stats_json_dict(), pretty=True)
    if args.events:
        simulate_path(cfg, 0).to_events_csv(os.path.join(args.out, "events.csv"))
    return 0


def cmd_calibrate(args) -> int:
    tape = load_tape(args.tape, **_flags(args, TAPE_SETTINGS))
    result = calibrate_tape(tape, **_flags(args, CALIBRATE_SETTINGS))
    _write_json(args.out, result.to_json_dict(), pretty=True)
    return 0


def backtest_config(args) -> BacktestConfig:
    """The protocol settings of a parsed ``backtest`` command line."""
    _, sections = _load_params(args)  # the model keys are checked too
    return BacktestConfig(**_settings(sections, "backtest", _flags(args, BACKTEST_SETTINGS)))


def cmd_backtest(args) -> int:
    tape = load_tape(args.tape, **_flags(args, TAPE_SETTINGS))
    ledger = run_backtest(tape, backtest_config(args))
    os.makedirs(args.out, exist_ok=True)
    ledger.write_csvs(args.out)
    report = summarize(ledger)
    payload = report.to_json_dict()
    payload.update(q_end=ledger.q_end, cash_end=ledger.cash_end,
                   gamma_used=ledger.gamma_used, sigma_hat=ledger.sigma_hat,
                   mid_end=ledger.mid_end, start_time=ledger.start_time,
                   end_time=ledger.end_time)
    _write_json(os.path.join(args.out, "summary.json"), payload, pretty=True)
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
        sp.add_argument("--" + key.replace("_", "-"), dest=key, type=setting.cast,
                        help=setting.help)


def _add_solver_flags(sp):
    sp.add_argument("--steps", type=int, default=DEFAULT_N_STEPS,
                    help="time grid steps")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optliq",
        description="Optimal limit-order liquidation: quote solving, "
                    "closed forms, Monte Carlo, calibration and backtests.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (("solve", "solve the w grid and export it"),
                            ("quotes", "solve and export the premium surface")):
        sp = sub.add_parser(name, help=help_text)
        _add_model_flags(sp)
        _add_solver_flags(sp)
        sp.add_argument("--out", required=True)
        sp.add_argument("--format", default="csv", choices=("csv", "json"))
        sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("sweep", help="time-0 premiums across one parameter")
    _add_model_flags(sp)
    sp.add_argument("--sweep", required=True, metavar="PARAM=V1,V2,...")
    sp.add_argument("--out", required=True)
    sp.add_argument("--format", default="csv", choices=("csv", "json"))
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("closed-form", help="evaluate a closed-form expression")
    _add_model_flags(sp)
    sp.add_argument("--which", required=True, choices=tuple(CLOSED_FORMS))
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
    _add_settings_flags(sp, TAPE_SETTINGS)
    _add_settings_flags(sp, CALIBRATE_SETTINGS)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_calibrate)

    sp = sub.add_parser("backtest", help="replay the quoting protocol on a tape")
    _add_model_flags(sp)
    sp.add_argument("--tape", required=True)
    _add_settings_flags(sp, TAPE_SETTINGS)
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
    except (ParameterError, RegimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DataError, CalibrationError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
