"""Replay the discrete quoting protocol against a trade tape.

Protocol: after a warm-up used for calibration, the strategy re-quotes
whenever a fill changes the inventory or a resting order has sat unmodified
for ``delta_t`` seconds.  At each re-quote it refreshes (A, k) for the
prevailing spread bucket from a trailing window, solves the quote system
for the remaining horizon and current inventory, rounds the premium to an
integer Tick, and rests one unit at reference price + premium.  The order
fills in full at its own price when any later print trades at or above it
(quantity and queue priority are ignored).  An optional fallback sells
immediately at the best bid whenever the raw premium drops below a
threshold.  Remaining inventory at the end is marked at the final mid minus
the liquidation discount.

The replay is single-threaded and deterministic: rerunning the same tape
and config (including the rounding seed) reproduces the ledger bit for bit.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import CalibrationError, DataError, ParameterError
from .market_data import (DEFAULT_DISTANCE_GRID, IntensityFit, TradeTape,
                          _checked_grid, _prefix_sigma, _spread_bucket,
                          _window_fit, calibrate_gamma, calibrate_intensity)
from .model import ModelParams, _require_finite, _require_int, _write_csv
from .ode import solve_w

__all__ = [
    "BacktestConfig",
    "OrderEvent",
    "FillEvent",
    "BacktestLedger",
    "BacktestReport",
    "round_quote",
    "run_backtest",
    "summarize",
]


def round_quote(raw: float, mode: str = "nearest", rng=None) -> int:
    """Round a premium to an integer Tick.

    ``nearest`` rounds half away from zero (10.5 -> 11, -10.5 -> -11);
    ``randomized`` picks floor with probability (ceil - raw) and ceil with
    probability (raw - floor), so the expectation equals the raw premium.
    """
    if not math.isfinite(raw):
        raise ParameterError(f"cannot round the premium {raw} to a Tick")
    if mode == "nearest":
        return int(math.floor(raw + 0.5)) if raw >= 0 else int(math.ceil(raw - 0.5))
    if mode == "randomized":
        if rng is None:
            raise ParameterError("randomized rounding needs an rng")
        lo = math.floor(raw)
        frac = raw - lo
        if frac == 0.0:
            return int(lo)
        return int(lo) + (1 if rng.random() < frac else 0)
    raise ParameterError(f"unknown rounding mode {mode!r}")


@dataclass(frozen=True)
class BacktestConfig:
    """Protocol settings.

    q0 counts unit bunches (1 = one average trade size).  ``gamma_mode`` is
    ``"fixed"`` (use gamma_value as the risk aversion) or ``"quote_target"``
    (choose gamma once, at the first quote, so the initial premium equals
    gamma_value Ticks).  ``horizon=None`` liquidates over the remaining
    tape.  ``market_order_threshold=None`` disables the fallback.
    """

    q0: int = 3
    delta_t: float = 30.0
    rounding: str = "nearest"
    seed: int = 0
    recalib_window: float = 1800.0
    warmup: Optional[float] = None
    gamma_mode: str = "quote_target"
    gamma_value: float = 1.0
    market_order_threshold: Optional[float] = None
    b: float = 3.0
    horizon: Optional[float] = None
    reference: str = "mid"
    sampling_dt: float = 1.0
    distance_grid: Sequence[float] = DEFAULT_DISTANCE_GRID
    n_min: int = 50

    def __post_init__(self):
        _require_int(q0=self.q0, n_min=self.n_min, seed=self.seed)
        _require_finite(warmup=self.warmup, horizon=self.horizon,
                        recalib_window=self.recalib_window, gamma_value=self.gamma_value,
                        b=self.b, sampling_dt=self.sampling_dt)
        if self.q0 < 1:
            raise ParameterError(f"q0 must be >= 1, got {self.q0}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if self.warmup is not None and self.warmup < 0:
            raise ParameterError(f"warmup must be >= 0, got {self.warmup}")
        if not self.recalib_window > 0:
            raise ParameterError(f"recalib_window must be > 0, got {self.recalib_window}")
        if not self.sampling_dt > 0:
            raise ParameterError(f"sampling_dt must be > 0, got {self.sampling_dt}")
        _checked_grid(self.distance_grid)
        if not self.delta_t > 0:
            raise ParameterError(f"delta_t must be > 0, got {self.delta_t}")
        if self.rounding not in ("nearest", "randomized"):
            raise ParameterError(f"unknown rounding mode {self.rounding!r}")
        if self.gamma_mode not in ("fixed", "quote_target"):
            raise ParameterError(f"unknown gamma_mode {self.gamma_mode!r}")
        # in quote_target mode gamma_value is a target premium in Ticks
        if self.gamma_mode == "fixed" and not self.gamma_value > 0:
            raise ParameterError(f"gamma_value must be > 0 in fixed gamma_mode, "
                                 f"got {self.gamma_value}")
        if self.reference not in ("mid", "bid"):
            raise ParameterError(f"reference must be 'mid' or 'bid', got "
                                 f"{self.reference!r}")
        if self.b < 0:
            raise ParameterError(f"b must be >= 0, got {self.b}")
        if self.horizon is not None and not self.horizon > 0:
            raise ParameterError(f"horizon must be > 0, got {self.horizon}")
        if self.market_order_threshold is not None and math.isnan(self.market_order_threshold):
            raise ParameterError("market_order_threshold must not be NaN")


@dataclass(frozen=True)
class OrderEvent:
    """A resting order, with the solver inputs kept for audit."""

    t_insert: float
    quote_ticks: int
    q_before: int
    mid: float
    reference_price: float
    order_price: float
    raw_delta: float
    solver_t: float
    solver_horizon: float
    a_hat: float
    k_hat: float
    gamma: float
    sigma_hat: float


@dataclass(frozen=True)
class FillEvent:
    t: float
    price: float
    q_after: int
    order_index: Optional[int]  # None for market-order fallback sales


@dataclass
class BacktestLedger:
    config: BacktestConfig
    start_time: float
    end_time: float
    horizon: float
    mid_start: float
    orders: list = field(default_factory=list)
    fills: list = field(default_factory=list)
    series: list = field(default_factory=list)  # (t, mid, inventory, cash)
    cash_end: float = 0.0
    q_end: int = 0
    mid_end: float = 0.0
    mark: float = 0.0
    gamma_used: float = float("nan")
    sigma_hat: float = float("nan")

    def write_csvs(self, outdir) -> None:
        os.makedirs(outdir, exist_ok=True)
        _write_csv(os.path.join(outdir, "orders.csv"), ("t", "quote", "q"),
                   ((o.t_insert, o.quote_ticks, o.q_before) for o in self.orders))
        _write_csv(os.path.join(outdir, "fills.csv"), ("t", "price", "q_after"),
                   ((f.t, f.price, f.q_after) for f in self.fills))
        _write_csv(os.path.join(outdir, "series.csv"), ("t", "mid", "inventory", "cash"),
                   self.series)


def _mid(tape: TradeTape, row: int) -> float:
    # one row's mid, bit for bit the row of ``tape.mid``
    return 0.5 * (float(tape.bid[row]) + float(tape.ask[row]))


def run_backtest(tape: TradeTape, cfg: BacktestConfig) -> BacktestLedger:
    """Replay the protocol on a tape.  See the module docstring for the
    event loop; calibration failure anywhere aborts with a diagnostic.

    sigma is the :func:`~optliq.market_data.calibrate_sigma` of the tape up
    to the warm-up end, read from the increments the tape caches.  Each
    re-quote fits only the prevailing spread bucket, from the tape's
    intensity index for the configured grid, on the rows of its window:
    those run from the first print in the window, which only moves
    forward, to the last print up to the re-quote.  All buckets are fitted
    only to word the error when that one has no usable fit.
    """
    if len(tape) < 2:
        raise DataError("tape too short to backtest")
    warmup = cfg.warmup if cfg.warmup is not None else cfg.recalib_window
    start = float(tape.ts[0]) + warmup
    if start >= float(tape.ts[-1]):
        raise CalibrationError(
            f"warm-up of {warmup}s consumes the whole tape (span {tape.span}s)"
        )
    horizon = cfg.horizon if cfg.horizon is not None else float(tape.ts[-1]) - start
    end_cap = min(start + horizon, float(tape.ts[-1]))

    ts, price, n = tape.ts, tape.price, len(tape)
    i_state = int(np.searchsorted(ts, start, side="right")) - 1
    lo = int(np.searchsorted(ts, start - cfg.recalib_window, side="left"))
    try:
        sigma_hat = _prefix_sigma(tape, cfg.sampling_dt, i_state)
    except CalibrationError as exc:
        raise CalibrationError(f"warm-up sigma calibration failed: {exc}") from exc

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    index = tape._intensity_index(np.asarray(cfg.distance_grid, dtype=float))
    mid_start = _mid(tape, i_state)
    ledger = BacktestLedger(config=cfg, start_time=start, end_time=end_cap,
                            horizon=horizon, mid_start=mid_start,
                            sigma_hat=sigma_hat)

    q = cfg.q0
    cash = 0.0
    gamma: Optional[float] = None
    t_now = start
    ledger.series.append((t_now, mid_start, q, cash))

    while q > 0 and t_now < end_cap:
        bid = float(tape.bid[i_state])
        ask = float(tape.ask[i_state])
        mid = 0.5 * (bid + ask)
        bucket = int(_spread_bucket(ask - bid))
        # the fit window [t_now - recalib_window, t_now] is rows [lo, hi)
        hi = i_state + 1
        while hi < n and ts[hi] <= t_now:  # prints at the time of a fill
            hi += 1
        window_start = t_now - cfg.recalib_window
        while lo < hi and ts[lo] < window_start:
            lo += 1
        if lo == hi:
            raise CalibrationError(f"intensity calibration failed at t={t_now:.6g}: "
                                   f"no records in [{window_start}, {t_now}]")
        fit = _window_fit(tape, index, bucket, lo, hi, t_now, cfg.n_min)
        if not isinstance(fit, IntensityFit):
            fits, _ = calibrate_intensity(tape, cfg.distance_grid,
                                          window=cfg.recalib_window,
                                          end_time=t_now, n_min=cfg.n_min)
            raise CalibrationError(
                f"no usable fit for spread bucket {bucket} at t={t_now:.6g} "
                f"({fit or 'no prints in bucket'}); usable buckets: {sorted(fits)}"
            )
        if gamma is None:
            if cfg.gamma_mode == "fixed":
                gamma = cfg.gamma_value
            else:
                gamma = calibrate_gamma(fit.a_hat, fit.k_hat, sigma_hat, 0.0,
                                        cfg.b, horizon,
                                        target_quote=cfg.gamma_value)
            ledger.gamma_used = gamma

        elapsed = t_now - start
        # no drift is assumed in the strategy's own model
        params = ModelParams(mu=0.0, sigma=sigma_hat, big_a=fit.a_hat,
                             k=fit.k_hat, gamma=gamma, b=cfg.b,
                             horizon=horizon, q_max=q)
        raw_delta = float(solve_w(params).quotes_at(elapsed)[q - 1])

        if (cfg.market_order_threshold is not None
                and raw_delta < cfg.market_order_threshold):
            q -= 1
            cash += bid
            ledger.fills.append(FillEvent(t=t_now, price=bid, q_after=q,
                                          order_index=None))
            ledger.series.append((t_now, mid, q, cash))
            continue

        delta_ticks = round_quote(raw_delta, cfg.rounding, rng)
        reference = mid if cfg.reference == "mid" else bid
        order_price = reference + delta_ticks
        order_index = len(ledger.orders)
        ledger.orders.append(OrderEvent(
            t_insert=t_now, quote_ticks=delta_ticks, q_before=q, mid=mid,
            reference_price=reference, order_price=order_price,
            raw_delta=raw_delta, solver_t=elapsed, solver_horizon=horizon,
            a_hat=fit.a_hat, k_hat=fit.k_hat, gamma=gamma, sigma_hat=sigma_hat))
        ledger.series.append((t_now, mid, q, cash))

        window_end = min(t_now + cfg.delta_t, end_cap)
        filled = False
        j = i_state + 1
        while j < n and ts[j] <= window_end:
            if price[j] >= order_price:
                q -= 1
                cash += order_price
                t_now = float(ts[j])
                i_state = j
                ledger.fills.append(FillEvent(t=t_now, price=order_price,
                                              q_after=q,
                                              order_index=order_index))
                mid_j = _mid(tape, j)
                ledger.series.append((t_now, mid_j, q, cash))
                filled = True
                break
            j += 1
        if not filled:
            # the scan stopped at the first print after the window
            t_now = window_end
            i_state = j - 1

    i_end = int(np.searchsorted(tape.ts, end_cap, side="right")) - 1
    ledger.mid_end = _mid(tape, i_end)
    ledger.cash_end = cash
    ledger.q_end = q
    ledger.mark = cash + q * (ledger.mid_end - cfg.b)
    ledger.series.append((end_cap, ledger.mid_end, q, cash))
    return ledger


@dataclass(frozen=True)
class BacktestReport:
    """Scalar summary of one replay."""

    fill_count: int
    market_order_count: int
    avg_fill_premium: Optional[float]  # vs the mid when the order was placed
    completed: bool
    completion_time: Optional[float]   # seconds from start to the last fill
    terminal_mark: float
    benchmark: float                   # q0 * starting mid, an idealised
    slippage_vs_benchmark: float       # instant costless liquidation

    def to_json_dict(self) -> dict:
        return {k: getattr(self, k) for k in (
            "fill_count", "market_order_count", "avg_fill_premium", "completed",
            "completion_time", "terminal_mark", "benchmark",
            "slippage_vs_benchmark")}


def summarize(ledger: BacktestLedger) -> BacktestReport:
    """Fill statistics and the mark against an instant-liquidation benchmark."""
    premiums = []
    market_orders = 0
    for f in ledger.fills:
        if f.order_index is None:
            market_orders += 1
            # a fallback sale pays the half-spread below the then-current mid
            t_mid = next(m for t, m, _, _ in reversed(ledger.series) if t <= f.t)
            premiums.append(f.price - t_mid)
        else:
            premiums.append(f.price - ledger.orders[f.order_index].mid)
    completed = ledger.q_end == 0
    completion_time = (ledger.fills[-1].t - ledger.start_time
                       if completed and ledger.fills else None)
    benchmark = ledger.config.q0 * ledger.mid_start
    return BacktestReport(
        fill_count=len(ledger.fills),
        market_order_count=market_orders,
        avg_fill_premium=float(np.mean(premiums)) if premiums else None,
        completed=completed,
        completion_time=completion_time,
        terminal_mark=ledger.mark,
        benchmark=benchmark,
        slippage_vs_benchmark=ledger.mark - benchmark,
    )
