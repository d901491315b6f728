"""Monte Carlo engine for the controlled liquidation dynamics.

Each path evolves a drifted Brownian reference price S, an inventory q that
drops by one unit per execution, and cash X that collects S + delta per
execution.  While q >= 1 the resting order at premium delta fills within a
step of length dt with probability ``1 - exp(-lambda dt)`` where
``lambda = big_a exp(-k delta)``; the exact exponential keeps probabilities
in [0, 1] even for deeply negative quotes.  At most one unit trades per
step, and the trader stays inactive once the inventory reaches zero.

Reproducibility contract: path i draws its noise from the counter-derived
stream ``SeedSequence((seed, i))`` as one block of normals followed by one
block of uniforms, so any path is bit-identical whether simulated alone,
inside an ensemble, or on differently batched runs.  One uniform and one
normal are consumed per step regardless of the policy or of sigma.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .closed_forms import TradingCurve
from .errors import ParameterError
from .model import ModelParams, QuoteSurface

__all__ = [
    "FixedQuote",
    "OptimalSurface",
    "MarketOrderFallback",
    "SimConfig",
    "SimPath",
    "SimSummary",
    "simulate_path",
    "simulate_ensemble",
    "simulate_policies",
]

def _batch_size(n_steps: int) -> int:
    # cap the resident step-major noise arrays at a few hundred MB
    return int(np.clip(25_000_000 // max(n_steps, 1), 1024, 8192))


@dataclass(frozen=True)
class FixedQuote:
    """Quote a constant premium (Ticks) for the whole run."""
    delta: float


@dataclass(frozen=True)
class OptimalSurface:
    """Quote delta*(t, q) looked up on the nearest-earlier surface time."""
    surface: QuoteSurface


@dataclass(frozen=True)
class MarketOrderFallback:
    """Like :class:`OptimalSurface`, but when the surface premium drops
    below ``threshold`` the unit is sold immediately at the reference price
    (an idealised market order: guaranteed fill, zero premium, no fees)."""
    surface: QuoteSurface
    threshold: float = 0.0


Policy = Union[FixedQuote, OptimalSurface, MarketOrderFallback]


@dataclass(frozen=True)
class SimConfig:
    params: ModelParams
    q0: int
    dt: float
    n_paths: int
    seed: int
    policy: Policy
    s0: float = 0.0

    def __post_init__(self):
        p = self.params
        if not 1 <= self.q0 <= p.q_max:
            raise ParameterError(f"q0 must be in 1..{p.q_max}, got {self.q0}")
        if not self.dt > 0:
            raise ParameterError(f"dt must be > 0, got {self.dt}")
        if self.dt > p.horizon / 100:
            raise ParameterError(
                f"dt={self.dt} too coarse: need dt <= horizon/100 = {p.horizon / 100}"
            )
        n = round(p.horizon / self.dt)
        if abs(n * self.dt - p.horizon) > 1e-9 * p.horizon:
            raise ParameterError("dt must divide the horizon evenly")
        if self.n_paths < 1:
            raise ParameterError(f"n_paths must be >= 1, got {self.n_paths}")
        surface = getattr(self.policy, "surface", None)
        if surface is not None:
            if surface.q_max < self.q0:
                raise ParameterError(
                    f"policy surface covers q <= {surface.q_max} < q0 = {self.q0}"
                )
            if surface.times[-1] < p.horizon * (1 - 1e-12):
                raise ParameterError("policy surface does not cover the horizon")

    @property
    def n_steps(self) -> int:
        return round(self.params.horizon / self.dt)


@dataclass(frozen=True)
class SimPath:
    """One realised trajectory on the step grid."""

    times: np.ndarray
    price: np.ndarray
    inventory: np.ndarray
    cash: np.ndarray
    fills: list          # (time, price) per executed unit, market orders included
    market_order_count: int

    def to_events_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("t,price,event\n")
            for t, px in self.fills:
                fh.write(f"{t:.17g},{px:.17g},fill\n")


@dataclass(frozen=True)
class SimSummary:
    """Ensemble aggregates: trading curve, P&L and CARA utility statistics."""

    config: SimConfig
    trading_curve: TradingCurve
    mc_stderr_curve: np.ndarray
    pnl_mean: float
    pnl_std: float
    utility_mean: float
    utility_stderr: float
    terminal_inventory_hist: dict
    price_terminal_mean: float
    price_terminal_stderr: float

    def curve_to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("t,mean_q,stderr\n")
            for t, v, se in zip(self.trading_curve.times,
                                self.trading_curve.expected_inventory,
                                self.mc_stderr_curve):
                fh.write(f"{t:.17g},{v:.17g},{se:.17g}\n")

    def stats_json_dict(self) -> dict:
        return {
            "n_paths": self.config.n_paths,
            "seed": self.config.seed,
            "pnl_mean": self.pnl_mean,
            "pnl_std": self.pnl_std,
            "utility_mean": self.utility_mean,
            "utility_stderr": self.utility_stderr,
            "terminal_inventory_hist": {str(k): v for k, v in
                                        sorted(self.terminal_inventory_hist.items())},
            "price_terminal_mean": self.price_terminal_mean,
            "price_terminal_stderr": self.price_terminal_stderr,
        }

    def stats_to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.stats_json_dict(), fh, indent=2, sort_keys=True)


def _path_noise(seed: int, index: int, n_steps: int):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))
    return rng.standard_normal(n_steps), rng.random(n_steps)


def _step_major(a: np.ndarray, tile: int = 512) -> np.ndarray:
    """Transpose path-major noise to step-major in cache-sized tiles."""
    rows, cols = a.shape
    out = np.empty((cols, rows), dtype=a.dtype)
    for i in range(0, rows, tile):
        hi = min(i + tile, rows)
        for j in range(0, cols, tile):
            hj = min(j + tile, cols)
            out[j:hj, i:hi] = a[i:hi, j:hj].T
    return out


def _prepared_noise(seed: int, indices, n_steps: int, params: ModelParams,
                    dt: float):
    """Per-path streams turned into step-major (n_steps, batch) arrays of
    price increments and exponential fill clocks."""
    z = np.empty((len(indices), n_steps))
    u = np.empty((len(indices), n_steps))
    for row, idx in enumerate(indices):
        z[row], u[row] = _path_noise(seed, int(idx), n_steps)
    z *= params.sigma * math.sqrt(dt)
    z += params.mu * dt
    np.negative(u, out=u)
    np.log1p(u, out=u)
    np.negative(u, out=u)
    return _step_major(z), _step_major(u)


class _PolicyTable:
    """Per-step premium lookup, vectorised over a batch of paths."""

    def __init__(self, policy: Policy, params: ModelParams, step_times: np.ndarray):
        self.threshold = None
        if isinstance(policy, FixedQuote):
            self.fixed = float(policy.delta)
            self.quotes = None
        elif isinstance(policy, (OptimalSurface, MarketOrderFallback)):
            surface = policy.surface
            self.fixed = None
            self.quotes = surface.values
            self.step_to_node = surface.nodes_at(step_times).clip(min=0)
            if isinstance(policy, MarketOrderFallback):
                self.threshold = float(policy.threshold)
        else:
            raise ParameterError(f"unknown policy {policy!r}")

    def deltas(self, step: int, q: np.ndarray) -> np.ndarray:
        if self.fixed is not None:
            return np.full(q.shape, self.fixed)
        node = self.step_to_node[step]
        return self.quotes[node, np.maximum(q, 1) - 1]


def _run_batch(cfg: SimConfig, indices, *, noise=None, want_series=False,
               want_fills=False, curve_sum=None, curve_sq=None):
    """Simulate one batch of paths; returns finals and optional detail.

    The per-step uniform u fills the resting order iff
    ``-log(1 - u) < lambda * dt``: the left side is a unit exponential, so
    the fill indicator is an exact draw of the 1 - exp(-lambda dt) rule.
    """
    p = cfg.params
    n_steps = cfg.n_steps
    n = len(indices)
    if noise is None:
        noise = _prepared_noise(cfg.seed, indices, n_steps, p, cfg.dt)
    increments, clocks = noise
    table = _PolicyTable(cfg.policy, p, np.arange(n_steps) * cfg.dt)

    s = np.full(n, float(cfg.s0))
    q = np.full(n, cfg.q0, dtype=np.int64)
    x = np.zeros(n)
    fallback = table.threshold is not None

    if want_series:
        price_series = np.empty((n, n_steps + 1))
        inv_series = np.empty((n, n_steps + 1), dtype=np.int64)
        cash_series = np.empty((n, n_steps + 1))
        price_series[:, 0] = s
        inv_series[:, 0] = q
        cash_series[:, 0] = x
    fills = [] if want_fills else None
    market_orders = np.zeros(n, dtype=np.int64)
    if curve_sum is not None:
        curve_sum[0] += float(np.sum(q))
        curve_sq[0] += float(np.sum(q * q))

    for step in range(n_steps):
        delta = table.deltas(step, q)
        alive = q > 0
        with np.errstate(over="ignore"):
            lam_dt = (p.big_a * cfg.dt) * np.exp(-p.k * delta)
        if fallback:
            mo = alive & (delta < table.threshold)
            fill = alive & ~mo & (clocks[step] < lam_dt)
            hit_mo = np.nonzero(mo)[0]
            if hit_mo.size:
                x[hit_mo] += s[hit_mo]
                q[hit_mo] -= 1
                market_orders[hit_mo] += 1
        else:
            mo = None
            fill = alive & (clocks[step] < lam_dt)
        hit = np.nonzero(fill)[0]
        if hit.size:
            # executions settle at the step-start price (controls are
            # decided on step-start information)
            x[hit] += s[hit] + delta[hit]
            q[hit] -= 1
        if want_fills:
            t_fill = (step + 1) * cfg.dt
            if hit.size:
                fills.append((hit.copy(), np.full(hit.size, t_fill),
                              s[hit] + delta[hit]))
            if fallback and hit_mo.size:
                fills.append((hit_mo.copy(), np.full(hit_mo.size, t_fill),
                              s[hit_mo].copy()))
        s += increments[step]
        if want_series:
            price_series[:, step + 1] = s
            inv_series[:, step + 1] = q
            cash_series[:, step + 1] = x
        if curve_sum is not None:
            curve_sum[step + 1] += float(np.sum(q))
            curve_sq[step + 1] += float(np.sum(q * q))

    out = {"q_final": q, "x_final": x, "s_final": s, "market_orders": market_orders}
    if want_series:
        out.update(price=price_series, inventory=inv_series, cash=cash_series)
    if want_fills:
        out["fills"] = fills
    return out


def simulate_path(cfg: SimConfig, path_index: int = 0) -> SimPath:
    """Simulate a single path (bit-identical to the same index inside an
    ensemble with the same config)."""
    res = _run_batch(cfg, [path_index], want_series=True, want_fills=True)
    times = np.arange(cfg.n_steps + 1) * cfg.dt
    fill_list = []
    for hit, t_arr, px in res["fills"]:
        for t, price in zip(t_arr, px):
            fill_list.append((float(t), float(price)))
    return SimPath(
        times=times,
        price=res["price"][0],
        inventory=res["inventory"][0],
        cash=res["cash"][0],
        fills=fill_list,
        market_order_count=int(res["market_orders"][0]),
    )


def _summary_from_finals(cfg: SimConfig, curve_sum, curve_sq,
                         q_fin, x_fin, s_fin) -> SimSummary:
    p = cfg.params
    n = cfg.n_paths
    times = np.arange(cfg.n_steps + 1) * cfg.dt
    mean_curve = curve_sum / n
    var_curve = np.maximum(curve_sq / n - mean_curve ** 2, 0.0)
    stderr_curve = np.sqrt(var_curve / n)

    wealth = x_fin + q_fin * (s_fin - p.b)
    utility = -np.exp(-p.gamma * wealth) if p.gamma > 0 else -np.ones_like(wealth)
    hist_counts = np.bincount(q_fin, minlength=cfg.q0 + 1)
    return SimSummary(
        config=cfg,
        trading_curve=TradingCurve(times=times, expected_inventory=mean_curve,
                                   q0=cfg.q0),
        mc_stderr_curve=stderr_curve,
        pnl_mean=float(np.mean(wealth)),
        pnl_std=float(np.std(wealth)),
        utility_mean=float(np.mean(utility)),
        utility_stderr=float(np.std(utility) / math.sqrt(n)),
        terminal_inventory_hist={i: int(c) for i, c in enumerate(hist_counts)},
        price_terminal_mean=float(np.mean(s_fin)),
        price_terminal_stderr=float(np.std(s_fin) / math.sqrt(n)),
    )


def simulate_ensemble(cfg: SimConfig) -> SimSummary:
    """Aggregate cfg.n_paths independent paths.

    Paths are processed in fixed-size batches in index order, so the result
    does not depend on how the work would be split across workers.
    """
    curve_sum = np.zeros(cfg.n_steps + 1)
    curve_sq = np.zeros(cfg.n_steps + 1)
    q_fin = np.empty(cfg.n_paths, dtype=np.int64)
    x_fin = np.empty(cfg.n_paths)
    s_fin = np.empty(cfg.n_paths)
    batch = _batch_size(cfg.n_steps)
    for lo in range(0, cfg.n_paths, batch):
        hi = min(lo + batch, cfg.n_paths)
        res = _run_batch(cfg, range(lo, hi), curve_sum=curve_sum, curve_sq=curve_sq)
        q_fin[lo:hi] = res["q_final"]
        x_fin[lo:hi] = res["x_final"]
        s_fin[lo:hi] = res["s_final"]
    return _summary_from_finals(cfg, curve_sum, curve_sq, q_fin, x_fin, s_fin)


def simulate_policies(params: ModelParams, policies, q0: int, dt: float,
                      n_paths: int, seed: int, s0: float = 0.0):
    """Run several policies over the same noise (common random numbers).

    Returns one :class:`SimSummary` per policy, in order.  Each path draws
    its stream once per batch and every policy consumes the identical draws,
    which makes cross-policy comparisons much tighter than independent runs
    and costs one noise generation instead of len(policies).
    """
    configs = [SimConfig(params=params, q0=q0, dt=dt, n_paths=n_paths,
                         seed=seed, policy=pol, s0=s0) for pol in policies]
    n_pol = len(configs)
    n_steps = configs[0].n_steps if configs else 0
    curve_sum = [np.zeros(n_steps + 1) for _ in range(n_pol)]
    curve_sq = [np.zeros(n_steps + 1) for _ in range(n_pol)]
    q_fin = [np.empty(n_paths, dtype=np.int64) for _ in range(n_pol)]
    x_fin = [np.empty(n_paths) for _ in range(n_pol)]
    s_fin = [np.empty(n_paths) for _ in range(n_pol)]
    batch = _batch_size(n_steps)
    for lo in range(0, n_paths, batch):
        hi = min(lo + batch, n_paths)
        noise = _prepared_noise(seed, range(lo, hi), n_steps, params, dt)
        for j, cfg in enumerate(configs):
            res = _run_batch(cfg, range(lo, hi), noise=noise,
                             curve_sum=curve_sum[j], curve_sq=curve_sq[j])
            q_fin[j][lo:hi] = res["q_final"]
            x_fin[j][lo:hi] = res["x_final"]
            s_fin[j][lo:hi] = res["s_final"]
    return [_summary_from_finals(cfg, curve_sum[j], curve_sq[j],
                                 q_fin[j], x_fin[j], s_fin[j])
            for j, cfg in enumerate(configs)]
