"""Monte Carlo engine for the controlled liquidation dynamics.

Each path evolves a drifted Brownian reference price S, an inventory q that
drops by one unit per execution, and cash X that collects S + delta per
execution.  While q >= 1 the resting order at premium delta(t, q) fills as a
point process of intensity ``lambda(t, q) = big_a exp(-k delta(t, q))``;
the trader stays inactive once the inventory reaches zero.

The engine is exact in time.  Every policy holds delta constant between the
nodes of its surface (a :class:`FixedQuote` has one node), so at level q the
cumulative hazard ``H_q(t)`` is piecewise linear, and the next fill after t
is the time where ``H_q`` reaches ``H_q(t) + E`` for a unit exponential E:
one table lookup and one linear inversion per fill.  A
:class:`MarketOrderFallback` sells at the first node at or after t whose
premium is below the threshold, if that comes before the fill; a premium so
negative that the intensity overflows fills at the start of its interval.
The table holds one premium per level and interval, what a sale there adds
to S (0 for a market order), read alike by a fill and a forced sale.
The price is sampled only at those event times and at T, by exact Gaussian
increments, and an execution settles at ``S(tau) + delta`` (a market order
at ``S(tau)``).  ``SimConfig.dt`` only sets the grid on which the trading
curve and the series of :func:`simulate_path` are reported; the events and
the finals do not depend on it.

Reproducibility contract: every random number is a counter-based hash of
``(seed, path, draw)`` (SplitMix64 over a per-path key; Salmon et al.,
*Parallel random numbers: as easy as 1, 2, 3*, SC'11), computed vectorised
over paths.  Fill round j (0-based) takes its exponential from draw 3j and
its normal from draws 3j+1 and 3j+2 (Box-Muller); the normal also carries
the price to T when the round has no fill, and round q0's normal carries it
to T after the last unit.  So a path is bit-identical whether simulated
alone, inside an ensemble or under any split into batches, and every policy
simulated with the same seed sees the same draws (common random numbers).
Ensembles run in blocks of paths; a block computes the draws of all its
paths and fill rounds in one vectorised pass, and every policy of a
:func:`simulate_policies` call reads them from there.  Each policy bins the
fill times of a block on the reporting grid once, after its last round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .closed_forms import TradingCurve
from .errors import ParameterError
from .model import (ModelParams, QuoteSurface, _require_finite, _require_int,
                    _write_csv)

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

# path-rounds per block of simulate_ensemble and simulate_policies: a block
# of max(1, _CHUNK // (q0 + 1)) paths holds the draws of all q0 + 1 fill
# rounds of its paths (16 bytes per path and round), computed once per call
# and read by every policy.  simulate_ensemble keeps one block at a time,
# simulate_policies every block until its last policy; the results do not
# depend on it
_CHUNK = 1 << 16


@dataclass(frozen=True)
class FixedQuote:
    """Quote a constant premium (Ticks) for the whole run; inf never fills."""
    delta: float

    def __post_init__(self):
        if math.isnan(self.delta) or self.delta == -math.inf:
            raise ParameterError(
                f"FixedQuote premium must not be NaN or -inf, got {self.delta}")


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

    def __post_init__(self):
        if math.isnan(self.threshold):
            raise ParameterError("MarketOrderFallback threshold must not be NaN")


Policy = Union[FixedQuote, OptimalSurface, MarketOrderFallback]


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo run; ``dt`` is the step of the reporting grid."""

    params: ModelParams
    q0: int
    dt: float
    n_paths: int
    seed: int
    policy: Policy
    s0: float = 0.0

    def __post_init__(self):
        p = self.params
        _require_int(q0=self.q0, n_paths=self.n_paths, seed=self.seed)
        _require_finite(s0=self.s0)
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

    @property
    def grid(self) -> np.ndarray:
        """Reporting times 0, dt, ..., T."""
        return np.arange(self.n_steps + 1) * self.dt


@dataclass(frozen=True)
class SimPath:
    """One realised trajectory: exact events, reported on the dt grid.

    ``inventory`` and ``cash`` at a grid time include the fills at or before
    it; ``price`` is the reference price, exact at the events and at T and
    filled in between by a Brownian bridge."""

    times: np.ndarray
    price: np.ndarray
    inventory: np.ndarray
    cash: np.ndarray
    fills: list          # (time, price) per executed unit, market orders included
    market_order_count: int

    def to_events_csv(self, path) -> None:
        _write_csv(path, ("t", "price", "event"), ((t, px, "fill") for t, px in self.fills))


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
        curve = self.trading_curve
        _write_csv(path, ("t", "mean_q", "stderr"),
                   zip(curve.times, curve.expected_inventory, self.mc_stderr_curve))

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


# ------------------------------------------------------------ random streams

_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64 increment, odd
_MASK = (1 << 64) - 1
# the bridge normals of simulate_path start at this draw index, far past
# the 3 (q0 + 1) draws of the events
_BRIDGE_DRAW = 1 << 40


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser, in place on a uint64 array."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _path_keys(seed: int, paths) -> np.ndarray:
    """Per-path stream keys: the SplitMix64 sequence seeded by the mixed seed,
    taken at position path + 1."""
    seed_key = _mix(np.array([(int(seed) + _GAMMA) & _MASK], dtype=np.uint64))
    paths = np.asarray(paths, dtype=np.uint64)
    return _mix((paths + np.uint64(1)) * np.uint64(_GAMMA) + seed_key)


def _uniforms(keys: np.ndarray, draw) -> np.ndarray:
    """Uniforms in (0, 1), one per key and entry of ``draw`` (broadcast
    against ``keys``): 53 bits of SplitMix64 at position draw + 1 of each
    key's sequence."""
    # at least 1-d: uint64 arrays wrap silently where numpy scalars warn
    step = np.atleast_1d(np.asarray(draw, dtype=np.uint64)) + np.uint64(1)
    step *= np.uint64(_GAMMA)
    z = _mix(keys + step)
    z >>= np.uint64(11)
    u = z.astype(float)
    u += 0.5
    u *= 2.0 ** -53
    return u


def _exponentials(keys: np.ndarray, draw) -> np.ndarray:
    e = _uniforms(keys, draw)
    np.negative(e, out=e)
    np.log1p(e, out=e)
    np.negative(e, out=e)
    return e


def _normals(keys: np.ndarray, draw) -> np.ndarray:
    """Standard normals from draws (draw, draw + 1) by Box-Muller."""
    draw = np.asarray(draw, dtype=np.uint64)
    radius = _uniforms(keys, draw)
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle = _uniforms(keys, draw + np.uint64(1))
    angle *= 2.0 * math.pi
    np.cos(angle, out=angle)
    radius *= angle
    return radius


class _Draws:
    """The event draws of one block of paths, computed for every path and
    fill round in one pass: round j's unit exponentials (draw 3j, rounds
    0..q0-1) in row j of ``exponentials``, its standard normals (draws 3j+1
    and 3j+2, rounds 0..q0) in row j of ``normals``."""

    def __init__(self, seed: int, paths, q0: int):
        self.keys = _path_keys(seed, paths)
        draw = 3 * np.arange(q0 + 1, dtype=np.uint64)[:, None]
        self.exponentials = _exponentials(self.keys, draw[:-1])
        self.normals = _normals(self.keys, draw + np.uint64(1))


def _grid_index(grid: np.ndarray, dt: float, tau: np.ndarray) -> np.ndarray:
    """``np.searchsorted(grid, tau)`` on the grid ``arange(n + 1) * dt`` for
    times ``0 <= tau``, by arithmetic, except that a time past the last node
    (below T when dt falls short of T / n) maps to the last node.

    ``ceil(tau / dt)`` is off by at most one node, which one comparison on
    each side corrects."""
    last = grid.size - 1
    m = np.minimum(np.ceil(tau / dt), last).astype(np.int64)
    m -= (m > 0) & (grid[m - 1] >= tau)
    m += (m < last) & (grid[m] < tau)
    return m


# ------------------------------------------------------------ hazard tables

class _HazardTable:
    """Fill hazard of a policy per inventory level, rows q = 1..q0.

    edges       interval bounds 0 = e_0 < ... < e_n = T of the held quotes
    rate        (q0, n) fill intensity on [e_i, e_{i+1}), 0 where a unit is
                forced
    cum         (q0, n+1) cumulative hazard H_q(e_i)
    next_forced (q0, n) first interval at or after i where the unit is
                sold at once (n if none)
    premium, market  (q0, n) what a sale in the interval adds to S, and
                whether it is a market order (premium 0); a fill and a
                forced sale read the same entry
    """

    def __init__(self, policy: Policy, params: ModelParams, q0: int):
        horizon = params.horizon
        if isinstance(policy, FixedQuote):
            starts = np.zeros(1)
            premium = np.full((q0, 1), float(policy.delta))
        elif isinstance(policy, (OptimalSurface, MarketOrderFallback)):
            surface = policy.surface
            # the times increase, so the nodes before T are a prefix; a node
            # at T only sets the terminal quote, which is never held
            m = max(1, int(np.searchsorted(surface.times, horizon * (1 - 1e-12))))
            starts = surface.times[:m]
            # a copy even where the transpose is contiguous (q0 = 1 or
            # m = 1): the market orders are zeroed in it below
            premium = np.array(surface.values[:m, :q0].T, order="C")
        else:
            raise ParameterError(f"unknown policy {policy!r}")
        n = starts.size
        self.edges = np.append(starts, horizon)
        self.edges[0] = 0.0
        # formed in place: each fresh array over the surface's nodes costs
        # its page faults again on every call
        rate = np.multiply(premium, -params.k)
        with np.errstate(over="ignore"):
            np.exp(rate, out=rate)
            rate *= params.big_a
        # only a MarketOrderFallback has a threshold
        self.market = np.less(premium, float(getattr(policy, "threshold", -math.inf)))
        forced = np.isinf(rate)
        forced |= self.market
        np.copyto(rate, 0.0, where=forced)
        self.rate = rate
        self.cum = np.empty((q0, n + 1))
        self.cum[:, 0] = 0.0
        np.multiply(rate, np.diff(self.edges), out=self.cum[:, 1:])
        np.cumsum(self.cum[:, 1:], axis=1, out=self.cum[:, 1:])
        self.next_forced = np.full((q0, n), n, dtype=np.int64)
        np.copyto(self.next_forced, np.arange(n), where=forced)
        backwards = self.next_forced[:, ::-1]
        np.minimum.accumulate(backwards, axis=1, out=backwards)
        np.copyto(premium, 0.0, where=self.market)
        self.premium = premium


# ------------------------------------------------------------------- engine

def _simulate(cfg: SimConfig, table: _HazardTable, draws: _Draws) -> tuple:
    """Exact events of the paths of ``draws``.

    Fill round j moves every live path, all at level q0 - j, to its next
    event.  Returns the finals of the paths and the sales of each round:
    a list whose entry j holds the units sold in round j, one per path
    that sells more than j units, in path order, as (event times,
    reference prices there, settlement prices).
    """
    p = cfg.params
    horizon = p.horizon
    n = draws.keys.size
    edges = table.edges
    n_int = edges.size - 1
    q = np.full(n, cfg.q0, dtype=np.int64)
    x = np.zeros(n)
    s = np.full(n, float(cfg.s0))
    market_orders = np.zeros(n, dtype=np.int64)
    sales = []

    rows = np.arange(n)
    t = np.zeros(n)
    node = np.zeros(n, dtype=np.int64)   # interval holding t
    for j in range(cfg.q0):
        if rows.size == 0:
            break
        level = cfg.q0 - 1 - j
        cum, rate = table.cum[level], table.rate[level]
        target = cum[node] + rate[node] * (t - edges[node]) + draws.exponentials[j][rows]
        k = np.minimum(np.searchsorted(cum, target, side="right") - 1, n_int - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            tau = edges[k] + (target - cum[k]) / rate[k]
        tau = np.where(target < cum[-1], np.maximum(tau, t), np.inf)
        # with nothing forced before T, next_forced is n and edges[n] = T:
        # the forced sale falls at T, which sells nothing
        forced_at = table.next_forced[level][node]
        t_forced = np.maximum(t, edges[forced_at])
        forced = t_forced <= tau
        event = np.minimum(tau, t_forced)

        gap = event - t
        s_live = s[rows] + (p.mu * gap + p.sigma * np.sqrt(gap) * draws.normals[j][rows])
        s[rows] = s_live

        sold = event < horizon
        rows, t = rows[sold], event[sold]
        node = np.where(forced, forced_at, k)[sold]   # the interval of the sale
        price = s_live[sold] + table.premium[level][node]
        x[rows] += price
        q[rows] -= 1
        market_orders[rows] += table.market[level][node]
        sales.append((t, s_live[sold], price))

    if rows.size:
        # every unit sold before T: carry the price on to T
        gap = horizon - t
        s[rows] += p.mu * gap + p.sigma * np.sqrt(gap) * draws.normals[cfg.q0][rows]
    return {"q_final": q, "x_final": x, "s_final": s,
            "market_orders": market_orders}, sales


def _bridge(keys: np.ndarray, grid: np.ndarray, ev_times: np.ndarray,
            ev_prices: np.ndarray, sigma: float) -> np.ndarray:
    """Price on the grid: a Brownian bridge between the exact event prices
    (``ev_times`` increasing from 0 to T, repeats allowed)."""
    times, where = np.unique(np.concatenate([ev_times, grid]), return_inverse=True)
    steps = _normals(keys, _BRIDGE_DRAW + 2 * np.arange(times.size - 1, dtype=np.uint64))
    walk = np.concatenate([[0.0], np.cumsum(np.sqrt(np.diff(times)) * steps)])
    b_ev, b_grid = walk[where[:ev_times.size]], walk[where[ev_times.size:]]
    seg = np.minimum(np.searchsorted(ev_times, grid, side="right") - 1,
                     ev_times.size - 2)
    left, right = ev_times[seg], ev_times[seg + 1]
    frac = (grid - left) / (right - left)
    noise = b_grid - b_ev[seg] - frac * (b_ev[seg + 1] - b_ev[seg])
    price = ev_prices[seg] + frac * (ev_prices[seg + 1] - ev_prices[seg]) + sigma * noise
    price[-1] = ev_prices[-1]
    return price


def simulate_path(cfg: SimConfig, path_index: int = 0) -> SimPath:
    """Simulate a single path (bit-identical to the same index inside an
    ensemble with the same config); ``path_index`` is an integer in
    [0, 2**64)."""
    _require_int(path_index=path_index)
    if not 0 <= path_index < 2 ** 64:
        raise ParameterError(f"path_index must be in [0, 2**64), got {path_index}")
    table = _HazardTable(cfg.policy, cfg.params, cfg.q0)
    draws = _Draws(cfg.seed, [path_index], cfg.q0)
    res, sales = _simulate(cfg, table, draws)
    fill_times, fill_refs, fill_prices = (np.concatenate(col) for col in zip(*sales))
    grid = cfg.grid
    n_done = np.cumsum(np.bincount(_grid_index(grid, cfg.dt, fill_times),
                                   minlength=grid.size))
    # cumsum adds in order from 0.0, as the engine does
    cash = np.cumsum(np.concatenate([[0.0], fill_prices]))[n_done]
    ev_times = np.concatenate([[0.0], fill_times, [cfg.params.horizon]])
    ev_prices = np.concatenate([[float(cfg.s0)], fill_refs, res["s_final"]])
    price = _bridge(draws.keys, grid, ev_times, ev_prices, cfg.params.sigma)
    return SimPath(
        times=grid,
        price=price,
        inventory=cfg.q0 - n_done,
        cash=cash,
        fills=list(zip(fill_times.tolist(), fill_prices.tolist())),
        market_order_count=int(res["market_orders"][0]),
    )


def _summary_from_finals(cfg: SimConfig, fills, fills_sq,
                         q_fin, x_fin, s_fin) -> SimSummary:
    """``fills[m]`` counts the units sold in (t_{m-1}, t_m] over all paths,
    ``fills_sq[m]`` the matching drop of the summed q^2."""
    p = cfg.params
    n = cfg.n_paths
    mean_curve = cfg.q0 - np.cumsum(fills) / n
    mean_sq = cfg.q0 ** 2 - np.cumsum(fills_sq) / n
    var_curve = np.maximum(mean_sq - mean_curve ** 2, 0.0)
    stderr_curve = np.sqrt(var_curve / n)

    wealth = x_fin + q_fin * (s_fin - p.b)
    utility = -np.exp(-p.gamma * wealth) if p.gamma > 0 else -np.ones_like(wealth)
    hist_counts = np.bincount(q_fin, minlength=cfg.q0 + 1)
    return SimSummary(
        config=cfg,
        trading_curve=TradingCurve(times=cfg.grid, expected_inventory=mean_curve),
        mc_stderr_curve=stderr_curve,
        pnl_mean=float(np.mean(wealth)),
        pnl_std=float(np.std(wealth)),
        utility_mean=float(np.mean(utility)),
        utility_stderr=float(np.std(utility) / math.sqrt(n)),
        terminal_inventory_hist={i: int(c) for i, c in enumerate(hist_counts)},
        price_terminal_mean=float(np.mean(s_fin)),
        price_terminal_stderr=float(np.std(s_fin) / math.sqrt(n)),
    )


def _ensembles(cfgs: list) -> list:
    """One :class:`SimSummary` per config, for configs that differ only in
    their policy.  The paths run in blocks of ``_CHUNK`` path-rounds, and
    every policy reads the draws of a block from one :class:`_Draws`, kept
    until the last policy has read it.  Every policy is checked before any
    path is simulated."""
    tables = [_HazardTable(c.policy, c.params, c.q0) for c in cfgs]
    n_paths, seed, q0 = cfgs[0].n_paths, cfgs[0].seed, cfgs[0].q0
    grid = cfgs[0].grid
    size = max(1, _CHUNK // (q0 + 1))   # paths per block
    blocks = [None] * math.ceil(n_paths / size)   # the _Draws of each block
    # q^2 falls by 2q - 1 when level q sells a unit, so by 2 (q0 - j) - 1
    # in fill round j
    sq_drop = 2.0 * (q0 - np.arange(q0)) - 1.0
    summaries = []
    for i, cfg in enumerate(cfgs):
        table, tables[i] = tables[i], None   # freed once its policy is done
        fills = np.zeros(grid.size)
        fills_sq = np.zeros(grid.size)
        q_fin = np.empty(n_paths, dtype=np.int64)
        x_fin = np.empty(n_paths)
        s_fin = np.empty(n_paths)
        for b, lo in enumerate(range(0, n_paths, size)):
            hi = min(lo + size, n_paths)
            draws = blocks[b]
            if draws is None:
                draws = _Draws(seed, np.arange(lo, hi), q0)
            blocks[b] = draws if i < len(cfgs) - 1 else None
            res, sales = _simulate(cfg, table, draws)
            taus = [tau for tau, _, _ in sales]   # the fill times of each round
            # the counts and the integer q^2 drops are exact in any order
            cell = _grid_index(grid, cfg.dt, np.concatenate(taus))
            fills += np.bincount(cell, minlength=grid.size)
            drops = np.repeat(sq_drop[:len(taus)], [tau.size for tau in taus])
            fills_sq += np.bincount(cell, weights=drops, minlength=grid.size)
            q_fin[lo:hi] = res["q_final"]
            x_fin[lo:hi] = res["x_final"]
            s_fin[lo:hi] = res["s_final"]
        summaries.append(_summary_from_finals(cfg, fills, fills_sq, q_fin, x_fin, s_fin))
    return summaries


def simulate_ensemble(cfg: SimConfig) -> SimSummary:
    """Aggregate cfg.n_paths independent paths.

    The trading curve at grid time t_m is q0 less the mean count of units
    sold at or before t_m.
    """
    return _ensembles([cfg])[0]


def simulate_policies(params: ModelParams, policies, q0: int, dt: float,
                      n_paths: int, seed: int, s0: float = 0.0):
    """Run several policies over the same draws (common random numbers).

    Returns one :class:`SimSummary` per policy, in order, each equal to
    :func:`simulate_ensemble` of that policy alone with the same seed.  Path
    i of every policy consumes the identical counter-based draws, so
    cross-policy comparisons are much tighter than independent runs; each
    draw is computed once per call, for all policies.  The settings and
    every policy are checked before any path is simulated; an empty list of
    policies is refused.
    """
    policies = list(policies)
    # the settings are checked even without a policy, on one that never fills
    cfgs = [SimConfig(params=params, q0=q0, dt=dt, n_paths=n_paths, seed=seed,
                      policy=pol, s0=s0) for pol in policies or [FixedQuote(math.inf)]]
    if not policies:
        raise ParameterError("policies must hold at least one policy")
    return _ensembles(cfgs)
