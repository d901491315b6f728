"""Monte Carlo engine: reproducibility contract, analytic oracles, and the
optimality of the solved quote surface."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from optliq import (FixedQuote, MarketOrderFallback, ModelParams,
                    OptimalSurface, ParameterError, SimConfig,
                    binf_trading_curve, quote_surface, simulate_ensemble,
                    simulate_path, simulate_policies, solve_grid, solve_w)
from optliq.model import QuoteSurface
import optliq.simulate as sim_module
from optliq.simulate import (_Draws, _exponentials, _grid_index, _HazardTable,
                             _normals, _path_keys, _simulate, _uniforms)
from tests.oracles import event_rule_path


@pytest.fixture(scope="module")
def ref_surface():
    return quote_surface(solve_grid(ModelParams(), 10_000))


@pytest.fixture(scope="module")
def dominance_runs(ref_surface):
    """Optimal policy vs every integer fixed quote in 0..15, shared noise."""
    p = ModelParams()
    policies = [OptimalSurface(ref_surface)] + [FixedQuote(float(d))
                                                for d in range(16)]
    return simulate_policies(p, policies, q0=6, dt=0.2, n_paths=20_000,
                             seed=2024)


def run_paths(cfg, paths):
    """Finals of the given path indices, simulated together."""
    return _simulate(cfg, _HazardTable(cfg.policy, cfg.params, cfg.q0),
                     _Draws(cfg.seed, paths, cfg.q0))[0]


def all_fills(cfg):
    """(path, time, price) arrays of every unit sold in an ensemble, and the
    ensemble's finals.  Fill round j sells, in path order, one unit of each
    path that sells more than j units."""
    finals, sales = _simulate(cfg, _HazardTable(cfg.policy, cfg.params, cfg.q0),
                              _Draws(cfg.seed, np.arange(cfg.n_paths), cfg.q0))
    sold = cfg.q0 - finals["q_final"]
    path_ids = np.concatenate([np.flatnonzero(sold > j) for j in range(len(sales))])
    t_fills, _, price = (np.concatenate(col) for col in zip(*sales))
    assert path_ids.size == t_fills.size
    return path_ids, t_fills, price, finals


class TestConfigValidation:
    def test_rejects_bad_configs(self, ref_surface):
        p = ModelParams()
        good = dict(params=p, q0=6, dt=1.0, n_paths=10, seed=0,
                    policy=FixedQuote(1.0))
        SimConfig(**good)
        for bad in (dict(q0=7), dict(q0=0), dict(dt=0.0), dict(dt=4.0),
                    dict(dt=0.7), dict(n_paths=0)):
            with pytest.raises(ParameterError):
                SimConfig(**{**good, **bad})

    @pytest.mark.parametrize("field,value,match", [
        ("s0", float("inf"), "s0 must be finite"),
        ("s0", float("nan"), "s0 must be finite"),
        ("q0", 2.5, "q0 must be an integer"),
        ("n_paths", 10.5, "n_paths must be an integer"),
        ("seed", 1.5, "seed must be an integer"),
    ])
    def test_refuses_setting_naming_it(self, field, value, match):
        good = dict(params=ModelParams(), q0=6, dt=1.0, n_paths=10, seed=0,
                    policy=FixedQuote(1.0))
        with pytest.raises(ParameterError, match=match):
            SimConfig(**{**good, field: value})

    def test_rejects_nan_policy_values(self, ref_surface):
        with pytest.raises(ParameterError, match="NaN"):
            FixedQuote(float("nan"))
        with pytest.raises(ParameterError, match="NaN"):
            MarketOrderFallback(ref_surface, threshold=float("nan"))
        # -inf would sell every unit at once for -inf
        with pytest.raises(ParameterError,
                           match="FixedQuote premium must not be NaN or -inf, got -inf"):
            FixedQuote(float("-inf"))
        # an infinite premium is valid and never fills
        cfg = SimConfig(params=ModelParams(), q0=6, dt=1.0, n_paths=100,
                        seed=0, policy=FixedQuote(float("inf")))
        assert simulate_ensemble(cfg).terminal_inventory_hist[6] == 100

    @pytest.mark.parametrize("changes,match", [
        (dict(q0=-5, dt=math.nan, n_paths=0, seed=1.5), "seed must be an integer"),
        (dict(q0=-5), r"q0 must be in 1\.\.6, got -5"),
        (dict(dt=math.nan), "dt must be > 0, got nan"),
        (dict(n_paths=0), "n_paths must be >= 1, got 0"),
        ({}, "policies must hold at least one policy"),
    ])
    def test_empty_policy_list_refused_naming_it(self, changes, match):
        good = dict(q0=6, dt=1.0, n_paths=10, seed=0)
        with pytest.raises(ParameterError, match=match):
            simulate_policies(ModelParams(), [], **{**good, **changes})

    def test_rejects_surface_not_covering_horizon(self, ref_surface):
        long_p = ModelParams(horizon=600.0)
        with pytest.raises(ParameterError, match="cover"):
            SimConfig(params=long_p, q0=6, dt=1.0, n_paths=10, seed=0,
                      policy=OptimalSurface(ref_surface))


class TestSinglePath:
    def test_prohibitive_quote_never_fills(self):
        p = ModelParams(mu=0.0, sigma=0.0)
        cfg = SimConfig(params=p, q0=6, dt=1.0, n_paths=1, seed=3,
                        policy=FixedQuote(1e6))
        path = simulate_path(cfg)
        assert path.inventory[-1] == 6
        assert path.cash[-1] == 0.0
        assert path.fills == []

    def test_same_seed_is_bit_identical(self, ref_surface):
        cfg = SimConfig(params=ModelParams(), q0=6, dt=0.5, n_paths=1,
                        seed=99, policy=OptimalSurface(ref_surface))
        a, b = simulate_path(cfg, 5), simulate_path(cfg, 5)
        assert np.array_equal(a.price, b.price)
        assert np.array_equal(a.inventory, b.inventory)
        assert np.array_equal(a.cash, b.cash)
        assert a.fills == b.fills

    def test_accounting_identities(self):
        # aggressive quoting drains the book fast; every unit sold shows up
        # once in cash
        p = ModelParams(mu=0.0, sigma=0.0)
        cfg = SimConfig(params=p, q0=3, dt=1.0, n_paths=1, seed=11,
                        policy=FixedQuote(-5.0))
        path = simulate_path(cfg)
        assert path.inventory[-1] == 0
        assert len(path.fills) == 3
        fill_times = np.array([t for t, _ in path.fills])
        assert np.array_equal(
            path.inventory,
            3 - np.searchsorted(fill_times, path.times, side="right"))
        assert np.min(path.inventory) == 0
        assert path.cash[-1] == pytest.approx(
            sum(px for _, px in path.fills), rel=1e-15)

    def test_overflowing_intensity_sells_at_once(self):
        # big_a exp(-k delta) overflows: every unit goes at t = 0 at s0 + delta
        p = ModelParams(mu=0.0, sigma=0.0)
        cfg = SimConfig(params=p, q0=3, dt=1.0, n_paths=1, seed=2,
                        policy=FixedQuote(-1e4), s0=5.0)
        path = simulate_path(cfg)
        assert path.fills == [(0.0, 5.0 - 1e4)] * 3
        assert path.market_order_count == 0
        assert np.all(path.inventory == 0)

    def test_grid_price_is_bridge_of_events(self):
        # the grid series is a Brownian bridge pinned at the exact prices of
        # the events, so it ends on the ensemble's s_final and its
        # increments are those of the price itself
        cfg = SimConfig(params=ModelParams(), q0=6, dt=0.5, n_paths=1,
                        seed=99, policy=FixedQuote(2.0))
        path = simulate_path(cfg, 3)
        ens = run_paths(cfg, [3])
        assert path.price[-1] == ens["s_final"][0]
        assert path.price[0] == 0.0
        increments = np.diff(path.price)
        # increments of a Brownian motion at sigma = 0.3 over 0.5 s
        assert abs(np.std(increments) - 0.3 * np.sqrt(0.5)) < 0.05

    @pytest.mark.parametrize("index,match", [
        (1.5, "path_index must be an integer"),
        (np.float64(2.0), "path_index must be an integer"),
        ("3", "path_index must be an integer"),
        (-1, r"path_index must be in \[0, 2\*\*64\), got -1"),
        (2 ** 64, r"path_index must be in \[0, 2\*\*64\), got 18446744073709551616"),
    ])
    def test_refuses_bad_path_index_naming_it(self, index, match):
        cfg = SimConfig(params=ModelParams(), q0=6, dt=1.0, n_paths=1, seed=0,
                        policy=FixedQuote(2.0))
        with pytest.raises(ParameterError, match=match):
            simulate_path(cfg, index)

    def test_last_path_index_simulates(self):
        cfg = SimConfig(params=ModelParams(), q0=6, dt=1.0, n_paths=1, seed=0,
                        policy=FixedQuote(2.0))
        last = run_paths(cfg, [2 ** 64 - 1])
        for index in (2 ** 64 - 1, np.uint64(2 ** 64 - 1)):
            path = simulate_path(cfg, index)
            assert path.inventory[-1] == last["q_final"][0]
            assert path.cash[-1] == last["x_final"][0]

    def test_no_fills_after_inventory_exhausted(self):
        p = ModelParams(mu=0.0, sigma=0.0)
        cfg = SimConfig(params=p, q0=2, dt=1.0, n_paths=1, seed=4,
                        policy=FixedQuote(-5.0))
        path = simulate_path(cfg)
        exhausted = np.argmin(path.inventory)  # first index at zero
        assert path.inventory[exhausted] == 0
        assert all(t <= path.times[exhausted] for t, _ in path.fills)


class TestEnsembleContract:
    def test_members_match_standalone_paths(self, ref_surface):
        cfg = SimConfig(params=ModelParams(), q0=6, dt=0.5, n_paths=200,
                        seed=77, policy=OptimalSurface(ref_surface))
        res = run_paths(cfg, range(200))
        for index in (0, 7, 199):
            path = simulate_path(cfg, index)
            assert path.inventory[-1] == res["q_final"][index]
            assert path.cash[-1] == res["x_final"][index]
            assert path.price[-1] == res["s_final"][index]

    def test_results_independent_of_batch_split(self, ref_surface):
        cfg = SimConfig(params=ModelParams(), q0=6, dt=0.5, n_paths=100,
                        seed=5, policy=OptimalSurface(ref_surface))
        whole = run_paths(cfg, range(100))
        parts = [run_paths(cfg, range(0, 37)), run_paths(cfg, range(37, 100))]
        for key in ("x_final", "q_final", "s_final", "market_orders"):
            assert np.array_equal(whole[key],
                                  np.concatenate([p[key] for p in parts]))

    def test_martingale_at_zero_drift(self):
        cfg = SimConfig(params=ModelParams(), q0=1, dt=1.0, n_paths=20_000,
                        seed=8, policy=FixedQuote(1e6), s0=100.0)
        summary = simulate_ensemble(cfg)
        drift = summary.price_terminal_mean - 100.0
        assert abs(drift) < 3 * summary.price_terminal_stderr

    def test_curve_starts_at_q0_and_declines(self, dominance_runs):
        curve = dominance_runs[0].trading_curve
        assert curve.expected_inventory[0] == 6.0
        assert np.all(np.diff(curve.expected_inventory) <= 1e-12)


class TestSharedDraws:
    """simulate_policies computes each draw once for all its policies."""

    @staticmethod
    def summary_fields(s):
        return (s.trading_curve.times, s.trading_curve.expected_inventory,
                s.mc_stderr_curve, s.pnl_mean, s.pnl_std, s.utility_mean,
                s.utility_stderr, s.terminal_inventory_hist,
                s.price_terminal_mean, s.price_terminal_stderr)

    def test_each_policy_equals_its_ensemble_alone(self, monkeypatch):
        p = ModelParams(sigma=3.0)
        surface = quote_surface(solve_grid(p, 5000))
        policies = [OptimalSurface(surface), FixedQuote(0.0),
                    FixedQuote(float("inf")), MarketOrderFallback(surface, 0.0)]
        alone = [simulate_ensemble(SimConfig(params=p, q0=6, dt=0.5,
                                             n_paths=2500, seed=17, policy=pol))
                 for pol in policies]
        # three blocks of 7000 // 7 = 1000 path-rounds' worth of paths,
        # the last holding 500, each read by all four policies
        monkeypatch.setattr(sim_module, "_CHUNK", 7000)
        runs = simulate_policies(p, policies, q0=6, dt=0.5, n_paths=2500,
                                 seed=17)
        for run, single in zip(runs, alone):
            assert run.config == single.config
            for got, want in zip(self.summary_fields(run),
                                 self.summary_fields(single)):
                if isinstance(got, np.ndarray):
                    assert np.array_equal(got, want)
                else:
                    assert got == want

    # at q0 = 6 a block holds _CHUNK // 7 paths: 1-path blocks, and 3-path
    # blocks whose last holds 1 of the 10 paths
    @pytest.mark.parametrize("chunk", [1, 21])
    def test_results_independent_of_block_size(self, monkeypatch, ref_surface,
                                               chunk):
        p = ModelParams()
        policies = [OptimalSurface(ref_surface), FixedQuote(2.0),
                    MarketOrderFallback(ref_surface, 5.0)]
        whole = simulate_policies(p, policies, q0=6, dt=0.5, n_paths=10, seed=3)
        monkeypatch.setattr(sim_module, "_CHUNK", chunk)
        blocks = simulate_policies(p, policies, q0=6, dt=0.5, n_paths=10, seed=3)
        alone = simulate_ensemble(whole[0].config)
        for run, want in [*zip(blocks, whole), (alone, whole[0])]:
            for got, field in zip(self.summary_fields(run),
                                  self.summary_fields(want)):
                if isinstance(got, np.ndarray):
                    assert np.array_equal(got, field)
                else:
                    assert got == field

    @pytest.mark.parametrize("bad", ["small_surface", "unknown_policy"])
    def test_bad_last_policy_refused_before_any_path(self, monkeypatch,
                                                     ref_surface, bad):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return _simulate(*args, **kwargs)

        monkeypatch.setattr(sim_module, "_simulate", counting)
        last = (OptimalSurface(quote_surface(solve_grid(ModelParams(q_max=3), 1000)))
                if bad == "small_surface" else "optimal")
        policies = ([OptimalSurface(ref_surface)]
                    + [FixedQuote(float(d)) for d in range(15)] + [last])
        with pytest.raises(ParameterError):
            simulate_policies(ModelParams(), policies, q0=6, dt=0.5,
                              n_paths=100, seed=1)
        assert calls == []


# premiums that overflow the rate (-1e4), never fill (1e6, inf) or sit in
# between, for fixed quotes and surface entries alike
_PREMIUMS = st.sampled_from([-1e4, -5.0, 0.0, 1.5, 4.0, 8.0, 1e6, math.inf]) \
    | st.floats(-10.0, 30.0)
_T = 300.0


def _surface_config(values, times, threshold, q0, **changes):
    """A run on the surface ``values`` (rows at ``times``), as a fallback
    to market orders below ``threshold``, or optimal if that is None."""
    p = ModelParams(q_max=len(values[0]), **changes)
    surface = QuoteSurface(np.array(times), np.array(values), p)
    policy = (OptimalSurface(surface) if threshold is None
              else MarketOrderFallback(surface, threshold))
    return SimConfig(params=p, q0=q0, dt=_T / 100, n_paths=200, seed=7,
                     policy=policy)


@st.composite
def _rule_configs(draw):
    q_max = draw(st.integers(1, 4))
    p = ModelParams(mu=draw(st.sampled_from([0.0, -0.02, 0.02])),
                    sigma=draw(st.sampled_from([0.0, 0.3, 3.0])),
                    big_a=draw(st.floats(0.05, 1.0)), k=draw(st.floats(0.1, 1.0)),
                    q_max=q_max)
    kind = draw(st.sampled_from(["fixed", "optimal", "fallback"]))
    if kind == "fixed":
        policy = FixedQuote(draw(_PREMIUMS))
    else:
        inner = sorted(set(draw(st.lists(st.floats(1.0, _T - 1.0), max_size=6))))
        # the first node is held from 0; a node at T, past T only, or a hair
        # below T is never held
        last = draw(st.sampled_from([[_T], [_T, 2 * _T], [1.5 * _T],
                                     [_T * (1 - 1e-13)]]))
        times = [draw(st.sampled_from([0.0, 0.5]))] + inner + last
        rows = st.lists(_PREMIUMS, min_size=q_max, max_size=q_max)
        values = draw(st.lists(rows, min_size=len(times), max_size=len(times)))
        surface = QuoteSurface(np.array(times), np.array(values), p)
        policy = (OptimalSurface(surface) if kind == "optimal" else
                  MarketOrderFallback(surface, draw(
                      st.sampled_from([0.0, 5.0, -1e3]) | st.floats(-10.0, 10.0))))
    return SimConfig(params=p, q0=draw(st.integers(1, q_max)), dt=_T / 100,
                     n_paths=200, seed=draw(st.integers(0, 2 ** 32)),
                     policy=policy)


class TestEventRuleOracle:
    """The vectorised fill rounds against a plain loop of the event rule
    per path (:func:`tests.oracles.event_rule_path`) on the same draws."""

    @given(cfg=_rule_configs())
    # a fallback threshold crossed at t = 100 and uncrossed at t = 200, at
    # q0 = 2 < q_max
    @example(cfg=_surface_config([[6.0, 4.0, 3.0], [-2.0, 1.0, -3.0],
                                  [5.0, 3.0, 2.0], [1.0, 1.0, 1.0]],
                                 [0.0, 100.0, 200.0, _T], 0.0, q0=2, sigma=3.0))
    # no node at T; the rate overflows on [0, 50) at q = 1
    @example(cfg=_surface_config([[-1e4, 2.0], [3.0, 1e6], [8.0, 8.0]],
                                 [0.0, 50.0, 1.5 * _T], None, q0=2))
    @example(cfg=SimConfig(params=ModelParams(sigma=3.0), q0=6, dt=1.0, n_paths=200,
                           seed=1, policy=FixedQuote(-1e4)))
    @example(cfg=SimConfig(params=ModelParams(), q0=6, dt=1.0, n_paths=200,
                           seed=1, policy=FixedQuote(math.inf)))
    @settings(max_examples=150, deadline=None)
    def test_finals_and_sales_match(self, cfg):
        draws = _Draws(cfg.seed, np.arange(cfg.n_paths), cfg.q0)
        got, rounds = _simulate(cfg, _HazardTable(cfg.policy, cfg.params, cfg.q0), draws)
        # round j sells, in path order, one unit of each path selling > j
        sold = cfg.q0 - got["q_final"]
        sales = [[] for _ in range(cfg.n_paths)]
        for j, (tau, _, price) in enumerate(rounds):
            for path, t, px in zip(np.flatnonzero(sold > j), tau, price):
                sales[path].append((t, px))
        for path in range(cfg.n_paths):
            want = event_rule_path(cfg, draws.exponentials[:, path],
                                   draws.normals[:, path])
            assert got["q_final"][path] == want["q_final"]
            assert got["market_orders"][path] == want["market_orders"]
            assert len(sales[path]) == len(want["sales"])
            # cash and price are sums: relative to the size of their terms
            scale = abs(cfg.s0) + sum(abs(px) for _, px in want["sales"])
            for (t, px), (t_want, px_want) in zip(sales[path], want["sales"]):
                assert t == pytest.approx(t_want, rel=1e-12, abs=0.0)
                assert px == pytest.approx(px_want, rel=1e-12, abs=1e-12 * scale)
            for key in ("x_final", "s_final"):
                assert got[key][path] == pytest.approx(
                    want[key], rel=1e-12, abs=1e-12 * (scale + abs(want["s_final"])))


class TestGridIndex:
    @given(horizon=st.floats(1.0, 1e5), n=st.integers(100, 20_000),
           shrink=st.floats(0.0, 1e-10),
           extra=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20))
    @example(horizon=300.0, n=281, shrink=0.0, extra=[])
    @example(horizon=300.0, n=3000, shrink=1e-12, extra=[1 - 1e-13])
    @settings(max_examples=200, deadline=None)
    def test_matches_searchsorted(self, horizon, n, shrink, extra):
        # dt may fall short of horizon / n by up to 1e-9 relative (SimConfig
        # allows that), so the last node can lie below T; a time past it
        # counts at the last node
        dt = horizon / n * (1 - shrink)
        grid = np.arange(n + 1) * dt
        tau = np.concatenate([grid, np.nextafter(grid, -np.inf),
                              np.nextafter(grid, np.inf),
                              [0.0, np.nextafter(horizon, 0.0)],
                              np.asarray(extra) * horizon])
        tau = tau[(tau >= 0.0) & (tau < horizon)]
        want = np.minimum(np.searchsorted(grid, tau), n)
        assert np.array_equal(_grid_index(grid, dt, tau), want)

    def test_fill_past_last_node_counts_there(self, monkeypatch):
        # dt = 0.1 (1 - 1e-12) puts the last of its 3001 nodes 3e-10 below
        # T; at rate A e^0 = 1 a fill lands at its exponential, so round 0
        # sells every path's first unit between that node and T
        p = ModelParams(big_a=1.0)
        cfg = SimConfig(params=p, q0=6, dt=0.1 * (1 - 1e-12), n_paths=50,
                        seed=1, policy=FixedQuote(0.0))
        gap_time = p.horizon - 1e-10
        assert cfg.grid[-1] < gap_time
        # round 0's exponential (draw 0) is gap_time, every later one 1e9
        monkeypatch.setattr(
            sim_module, "_exponentials",
            lambda keys, draw: np.where(draw == 0, gap_time, 1e9) + np.zeros(keys.size))
        summary = simulate_ensemble(cfg)
        assert summary.terminal_inventory_hist[5] == 50
        assert summary.trading_curve.expected_inventory[-1] == 5.0
        assert summary.trading_curve.expected_inventory[-2] == 6.0
        path = simulate_path(cfg, 3)
        assert path.fills[0][0] == gap_time
        assert path.inventory[-1] == 5


class TestCounterStreams:
    """The counter-based draws behave as independent uniforms."""

    @staticmethod
    def ks_statistic(u):
        u = np.sort(u)
        n = u.size
        grid = np.arange(1, n + 1) / n
        return max(np.max(grid - u), np.max(u - (grid - 1.0 / n)))

    @pytest.mark.parametrize("seed", [0, 1, 2**40 + 7])
    def test_uniform_moments_and_ks(self, seed):
        # 1000 paths x 1000 draws; the 1% critical KS value is 1.63/sqrt(n)
        keys = _path_keys(seed, np.arange(1000))
        u = _uniforms(keys[:, None], np.arange(1000, dtype=np.uint64)).ravel()
        n = u.size
        assert u.min() > 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 5 * np.sqrt(1 / 12 / n)
        assert abs(u.var() - 1 / 12) < 5 * np.sqrt(1 / 180 / n)
        assert self.ks_statistic(u) < 1.63 / np.sqrt(n)

    def test_independent_across_paths_draws_and_seeds(self):
        # the same draw on neighbouring paths, neighbouring draws on one
        # path, and the same (path, draw) under neighbouring seeds
        draws = np.arange(1000, dtype=np.uint64)
        a = _uniforms(_path_keys(5, np.arange(1000))[:, None], draws)
        b = _uniforms(_path_keys(6, np.arange(1000))[:, None], draws)
        bound = 5 / np.sqrt(a.size)
        pairs = [(a[:-1], a[1:]), (a[:, :-1], a[:, 1:]), (a, b)]
        for x, y in pairs:
            assert abs(np.corrcoef(x.ravel(), y.ravel())[0, 1]) < bound
        # the difference of two independent uniforms is triangular, so
        # |a - b| is distributed as 1 - sqrt(1 - v) for v uniform
        d = np.abs(a - b).ravel()
        assert self.ks_statistic(1 - (1 - d) ** 2) < 1.63 / np.sqrt(d.size)

    def test_block_draws_match_the_streams(self):
        # round j of a block: exponential from draw 3j, normal from draws
        # 3j+1 and 3j+2, bit for bit as each path's own stream gives them
        paths = np.array([0, 1, 7, 2 ** 64 - 1], dtype=np.uint64)
        draws = _Draws(9, paths, 4)
        keys = _path_keys(9, paths)
        assert draws.exponentials.shape == (4, 4) and draws.normals.shape == (5, 4)
        for j in range(4):
            assert np.array_equal(draws.exponentials[j], _exponentials(keys, 3 * j))
        for j in range(5):
            assert np.array_equal(draws.normals[j], _normals(keys, 3 * j + 1))
        for i, path in enumerate(paths):
            alone = _Draws(9, [path], 4)
            assert alone.exponentials[3, 0] == draws.exponentials[3, i]
            assert alone.normals[4, 0] == draws.normals[4, i]

    def test_normals_have_gaussian_moments(self):
        keys = _path_keys(11, np.arange(1000))
        z = _normals(keys[:, None], 2 * np.arange(500, dtype=np.uint64)).ravel()
        n = z.size
        assert abs(z.mean()) < 5 / np.sqrt(n)
        assert abs(z.var() - 1.0) < 5 * np.sqrt(2 / n)
        assert abs(np.mean(z ** 4) - 3.0) < 5 * np.sqrt(96 / n)


class TestUtilityOracle:
    @pytest.mark.parametrize("changes", [
        dict(), dict(mu=0.01), dict(sigma=0.6), dict(gamma=0.01), dict(b=20.0),
    ])
    def test_optimal_policy_attains_hjb_value(self, changes):
        # under the optimal policy the expected CARA utility from (0, x0,
        # q0, s0) is the value function -exp(-gamma (x0 + q0 s0))
        # w_q0(0)^(-gamma/k); x0 = s0 = 0 here
        p = ModelParams(**changes)
        surface = quote_surface(solve_grid(p, 10_000))
        cfg = SimConfig(params=p, q0=6, dt=0.1, n_paths=200_000, seed=2718,
                        policy=OptimalSurface(surface))
        summary = simulate_ensemble(cfg)
        value = -solve_w(p).evaluate_at(0.0)[6] ** (-p.gamma / p.k)
        assert abs(summary.utility_mean - value) <= 3 * summary.utility_stderr


class TestPoissonOracle:
    def test_interfill_times_match_constant_rate(self):
        # at a pinned premium the fills are a Poisson stream of rate
        # big_a exp(-k delta) while inventory remains; with q0 = 6 the
        # inventory is gone long before T, so horizon censoring of the
        # completed gaps is negligible
        p = ModelParams(mu=0.0, sigma=0.0)
        delta = 1.0
        lam = p.big_a * np.exp(-p.k * delta)
        cfg = SimConfig(params=p, q0=6, dt=0.05, n_paths=20_000, seed=314,
                        policy=FixedQuote(delta))
        path_ids, t_fills, _, _ = all_fills(cfg)
        order = np.lexsort((t_fills, path_ids))
        path_ids, t_fills = path_ids[order], t_fills[order]
        same_path = path_ids[1:] == path_ids[:-1]
        gaps = np.diff(t_fills)[same_path]
        assert gaps.size > 80_000
        stderr = gaps.std() / np.sqrt(gaps.size)
        assert abs(gaps.mean() - 1.0 / lam) < 3 * stderr

    def test_fill_count_capped_by_inventory(self):
        p = ModelParams(mu=0.0, sigma=0.0)
        cfg = SimConfig(params=p, q0=4, dt=0.1, n_paths=2000, seed=6,
                        policy=FixedQuote(-10.0))
        path_ids, _, _, _ = all_fills(cfg)
        counts = np.bincount(path_ids, minlength=2000)
        assert np.all(counts == 4)


class TestTradingCurveOracle:
    def test_matches_forced_liquidation_curve(self):
        p = ModelParams(mu=0.0, sigma=0.0, b=50.0)
        surface = quote_surface(solve_grid(p, 10_000))
        cfg = SimConfig(params=p, q0=6, dt=0.1, n_paths=20_000, seed=123,
                        policy=OptimalSurface(surface))
        summary = simulate_ensemble(cfg)
        checkpoints = np.linspace(15.0, 285.0, 20)
        idx = np.searchsorted(summary.trading_curve.times, checkpoints)
        oracle = binf_trading_curve(p, 6, summary.trading_curve.times[idx]).expected_inventory
        got = summary.trading_curve.expected_inventory[idx]
        stderr = summary.mc_stderr_curve[idx]
        assert np.all(np.abs(got - oracle) <= 3 * stderr)

    def test_curve_independent_of_fill_scale(self):
        curves = {}
        for big_a in (0.05, 0.15):
            p = ModelParams(mu=0.0, sigma=0.0, big_a=big_a, b=50.0)
            surface = quote_surface(solve_grid(p, 10_000))
            cfg = SimConfig(params=p, q0=6, dt=0.1, n_paths=20_000, seed=123,
                            policy=OptimalSurface(surface))
            curves[big_a] = simulate_ensemble(cfg)
        idx = np.arange(150, 3001, 150)
        diff = (curves[0.05].trading_curve.expected_inventory[idx]
                - curves[0.15].trading_curve.expected_inventory[idx])
        combined = np.sqrt(curves[0.05].mc_stderr_curve[idx] ** 2
                           + curves[0.15].mc_stderr_curve[idx] ** 2)
        assert np.all(np.abs(diff) <= 3 * combined)

    def test_curve_at_shared_grid_times_independent_of_dt(self):
        # dt only sets the reporting grid: the events are exact in time, so
        # the curve and its stderr at the times both grids share are the
        # same numbers
        p = ModelParams()
        surface = quote_surface(solve_grid(p, 10_000))
        results = {}
        for dt in (0.05, 0.025):
            cfg = SimConfig(params=p, q0=6, dt=dt, n_paths=10_000, seed=55,
                            policy=OptimalSurface(surface))
            results[dt] = simulate_ensemble(cfg)
        coarse, fine = results[0.05], results[0.025]
        assert np.array_equal(coarse.trading_curve.times,
                              fine.trading_curve.times[::2])
        assert np.array_equal(coarse.trading_curve.expected_inventory,
                              fine.trading_curve.expected_inventory[::2])
        assert np.array_equal(coarse.mc_stderr_curve, fine.mc_stderr_curve[::2])
        assert coarse.utility_mean == fine.utility_mean


class TestOptimalityDominance:
    def test_solved_surface_beats_fixed_quotes(self, dominance_runs):
        opt, fixed = dominance_runs[0], dominance_runs[1:]
        for run in fixed:
            combined = np.sqrt(opt.utility_stderr ** 2
                               + run.utility_stderr ** 2)
            assert opt.utility_mean >= run.utility_mean - 2 * combined

    @pytest.mark.parametrize("changes", [
        dict(gamma=0.01), dict(big_a=0.15, k=0.2), dict(sigma=0.6),
    ])
    def test_dominance_across_parameter_fixtures(self, changes):
        p = ModelParams(**changes)
        surface = quote_surface(solve_grid(p, 10_000))
        policies = [OptimalSurface(surface)] + [FixedQuote(float(d))
                                                for d in range(16)]
        runs = simulate_policies(p, policies, q0=6, dt=0.25, n_paths=10_000,
                                 seed=31415)
        opt = runs[0]
        for run in runs[1:]:
            combined = np.sqrt(opt.utility_stderr ** 2
                               + run.utility_stderr ** 2)
            assert opt.utility_mean >= run.utility_mean - 2 * combined

    def test_incomplete_liquidation_is_typical(self, dominance_runs):
        # with a mild terminal discount some inventory usually survives
        hist = dominance_runs[0].terminal_inventory_hist
        n = dominance_runs[0].config.n_paths
        mean_q_final = sum(q * c for q, c in hist.items()) / n
        assert mean_q_final > 0.05


class TestMarketOrderFallback:
    def test_fallback_sells_at_reference_price(self):
        # without price risk the reference price stays at s0, so a market
        # order settles at exactly s0 and a limit fill at s0 + delta >= s0
        p = ModelParams(mu=0.0, sigma=0.0, b=50.0)
        surface = quote_surface(solve_grid(p, 5000))
        cfg = SimConfig(params=p, q0=6, dt=0.5, n_paths=2000, seed=21,
                        policy=MarketOrderFallback(surface, threshold=0.0),
                        s0=100.0)
        path_ids, _, price, finals = all_fills(cfg)
        market = finals["market_orders"]
        assert market.any()
        assert np.all(price >= 100.0)
        # each path has as many fills at exactly s0 as market orders
        assert np.array_equal(np.bincount(path_ids[price == 100.0], minlength=2000), market)

    def test_fallback_accelerates_liquidation(self):
        p = ModelParams(sigma=3.0)
        surface = quote_surface(solve_grid(p, 5000))
        runs = simulate_policies(
            p, [OptimalSurface(surface), MarketOrderFallback(surface, 0.0)],
            q0=6, dt=0.5, n_paths=4000, seed=17)
        q_plain = runs[0].trading_curve.expected_inventory[-1]
        q_fallback = runs[1].trading_curve.expected_inventory[-1]
        assert q_fallback <= q_plain

    # q0 = q_max = 1 and a single held node make the held block of the
    # surface's values contiguous once transposed, so that a table built
    # on a view of it would zero the market orders in the surface itself
    @pytest.mark.parametrize("q0,times,values", [
        (1, [0.0, 100.0, 200.0, _T], [[4.0], [-2.0], [3.0], [1.0]]),
        (3, [0.0, _T], [[-1.0, 2.0, -3.0], [1.0, 1.0, 1.0]]),
        (1, [_T], [[-1.0]]),
        (2, [0.0, 100.0, _T], [[6.0, -4.0, 3.0], [-2.0, 1.0, -3.0],
                                [1.0, 1.0, 1.0]]),
    ])
    def test_simulations_leave_surface_unchanged(self, q0, times, values):
        # the threshold of 0 is crossed at every surface, so the tables of
        # the fallback hold market orders
        p = ModelParams(sigma=3.0, q_max=len(values[0]))
        surface = QuoteSurface(np.array(times), np.array(values), p)
        want = surface.values.copy()
        policies = [MarketOrderFallback(surface, 0.0), OptimalSurface(surface)]
        runs = simulate_policies(p, policies, q0=q0, dt=_T / 100, n_paths=50,
                                 seed=4)
        assert runs[0].terminal_inventory_hist[0] == 50
        for policy in policies:
            cfg = SimConfig(params=p, q0=q0, dt=_T / 100, n_paths=50, seed=4,
                            policy=policy)
            simulate_ensemble(cfg)
            simulate_path(cfg, 1)
        assert np.array_equal(surface.values, want)


class TestExports:
    def test_curve_csv_and_stats_json(self, tmp_path, dominance_runs):
        summary = dominance_runs[0]
        curve = tmp_path / "curve.csv"
        summary.curve_to_csv(curve)
        lines = curve.read_text().splitlines()
        assert lines[0] == "t,mean_q,stderr"
        assert len(lines) == summary.trading_curve.times.size + 1
        stats = summary.stats_json_dict()
        assert set(stats) >= {"pnl_mean", "pnl_std", "utility_mean",
                              "terminal_inventory_hist", "n_paths"}

    def test_events_csv(self, tmp_path):
        p = ModelParams(mu=0.0, sigma=0.0)
        cfg = SimConfig(params=p, q0=2, dt=1.0, n_paths=1, seed=11,
                        policy=FixedQuote(-5.0))
        path = simulate_path(cfg)
        out = tmp_path / "events.csv"
        path.to_events_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,price,event"
        assert len(lines) == len(path.fills) + 1
