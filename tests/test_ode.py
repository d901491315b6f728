"""The exact propagator against the Runge-Kutta and quadrature oracles,
``scipy.linalg.expm``, a 60-digit ``mpmath`` eigen-expansion and the
closed forms; convergence orders, w beyond the double range and export
schemas."""

import csv
import math
import re
import time
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from optliq import (ModelParams, ParameterError, hjb_residual, quote_from_w,
                    quote_surface, run_backtest, solve_grid, solve_w, terminal_quote)
from optliq.closed_forms import asymptotic_quote, binf_w, nodrift_novol_quote
from optliq.model import DerivedCoefficients, derive_coefficients
from optliq.ode import (_LIFT, _WINDOW, _Walk, _level_one_state, _propagator, _quotes,
                        _terminal_state)
from tests.conftest import (HIGH_VOL_K_SWEEP, REFERENCE_QUOTES_T0,
                            SWEEP_QUOTES_T0, TABLE_TOL, q1_asymptote_gap,
                            two_bucket_episode)
from tests.oracles import (OracleFailure, assert_quote_surface, assert_w_grid,
                           mp_log_w, nodrift_novol_w, solve_quadrature, solve_rk,
                           system_matrix, walk_profile, walk_reach)

N = 10_000


def max_rel(a, b):
    mask = b != 0
    return float(np.max(np.abs(a[mask] - b[mask]) / np.abs(b[mask])))


def log_w(grid, rows=slice(None)):
    """ln w of a grid's rows, from its mantissas and exponents."""
    index = np.arange(grid.times.size)[rows]
    segment = np.searchsorted(grid.breaks, index, side="right") - 1
    return np.log(grid.values[rows]) + grid.exponents[segment] * math.log(2.0)


def expm_log_w(p, t):
    """ln w(t), w(t) = expm(-(T - t) M) w(T), from scipy's Pade
    approximant, independent of the Taylor propagator in optliq.ode.

    scipy's expm is accurate relative to the norm of its argument, not
    entry by entry, and w_q(t) can be carried by entries far below that
    norm (short horizons with large b).  So each level q is taken from the
    leading block of levels 0..q, which the lower-triangular system
    decouples, under the similarity diag(rho^j) with
    rho = min(exp(k b), q / (tau eta)): that lifts the entries carrying
    w_q(t) to the top of the scaled exponential without inflating its norm.
    scipy squares triangular input with a divided difference that cancels
    for nearly equal eigenvalues, so it only gets blocks small enough to
    need no squaring; the squarings are done here, with the exact diagonal
    reset after each.  Growing levels (mu > 0) are shifted down first, and
    the shift is added back to the log.
    """
    tau = p.horizon - t
    a = -tau * system_matrix(p)
    w = np.empty(p.q_max + 1)
    w[0] = 0.0
    for q in range(1, p.q_max + 1):
        eta_tau = a[1, 0]
        rho = math.exp(min(p.k * p.b, math.log(q / eta_tau))) if eta_tau > 0 else 1.0
        block = a[:q + 1, :q + 1].copy()
        block[np.arange(1, q + 1), np.arange(q)] *= rho
        shift = max(0.0, float(np.diag(block).max()))
        block[np.diag_indices(q + 1)] -= shift
        norm = np.abs(block).sum(axis=0).max()
        s = max(0, math.ceil(math.log2(norm))) if norm > 0 else 0
        f = expm(block / 2.0 ** s)
        on_diag = np.diag_indices(q + 1)
        for i in range(s - 1, -1, -1):
            f = f @ f
            f[on_diag] = np.exp(np.diag(block) / 2.0 ** i)
        with np.errstate(divide="ignore"):  # entries below the double range
            log_terms = (np.log(f[q]) + (np.arange(q + 1) - q) * math.log(rho)
                         - p.k * p.b * np.arange(q + 1))
        top = log_terms.max()
        w[q] = top + math.log(np.sum(np.exp(log_terms - top))) + shift
    return w


# q_max = 1 parameter sets: with b = 3000 and k = 0.4, w_1(T) = e^-1200 is
# below the double range, and with mu > 0, w_1(0) grows above it
LEVEL_ONE_CASES = [
    {},
    {"gamma": 1e-6},
    {"gamma": 100.0},
    {"mu": 0.05, "k": 0.4, "horizon": 86400.0, "b": 3000.0},
    {"mu": 0.2, "k": 0.4, "horizon": 86400.0, "b": 3000.0},
    {"mu": 0.2, "k": 0.4, "horizon": 86400.0, "b": 3000.0, "gamma": 1e-6},
    {"mu": -0.05, "k": 0.4, "horizon": 86400.0, "b": 3000.0, "gamma": 100.0},
]


def level_one_gap(got, exact):
    """|got - exact| in units of 1e-14 Ticks, relative for quotes beyond one
    Tick, whose doubles are spaced wider than that."""
    return np.max(np.abs(np.subtract(got, exact)) / np.maximum(1.0, np.abs(exact))) / 1e-14


def closed_form_grid(p, times):
    values = np.empty((times.size, p.q_max + 1))
    for q in range(p.q_max + 1):
        values[:, q] = [nodrift_novol_w(p, t, q) for t in times]
    return values


class TestSolveRK:
    def test_matches_polynomial_closed_form(self, nodrift_params):
        grid = solve_rk(nodrift_params, N)
        sub = slice(None, None, 500)
        oracle = closed_form_grid(nodrift_params, grid.times[sub])
        assert max_rel(grid.values[sub], oracle) < 1e-8

    def test_zero_inventory_row_is_one(self, ref_params):
        grid = solve_rk(ref_params, 500)
        assert np.all(grid.values[:, 0] == 1.0)

    def test_reference_first_quote(self, ref_params):
        grid = solve_rk(ref_params, N)
        surface = quote_surface(grid)
        assert surface.values[0, 0] == pytest.approx(10.6095, abs=TABLE_TOL)

    def test_coarse_step_raises_naming_location(self):
        with pytest.raises(OracleFailure, match=r"t=.*q="):
            solve_rk(ModelParams(sigma=3.0), n_steps=2)

    def test_rejects_bad_step_count(self, ref_params):
        with pytest.raises(ParameterError):
            solve_rk(ref_params, 0)

    def test_invariants_hold(self, ref_params):
        assert_w_grid(solve_rk(ref_params, 2000))


class TestSolveSpectral:
    """:func:`solve_w`, the exact propagator (also exported as
    ``solve_spectral``)."""

    def test_matches_rk(self, ref_params):
        ref = solve_rk(ref_params, N)
        spec = solve_w(ref_params).to_wgrid(N)
        assert max_rel(spec.values, ref.values) < 1e-6

    def test_reconstructs_terminal_vector(self, ref_params):
        dec = solve_w(ref_params)
        term = np.exp(-ref_params.k * ref_params.b * np.arange(7))
        assert np.max(np.abs(dec.evaluate_at(ref_params.horizon) - term)) < 1e-12

    def test_resonant_drift_matches_expm(self):
        # beta = 3 alpha makes levels 2 and 1 share an eigenvalue
        alpha = derive_coefficients(ModelParams()).alpha
        p = ModelParams(mu=3 * alpha / 0.3)
        got = solve_w(p).evaluate_at(0.0)
        assert np.max(np.abs(np.log(got) - expm_log_w(p, 0.0))) < 1e-10

    def test_fully_degenerate_when_no_price_risk(self, nodrift_params):
        # mu = sigma = 0: every eigenvalue is zero
        grid = solve_grid(nodrift_params, 1000)
        oracle = closed_form_grid(nodrift_params, grid.times[::100])
        assert max_rel(grid.values[::100], oracle) < 1e-12

    def test_in_range_grid_carries_no_exponents(self, ref_params):
        # where w stays a normal double, the mantissas are w itself
        grid = solve_grid(ref_params, 1000)
        assert np.array_equal(grid.breaks, [0])
        assert np.all(grid.exponents == 0)
        assert np.array_equal(grid.doubles(), grid.values)

    @pytest.mark.parametrize("changes", [{}, {"horizon": 7200.0},
                                         {"b": 20.0, "horizon": 7200.0},
                                         {"sigma": 3.0, "k": 0.2}])
    def test_in_range_grid_is_one_doubling_walk(self, changes):
        # segments that keep their exponents go on with one doubling, so the
        # grid is the doubling walk of one profile from w(T), bit for bit:
        # node j, 2^k <= j < 2^(k+1), counted back from T, is E^(2^k) times
        # node j - 2^k, each square with its exact diagonal.  At this size
        # BLAS gives a row the same bits in a product of any height above
        # one, so one product per doubling stands for the grid's products
        p = ModelParams(**changes)
        grid = solve_grid(p, N)
        assert np.array_equal(grid.breaks, [0])
        walk, n, h = _Walk(p), p.q_max + 1, p.horizon / N
        power = _propagator(walk.lam, walk.eta, h, np.zeros(n, dtype=np.int64))
        back = np.empty((N + 1, n))
        back[0] = np.exp(-p.k * p.b * np.arange(n))
        shift = 1
        while shift <= N:
            m = min(shift, N + 1 - shift)
            back[shift:shift + m] = back[:m] @ power.T
            shift *= 2
            power = power @ power
            np.fill_diagonal(power, np.exp(-(h * shift) * walk.lam))
        assert np.array_equal(grid.values, back[::-1])

    def test_zero_eigenvalue_mode_is_constant(self, ref_params):
        dec = solve_w(ref_params)
        assert dec.evaluate_at(0.0)[0] == 1.0
        assert np.all(dec.to_wgrid(100).values[:, 0] == 1.0)

    @pytest.mark.parametrize("time_left", [1.0, 5.0])
    def test_near_deadline_point_matches_expm(self, time_left):
        # the re-quote parameters of a tape replay with a small calibrated
        # gamma; an eigen-expansion loses ~1 Tick here at q = 10
        p = ModelParams(mu=0.0, sigma=0.3, big_a=0.2, k=0.3, gamma=0.02,
                        b=3.0, horizon=1800.0, q_max=10)
        t = p.horizon - time_left
        got = solve_w(p).evaluate_at(t)
        ref = expm_log_w(p, t)
        gap = math.log(got[10] / got[9]) / p.k - (ref[10] - ref[9]) / p.k
        assert abs(gap) < 1e-9

    def test_grid_nodes_match_point_evaluation(self):
        p = ModelParams(mu=0.01, sigma=0.6, q_max=30, horizon=7200.0)
        dec = solve_w(p)
        grid = dec.to_wgrid(1000)
        for i in (0, 1, 31, 32, 33, 500, 999, 1000):
            assert max_rel(grid.doubles(i), dec.evaluate_at(float(grid.times[i]))) < 1e-12

    def test_profiled_grid_nodes_match_point_quotes(self):
        # w_100 falls below the double range: the grid changes its exponents,
        # and each run of nodes in one profile is filled by doubling from
        # its first node with a ladder whose subnormal entries are flushed.
        # Next to T, where w_100 falls fastest, the reported time of a node
        # is an ulp of T from the node's own T - j h: that alone moves its
        # quotes by up to 9.3e-12 Ticks at sigma = 3, k = 0.2
        for changes, n_profiles in (({"sigma": 3.0, "k": 0.2, "horizon": 7200.0}, 4),
                                    ({"horizon": 300.0}, 2), ({"horizon": 7200.0}, 2)):
            p = ModelParams(q_max=100, **changes)
            dec = solve_w(p)
            grid = dec.to_wgrid(N)
            assert len(grid.breaks) == n_profiles
            surface = quote_surface(grid)
            nodes = {n for j in range(14) for n in (2 ** j - 1, 2 ** j, 2 ** j + 1) if n <= N}
            rows = {N - n for n in nodes} | {int(r) for b in grid.breaks[1:] for r in (b - 1, b)}
            for i in sorted(rows):
                gap = np.max(np.abs(dec.quotes_at(float(grid.times[i])) - surface.values[i]))
                assert gap < 1e-11, (changes, i)

    @pytest.mark.parametrize("changes", [{}, {"sigma": 3.0, "k": 0.2}])
    @pytest.mark.parametrize("horizon", [300.0, 7200.0])
    def test_ladder_holds_no_subnormal_entry(self, changes, horizon, monkeypatch):
        # squares E^(2^k) of these grids reach below the double range, and a
        # product with a subnormal operand runs several times slower: every
        # rung the grid multiplies by has those entries flushed to 0
        rungs = []
        power = _Walk.power

        def spy(walk, k):
            rungs.append(power(walk, k))
            return rungs[-1]

        monkeypatch.setattr(_Walk, "power", spy)
        solve_grid(ModelParams(q_max=100, horizon=horizon, **changes))
        assert len({id(rung) for rung in rungs}) >= 14  # rungs 0-13 at least
        for rung in rungs:
            assert not np.any((rung > 0.0) & (rung < np.finfo(float).tiny))

    def test_window_keeps_a_flushed_entry_below_rounding(self):
        # a flushed entry, under 2^-1022, takes a mantissa of at most
        # 2^_WINDOW into a level of at least 2^-_WINDOW: it moves the level
        # by under 2^(2 _WINDOW - 1022), the 2^-74 of the module docstring
        assert 2.0 ** (2 * _WINDOW - 1022) <= 2.0 ** -74

    @pytest.mark.parametrize("changes", LEVEL_ONE_CASES)
    def test_level_one_matches_walk_at_grid_nodes(self, changes):
        # point quotes take level one in closed form, grids walk it
        p = ModelParams(q_max=1, **changes)
        dec = solve_w(p)
        surface = quote_surface(dec.to_wgrid(100))
        got = [dec.quotes_at(float(t))[0] for t in surface.times]
        assert level_one_gap(got, surface.values[:, 0]) <= 1.0

    def test_point_evaluation_survives_propagator_overflow(self):
        # w_36(0) ~ 9.35e303 is a double, but an entry of the whole
        # propagator exp(-T M) overflows; the walk bounds each segment
        p = ModelParams(mu=0.015, sigma=1e-6, b=27.0, horizon=4462.0,
                        q_max=36)
        got = solve_w(p).evaluate_at(0.0)
        assert got[36] == pytest.approx(9.354325769120325e303, rel=1e-13)
        assert max_rel(got, solve_w(p).to_wgrid(1000).doubles(0)) < 1e-12

    def test_rejects_bad_step_count_and_time(self, ref_params):
        with pytest.raises(ParameterError):
            solve_w(ref_params).to_wgrid(0)
        with pytest.raises(ParameterError, match="n_steps must be an integer, got 2.5"):
            solve_grid(ref_params, 2.5)
        with pytest.raises(ParameterError):
            solve_w(ref_params).evaluate_at(ref_params.horizon + 1.0)

    @given(q_max=st.integers(1, 60), horizon=st.floats(1.0, 86_400.0),
           sigma=st.floats(0.0, 3.0), b=st.floats(0.0, 50.0),
           mu=st.floats(-0.02, 0.02))
    @settings(max_examples=100, deadline=None)
    def test_extreme_regimes_exact(self, q_max, horizon, sigma, b, mu):
        p = ModelParams(mu=mu, sigma=sigma, b=b, horizon=horizon, q_max=q_max)
        grid = solve_grid(p, 50)
        # w_0 = 1, w > 0 and the terminal row exact to the last bit
        assert_w_grid(grid)
        assert np.max(np.abs(log_w(grid, 0) - expm_log_w(p, 0.0))) < 1e-10
        assert np.all(quote_surface(grid).values[-1] == terminal_quote(p))


class TestSolveQuadrature:
    def test_matches_rk(self, ref_params):
        ref = solve_rk(ref_params, N)
        quad = solve_quadrature(ref_params, N)
        assert max_rel(quad.values, ref.values) < 1e-6

    def test_matches_polynomial_closed_form(self, nodrift_params):
        grid = solve_quadrature(nodrift_params, N)
        sub = slice(None, None, 500)
        oracle = closed_form_grid(nodrift_params, grid.times[sub])
        assert max_rel(grid.values[sub], oracle) < 1e-8

    def test_decoupled_system_with_zero_coupling(self, ref_params):
        # eta forced to 0 decouples the levels: w_q is the bare decay of the
        # terminal value
        c = derive_coefficients(ref_params)
        hook = DerivedCoefficients(alpha=c.alpha, beta=c.beta, eta=0.0)
        grid = solve_quadrature(ref_params, 200, coeffs=hook)
        q = np.arange(ref_params.q_max + 1)
        lam = c.alpha * q * q - c.beta * q
        expected = (np.exp(-np.outer(ref_params.horizon - grid.times, lam))
                    * np.exp(-ref_params.k * ref_params.b * q))
        assert np.allclose(grid.values, expected, rtol=1e-12, atol=0.0)

    def test_rejects_bad_grid(self, ref_params):
        with pytest.raises(ParameterError):
            solve_quadrature(ref_params, 1)


class TestQuoteSurface:
    def test_reference_quotes_all_levels(self, ref_params):
        surface = quote_surface(solve_grid(ref_params, N))
        assert np.allclose(surface.values[0], REFERENCE_QUOTES_T0, atol=TABLE_TOL)

    @pytest.mark.parametrize("field,value", sorted(SWEEP_QUOTES_T0))
    def test_tabulated_single_parameter_sweeps(self, ref_params, field, value):
        p = ref_params.with_(**{field: value})
        surface = quote_surface(solve_grid(p, 2000))
        assert np.allclose(surface.values[0], SWEEP_QUOTES_T0[(field, value)],
                           atol=TABLE_TOL)

    @pytest.mark.parametrize("k_value", sorted(HIGH_VOL_K_SWEEP))
    def test_tabulated_high_volatility_decay_sweep(self, ref_params, k_value):
        p = ref_params.with_(sigma=3.0, k=k_value)
        surface = quote_surface(solve_grid(p, 2000))
        assert np.allclose(surface.values[0], HIGH_VOL_K_SWEEP[k_value],
                           atol=TABLE_TOL)

    def test_quotes_decrease_with_liquidation_cost(self, ref_params):
        # sweeping the terminal discount lowers every quote
        columns = [quote_surface(solve_grid(ref_params.with_(b=b), 2000)).values[0]
                   for b in (0.0, 3.0, 20.0)]
        assert np.all(np.diff(np.stack(columns), axis=0) < 0)

    def test_long_horizon_approaches_asymptote(self):
        # the slowest mode decays at rate alpha - beta = 6.75e-4/s, so the
        # 2h-horizon quotes still sit a few hundredths of a Tick off the
        # limit at q = 1, exactly where the closed-form q = 1 solution puts
        # them; by 8h the gap is below a micro-Tick
        p2h = ModelParams(horizon=7200.0)
        s2h = quote_surface(solve_grid(p2h, N))
        gaps_2h = np.abs(s2h.values[0]
                         - [asymptotic_quote(p2h, q) for q in range(1, 7)])
        assert gaps_2h[0] == pytest.approx(q1_asymptote_gap(p2h), abs=1e-6)
        assert np.all(gaps_2h < 0.03) and np.all(np.diff(gaps_2h) < 0)
        p8h = ModelParams(horizon=28800.0)
        s8h = quote_surface(solve_grid(p8h, N))
        gaps_8h = np.abs(s8h.values[0]
                         - [asymptotic_quote(p8h, q) for q in range(1, 7)])
        assert np.all(gaps_8h < 1e-3)

    def test_terminal_row_pins_to_common_value(self, ref_params):
        surface = quote_surface(solve_grid(ref_params, 2000))
        target = terminal_quote(ref_params)
        assert np.max(np.abs(surface.values[-1] - target)) < 1e-10
        assert_quote_surface(surface)

    def test_monotone_decreasing_in_inventory(self, ref_params):
        for p in (ref_params, ModelParams(sigma=3.0), ModelParams(mu=0.01),
                  ModelParams(gamma=0.5)):
            surface = quote_surface(solve_grid(p, 2000))
            assert np.all(np.diff(surface.values[:-1], axis=1) < 0)


    @given(q_max=st.integers(1, 200), horizon=st.floats(1.0, 86_400.0),
           sigma=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
           b=st.floats(0.0, 50.0),
           mu=st.one_of(st.just(0.0), st.floats(-0.02, 0.02)))
    @settings(max_examples=100, deadline=None)
    def test_quote_invariants(self, q_max, horizon, sigma, b, mu):
        p = ModelParams(mu=mu, sigma=sigma, b=b, horizon=horizon, q_max=q_max)
        grid = solve_grid(p, 10)
        surface = quote_surface(grid)
        body = surface.values[:-1]
        # a quote is (1/k) ln(w_q / w_{q-1}), as precise as the logs of the
        # two levels: 1e-13 from the solver, plus the (q_max + 1) ulps of a
        # dot product of doubles at a level with exponent 0, or else the
        # ulps of ln w itself, which a drift exp(k mu q T) makes large
        # (|ln w| reaches 1e5 here)
        v = grid.values[:-1]
        e = grid.exponents[np.searchsorted(grid.breaks, np.arange(v.shape[0]), "right") - 1]
        assert np.all(v[e == 0] >= np.finfo(float).tiny)
        rel = 1e-13 + np.where(e == 0, (q_max + 1) * np.spacing(v) / v,
                               8 * np.finfo(float).eps * np.abs(log_w(grid, slice(None, -1))))
        tol = (rel[:, 1:] + rel[:, :-1]) / p.k
        # strictly decreasing in q; with little price risk the premiums of
        # high levels converge and may tie to that precision
        assert np.all(np.diff(body, axis=1) < tol[:, 1:] + tol[:, :-1])
        assert np.all(surface.values[-1] == terminal_quote(p))
        if mu == 0.0 and sigma == 0.0:
            for i in (0, 5):
                t = float(surface.times[i])
                exact = [nodrift_novol_quote(p, t, q) for q in range(1, q_max + 1)]
                assert np.all(np.abs(body[i] - exact) < 1e-9)

    def test_subnormal_interior_matches_closed_form(self):
        # w_122..124(4) lie below the normal range of doubles; quotes built
        # from them as doubles missed the closed form by 1.7e-8 Ticks
        p = ModelParams(mu=0.0, sigma=0.0, b=25.0, horizon=8.0, q_max=124)
        surface = quote_surface(solve_grid(p, 10))
        exact = [nodrift_novol_quote(p, 4.0, q) for q in range(1, 125)]
        assert np.max(np.abs(surface.values[5] - exact)) < 1e-12


class TestCrossMethodInvariants:
    def test_three_way_agreement(self, ref_params):
        rk = solve_rk(ref_params, N)
        spec = solve_grid(ref_params, N)
        quad = solve_quadrature(ref_params, N)
        assert max_rel(rk.values, spec.values) < 1e-6
        assert max_rel(quad.values, spec.values) < 1e-6

    def test_hjb_residual_small_for_all_solvers(self, ref_params):
        grids = (solve_rk(ref_params, N),
                 solve_grid(ref_params, N),
                 solve_quadrature(ref_params, N))
        for grid in grids:
            for q in range(1, 7):
                scale = np.max(np.abs(grid.values[:, q]))
                for i in (1, N // 4, N // 2, 3 * N // 4, N - 1):
                    res = hjb_residual(grid, ref_params, float(grid.times[i]), q)
                    assert abs(res) < 1e-6 * scale

    def test_rk_is_fourth_order(self, ref_params):
        exact = solve_w(ref_params)
        def rk_error(n):
            return float(np.max(np.abs(solve_rk(ref_params, n).values
                                       - exact.to_wgrid(n).values)))
        ratio = rk_error(250) / rk_error(500)
        assert 10 < ratio < 24  # ~16x per halving

    def test_quote_grid_refinement_stable(self, ref_params):
        s1 = quote_surface(solve_grid(ref_params, N))
        s2 = quote_surface(solve_grid(ref_params, 2 * N))
        assert np.max(np.abs(s2.values[::2] - s1.values)) < 1e-4


class TestExtremeLiquidationCost:
    """Terminal values exp(-k q b) that round to zero or to subnormals: the
    propagator solves the forced-liquidation limit exactly and the oracles
    tolerate the terminal zeros."""

    def test_rk_and_quadrature_agree_with_polynomial_oracle(self):
        p = ModelParams(mu=0.0, sigma=0.0, b=2600.0)
        rk = solve_rk(p, 4000)
        quad = solve_quadrature(p, 4000)
        exact = solve_grid(p, 4000)
        assert rk.terminal_underflow and quad.terminal_underflow
        assert np.all(rk.values[-1, 1:] == 0.0)
        sub = slice(None, None, 200)
        oracle = closed_form_grid(p, rk.times[sub])
        assert max_rel(rk.values[sub], oracle) < 1e-6
        assert max_rel(quad.values[sub], oracle) < 1e-6
        assert max_rel(exact.doubles()[sub], oracle) < 1e-12
        assert_w_grid(exact)

    def test_terminal_quotes_pin_when_terminal_underflows(self):
        p = ModelParams(mu=0.0, sigma=0.0, b=2600.0)
        surface = quote_surface(solve_grid(p, 4000))
        assert np.all(surface.values[-1] == terminal_quote(p))
        assert np.all(np.isfinite(surface.values))
        # the Runge-Kutta grid rounds w(T) to zeros, and its first step
        # reaches only four levels above them
        with pytest.raises(ParameterError, match="positive"):
            quote_surface(solve_rk(p, 4000))

    def test_underflowed_terminal_is_solved(self):
        p = ModelParams(sigma=0.3, b=2600.0)
        grid = solve_grid(p, 4000)
        assert grid.terminal_underflow
        assert np.all(grid.doubles(-1)[1:] == 0.0)
        assert np.all(grid.values > 0)
        # the terminal mantissas are exp(x) / 2^e to the last bits for the
        # double x = -k b q ~ -4680: a one-double ln 2 misses by 700 ulps
        x = -p.k * p.b * np.arange(p.q_max + 1)
        with mpmath.workdps(30):
            exact = [float(mpmath.exp(float(xq)) / mpmath.mpf(2) ** int(eq))
                     for xq, eq in zip(x, grid.exponents[-1])]
        assert np.all(np.abs(grid.values[-1] / exact - 1) < 4 * np.finfo(float).eps)
        assert np.max(np.abs(log_w(grid, 0) - expm_log_w(p, 0.0))) < 1e-10
        assert_w_grid(grid)

    def test_node_is_kept_out_of_a_profile_that_rounds_it(self):
        # the feed is so weak that the walk renormalises before its first
        # segment, in a profile that would round w_1..3(T) to zero
        p = ModelParams(mu=0.0, sigma=0.0, big_a=1e-14, k=1.0, b=3000.0,
                        horizon=1e-3, q_max=3)
        assert_w_grid(solve_grid(p, 1000))

    def test_subnormal_terminal_quotes_pin_exactly(self):
        # exp(-k q b) is subnormal for q >= 89 and zero from q = 94
        p = ModelParams(b=20.0, k=0.4, horizon=300.0, q_max=100)
        surface = quote_surface(solve_grid(p))
        assert np.all(np.isfinite(surface.values))
        assert np.all(surface.values[-1] == terminal_quote(p))

    @pytest.mark.parametrize("k", [0.2, 0.3, 0.4])
    @pytest.mark.parametrize("horizon", [300.0, 7200.0])
    def test_w_below_double_range_matches_mpmath(self, k, horizon):
        # w_q(0) falls to about 1e-310 and below from q ~ 90 on
        p = ModelParams(sigma=3.0, k=k, horizon=horizon, q_max=100)
        surface = quote_surface(solve_grid(p))
        spread = math.log1p(p.gamma / p.k) / p.gamma
        for i in (0, surface.times.size // 2):
            ref = mp_log_w(p, float(surface.times[i]))
            exact = [float(ref[q] - ref[q - 1]) / p.k + spread for q in range(1, 101)]
            assert np.max(np.abs(surface.values[i] - exact)) < 1e-9
        # the point quotes are formed as the surface's, from w(0) in one step
        assert np.max(np.abs(solve_w(p).quotes_at(0.0) - surface.values[0])) < 1e-12
        with pytest.raises(ParameterError, match="quotes_at"):
            quote_from_w(*solve_w(p).evaluate_at(0.0)[[100, 99]], p)

    @pytest.mark.parametrize("changes", LEVEL_ONE_CASES)
    def test_level_one_matches_mpmath(self, changes):
        p = ModelParams(q_max=1, **changes)
        dec = solve_w(p)
        with mpmath.workdps(60):
            spread = mpmath.log1p(mpmath.mpf(p.gamma) / p.k) / p.gamma
        horizon = p.horizon
        for t in (0.0, 0.5 * horizon, horizon - 1.0, horizon - 1e-6,
                  math.nextafter(horizon, 0.0), horizon):
            # the expansion cancels e^(-k b) = e^-1200 out of terms of order
            # one near T: 600 digits keep it
            ref = mp_log_w(p, t, dps=600)
            exact = float((ref[1] - ref[0]) / p.k + spread)
            assert level_one_gap(dec.quotes_at(t)[0], exact) <= 1.0, t

    @pytest.mark.parametrize("changes", LEVEL_ONE_CASES)
    def test_level_one_quote_is_the_quote_of_its_state(self, changes):
        # quotes_at takes ln w_1 straight; evaluate_at splits the same log.
        # The two differ by at most an ulp of the quote: 3.6e-12 Ticks at
        # the 17280-Tick quotes of mu = 0.2, b = 3000
        p = ModelParams(q_max=1, **changes)
        dec = solve_w(p)
        for t in (0.0, 0.5 * p.horizon, p.horizon - 1.0, p.horizon - 1e-6,
                  math.nextafter(p.horizon, 0.0), p.horizon):
            state = _quotes(*_level_one_state(p, p.horizon - t), p, np.empty(1))
            assert level_one_gap(dec.quotes_at(t), state) <= 100.0, t

    def test_relaxation_far_below_terminal_matches_mpmath(self):
        # w_200 falls from 1 at T to about 2^-2690 within a second, far
        # below what the terminal exponents can carry
        p = ModelParams(sigma=3.0, b=0.0, q_max=200, horizon=86400.0)
        surface = quote_surface(solve_grid(p, 10))
        spread = math.log1p(p.gamma / p.k) / p.gamma
        for i in (0, 5):
            ref = mp_log_w(p, float(surface.times[i]))
            exact = [float(ref[q] - ref[q - 1]) / p.k + spread for q in range(1, 201)]
            assert np.max(np.abs(surface.values[i] - exact)) < 1e-9

    def test_reused_propagator_keeps_entries_below_double_range(self):
        # the step next to T is crossed in pieces; a propagator rescaled
        # into exponents that raise an entry below the diagonal, instead
        # of rebuilt, misses the feed it lost below the double range (by
        # 0.016 Ticks)
        p = ModelParams(mu=-0.02, sigma=4.4, b=0.0, horizon=427.0, q_max=146,
                        k=0.65, big_a=6.2)
        surface = quote_surface(solve_grid(p, 10))
        spread = math.log1p(p.gamma / p.k) / p.gamma
        for i in (0, 9):
            ref = mp_log_w(p, float(surface.times[i]))
            exact = [float(ref[q] - ref[q - 1]) / p.k + spread for q in range(1, 147)]
            assert np.max(np.abs(surface.values[i] - exact)) < 1e-9

    @pytest.mark.parametrize("changes", [{"k": 1e150}, {"b": 1e150}, {"b": 1.7e6},
                                         {"k": 1e150, "q_max": 1}])
    def test_terminal_beyond_exponents_refused_by_name(self, changes):
        # exp(-k b q_max) = 2^-e with e of 2^22 or more, where the split of
        # w(T) into mantissas and exponents is no longer exact
        p = ModelParams(**changes)
        calls = [lambda: solve_w(p).evaluate_at(p.horizon), lambda: solve_grid(p, 10)]
        if p.q_max > 1:
            calls.append(lambda: solve_w(p).quotes_at(0.0))
        for call in calls:
            with pytest.raises(ParameterError, match=r"k \* b \* q_max = .* is above 2\.9e\+06"):
                call()

    def test_terminal_at_exponent_bound_is_solved(self):
        p = ModelParams(b=2.9e6 / 1.8)  # k b q_max = 2.9e6 - 5e-10
        surface = quote_surface(solve_grid(p, 100))
        assert np.all(np.isfinite(surface.values))
        assert np.all(surface.values[-1] == terminal_quote(p))
        assert np.max(np.abs(solve_w(p).quotes_at(0.0) - surface.values[0])) < 1e-12

    @pytest.mark.parametrize("changes", [{"gamma": 1e300}, {"mu": 1e300}, {"mu": -1e300},
                                         {"sigma": 1e150}])
    def test_rates_beyond_half_step_floor_refused_by_name(self, changes):
        # the walk would halve its step about 1000 times to keep w within
        # its window; it stops at T * 2^-117
        p = ModelParams(**changes)
        for call in (lambda: solve_w(p).quotes_at(0.0), lambda: solve_grid(p, 10)):
            start = time.perf_counter()
            with pytest.raises(ParameterError, match=r"walk's shortest half step, "
                               r"T \* 2\^-117: the rates alpha = k \* gamma \* sigma\^2 / 2"
                               r" = .*, beta = k \* mu = .* too fast to solve"):
                call()
            assert time.perf_counter() - start < 5.0

    def test_deepest_half_steps_of_the_tests_are_above_the_floor(self, monkeypatch):
        # w_1(T) = e^-1200 is lifted to 2^-_LIFT below w_0 = 1: its feed
        # needs a walk of half steps down to T * 2^-68, the deepest of the
        # tests, far above the floor T * 2^-117
        p = ModelParams(q_max=1, mu=0.2, k=0.4, horizon=86400.0, b=3000.0)
        halves = []
        run = _Walk.run

        def spy(walk, v, e, tau, n_steps, emit):
            halves.append(tau / n_steps)
            return run(walk, v, e, tau, n_steps, emit)

        monkeypatch.setattr(_Walk, "run", spy)
        surface = quote_surface(solve_grid(p, 100))
        assert np.all(np.isfinite(surface.values))
        assert p.horizon * 2.0 ** -69 < min(halves) < p.horizon * 2.0 ** -60

    def test_level_underflowing_in_the_walk_refused_by_name(self):
        # at gamma = 1e30, w_6 falls about 2^-200 a level below w_5 and its
        # mantissa underflows to 0 in the walk: both paths refuse it by
        # name, where the point path returned -inf with a RuntimeWarning
        p = ModelParams(gamma=1e30, q_max=6)
        message = (r"^w_6 is not positive: its mantissa of 0 underflows in the walk back "
                   r"from T, as the rates alpha = k \* gamma \* sigma\^2 / 2 = 1\.35e\+28, "
                   r"beta = k \* mu = 0 and eta = 3e-32 \(1/s\) are too far apart$")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: solve_w(p).quotes_at(0.0),
                         lambda: quote_surface(solve_grid(p, 100))):
                with pytest.raises(ParameterError, match=message):
                    call()

    @pytest.mark.parametrize("changes", [{"sigma": 1e200}, {"sigma": 1e150, "gamma": 1e10}])
    def test_alpha_beyond_double_range_refused_by_name(self, changes):
        # sigma^2 overflows by itself at sigma = 1e200; at sigma = 1e150
        # and gamma = 1e10 the product k gamma sigma^2 / 2 does
        p = ModelParams(**changes)
        message = (f"k * gamma * sigma^2 / 2 is beyond the double range (k = 0.3, "
                   f"gamma = {p.gamma}, sigma = {p.sigma})")
        for call in (lambda: solve_w(p).quotes_at(0.0), lambda: solve_grid(p, 10),
                     lambda: asymptotic_quote(p, 1)):
            with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
                call()

    def test_large_b_matches_forced_liquidation_shape(self):
        # normalising by big_a^q removes the only big_a dependence left in
        # the limit
        p = ModelParams(mu=0.0, sigma=0.0, b=50.0)
        w0 = solve_w(p).evaluate_at(0.0)
        for q in range(1, 7):
            v_num = w0[q] / p.big_a ** q
            v_lim = binf_w(p, 0.0, q) / p.big_a ** q
            assert abs(v_num - v_lim) / v_lim < 0.01


# mantissas of every kind the walk holds: normal across the window and
# beyond it, subnormal, and zero
MANTISSAS = st.one_of(
    st.builds(math.ldexp, st.floats(0.5, 1.0), st.integers(-1021, 1023)),
    st.builds(math.ldexp, st.floats(0.5, 1.0), st.integers(-3, 3)),
    st.floats(5e-324, 2.2e-308),
    st.just(0.0),
)


@st.composite
def walk_states(draw):
    """A walk and a state w = v 2^e: n from 2 to 101, exponents up to
    +-1e4, and some levels 2^_LIFT or more below the level under them."""
    n = draw(st.integers(2, 101))
    p = ModelParams(q_max=n - 1, mu=draw(st.floats(-0.05, 0.05)),
                    sigma=draw(st.floats(0.0, 3.0)), k=draw(st.floats(0.1, 1.0)),
                    gamma=draw(st.floats(1e-3, 10.0)), big_a=draw(st.floats(0.01, 10.0)))
    v = draw(st.lists(MANTISSAS, min_size=n, max_size=n))
    if draw(st.booleans()):
        v[0] = 1.0
    for q in draw(st.lists(st.integers(1, n - 1), max_size=3)):
        v[q] = math.ldexp(v[q - 1], -draw(st.integers(int(_LIFT), 400)))
    e = draw(st.one_of(st.just([0] * n),
                       st.lists(st.integers(-10_000, 10_000), min_size=n, max_size=n)))
    return _Walk(p), np.array(v), np.array(e, dtype=np.int64)


def _py_exp2(x):
    try:
        return 2.0 ** x
    except OverflowError:
        return math.inf


# Python's log2 and 2**x elementwise, with NumPy's values at 0, below 0 and NaN
PY_LOG2 = np.vectorize(lambda x: math.log2(x) if x > 0 else -math.inf if x == 0 else math.nan,
                       otypes=[float])
PY_EXP2 = np.vectorize(_py_exp2, otypes=[float])


class TestWalkBound:
    """The walk's segment bound, in floats, against its NumPy form in
    tests/oracles.py: the same profile to the bit, and the same reach to
    the bit once the NumPy form takes Python's log2 and 2**x.  NumPy's own
    log2 and exp2 may round an ulp apart from those, and where the growth
    rate cancels (near a steady state, 3 of the 95 start states of
    two_bucket_episode) that ulp moves reach far beyond any step: 1.6e-12
    to 20% of reach, which is 1e6 s and more there."""

    @staticmethod
    def check(walk, v, e):
        got = walk.reach(v, e)
        want = walk_reach(walk.lam, walk.eta, v, e, log2=PY_LOG2, exp2=PY_EXP2)
        assert got == want, (v, e, got, want)
        if v[0] > 0 and np.all(np.isfinite(v)) and np.all(v >= 0):
            (v1, e1), (v2, e2) = walk.profile(v, e), walk_profile(v, e)
            assert v1.tobytes() == v2.tobytes() and e1.dtype == e2.dtype
            assert np.array_equal(e1, e2)

    @given(walk_states())
    @settings(max_examples=150, deadline=None)
    def test_matches_numpy_form(self, state):
        self.check(*state)

    @given(walk_states(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_nan_inf_and_negative_mantissas_allow_no_step(self, state, data):
        walk, v, e = state
        q = data.draw(st.integers(0, v.size - 1))
        v[q] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf, -1.0, -1e-310]))
        assert walk.reach(v, e) == walk_reach(walk.lam, walk.eta, v, e) == 0.0
        assert walk_reach(walk.lam, walk.eta, v, e, log2=PY_LOG2, exp2=PY_EXP2) == 0.0

    def test_matches_numpy_form_on_replay_start_states(self, monkeypatch):
        states = []
        reach = _Walk.reach

        def spy(walk, v, e):
            states.append((walk, v.copy(), e.copy()))
            return reach(walk, v, e)

        monkeypatch.setattr(_Walk, "reach", spy)
        run_backtest(*two_bucket_episode())
        monkeypatch.undo()
        assert len(states) > 50
        for state in states:
            self.check(*state)

    def test_terminal_states(self):
        for q_max in (1, 10, 101):
            for b in (0.0, 3.0, 3000.0):
                p = ModelParams(q_max=q_max, b=b)
                self.check(_Walk(p), *_terminal_state(p))


class TestExports:
    def test_wgrid_csv_schema_and_round_trip(self, ref_params, tmp_path):
        grid = solve_grid(ref_params, 50)
        path = tmp_path / "w.csv"
        grid.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "q", "value"]
        assert len(rows) - 1 == 51 * 7
        # 17 significant digits reproduce the doubles exactly
        t, q, value = rows[1 + 13 * 7 + 4]
        assert float(t) == grid.times[13]
        assert float(value) == grid.values[13, 4]

    def test_wgrid_csv_rounds_levels_beyond_double_range(self, tmp_path):
        # w_q(0) falls below the smallest subnormal from q ~ 95 on; the CSV
        # holds the double each level rounds to
        grid = solve_grid(ModelParams(sigma=3.0, q_max=100), 100)
        path = tmp_path / "w.csv"
        grid.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        w0 = np.array([float(r[2]) for r in rows[:101]])
        assert w0[100] == 0.0 and w0[60] > 0.0
        assert np.array_equal(w0, grid.doubles(0))
        assert np.allclose(np.log(w0[1:60]), log_w(grid, 0)[1:60], rtol=1e-15, atol=0)

    def test_surface_csv_schema(self, ref_params, tmp_path):
        surface = quote_surface(solve_grid(ref_params, 20))
        path = tmp_path / "quotes.csv"
        surface.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "q", "value"]
        assert [r[1] for r in rows[1:8]] == ["1", "2", "3", "4", "5", "6", "1"]
