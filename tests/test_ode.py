"""The exact propagator against the Runge-Kutta and quadrature oracles,
``scipy.linalg.expm``, a 60-digit ``mpmath`` eigen-expansion and the
closed forms; convergence orders, w beyond the double range and export
schemas."""

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from optliq import (ModelParams, ParameterError, hjb_residual, quote_surface,
                    solve_grid, solve_w, terminal_quote)
from optliq.closed_forms import (asymptotic_quote, binf_w, nodrift_novol_quote,
                                 nodrift_novol_w)
from optliq.model import DerivedCoefficients, derive_coefficients
from tests.conftest import (HIGH_VOL_K_SWEEP, REFERENCE_QUOTES_T0,
                            SWEEP_QUOTES_T0, TABLE_TOL, q1_asymptote_gap)
from tests.oracles import (OracleFailure, mp_log_w, solve_quadrature, solve_rk,
                          system_matrix)

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
        assert surface.quote(0, 1) == pytest.approx(10.6095, abs=TABLE_TOL)

    def test_coarse_step_raises_naming_location(self):
        with pytest.raises(OracleFailure, match=r"t=.*q="):
            solve_rk(ModelParams(sigma=3.0), n_steps=2)

    def test_rejects_bad_step_count(self, ref_params):
        with pytest.raises(ParameterError):
            solve_rk(ref_params, 0)

    def test_invariants_hold(self, ref_params):
        solve_rk(ref_params, 2000).check_invariants()


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
        grid.check_invariants()
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
        surface.check_invariants()

    def test_monotone_decreasing_in_inventory(self, ref_params):
        for p in (ref_params, ModelParams(sigma=3.0), ModelParams(mu=0.01),
                  ModelParams(gamma=0.5)):
            surface = quote_surface(solve_grid(p, 2000))
            assert np.all(np.diff(surface.values[:-1], axis=1) < 0)

    def test_nearest_earlier_lookup(self, ref_params):
        surface = quote_surface(solve_grid(ref_params, 100))
        grid_dt = ref_params.horizon / 100
        assert surface.at_time(0.0, 1) == surface.quote(0, 1)
        assert surface.at_time(grid_dt * 2.5, 1) == surface.quote(2, 1)
        assert surface.at_time(ref_params.horizon, 1) == surface.quote(100, 1)


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
        exact.check_invariants()

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
        assert np.max(np.abs(log_w(grid, 0) - expm_log_w(p, 0.0))) < 1e-10
        grid.check_invariants()

    def test_node_is_kept_out_of_a_profile_that_rounds_it(self):
        # the feed is so weak that the walk renormalises before its first
        # segment, in a profile that would round w_1..3(T) to zero
        p = ModelParams(mu=0.0, sigma=0.0, big_a=1e-14, k=1.0, b=3000.0,
                        horizon=1e-3, q_max=3)
        solve_grid(p, 1000).check_invariants()

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

    def test_large_b_matches_forced_liquidation_shape(self):
        # normalising by big_a^q removes the only big_a dependence left in
        # the limit
        p = ModelParams(mu=0.0, sigma=0.0, b=50.0)
        w0 = solve_w(p).evaluate_at(0.0)
        for q in range(1, 7):
            v_num = w0[q] / p.big_a ** q
            v_lim = binf_w(p, 0.0, q) / p.big_a ** q
            assert abs(v_num - v_lim) / v_lim < 0.01


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

    def test_wgrid_json(self, ref_params, tmp_path):
        grid = solve_grid(ref_params, 10)
        path = tmp_path / "w.json"
        grid.to_json(path)
        data = json.loads(path.read_text())
        assert data["params"]["A"] == ref_params.big_a
        assert data["w"][10][0] == 1.0

    def test_surface_csv_schema(self, ref_params, tmp_path):
        surface = quote_surface(solve_grid(ref_params, 20))
        path = tmp_path / "quotes.csv"
        surface.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "q", "value"]
        assert [r[1] for r in rows[1:8]] == ["1", "2", "3", "4", "5", "6", "1"]
