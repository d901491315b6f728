"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria 6 and 7 run
Monte Carlo ensembles of 1e5 paths each, a few seconds combined.
"""

import time

import numpy as np
import pytest

from optliq import (FixedQuote, ModelParams, OptimalSurface, SimConfig,
                    quote_from_w, quote_surface, simulate_ensemble,
                    simulate_policies, solve_grid, solve_w, terminal_quote)
from optliq.backtest import BacktestConfig, run_backtest
from optliq.closed_forms import (asymptotic_quote, binf_trading_curve,
                                 nodrift_novol_quote, risk_neutral_quote)
from optliq.market_data import calibrate_intensity, calibrate_sigma, synthetic_tape
from optliq.model import derive_coefficients
from tests.conftest import (HIGH_VOL_K_SWEEP, REFERENCE_QUOTES_T0,
                            SWEEP_QUOTES_T0, TABLE_TOL, q1_asymptote_gap)
from tests.oracles import nodrift_novol_w, solve_quadrature, solve_rk

REF = ModelParams()


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number} {name}: {status} {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def quotes_at_time_zero(p: ModelParams) -> np.ndarray:
    """delta*(0, q) for q = 1..q_max from the exact w(0)."""
    w0 = solve_w(p).evaluate_at(0.0)
    return np.array([quote_from_w(w0[q], w0[q - 1], p) for q in
                     range(1, p.q_max + 1)])


def test_criterion_1_table_reproduction():
    t0 = time.monotonic()
    errors = []
    # drift, volatility, fill-scale and decay sweeps around the reference
    # fixture, plus the decay sweep under heavy volatility
    cases = [(("mu", -0.01), None), (("mu", 0.0), REFERENCE_QUOTES_T0),
             (("mu", 0.01), None),
             (("sigma", 0.0), None), (("sigma", 0.3), REFERENCE_QUOTES_T0),
             (("sigma", 0.6), None),
             (("big_a", 0.05), None), (("big_a", 0.1), REFERENCE_QUOTES_T0),
             (("big_a", 0.15), None),
             (("k", 0.2), None), (("k", 0.3), REFERENCE_QUOTES_T0),
             (("k", 0.4), None)]
    n_checked = 0
    for (field, value), override in cases:
        expected = np.asarray(override if override is not None
                              else SWEEP_QUOTES_T0[(field, value)])
        got = quotes_at_time_zero(REF.with_(**{field: value}))
        err = np.max(np.abs(got - expected))
        errors.append(err)
        n_checked += expected.size
    for k_value, expected in HIGH_VOL_K_SWEEP.items():
        got = quotes_at_time_zero(REF.with_(sigma=3.0, k=k_value))
        errors.append(np.max(np.abs(got - np.asarray(expected))))
        n_checked += len(expected)
    elapsed = time.monotonic() - t0
    worst = max(errors)
    report(1, "table reproduction", worst < TABLE_TOL and elapsed < 1.0,
           f"({n_checked} values, max err {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_terminal_pinning():
    surface = quote_surface(solve_grid(REF, 10_000))
    target = terminal_quote(REF)
    worst = float(np.max(np.abs(surface.values[-1] - target)))
    report(2, "terminal pinning", worst < 1e-10,
           f"(target {target:.6f}, max dev {worst:.2e})")


def test_criterion_3_long_horizon_asymptote():
    # the slowest mode decays at lambda_1 = alpha - beta, so the q = 1 quote
    # approaches its limit last; at 2h it must sit exactly where the
    # closed-form q = 1 solution puts it, and by 3h every level is inside
    # the 1e-2 Tick bound
    coeffs = derive_coefficients(REF)
    rate = coeffs.alpha - coeffs.beta
    t0 = time.monotonic()
    gaps = {}
    for horizon in (7200.0, 10800.0):
        p = REF.with_(horizon=horizon)
        asym = np.array([asymptotic_quote(p, q) for q in range(1, 7)])
        gaps[horizon] = np.abs(quotes_at_time_zero(p) - asym)
    elapsed = time.monotonic() - t0
    predicted = {h: q1_asymptote_gap(REF.with_(horizon=h)) for h in gaps}
    ok = (abs(gaps[7200.0][0] - predicted[7200.0]) < 1e-6
          and bool(np.all(np.diff(gaps[7200.0]) < 0))
          and predicted[10800.0] < 1e-2
          and bool(np.all(gaps[10800.0] < 1e-2))
          and elapsed < 1.0)
    detail = (f"(slowest mode decays at {rate:.2e}/s; "
              + "; ".join(f"T={h:.0f}s: q=1 gap {g[0]:.6f} vs predicted "
                          f"{predicted[h]:.6f}, max gap {g.max():.2e}"
                          for h, g in gaps.items())
              + f"; {elapsed:.3f}s)")
    report(3, "long-horizon asymptote", ok, detail)


def test_criterion_4_closed_form_vs_numerical():
    # the exact propagator against the closed form and against the
    # Runge-Kutta and quadrature oracles, which are checked against the
    # closed form too
    nodrift = REF.with_(mu=0.0, sigma=0.0)
    exact0 = solve_grid(nodrift, 10_000)
    rk0 = solve_rk(nodrift, 10_000)
    quad0 = solve_quadrature(nodrift, 10_000)
    sub = slice(None, None, 100)
    oracle = np.empty((exact0.times[sub].size, 7))
    for q in range(7):
        oracle[:, q] = [nodrift_novol_w(nodrift, t, q) for t in exact0.times[sub]]
    err_exact = np.max(np.abs(exact0.values[sub] - oracle) / oracle)
    err_rk = np.max(np.abs(rk0.values[sub] - oracle) / oracle)
    err_quad = np.max(np.abs(quad0.values[sub] - oracle) / oracle)

    exact1 = solve_grid(REF, 10_000)
    rk1 = solve_rk(REF, 10_000)
    quad1 = solve_quadrature(REF, 10_000)
    err_vs_rk = np.max(np.abs(exact1.values - rk1.values) / rk1.values)
    err_vs_quad = np.max(np.abs(exact1.values - quad1.values) / quad1.values)
    ok = (err_exact < 1e-8 and err_rk < 1e-8 and err_quad < 1e-8
          and err_vs_rk < 1e-6 and err_vs_quad < 1e-6)
    report(4, "closed form vs numerical", ok,
           f"(no-vol: exact {err_exact:.2e}, rk {err_rk:.2e}, quad {err_quad:.2e} "
           f"vs 1e-8; vol: exact vs rk {err_vs_rk:.2e}, vs quad {err_vs_quad:.2e} "
           f"vs 1e-6)")


def test_criterion_5_risk_neutral_limit():
    small_gamma = REF.with_(mu=0.0, sigma=0.0, gamma=1e-6)
    worst = 0.0
    for t in (0.0, 150.0):
        for q in range(1, 7):
            diff = abs(nodrift_novol_quote(small_gamma, t, q)
                       - risk_neutral_quote(small_gamma, t, q))
            worst = max(worst, diff)
    report(5, "risk-neutral limit", worst < 1e-3, f"(max diff {worst:.2e})")


@pytest.fixture(scope="module")
def forced_liquidation_runs():
    # fill times are drawn exactly, so the simulated curve is an unbiased
    # estimate of the continuous-time limit and dt only sets the reporting
    # grid; what is left is noise: 19 of seeds 1-20 pass the 3-sigma band
    # at all 20 checkpoints (the other peaks at |z| = 3.29), and 99 is kept
    # so the run is reproducible.  With common draws the fill scale drops
    # out of the event times, so the three curves agree almost exactly
    runs = {}
    for big_a in (0.1, 0.05, 0.15):
        p = ModelParams(mu=0.0, sigma=0.0, big_a=big_a, b=50.0)
        surface = quote_surface(solve_grid(p, 10_000))
        cfg = SimConfig(params=p, q0=6, dt=0.05, n_paths=100_000, seed=99,
                        policy=OptimalSurface(surface))
        runs[big_a] = simulate_ensemble(cfg)
    return runs


def test_criterion_6_forced_liquidation_curve(forced_liquidation_runs):
    runs = forced_liquidation_runs
    base = runs[0.1]
    p = ModelParams(mu=0.0, sigma=0.0, b=50.0)
    checkpoints = np.linspace(15.0, 285.0, 20)
    idx = np.searchsorted(base.trading_curve.times, checkpoints)
    # the oracle at the grid times the curve reports, up to dt after each
    # checkpoint (the curve falls ~1e-3 units in 0.05 s)
    oracle = binf_trading_curve(p, 6, base.trading_curve.times[idx]).expected_inventory
    got = base.trading_curve.expected_inventory[idx]
    se = base.mc_stderr_curve[idx]
    curve_ok = np.all(np.abs(got - oracle) <= 3 * se)
    worst_z = float(np.max(np.abs(got - oracle) / se))

    lo, hi = runs[0.05], runs[0.15]
    diff = (lo.trading_curve.expected_inventory[idx]
            - hi.trading_curve.expected_inventory[idx])
    combined = np.sqrt(lo.mc_stderr_curve[idx] ** 2
                       + hi.mc_stderr_curve[idx] ** 2)
    a_free_ok = np.all(np.abs(diff) <= 3 * combined)
    worst_za = float(np.max(np.abs(diff) / combined))
    report(6, "forced-liquidation trading curve",
           bool(curve_ok and a_free_ok),
           f"(curve max |z| {worst_z:.2f}, scale-independence max |z| "
           f"{worst_za:.2f}, 20 checkpoints, 1e5 paths)")


def test_criterion_7_optimality_dominance():
    surface = quote_surface(solve_grid(REF, 10_000))
    policies = [OptimalSurface(surface)] + [FixedQuote(float(d))
                                            for d in range(16)]
    runs = simulate_policies(REF, policies, q0=6, dt=0.1, n_paths=100_000,
                             seed=1234)
    opt, fixed = runs[0], runs[1:]
    margins = []
    for run in fixed:
        combined = np.sqrt(opt.utility_stderr ** 2 + run.utility_stderr ** 2)
        margins.append(opt.utility_mean - run.utility_mean + 2 * combined)
    ok = all(m > 0 for m in margins)
    report(7, "optimality dominance", ok,
           f"(min margin {min(margins):.4f} over 16 pinned premiums, "
           f"1e5 paths)")


def test_criterion_8_calibration_round_trip():
    tape = synthetic_tape(36_000.0, sigma=0.3, big_a=0.1, k=0.3, seed=808)
    sigma_hat = calibrate_sigma(tape, 1.0)
    fits, _ = calibrate_intensity(tape)
    (fit,) = fits.values()
    ok = (abs(sigma_hat - 0.3) <= 0.03 and abs(fit.a_hat - 0.1) <= 0.02
          and abs(fit.k_hat - 0.3) <= 0.06)
    report(8, "calibration round trip", ok,
           f"(sigma {sigma_hat:.4f}, A {fit.a_hat:.4f}, k {fit.k_hat:.4f})")


def test_criterion_9_backtest_protocol_fidelity():
    tape = synthetic_tape(2400.0, sigma=0.05, big_a=0.4, k=0.4, mid0=100.0,
                          drift=0.05, seed=42)
    cfg = BacktestConfig(q0=3, delta_t=30.0, warmup=600.0,
                         recalib_window=600.0, gamma_mode="fixed",
                         gamma_value=0.05, b=3.0, n_min=30,
                         rounding="randomized", seed=7)
    first = run_backtest(tape, cfg)
    second = run_backtest(tape, cfg)
    identical = (first.orders == second.orders and first.fills == second.fills
                 and first.series == second.series and first.mark == second.mark)

    conserved = cfg.q0 == len(first.fills) + first.q_end
    persistence = True
    fill_times = [f.t for f in first.fills]
    for prev, nxt in zip(first.orders, first.orders[1:]):
        gap_ok = nxt.t_insert - prev.t_insert >= cfg.delta_t - 1e-9
        filled_between = any(prev.t_insert < t <= nxt.t_insert
                             for t in fill_times)
        persistence &= gap_ok or filled_between
    at_or_above = all(
        f.price >= first.orders[f.order_index].mid
        + first.orders[f.order_index].quote_ticks - 1e-12
        for f in first.fills if f.order_index is not None)
    ok = identical and conserved and persistence and at_or_above
    report(9, "backtest protocol fidelity", ok,
           f"(bit-identical {identical}, inventory conserved {conserved}, "
           f"persistence {persistence}, fill rule {at_or_above}, "
           f"{len(first.fills)} fills)")
