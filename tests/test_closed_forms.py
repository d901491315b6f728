"""Closed-form expressions: frozen hand-computed values, regime guards, and
agreement with the numerical solvers in each regime."""

import math
import re
import sys

import mpmath
import numpy as np
import pytest

from optliq import (ModelParams, NoAsymptoteError, ParameterError, RegimeError,
                    quote_from_w, quote_surface, solve_grid, terminal_quote)
from optliq.closed_forms import (asymptotic_quote, binf_quote,
                                 binf_trading_curve, binf_w,
                                 nodrift_novol_quote, risk_neutral_quote)
from optliq.model import derive_coefficients
from tests.oracles import assert_trading_curve, asymptotic_w, nodrift_novol_w


class TestAsymptoticQuote:
    def test_reference_value(self, ref_params):
        # (1/0.3) ln( (0.1/0.35) / 0.00225 )
        got = asymptotic_quote(ref_params, 1)
        assert got == pytest.approx(
            math.log((0.1 / 0.35) / 0.00225) / 0.3, rel=1e-12)
        assert got == pytest.approx(16.1469, abs=1e-4)

    def test_decreasing_in_inventory_without_bound(self):
        p = ModelParams(q_max=200)
        quotes = [asymptotic_quote(p, q) for q in (1, 2, 5, 20, 100, 200)]
        assert np.all(np.diff(quotes) < 0)
        assert quotes[-1] < -15

    def test_boundary_of_validity_raises(self):
        p = ModelParams(mu=0.5 * 0.05 * 0.09)  # mu = gamma sigma^2 / 2 exactly
        with pytest.raises(NoAsymptoteError):
            asymptotic_quote(p, 1)
        with pytest.raises(NoAsymptoteError):
            asymptotic_quote(ModelParams(sigma=0.0), 1)  # risk-neutral-like

    @pytest.mark.parametrize("changes", [
        {},  # the reference set
        {"mu": -0.01}, {"sigma": 3.0},
        {"k": 1e-10, "gamma": 10.0, "sigma": 1e154},  # gamma sigma^2 / 2 overflows
        {"big_a": 1e-300, "k": 1.0, "gamma": 1e10, "sigma": 1e140}])  # the ratio underflows
    def test_matches_mpmath_where_its_terms_leave_the_double_range(self, changes):
        # alpha = k gamma sigma^2 / 2 and the quote are doubles where
        # gamma sigma^2 / 2 or the ratio under the log are not
        p = ModelParams(**changes)
        mp = mpmath.mp.clone()
        mp.dps = 60
        for q in (1, 6):
            ratio = (mp.mpf(p.big_a) / (mp.mpf(p.k) + mp.mpf(p.gamma))
                     / (mp.mpf(p.gamma) * mp.mpf(p.sigma) ** 2 * q * q / 2 - mp.mpf(p.mu) * q))
            exact = mp.log(ratio) / mp.mpf(p.k)
            assert asymptotic_quote(p, q) == pytest.approx(float(exact), rel=1e-15)

    def test_ignores_liquidation_cost(self, ref_params):
        assert asymptotic_quote(ref_params.with_(b=0.0), 3) \
            == asymptotic_quote(ref_params.with_(b=50.0), 3)

    @pytest.mark.parametrize("field,step,sign", [
        ("mu", 1e-4, +1),      # richer drift -> higher quote
        ("big_a", 1e-4, +1),   # faster fills -> higher quote
        ("sigma", 1e-4, -1),   # more price risk -> lower quote
        ("gamma", 1e-4, -1),   # more risk aversion -> lower quote
    ])
    def test_parameter_monotonicity(self, ref_params, field, step, sign):
        lo = asymptotic_quote(ref_params.with_(**{field: getattr(ref_params, field) - step}), 2)
        hi = asymptotic_quote(ref_params.with_(**{field: getattr(ref_params, field) + step}), 2)
        assert sign * (hi - lo) > 0

    def test_k_brings_quote_toward_zero(self, ref_params):
        # positive quote: decreasing in k; negative quote: magnitude shrinks
        pos = [asymptotic_quote(ref_params.with_(k=k), 1) for k in (0.2, 0.3, 0.4)]
        assert pos[0] > 0 and np.all(np.diff(pos) < 0)
        p_neg = ref_params.with_(sigma=3.0)
        neg = [abs(asymptotic_quote(p_neg.with_(k=k), 6)) for k in (0.2, 0.3, 0.4)]
        assert asymptotic_quote(p_neg, 6) < 0 and np.all(np.diff(neg) < 0)


class TestAsymptoticW:
    def test_empty_product(self, ref_params):
        assert asymptotic_w(ref_params, 0) == 1.0

    def test_reference_value(self, ref_params):
        c = derive_coefficients(ref_params)
        got = asymptotic_w(ref_params, 1)
        assert got == pytest.approx(c.eta / c.alpha, rel=1e-12)
        assert got == pytest.approx(50.358, abs=1e-3)

    def test_ratio_reproduces_asymptotic_quote(self, ref_params):
        for q in range(1, 7):
            via_w = quote_from_w(asymptotic_w(ref_params, q),
                                 asymptotic_w(ref_params, q - 1), ref_params)
            assert via_w == pytest.approx(asymptotic_quote(ref_params, q),
                                          rel=1e-10)

    def test_guards(self, ref_params):
        with pytest.raises(ParameterError):
            asymptotic_w(ref_params, 7)
        with pytest.raises(NoAsymptoteError):
            asymptotic_w(ModelParams(mu=0.1), 1)


class TestNoDriftNoVol:
    def test_w_base_cases(self, nodrift_params):
        p = nodrift_params
        assert nodrift_novol_w(p, 0.0, 0) == 1.0
        eta = derive_coefficients(p).eta
        assert nodrift_novol_w(p, 0.0, 1) == pytest.approx(
            math.exp(-0.9) + eta * 300.0, rel=1e-12)
        assert nodrift_novol_w(p, 0.0, 1) == pytest.approx(10.604, abs=1e-3)
        for q in range(7):
            assert nodrift_novol_w(p, p.horizon, q) == pytest.approx(
                math.exp(-p.k * p.b * q), rel=1e-12)

    def test_w_oracle_matches_40_digit_sum(self, nodrift_params):
        # at q_max = 124 and b = 37 the low terms of the high levels are
        # below the double range (exp(-k b q) = 0 from q = 68); only the
        # levels whose w is a normal double are compared
        deep = ModelParams(mu=0.0, sigma=0.0, b=37.0, horizon=7.0, q_max=124)
        for p in (nodrift_params, deep):
            eta, compared = derive_coefficients(p).eta, []
            for t in (0.0, 0.5 * p.horizon, p.horizon):
                with mpmath.workdps(40):
                    tau, kb = mpmath.mpf(p.horizon) - t, mpmath.mpf(p.k * p.b)
                    terms = [(mpmath.mpf(eta) * tau) ** j / mpmath.factorial(j)
                             for j in range(p.q_max + 1)]
                    for q in range(p.q_max + 1):
                        exact = mpmath.fsum(terms[j] * mpmath.exp(-kb * (q - j))
                                            for j in range(q + 1))
                        if exact > sys.float_info.min:
                            compared.append(q)
                            assert nodrift_novol_w(p, t, q) == pytest.approx(
                                float(exact), rel=1e-12)
            assert len(compared) > p.q_max
        assert math.exp(-deep.k * deep.b * max(compared)) == 0.0

    def test_quote_terminal_and_lower_bound(self, nodrift_params):
        p = nodrift_params
        floor = terminal_quote(p)
        assert nodrift_novol_quote(p, p.horizon, 3) == pytest.approx(floor, rel=1e-12)
        for t in (0.0, 100.0, 299.0):
            for q in (1, 3, 6):
                assert nodrift_novol_quote(p, t, q) > floor
        # approaching T the excess over the floor vanishes but never flips sign
        assert nodrift_novol_quote(p, 299.999, 6) >= floor

    def test_quote_matches_solver(self, nodrift_params):
        grid = solve_grid(nodrift_params, 10_000)
        surface = quote_surface(grid)
        for i in (0, 2500, 5000, 7500):
            t = float(grid.times[i])
            for q in range(1, 7):
                assert surface.values[i, q - 1] == pytest.approx(
                    nodrift_novol_quote(nodrift_params, t, q), abs=1e-8)

    def test_quote_decreasing_in_liquidation_cost(self, nodrift_params):
        quotes = [nodrift_novol_quote(nodrift_params.with_(b=b), 0.0, 2)
                  for b in (0.0, 3.0, 20.0)]
        assert np.all(np.diff(quotes) < 0)

    def test_finite_where_the_low_terms_underflow(self):
        # every j < q term of the q = 124 series is below the double range; summed in logs the quote is finite, below
        # the q = 123 one, and equal to a 40-digit sum
        p = ModelParams(mu=0.0, sigma=0.0, b=37.0, horizon=7.0, q_max=124)
        for quote, rate, spread in (
                (nodrift_novol_quote, derive_coefficients(p).eta,
                 math.log1p(p.gamma / p.k) / p.gamma),
                (risk_neutral_quote, p.big_a / math.e, 1 / p.k)):
            top = quote(p, 3.5, 124)
            assert math.isfinite(top) and top < quote(p, 3.5, 123)
            with mpmath.workdps(40):
                terms = [mpmath.mpf(rate) ** j / mpmath.factorial(j)
                         * mpmath.exp(-mpmath.mpf(p.k * p.b) * (124 - j))
                         * mpmath.mpf(3.5) ** j for j in range(125)]
                ratio = terms[124] / mpmath.fsum(terms[:124])
                exact = -p.b + float(mpmath.log1p(ratio)) / p.k + spread
            assert top == pytest.approx(exact, abs=1e-12)

    def test_regime_guards(self, ref_params):
        with pytest.raises(RegimeError):
            nodrift_novol_w(ref_params, 0.0, 1)          # sigma != 0
        with pytest.raises(RegimeError):
            nodrift_novol_quote(ModelParams(mu=0.01, sigma=0.0), 0.0, 1)


class TestRiskNeutralQuote:
    def test_reference_value(self):
        p = ModelParams(mu=0.0, sigma=0.0, b=0.0)
        got = risk_neutral_quote(p, 0.0, 1)
        assert got == pytest.approx(
            math.log1p(0.1 / math.e * 300.0) / 0.3 + 1 / 0.3, rel=1e-12)
        assert got == pytest.approx(11.626, abs=1e-3)

    def test_small_gamma_limit(self, nodrift_params):
        p = nodrift_params.with_(gamma=1e-6)
        for t in (0.0, 150.0):
            for q in range(1, 7):
                assert nodrift_novol_quote(p, t, q) == pytest.approx(
                    risk_neutral_quote(p, t, q), abs=1e-3)

    def test_grows_without_bound_in_horizon(self):
        horizons = (300.0, 3000.0, 3e4, 3e6)
        quotes = [risk_neutral_quote(ModelParams(mu=0.0, sigma=0.0, horizon=h),
                                     0.0, 1) for h in horizons]
        assert np.all(np.diff(quotes) > 0)
        assert quotes[-1] > 30  # no asymptote, unlike the risk-averse case

    def test_sigma_free_but_drift_guarded(self):
        # formula never reads sigma; any volatility is accepted
        assert risk_neutral_quote(ModelParams(sigma=0.3), 0.0, 1) \
            == risk_neutral_quote(ModelParams(sigma=0.0), 0.0, 1)
        with pytest.raises(RegimeError):
            risk_neutral_quote(ModelParams(mu=0.01, sigma=0.0), 0.0, 1)


class TestForcedLiquidationLimit:
    def test_w_single_factor(self, nodrift_params):
        eta = derive_coefficients(nodrift_params).eta
        assert binf_w(nodrift_params, 0.0, 1) == pytest.approx(
            eta * 300.0, rel=1e-12)

    def test_w_drift_branch_matches_no_drift_to_first_order(self):
        tiny = ModelParams(mu=1e-9, sigma=0.0)
        none = ModelParams(mu=0.0, sigma=0.0)
        for q in (1, 3, 6):
            a, b = binf_w(tiny, 100.0, q), binf_w(none, 100.0, q)
            assert abs(a - b) / b < 1e-6

    def test_w_boundary_of_positivity(self, nodrift_params):
        assert binf_w(nodrift_params, 300.0, 2) == 0.0
        assert binf_w(nodrift_params, 300.0, 0) == 1.0

    def test_quote_halves_per_inventory_doubling(self, nodrift_params):
        d2 = binf_quote(nodrift_params, 50.0, 2)
        d4 = binf_quote(nodrift_params, 50.0, 4)
        assert d2 - d4 == pytest.approx(math.log(2) / nodrift_params.k, rel=1e-12)

    def test_quote_diverges_at_deadline(self, nodrift_params):
        ts = [300.0 - 10.0 ** (-j) for j in range(0, 8)]
        quotes = [binf_quote(nodrift_params, t, 1) for t in ts]
        assert np.all(np.diff(quotes) < 0)
        assert quotes[-1] < -50
        with pytest.raises(RegimeError, match="-inf|no lower bound"):
            binf_quote(nodrift_params, 300.0, 1)

    def test_quote_sensitivity_to_decay_changes_sign(self, nodrift_params):
        # d(quote)/dk = -(quote)/k + gamma/(k^2 (gamma+k)): negative only
        # above the positive threshold gamma/(k (gamma+k))
        def fd(p, t, q, h=1e-6):
            return (binf_quote(p.with_(k=p.k + h), t, q)
                    - binf_quote(p.with_(k=p.k - h), t, q)) / (2 * h)

        p = nodrift_params
        high = binf_quote(p, 0.0, 1)
        threshold = p.gamma / (p.k * (p.gamma + p.k))
        assert high > threshold and fd(p, 0.0, 1) < 0
        low = binf_quote(p, 295.0, 6)
        assert low < threshold and fd(p, 295.0, 6) > 0
        # finite difference agrees with the analytic expression
        analytic = -high / p.k + p.gamma / (p.k ** 2 * (p.gamma + p.k))
        assert fd(p, 0.0, 1) == pytest.approx(analytic, rel=1e-4)

    def test_regime_guard(self, ref_params):
        with pytest.raises(RegimeError):
            binf_quote(ref_params, 0.0, 1)
        with pytest.raises(RegimeError):
            binf_w(ref_params, 0.0, 1)


@pytest.mark.parametrize("func,args,name", [
    (asymptotic_quote, (1.5,), "q"),
    (nodrift_novol_quote, (0.0, 1.5), "q"),
    (risk_neutral_quote, (0.0, 1.5), "q"),
    (binf_w, (0.0, 1.5), "q"),
    (binf_quote, (0.0, 1.5), "q"),
    (binf_trading_curve, (2.5, [0.0, 300.0]), "q0"),
], ids=lambda value: getattr(value, "__name__", None))
def test_non_integer_inventory_refused_by_name(func, args, name):
    # sigma = mu = 0 is each function's own regime, so only the inventory is wrong
    with pytest.raises(ParameterError, match=f"^{name} must be an integer, got"):
        func(ModelParams(sigma=0.0), *args)


@pytest.mark.parametrize("func,args,message", [
    (asymptotic_quote, (0,), "q must be >= 1, got 0"),
    (nodrift_novol_quote, (0.0, 0), "q must be >= 1, got 0"),
    (nodrift_novol_quote, (-1.0, 1), "t=-1.0 outside [0, 300.0]"),
    (risk_neutral_quote, (0.0, -2), "q must be >= 1, got -2"),
    (risk_neutral_quote, (300.5, 1), "t=300.5 outside [0, 300.0]"),
    (risk_neutral_quote, (math.nan, 1), "t=nan outside [0, 300.0]"),
    (binf_w, (0.0, -1), "q must be >= 0, got -1"),
    (binf_w, (-1e-9, 0), "t=-1e-09 outside [0, 300.0]"),
    (binf_quote, (0.0, 0), "q must be >= 1, got 0"),
    (binf_quote, (math.inf, 1), "t=inf outside [0, 300.0]"),
    (binf_trading_curve, (0, [0.0, 300.0]), "q0 must be >= 1, got 0"),
], ids=lambda value: getattr(value, "__name__", None))
def test_argument_outside_domain_refused_by_name(func, args, message):
    # sigma = mu = 0 is each function's own regime, so only the argument is wrong
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        func(ModelParams(sigma=0.0), *args)


class TestForcedLiquidationCurve:
    def test_endpoints(self, nodrift_params):
        curve = binf_trading_curve(nodrift_params, 6, [0.0, 150.0, 300.0])
        assert curve.expected_inventory[0] == 6.0
        assert curve.expected_inventory[-1] == 0.0
        assert_trading_curve(curve, 6)

    def test_halfway_value(self, nodrift_params):
        curve = binf_trading_curve(nodrift_params, 6, [150.0])
        assert curve.expected_inventory[0] == pytest.approx(
            6 * 0.5 ** (7 / 6), rel=1e-12)
        assert curve.expected_inventory[0] == pytest.approx(6 * 0.44545, abs=1e-4)

    @pytest.mark.parametrize("t", [-1.0, 300.5, math.nan, math.inf])
    def test_time_outside_horizon_refused(self, t):
        # NaN included: it fails every comparison
        with pytest.raises(ParameterError, match=r"^times must lie within \[0, horizon\]$"):
            binf_trading_curve(ModelParams(sigma=0.0), 3, [0.0, t])

    def test_independent_of_fill_scale(self, nodrift_params):
        times = np.linspace(0.0, 300.0, 31)
        lo = binf_trading_curve(nodrift_params.with_(big_a=0.05), 6, times)
        hi = binf_trading_curve(nodrift_params.with_(big_a=0.15), 6, times)
        assert np.array_equal(lo.expected_inventory, hi.expected_inventory)

    def test_convexity_flips_with_strong_drift(self):
        times = np.linspace(0.0, 300.0, 61)
        flat = binf_trading_curve(ModelParams(mu=0.0, sigma=0.0), 6, times)
        drift = binf_trading_curve(ModelParams(mu=0.05, sigma=0.0), 6, times)
        second = lambda v: np.diff(v, n=2)
        assert np.all(second(flat.expected_inventory) >= -1e-12)  # convex
        assert np.any(second(drift.expected_inventory) < -1e-9)   # concave part

    def test_csv_export(self, nodrift_params, tmp_path):
        curve = binf_trading_curve(nodrift_params, 3, np.linspace(0, 300, 4))
        path = tmp_path / "curve.csv"
        curve.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,V"
        assert len(lines) == 5
