"""Parameter validation, derived coefficients, the quote formula, and the
ODE residual checker."""

import argparse
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optliq import (ModelParams, ParameterError, UsageError, WGrid,
                    derive_coefficients, hjb_residual, quote_from_w, solve_grid,
                    terminal_quote)
from optliq.cli import _load_params, _settings
from optliq.closed_forms import TradingCurve
from optliq.model import MODEL_SECTION, DerivedCoefficients, QuoteSurface, parse_config
from tests.oracles import model_params_fields, nodrift_novol_w


FLOAT_FIELDS = ("mu", "sigma", "big_a", "k", "gamma", "b", "horizon")
# out of every domain and at its edges, as floats, ints, bools and NumPy
# scalars, plus an int beyond the double range
EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1.0, 0, -2, 3, True, False,
         np.float64(math.nan), np.float64(-0.5), np.float64(2.0), np.int64(3),
         np.int64(-1), 10 ** 400, 5e-324, 1.7e308]
FIELD_VALUES = st.one_of(st.sampled_from(EDGES), st.floats())
Q_MAX_VALUES = st.one_of(st.sampled_from(EDGES + [2.0, 2.5, np.int64(7), np.float64(4.0)]),
                         st.integers(-3, 50), st.floats(-3.0, 50.0))


def model_of(sections: dict) -> ModelParams:
    """The model parameters of parsed config sections, read by the
    command line's model table."""
    return ModelParams(**_settings(sections, MODEL_SECTION, {}))


class TestModelParams:
    def test_defaults_are_valid(self):
        p = ModelParams()
        assert p.q_max == 6 and p.horizon == 300.0

    @pytest.mark.parametrize("bad", [
        dict(big_a=0.0), dict(big_a=-1.0), dict(k=0.0), dict(horizon=0.0),
        dict(sigma=-0.1), dict(gamma=-0.05), dict(b=-1.0), dict(q_max=0),
        dict(q_max=2.5),
    ])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ParameterError):
            ModelParams(**bad)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["mu", "sigma", "big_a", "k", "gamma",
                                       "b", "horizon", "q_max"])
    def test_rejects_non_finite(self, field, value):
        match = f"{field} must be finite"
        if field == "b" and value == math.inf:
            match += ".*closed_forms.binf_"
        with pytest.raises(ParameterError, match=match):
            ModelParams(**{field: value})

    @given(st.fixed_dictionaries({}, optional={
        **{name: FIELD_VALUES for name in FLOAT_FIELDS}, "q_max": Q_MAX_VALUES}))
    @settings(max_examples=400, deadline=None)
    def test_combined_check_matches_field_loop(self, values):
        # the type and message of a refusal, or the q_max stored, equal
        # those of the per-field checks
        try:
            want = model_params_fields(values)
        except Exception as exc:  # noqa: BLE001 - any refusal is compared
            with pytest.raises(Exception) as got:
                ModelParams(**values)
            assert type(got.value) is type(exc) and str(got.value) == str(exc)
        else:
            q_max = ModelParams(**values).q_max
            assert q_max == want and type(q_max) is int

    def test_config_round_trip(self, tmp_path, ref_params):
        path = tmp_path / "model.cfg"
        ref_params.to_config_file(path)
        params, sections = _load_params(argparse.Namespace(config=str(path), set=None))
        assert list(sections) == [MODEL_SECTION] and params == ref_params

    def test_config_sections_and_header_rule(self, tmp_path, ref_params):
        path = tmp_path / "model.cfg"
        path.write_text(ref_params.to_config_text()
                        + "# comment\n[sim]\nq0 = 6  # trailing\n[ backtest ]\nb = 2\n")
        with open(path, encoding="utf-8") as fh:
            sections = parse_config(fh)
        assert model_of(sections) == ref_params
        del sections[MODEL_SECTION]
        assert sections == {"sim": {"q0": "6"}, "backtest": {"b": "2"}}
        # a header is "[name]" on its own line; anything else is malformed
        with pytest.raises(ParameterError, match="malformed"):
            parse_config(iter(["mu = 0\n", "[sim\n"]))

    def test_config_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "model.cfg"
        path.write_text("mu = 0\nbogus = 1\n")
        with pytest.raises(UsageError, match="unknown model key 'bogus'"):
            _load_params(argparse.Namespace(config=str(path), set=None))

    @given(mu=st.floats(-1, 1), sigma=st.floats(0, 5),
           big_a=st.floats(1e-3, 10), k=st.floats(1e-3, 10),
           gamma=st.floats(1e-6, 10), b=st.floats(0, 50),
           horizon=st.floats(1, 1e5))
    @settings(max_examples=200, deadline=None)
    def test_config_text_round_trips_floats(self, mu, sigma, big_a, k, gamma,
                                            b, horizon):
        p = ModelParams(mu=mu, sigma=sigma, big_a=big_a, k=k, gamma=gamma,
                        b=b, horizon=horizon, q_max=3)
        sections = parse_config(iter(p.to_config_text().splitlines(True)))
        assert list(sections) == [MODEL_SECTION]
        assert model_of(sections) == p


class TestDerivedCoefficients:
    def test_reference_alpha_beta(self, ref_params):
        c = derive_coefficients(ref_params)
        # alpha = (k/2) gamma sigma^2 = 0.5 * 0.3 * 0.05 * 0.09
        assert c.alpha == pytest.approx(0.000675, rel=1e-12)
        assert c.beta == 0.0

    def test_eta_reference_value(self, ref_params):
        c = derive_coefficients(ref_params)
        assert c.eta == pytest.approx(0.1 * (7 / 6) ** -7, rel=1e-12)
        assert c.eta == pytest.approx(0.033992, abs=1e-6)

    def test_eta_at_gamma_zero_is_exactly_a_over_e(self):
        c = derive_coefficients(ModelParams(gamma=0.0))
        assert c.eta == 0.1 / math.e

    def test_eta_continuous_at_gamma_zero(self):
        c = derive_coefficients(ModelParams(gamma=1e-9))
        assert c.eta == pytest.approx(0.1 / math.e, rel=1e-8)

    @given(sigma=st.floats(0, 5), mu=st.floats(-1, 1),
           big_a=st.floats(1e-3, 10), k=st.floats(1e-3, 10),
           gamma=st.floats(0, 10))
    @settings(max_examples=300, deadline=None)
    def test_coefficient_ranges(self, sigma, mu, big_a, k, gamma):
        c = derive_coefficients(ModelParams(mu=mu, sigma=sigma, big_a=big_a,
                                            k=k, gamma=gamma))
        assert c.alpha >= 0
        assert 0 < c.eta <= big_a


class TestQuoteFromW:
    def test_equal_w_gives_spread_term_only(self, ref_params):
        # (1/gamma) ln(1 + gamma/k) = 20 ln(7/6)
        assert quote_from_w(2.5, 2.5, ref_params) == pytest.approx(
            20 * math.log(7 / 6), rel=1e-12)
        assert quote_from_w(2.5, 2.5, ref_params) == pytest.approx(3.0830, abs=1e-4)

    def test_terminal_pair(self, ref_params):
        # w_q(T) = exp(-k q b) pairs give -b + (1/gamma) ln(1 + gamma/k)
        k, b = ref_params.k, ref_params.b
        got = quote_from_w(math.exp(-2 * k * b), math.exp(-k * b), ref_params)
        assert got == pytest.approx(terminal_quote(ref_params), rel=1e-12)
        assert got == pytest.approx(0.08301, abs=1e-5)

    @pytest.mark.parametrize("w_q,w_qm1", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_rejects_nonpositive_w(self, ref_params, w_q, w_qm1):
        with pytest.raises(ParameterError, match="quotes_at"):
            quote_from_w(w_q, w_qm1, ref_params)

    @pytest.mark.parametrize("w_q,w_qm1", [(math.inf, 1e300), (1.0, math.nan)])
    def test_rejects_non_finite_w(self, ref_params, w_q, w_qm1):
        with pytest.raises(ParameterError, match="finite"):
            quote_from_w(w_q, w_qm1, ref_params)

    def test_rejects_gamma_zero(self):
        with pytest.raises(ParameterError, match="risk-neutral"):
            quote_from_w(1.0, 1.0, ModelParams(gamma=0.0))

    def test_full_pipeline_reference_value(self, ref_params):
        grid = solve_grid(ref_params)
        got = quote_from_w(grid.values[0, 1], grid.values[0, 0], ref_params)
        assert got == pytest.approx(10.6095, abs=5e-4)


class TestHjbResidual:
    def test_vanishes_on_closed_form(self, nodrift_params):
        # the closed form fills the rows hjb_residual reads around each t
        # and row 0, where every level peaks (w_q falls in t at
        # mu = sigma = 0); the other rows are zeros
        p, n_steps, ts = nodrift_params, 10_000, (0.03, 75.0, 150.0, 299.97)
        times = np.linspace(0.0, p.horizon, n_steps + 1)
        values = np.zeros((n_steps + 1, p.q_max + 1))
        for i in {0} | {round(t / p.horizon * n_steps) + d for t in ts for d in (-1, 0, 1)}:
            values[i] = [nodrift_novol_w(p, times[i], q) for q in range(p.q_max + 1)]
        w = WGrid(params=p, times=times, values=values)
        for q in range(1, 7):
            scale = np.max(np.abs(w.values[:, q]))
            for t in ts:
                assert abs(hjb_residual(w, nodrift_params, t, q)) < 1e-6 * scale

    def test_zero_coefficients_give_zero_residual(self, ref_params):
        times = np.linspace(0.0, ref_params.horizon, 101)
        flat = WGrid(params=ref_params, times=times,
                     values=np.ones((101, ref_params.q_max + 1)))
        zero = DerivedCoefficients(alpha=0.0, beta=0.0, eta=0.0)
        assert hjb_residual(flat, ref_params, 150.0, 3, coeffs=zero) == 0.0

    def test_requires_positive_w(self, ref_params):
        times = np.linspace(0.0, ref_params.horizon, 101)
        vals = np.ones((101, ref_params.q_max + 1))
        vals[50, 2] = 0.0
        broken = WGrid(params=ref_params, times=times, values=vals)
        with pytest.raises(ParameterError, match="positive"):
            hjb_residual(broken, ref_params, float(times[50]), 2)

    def test_range_errors(self, ref_params):
        grid = solve_grid(ref_params, n_steps=100)
        with pytest.raises(ParameterError):
            hjb_residual(grid, ref_params, -5.0, 1)
        with pytest.raises(ParameterError):
            hjb_residual(grid, ref_params, 0.0, 1)  # boundary, not interior
        with pytest.raises(ParameterError):
            hjb_residual(grid, ref_params, 150.0, 0)


class TestFirstOrderCondition:
    def test_quote_maximises_fill_tradeoff(self, ref_params):
        """Golden-section search over the premium must land on the formula.

        The objective traded off is exp(-k d) * (1 - exp(-gamma d) R) with
        R = (w_{q-1}/w_q)^(-gamma/k): fill rate times utility gain per fill.
        """
        from scipy.optimize import minimize_scalar
        p = ref_params
        grid = solve_grid(p)
        for i in (0, 2500, 5000, 9000):
            for q in range(1, p.q_max + 1):
                w_q, w_qm1 = grid.values[i, q], grid.values[i, q - 1]
                ratio_term = (w_qm1 / w_q) ** (-p.gamma / p.k)

                def neg_objective(d):
                    return -math.exp(-p.k * d) * (
                        1.0 - math.exp(-p.gamma * d) * ratio_term)

                # coarse enumeration finds the basin, golden search refines
                coarse = np.linspace(-80.0, 100.0, 1801)
                m = int(np.argmin([neg_objective(d) for d in coarse]))
                res = minimize_scalar(
                    neg_objective, method="golden",
                    bracket=(coarse[m - 1], coarse[m], coarse[m + 1]),
                    options={"xtol": 1e-8})
                expected = quote_from_w(w_q, w_qm1, p)
                assert res.x == pytest.approx(expected, abs=1e-4)


@pytest.mark.parametrize("make,message", [
    (lambda p: QuoteSurface(np.arange(3.0), np.zeros((3, 5)), p),
     "quote surface shape mismatch"),
    (lambda p: QuoteSurface(np.zeros((3, 1)), np.zeros((3, 6)), p),
     "quote surface shape mismatch"),
    (lambda p: QuoteSurface([0.0, 2.0, 1.0], np.zeros((3, 6)), p),
     "surface times must be strictly increasing"),
    (lambda p: QuoteSurface([0.0, 1.0, 1.0], np.zeros((3, 6)), p),
     "surface times must be strictly increasing"),
    (lambda p: WGrid(p, np.arange(3.0), np.ones((3, 6))), "w grid shape mismatch"),
    (lambda p: WGrid(p, np.arange(3.0), np.ones((3, 7)), breaks=(1,)),
     "w grid shape mismatch"),
    (lambda p: WGrid(p, np.arange(3.0), np.ones((3, 7)), exponents=np.zeros((1, 6))),
     "w grid shape mismatch"),
    (lambda p: TradingCurve([0.0, 1.0], [6.0]), "trading curve shape mismatch"),
    (lambda p: TradingCurve(np.zeros((2, 1)), np.zeros((2, 1))),
     "trading curve shape mismatch"),
])
def test_table_refuses_shape_or_time_order(ref_params, make, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        make(ref_params)
