"""Replay protocol: rounding, determinism, ledger invariants, and the
fill-at-or-above rule on constructed tapes."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optliq import (BacktestConfig, CalibrationError, ParameterError,
                    TradeTape, calibrate_intensity, calibrate_sigma,
                    round_quote, run_backtest, summarize)
from optliq.backtest import BacktestLedger
from optliq.market_data import _row_range, synthetic_tape
from optliq.ode import WSolution, _advance, _quotes, _terminal_state, _Walk
from tests.conftest import two_bucket_episode
from tests.oracles import (calibrate_intensity_recount, calibrate_sigma_resample,
                           slice_time)


NAN, INF = float("nan"), float("inf")


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


class TestRoundQuote:
    @pytest.mark.parametrize("raw,expected", [
        (10.4, 10), (10.5, 11), (10.6, 11), (2.0, 2),
        (-10.4, -10), (-10.5, -11), (0.49, 0), (-0.5, -1),
    ])
    def test_nearest_half_away_from_zero(self, raw, expected):
        assert round_quote(raw, "nearest") == expected

    def test_randomized_frequencies(self):
        r = rng(123)
        outcomes = np.array([round_quote(10.25, "randomized", r)
                             for _ in range(10_000)])
        floor_freq = np.mean(outcomes == 10)
        assert abs(floor_freq - 0.75) <= 0.01
        assert set(np.unique(outcomes)) == {10, 11}

    def test_randomized_integer_is_exact(self):
        assert round_quote(7.0, "randomized", rng()) == 7

    def test_randomized_requires_rng(self):
        with pytest.raises(ParameterError):
            round_quote(1.5, "randomized")
        with pytest.raises(ParameterError):
            round_quote(1.5, "banker")
        for raw in (NAN, INF):
            with pytest.raises(ParameterError, match=f"premium {raw}"):
                round_quote(raw, "nearest")

    @given(raw=st.floats(-1000, 1000))
    @settings(max_examples=300, deadline=None)
    def test_randomized_lands_on_neighbouring_ticks(self, raw):
        got = round_quote(raw, "randomized", rng(7))
        assert got in (int(np.floor(raw)), int(np.ceil(raw)))


def flat_mid_tape(warmup_offsets, trading_prints, mid=100.0, spread=1.0,
                  warmup_end=600.0, end=1800.0):
    """Deterministic tape: a warm-up with prints at given offsets above a
    flat mid, then scripted (time, price) prints."""
    ts, price = [], []
    t = 0.0
    i = 0
    while t < warmup_end - 1.0:
        ts.append(t)
        price.append(mid + warmup_offsets[i % len(warmup_offsets)])
        i += 1
        t += 2.0
    for t_print, px in trading_prints:
        ts.append(t_print)
        price.append(px)
    ts.append(end)
    price.append(mid - 5.0)
    n = len(ts)
    return TradeTape(ts=ts, price=price, size=np.full(n, 100.0),
                     bid=np.full(n, mid - spread / 2),
                     ask=np.full(n, mid + spread / 2))


# offsets whose counts decay roughly exponentially across the fit grid
DECAYING_OFFSETS = [0.6] * 8 + [1.1] * 4 + [1.6] * 2 + [2.1]


@pytest.fixture(scope="module")
def bullish_tape():
    return synthetic_tape(2400.0, sigma=0.05, big_a=0.4, k=0.4, mid0=100.0,
                          drift=0.05, seed=42)


@pytest.fixture(scope="module")
def bullish_cfg():
    return BacktestConfig(q0=3, delta_t=30.0, warmup=600.0,
                          recalib_window=600.0, gamma_mode="fixed",
                          gamma_value=0.05, b=3.0, n_min=30)


@pytest.fixture(scope="module")
def bullish_ledger(bullish_tape, bullish_cfg):
    return run_backtest(bullish_tape, bullish_cfg)


class TestProtocolOnBullishTape:
    def test_full_liquidation_at_rising_prices(self, bullish_ledger):
        ledger = bullish_ledger
        assert ledger.q_end == 0
        assert len(ledger.fills) == 3
        prices = [f.price for f in ledger.fills]
        assert np.all(np.diff(prices) > 0)

    def test_inventory_conservation(self, bullish_ledger, bullish_cfg):
        assert bullish_cfg.q0 == len(bullish_ledger.fills) + bullish_ledger.q_end

    def test_fills_match_open_orders(self, bullish_ledger, bullish_cfg):
        for fill in bullish_ledger.fills:
            order = bullish_ledger.orders[fill.order_index]
            assert order.t_insert < fill.t <= order.t_insert + bullish_cfg.delta_t
            assert fill.price == order.order_price
            assert fill.price >= order.mid + order.quote_ticks

    def test_orders_persist_for_delta_t(self, bullish_ledger, bullish_cfg):
        fills_at = [f.t for f in bullish_ledger.fills]
        orders = bullish_ledger.orders
        for prev, nxt in zip(orders, orders[1:]):
            gap = nxt.t_insert - prev.t_insert
            filled_between = any(prev.t_insert < t <= nxt.t_insert
                                 for t in fills_at)
            assert gap >= bullish_cfg.delta_t - 1e-9 or filled_between

    def test_solver_saw_elapsed_time_and_full_horizon(self, bullish_ledger):
        ledger = bullish_ledger
        for order in ledger.orders:
            assert order.solver_horizon == ledger.horizon
            assert order.solver_t == pytest.approx(
                order.t_insert - ledger.start_time)
            assert 0 <= order.solver_t < ledger.horizon

    def test_cash_equals_fill_prices(self, bullish_ledger):
        assert bullish_ledger.cash_end == pytest.approx(
            sum(f.price for f in bullish_ledger.fills), rel=1e-15)

    def test_beats_instant_liquidation_benchmark(self, bullish_ledger):
        report = summarize(bullish_ledger)
        assert report.completed
        assert report.terminal_mark > report.benchmark
        assert report.completion_time is not None
        assert report.fill_count == 3
        assert report.avg_fill_premium > 0

    def test_deterministic_replay(self, bullish_tape, bullish_cfg,
                                  bullish_ledger):
        again = run_backtest(bullish_tape, bullish_cfg)
        assert again.orders == bullish_ledger.orders
        assert again.fills == bullish_ledger.fills
        assert again.series == bullish_ledger.series
        assert again.mark == bullish_ledger.mark

    def test_randomized_rounding_deterministic_per_seed(self, bullish_tape,
                                                        bullish_cfg):
        import dataclasses
        cfg = dataclasses.replace(bullish_cfg, rounding="randomized", seed=5)
        a, b = run_backtest(bullish_tape, cfg), run_backtest(bullish_tape, cfg)
        assert a.orders == b.orders and a.fills == b.fills


class TestNoFillPath:
    def test_zero_fills_marks_at_discount(self):
        # during the trading phase every print sits far below the quotes
        trading = [(t, 95.0) for t in np.arange(601.0, 1795.0, 3.0)]
        tape = flat_mid_tape(DECAYING_OFFSETS, trading)
        cfg = BacktestConfig(q0=3, delta_t=30.0, warmup=600.0,
                             recalib_window=1800.0, gamma_mode="fixed",
                             gamma_value=0.05, b=3.0, n_min=20)
        ledger = run_backtest(tape, cfg)
        assert ledger.fills == []
        assert ledger.q_end == 3
        assert ledger.cash_end == 0.0
        assert ledger.mark == pytest.approx(3 * (100.0 - 3.0))
        report = summarize(ledger)
        assert not report.completed
        assert report.avg_fill_premium is None
        assert report.completion_time is None

    def test_orders_requoted_every_delta_t(self):
        trading = [(t, 95.0) for t in np.arange(601.0, 1795.0, 3.0)]
        tape = flat_mid_tape(DECAYING_OFFSETS, trading)
        cfg = BacktestConfig(q0=1, delta_t=60.0, warmup=600.0,
                             recalib_window=1800.0, gamma_mode="fixed",
                             gamma_value=0.05, b=3.0, n_min=20)
        ledger = run_backtest(tape, cfg)
        inserts = np.array([o.t_insert for o in ledger.orders])
        assert np.allclose(np.diff(inserts), 60.0)


def violent_warmup_tape():
    """Violent warm-up moves push sigma_hat high enough that quoting is
    hopeless and the fallback fires immediately."""
    mid = 100.0
    ts, price, bid, ask = [], [], [], []
    level = mid
    for i, t in enumerate(np.arange(0.0, 600.0, 1.0)):
        level = mid + (8.0 if i % 2 else -8.0)
        ts.append(t)
        price.append(level + DECAYING_OFFSETS[i % len(DECAYING_OFFSETS)])
        bid.append(level - 0.5)
        ask.append(level + 0.5)
    for t in np.arange(600.0, 900.0, 2.0):
        ts.append(t)
        price.append(level)
        bid.append(level - 0.5)
        ask.append(level + 0.5)
    return TradeTape(ts=ts, price=price, size=np.full(len(ts), 100.0),
                     bid=bid, ask=ask)


FALLBACK_CFG = BacktestConfig(q0=4, delta_t=30.0, warmup=600.0,
                              recalib_window=900.0, gamma_mode="fixed",
                              gamma_value=0.5, b=3.0, n_min=20,
                              market_order_threshold=0.0)


class TestMarketOrderFallback:
    def test_negative_quotes_sell_at_best_bid(self):
        tape, cfg = violent_warmup_tape(), FALLBACK_CFG
        ledger = run_backtest(tape, cfg)
        mo_fills = [f for f in ledger.fills if f.order_index is None]
        assert len(mo_fills) >= 1
        for f in mo_fills:
            i = int(np.searchsorted(tape.ts, f.t, side="right")) - 1
            assert f.price == tape.bid[i]
        assert cfg.q0 == len(ledger.fills) + ledger.q_end


class TestIndexedIntensityFit:
    """Ledgers from the prefix-count index against the slicing recount."""

    @pytest.mark.parametrize("case", ["fixed", "quote_target", "no_fill",
                                      "fallback", "two_buckets", "tied"])
    def test_ledger_matches_recount(self, case, bullish_tape, bullish_cfg,
                                    monkeypatch):
        if case == "fixed":
            tape, cfg = bullish_tape, bullish_cfg
        elif case == "quote_target":
            tape = bullish_tape
            cfg = dataclasses.replace(bullish_cfg, gamma_mode="quote_target",
                                      gamma_value=1.0, rounding="randomized")
        elif case == "no_fill":
            trading = [(t, 95.0) for t in np.arange(601.0, 1795.0, 3.0)]
            tape = flat_mid_tape(DECAYING_OFFSETS, trading)
            cfg = BacktestConfig(q0=3, delta_t=30.0, warmup=600.0,
                                 recalib_window=1800.0, gamma_mode="fixed",
                                 gamma_value=0.05, b=3.0, n_min=20)
        elif case == "fallback":
            tape, cfg = violent_warmup_tape(), FALLBACK_CFG
        elif case == "tied":
            # each fill is followed by a print at its own time, which the
            # window of the next re-quote holds
            trading = [(t, px) for t in (650.0, 800.0, 950.0) for px in (120.0, 95.0)]
            tape = flat_mid_tape(DECAYING_OFFSETS, trading)
            cfg = BacktestConfig(q0=3, delta_t=30.0, warmup=600.0,
                                 recalib_window=1800.0, gamma_mode="fixed",
                                 gamma_value=0.05, b=3.0, n_min=20)
        else:
            tape, cfg = two_bucket_episode()
        got = run_backtest(tape, cfg)
        recounts = []

        def recount_fit(tape, index, bucket, lo, hi, end_time, n_min):
            recounts.append(end_time)
            # the rows the replay tracks are the window's, found afresh
            assert (lo, hi) == _row_range(tape.ts, end_time - cfg.recalib_window, end_time)
            fits, dropped = calibrate_intensity_recount(
                tape, cfg.distance_grid, window=cfg.recalib_window,
                end_time=end_time, n_min=n_min)
            return fits.get(bucket, dropped.get(bucket))

        monkeypatch.setattr("optliq.backtest._window_fit", recount_fit)
        want = run_backtest(tape, cfg)
        # every re-quote, a market order included, took its fit from the recount
        assert recounts == sorted([o.t_insert for o in want.orders]
                                  + [f.t for f in want.fills if f.order_index is None])
        assert got.fills or got.orders
        assert got.fills == want.fills
        assert got.gamma_used == want.gamma_used
        assert len(got.orders) == len(want.orders)
        fitted = dict(raw_delta=0.0, a_hat=0.0, k_hat=0.0)
        for a, b in zip(got.orders, want.orders):
            assert dataclasses.replace(a, **fitted) == dataclasses.replace(b, **fitted)
            assert a.raw_delta == pytest.approx(b.raw_delta, rel=0, abs=1e-12)
            assert a.a_hat == pytest.approx(b.a_hat, rel=1e-12, abs=0)
            assert a.k_hat == pytest.approx(b.k_hat, rel=1e-12, abs=0)


class TestWarmupSigma:
    """The replay's sigma against :func:`calibrate_sigma` of the warm-up."""

    @staticmethod
    def zero_start(tape):
        # the first print at 0 puts each warm-up end exactly where it is set
        return TradeTape(ts=tape.ts - tape.ts[0], price=tape.price,
                         size=tape.size, bid=tape.bid, ask=tape.ask)

    @pytest.mark.parametrize("sampling_dt", [1.0, 0.7])
    def test_matches_warmup_slice(self, bullish_tape, sampling_dt):
        tape = self.zero_start(bullish_tape)
        k = int(np.searchsorted(tape.ts, 900.0))
        on_print, between = float(tape.ts[k]), 0.5 * float(tape.ts[k] + tape.ts[k + 1])
        assert on_print in tape.ts and between not in tape.ts
        for warmup in (600.0, on_print, between, 1234.5, 1800.0):
            cfg = BacktestConfig(q0=1, warmup=warmup, horizon=60.0,
                                 recalib_window=600.0, gamma_mode="fixed",
                                 gamma_value=0.05, n_min=30,
                                 sampling_dt=sampling_dt)
            ledger = run_backtest(tape, cfg)
            part = slice_time(tape, tape.ts[0], ledger.start_time)
            want = calibrate_sigma(part, sampling_dt)
            assert ledger.sigma_hat == want > 0
            assert want == calibrate_sigma_resample(part, sampling_dt)
        assert calibrate_sigma(tape, sampling_dt) == calibrate_sigma_resample(
            tape, sampling_dt)

    @pytest.mark.parametrize("sampling_dt,warmup", [(1.0, 50.0), (0.7, 69.0)])
    def test_short_warmup_refused(self, bullish_tape, sampling_dt, warmup):
        tape = self.zero_start(bullish_tape)
        span = float(tape.ts[np.searchsorted(tape.ts, warmup, side="right") - 1])
        cfg = BacktestConfig(warmup=warmup, sampling_dt=sampling_dt)
        message = (f"warm-up sigma calibration failed: tape spans {span:.6g}s "
                   f"< 100 * sampling_dt = {100 * sampling_dt:.6g}s")
        with pytest.raises(CalibrationError, match=f"^{re.escape(message)}$"):
            run_backtest(tape, cfg)


def walk_quotes_at(self, t):
    """:meth:`WSolution.quotes_at` by the walk at every ``q_max``, level
    one included."""
    p = self.params
    v, e = _terminal_state(p)
    if t < p.horizon:
        v, e = _Walk(p).run(v, e, p.horizon - t, 1, _advance)
    return _quotes(v, e, p, np.empty(p.q_max))


class TestLevelOneQuotes:
    """Ledgers quoted through the closed form of level one against the walk."""

    @pytest.mark.parametrize("case", ["fixed", "quote_target", "two_buckets"])
    def test_ledger_matches_walk(self, case, bullish_tape, bullish_cfg, monkeypatch):
        tape, cfg = bullish_tape, bullish_cfg
        if case == "quote_target":
            cfg = dataclasses.replace(bullish_cfg, gamma_mode="quote_target",
                                      gamma_value=1.0, rounding="randomized")
        elif case == "two_buckets":
            tape, cfg = two_bucket_episode()
        got = run_backtest(tape, cfg)
        monkeypatch.setattr(WSolution, "quotes_at", walk_quotes_at)
        want = run_backtest(tape, cfg)
        assert any(o.q_before == 1 for o in got.orders)
        assert got.fills == want.fills
        assert got.gamma_used == want.gamma_used
        assert len(got.orders) == len(want.orders)
        for a, b in zip(got.orders, want.orders):
            assert dataclasses.replace(a, raw_delta=0.0) == dataclasses.replace(b, raw_delta=0.0)
            assert a.raw_delta == pytest.approx(b.raw_delta, rel=0, abs=1e-12)


class TestBidReference:
    def test_orders_priced_off_the_bid_at_insert(self):
        tape, cfg = two_bucket_episode()
        ledger = run_backtest(tape, dataclasses.replace(cfg, reference="bid"))
        assert ledger.orders
        for o in ledger.orders:
            row = int(np.searchsorted(tape.ts, o.t_insert, side="right")) - 1
            assert o.reference_price == tape.bid[row]
            assert o.order_price == o.reference_price + o.quote_ticks
        # orders were placed in both spread buckets, half a spread below the mid
        assert {round(2.0 * (o.mid - o.reference_price)) for o in ledger.orders} == {1, 2}


class TestEdgesAndErrors:
    def test_empty_fit_window_names_it(self):
        # no print between the warm-up (last print at 598 s) and 1800 s:
        # the 300-s window of the re-quote at 1000 s holds no record
        tape = flat_mid_tape(DECAYING_OFFSETS, [])
        cfg = BacktestConfig(q0=1, delta_t=400.0, warmup=600.0, recalib_window=300.0,
                             gamma_mode="fixed", gamma_value=0.05, n_min=20)
        message = ("intensity calibration failed at t=1000: no records in "
                   "[700.0, 1000.0]")
        with pytest.raises(CalibrationError, match=f"^{re.escape(message)}$"):
            run_backtest(tape, cfg)

    def test_tape_shorter_than_horizon_marks_at_tape_end(self, bullish_tape):
        cfg = BacktestConfig(q0=20, delta_t=30.0, warmup=600.0,
                             recalib_window=600.0, gamma_mode="fixed",
                             gamma_value=0.05, b=3.0, n_min=30,
                             horizon=100_000.0)
        ledger = run_backtest(bullish_tape, cfg)
        assert ledger.end_time == bullish_tape.ts[-1]
        assert ledger.mark == pytest.approx(
            ledger.cash_end + ledger.q_end * (ledger.mid_end - 3.0))

    def test_quotes_w_beyond_double_range(self):
        # at q0 = 100 and sigma = 3 the high levels of w(t) fall below the
        # double range; re-quoting from doubles refused the first re-quote
        tape = synthetic_tape(7200.0, sigma=3.0, big_a=0.1, k=0.3, mid0=1e5, seed=1)
        cfg = BacktestConfig(q0=100, delta_t=30.0, warmup=1800.0,
                             gamma_mode="fixed", gamma_value=0.05)
        ledger = run_backtest(tape, cfg)
        assert len(ledger.fills) + ledger.q_end == 100
        assert ledger.orders and ledger.orders[0].q_before == 100
        assert all(np.isfinite(o.raw_delta) for o in ledger.orders)

    def test_warmup_swallowing_tape_rejected(self, bullish_tape):
        cfg = BacktestConfig(warmup=10_000.0)
        with pytest.raises(CalibrationError, match="warm-up"):
            run_backtest(bullish_tape, cfg)

    def test_unusable_bucket_aborts_with_diagnostic(self):
        # no prints ever land above the mid, so no intensity fit exists
        n = 400
        ts = np.linspace(0.0, 1200.0, n)
        tape = TradeTape(ts=ts, price=np.full(n, 95.0),
                         size=np.full(n, 100.0), bid=np.full(n, 99.5),
                         ask=np.full(n, 100.5))
        cfg = BacktestConfig(q0=1, warmup=600.0, recalib_window=1200.0,
                             gamma_mode="fixed", gamma_value=0.05, n_min=20)
        with pytest.raises(CalibrationError, match="bucket"):
            run_backtest(tape, cfg)

    def test_dropped_bucket_names_reason_and_usable_buckets(self):
        # the spread widens to 2 Ticks 10 s before the warm-up ends: at the
        # first re-quote bucket 2 has too few prints, bucket 1 fits
        tape = synthetic_tape(1500.0, sigma=0.05, big_a=0.4, k=0.4, mid0=100.0,
                              spread_schedule=[(0.0, 1.0), (1190.0, 2.0)], seed=3)
        cfg = BacktestConfig(q0=1, warmup=1200.0, recalib_window=1200.0,
                             gamma_mode="fixed", gamma_value=0.05, n_min=20)
        start = float(tape.ts[0]) + 1200.0
        fits, dropped = calibrate_intensity_recount(tape, window=1200.0,
                                                    end_time=start, n_min=20)
        assert list(fits) == [1] and re.fullmatch(
            r"only \d+ prints < n_min = 20", dropped[2])
        assert calibrate_intensity(tape, window=1200.0, end_time=start,
                                   n_min=20)[1] == dropped
        message = (f"no usable fit for spread bucket 2 at t={start:.6g} "
                   f"({dropped[2]}); usable buckets: [1]")
        with pytest.raises(CalibrationError, match=f"^{re.escape(message)}$"):
            run_backtest(tape, cfg)

    def test_config_validation(self):
        for bad in (dict(q0=0), dict(delta_t=0.0), dict(rounding="x"),
                    dict(gamma_mode="x"), dict(reference="mark"),
                    dict(b=-1.0)):
            with pytest.raises(ParameterError):
                BacktestConfig(**bad)

    @pytest.mark.parametrize("field,value,match", [
        ("warmup", NAN, "warmup must be finite"),
        ("horizon", NAN, "horizon must be finite"),
        ("horizon", 0.0, "horizon must be > 0"),
        ("recalib_window", INF, "recalib_window must be finite"),
        ("gamma_value", NAN, "gamma_value must be finite"),
        ("b", NAN, "b must be finite"),
        ("sampling_dt", NAN, "sampling_dt must be finite"),
        ("market_order_threshold", NAN, "market_order_threshold must not be NaN"),
        ("q0", 2.5, "q0 must be an integer"),
        ("n_min", NAN, "n_min must be an integer"),
        ("seed", 1.5, "seed must be an integer"),
        ("warmup", -1.0, "warmup must be >= 0"),
        ("recalib_window", 0.0, "recalib_window must be > 0"),
        ("recalib_window", -60.0, "recalib_window must be > 0"),
        ("sampling_dt", 0.0, "sampling_dt must be > 0"),
        ("sampling_dt", -1.0, "sampling_dt must be > 0"),
        ("distance_grid", (0.5, 1.0), "distance_grid needs >= 3 offsets"),
        ("distance_grid", (0.0, 0.5, 1.0), "distance_grid must be positive and increasing"),
        ("distance_grid", (0.5, 1.5, 1.0), "distance_grid must be positive and increasing"),
        ("distance_grid", (0.5, NAN, 1.5), "distance_grid must be positive and increasing"),
        ("seed", -1, "seed must be >= 0, got -1"),
    ])
    def test_refuses_setting_naming_it(self, field, value, match):
        with pytest.raises(ParameterError, match=match):
            BacktestConfig(**{field: value})

    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_fixed_gamma_must_be_positive(self, value):
        with pytest.raises(ParameterError,
                           match=f"gamma_value must be > 0 in fixed gamma_mode, got {value}"):
            BacktestConfig(gamma_mode="fixed", gamma_value=value)
        # in quote_target mode gamma_value is a target premium, not a risk aversion
        assert BacktestConfig(gamma_mode="quote_target", gamma_value=value).gamma_value == value


class TestSummarizeAndExports:
    def test_unit_premium_ledger(self, bullish_cfg):
        from optliq.backtest import FillEvent, OrderEvent
        orders = [OrderEvent(t_insert=10.0 * i, quote_ticks=1, q_before=3 - i,
                             mid=100.0, reference_price=100.0,
                             order_price=101.0, raw_delta=1.2, solver_t=0.0,
                             solver_horizon=100.0, a_hat=0.1, k_hat=0.3,
                             gamma=0.05, sigma_hat=0.3) for i in range(3)]
        fills = [FillEvent(t=10.0 * i + 5.0, price=101.0, q_after=2 - i,
                           order_index=i) for i in range(3)]
        ledger = BacktestLedger(config=bullish_cfg, start_time=0.0,
                                end_time=100.0, horizon=100.0,
                                mid_start=100.0, orders=orders, fills=fills,
                                cash_end=303.0, q_end=0, mid_end=100.0,
                                mark=303.0)
        report = summarize(ledger)
        assert report.avg_fill_premium == pytest.approx(1.0)
        assert report.completed and report.fill_count == 3
        assert report.slippage_vs_benchmark == pytest.approx(3.0)

    def test_csv_schemas(self, tmp_path, bullish_ledger):
        bullish_ledger.write_csvs(tmp_path)
        assert (tmp_path / "orders.csv").read_text().splitlines()[0] == "t,quote,q"
        assert (tmp_path / "fills.csv").read_text().splitlines()[0] == "t,price,q_after"
        assert (tmp_path / "series.csv").read_text().splitlines()[0] == "t,mid,inventory,cash"
        n_orders = len((tmp_path / "orders.csv").read_text().splitlines()) - 1
        assert n_orders == len(bullish_ledger.orders)
