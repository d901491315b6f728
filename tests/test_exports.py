"""Exact bytes of every CSV table the package writes, and the names the
benchmark imports.

All tables share one format: a header row, ``\\n`` line ends, text cells as
they are and numbers to 17 significant digits, so that a read-back gives
the same doubles.  The inputs are tiny and fixed, so each expected text is
the whole file.
"""

import ast
import dataclasses
import importlib
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from optliq import (BacktestConfig, FixedQuote, ModelParams, QuoteSurface,
                    SimConfig, TradingCurve, WGrid)
from optliq.backtest import BacktestLedger, FillEvent, OrderEvent
from optliq.market_data import TradeTape
from optliq.model import _write_csv, _write_tq_csv
from optliq.simulate import SimPath, SimSummary
from tests.oracles import tq_rows

PARAMS = ModelParams(q_max=2, horizon=1.0)
TIMES = [0.0, 0.5, 1.0]


def written(tmp_path, write) -> str:
    path = tmp_path / "out.csv"
    write(path)
    with open(path, newline="") as fh:
        return fh.read()


def test_quote_surface_csv(tmp_path):
    surface = QuoteSurface(TIMES, [[0.1, 1 / 3], [-2.5, 1e-20], [100.0, -0.0]], PARAMS)
    assert written(tmp_path, surface.to_csv) == (
        "t,q,value\n"
        "0,1,0.10000000000000001\n"
        "0,2,0.33333333333333331\n"
        "0.5,1,-2.5\n"
        "0.5,2,9.9999999999999995e-21\n"
        "1,1,100\n"
        "1,2,-0\n")


CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072e-308, 1e308, -1e308,
                     np.inf, -np.inf, np.nan, 0.1, 1 / 3]))


@given(data=st.data(), n_rows=st.integers(0, 12), n_levels=st.integers(1, 8),
       first_q=st.sampled_from([0, 1]))
@settings(max_examples=200, deadline=None)
def test_tq_writer_matches_rows_through_write_csv(data, n_rows, n_levels, first_q):
    # one format call per time step writes the bytes that one _write_csv
    # line per cell writes
    times = data.draw(hnp.arrays(float, n_rows, elements=CELLS))
    values = data.draw(hnp.arrays(float, (n_rows, n_levels), elements=CELLS))
    with tempfile.TemporaryDirectory() as tmp:
        new, old = os.path.join(tmp, "new.csv"), os.path.join(tmp, "old.csv")
        _write_tq_csv(new, times, values, first_q)
        _write_csv(old, ("t", "q", "value"), tq_rows(times, values, first_q))
        assert Path(new).read_bytes() == Path(old).read_bytes()


def test_wgrid_csv_from_level_zero_with_rounded_levels(tmp_path):
    # the last row's exponents put level 1 below the smallest subnormal
    # and level 2 above the largest double
    grid = WGrid(PARAMS, TIMES, [[1.0, 0.25, 0.1], [1.0, 0.5, 1 / 3], [1.0, 0.75, 0.5]],
                 exponents=[[0, 0, 0], [0, -1100, 1100]], breaks=(0, 2))
    assert written(tmp_path, grid.to_csv) == (
        "t,q,value\n"
        "0,0,1\n"
        "0,1,0.25\n"
        "0,2,0.10000000000000001\n"
        "0.5,0,1\n"
        "0.5,1,0.5\n"
        "0.5,2,0.33333333333333331\n"
        "1,0,1\n"
        "1,1,0\n"
        "1,2,inf\n")


def test_trading_curve_csv(tmp_path):
    curve = TradingCurve([0.0, 0.1, 0.3], [2.0, 1.2, 0.1 + 0.2])
    assert written(tmp_path, curve.to_csv) == (
        "t,V\n"
        "0,2\n"
        "0.10000000000000001,1.2\n"
        "0.29999999999999999,0.30000000000000004\n")


def test_simulation_curve_and_events_csv(tmp_path):
    cfg = SimConfig(params=PARAMS, q0=2, dt=0.01, n_paths=4, seed=0,
                    policy=FixedQuote(1.0))
    summary = SimSummary(
        config=cfg,
        trading_curve=TradingCurve(TIMES, [2.0, 1.25, 0.5]),
        mc_stderr_curve=[0.0, 0.1, 1 / 3], pnl_mean=0.0, pnl_std=0.0,
        utility_mean=-1.0, utility_stderr=0.0, terminal_inventory_hist={0: 4},
        price_terminal_mean=0.0, price_terminal_stderr=0.0)
    assert written(tmp_path, summary.curve_to_csv) == (
        "t,mean_q,stderr\n"
        "0,2,0\n"
        "0.5,1.25,0.10000000000000001\n"
        "1,0.5,0.33333333333333331\n")
    path = SimPath(times=TIMES, price=[0.0, 0.5, 1.0], inventory=[2, 1, 0],
                   cash=[0.0, 2.5, 1.8], fills=[(0.1, 2.5), (1 / 3, -0.7)],
                   market_order_count=0)
    assert written(tmp_path, path.to_events_csv) == (
        "t,price,event\n"
        "0.10000000000000001,2.5,fill\n"
        "0.33333333333333331,-0.69999999999999996,fill\n")


@pytest.fixture
def ledger():
    order = OrderEvent(t_insert=0.1, quote_ticks=-3, q_before=2, mid=100.05,
                       reference_price=100.05, order_price=97.05, raw_delta=-3.2,
                       solver_t=0.1, solver_horizon=1.0, a_hat=0.1, k_hat=0.3,
                       gamma=0.05, sigma_hat=0.3)
    return BacktestLedger(
        config=BacktestConfig(q0=2), start_time=0.0, end_time=1.0, horizon=1.0,
        mid_start=100.0, orders=[order],
        fills=[FillEvent(t=0.1, price=97.05, q_after=1, order_index=0),
               FillEvent(t=1 / 3, price=100.1, q_after=0, order_index=None)],
        series=[(0.0, 100.0, 2, 0.0), (0.1, 100.05, 1, 97.05),
                (1 / 3, 100.1, 0, 97.05 + 100.1)])


def test_ledger_csvs(tmp_path, ledger):
    ledger.write_csvs(tmp_path)
    assert (tmp_path / "orders.csv").read_bytes() == (
        b"t,quote,q\n"
        b"0.10000000000000001,-3,2\n")
    assert (tmp_path / "fills.csv").read_bytes() == (
        b"t,price,q_after\n"
        b"0.10000000000000001,97.049999999999997,1\n"
        b"0.33333333333333331,100.09999999999999,0\n")
    assert (tmp_path / "series.csv").read_bytes() == (
        b"t,mid,inventory,cash\n"
        b"0,100,2,0\n"
        b"0.10000000000000001,100.05,1,97.049999999999997\n"
        b"0.33333333333333331,100.09999999999999,0,197.14999999999998\n")


def test_ledger_without_orders_writes_header_only(tmp_path, ledger):
    dataclasses.replace(ledger, orders=[]).write_csvs(tmp_path)
    assert (tmp_path / "orders.csv").read_bytes() == b"t,quote,q\n"


def test_tape_csv_restores_currency(tmp_path):
    tape = TradeTape(ts=[0.0, 0.5, 2.0], price=[10012.3, 10013.0, 10011.7],
                     size=[1.0, 2.5, 3.0], bid=[10011.5, 10012.5, 10011.0],
                     ask=[10012.5, 10013.5, 10012.0], tick_size=0.01)
    assert written(tmp_path, tape.write_csv) == (
        "ts,price,size,bid,ask\n"
        "0,100.12299999999999,1,100.11500000000001,100.125\n"
        "0.5,100.13,2.5,100.125,100.13500000000001\n"
        "2,100.117,3,100.11,100.12\n")


def test_benchmark_imports_exist():
    """Every name ``bench/*.py`` imports from ``optliq`` exists, and so does
    the ``WGrid.terminal_underflow`` it reads: a deletion that would break a
    benchmark run fails here first."""
    imported = []
    for path in sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "optliq":
                imported += [(path.name, node.module, alias.name) for alias in node.names]
    assert imported
    missing = [f"{name}: {module}.{attr}" for name, module, attr in imported
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing
    assert isinstance(WGrid.terminal_underflow, property)
