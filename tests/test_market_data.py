"""Tape ingestion, the three calibrators, and the generate-then-recover
round trip."""

import json
import re
import warnings

import numpy as np
import pytest

from optliq import (CalibrationError, DataError, ModelParams, ParameterError,
                    TradeTape, calibrate_gamma,
                    calibrate_intensity, calibrate_sigma, calibrate_tape,
                    load_tape, quote_surface, solve_grid, synthetic_tape)
from optliq.market_data import DEFAULT_DISTANCE_GRID, IntensityFit
from tests.oracles import calibrate_intensity_recount, intensity_fit_formula, slice_time

HEADER = "ts,price,size,bid,ask\n"


def write_tape(tmp_path, rows, name="tape.csv"):
    path = tmp_path / name
    path.write_text(HEADER + "".join(rows))
    return path


GOOD_ROWS = [
    "1.0,100.6,120,99.5,100.5\n",
    "2.5,100.7,80,99.6,100.6\n",
    "4.0,99.4,100,99.4,100.4\n",
]


def tape_columns() -> dict:
    """The columns of a valid three-record tape, as fresh lists."""
    return {"ts": [1.0, 2.5, 4.0], "price": [100.6, 100.7, 99.4],
            "size": [120.0, 80.0, 100.0], "bid": [99.5, 99.6, 99.4],
            "ask": [100.5, 100.6, 100.4]}


class TestLoadTape:
    def test_three_row_fixture(self, tmp_path):
        tape = load_tape(write_tape(tmp_path, GOOD_ROWS))
        assert len(tape) == 3
        assert tape.size.tolist() == [120, 80, 100]
        assert tape.price[1] == 100.7
        assert tape.ask[2] == 100.4

    def test_tick_size_conversion(self, tmp_path):
        path = write_tape(tmp_path, GOOD_ROWS)
        half = load_tape(path, tick_size=0.5)
        assert half.price[0] == pytest.approx(201.2)
        assert half.bid[0] == pytest.approx(199.0)

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(DataError, match="no data rows"):
            load_tape(write_tape(tmp_path, []))
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(DataError):
            load_tape(empty)

    def test_malformed_row_names_line(self, tmp_path):
        # a bad value, and a short row after a blank line, which is
        # skipped but counted
        for bad, line in (("2.5,abc,80,99.6,100.6\n", 3), ("\n2.5,100.7,80,99.6\n", 4)):
            rows = GOOD_ROWS[:1] + [bad] + GOOD_ROWS[2:]
            with pytest.raises(DataError, match=f"line {line}"):
                load_tape(write_tape(tmp_path, rows))

    def test_crossed_quote_names_record(self, tmp_path):
        rows = GOOD_ROWS[:2] + ["4.0,99.4,100,100.4,99.4\n"]
        with pytest.raises(DataError, match="bid >= ask at record 2"):
            load_tape(write_tape(tmp_path, rows))

    @pytest.mark.parametrize("column", ["ts", "price", "size", "bid", "ask"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_column_and_record(self, column, value):
        cols = tape_columns()
        cols[column][1] = value
        with pytest.raises(DataError, match=f"non-finite {column} .* at record 1"):
            TradeTape(**cols)

    @pytest.mark.parametrize("column,rows", [("price", 2), ("size", 4), ("bid", 1),
                                             ("ask", 0)])
    def test_column_length_mismatch_names_column(self, column, rows):
        cols = tape_columns()
        cols[column] = (cols[column] * 2)[:rows]
        with pytest.raises(DataError, match=f"^column {column} length mismatch$"):
            TradeTape(**cols)

    @pytest.mark.parametrize("column,record,value", [
        ("price", 1, 0.0), ("price", 2, -99.4), ("size", 0, 0.0), ("size", 1, -80.0),
    ])
    def test_non_positive_value_names_column_and_record(self, column, record, value):
        cols = tape_columns()
        cols[column][record] = value
        with pytest.raises(DataError, match=f"^non-positive {column} at record {record}$"):
            TradeTape(**cols)

    def test_nan_timestamp_names_path(self, tmp_path):
        rows = GOOD_ROWS[:1] + ["nan,100.7,80,99.6,100.6\n"] + GOOD_ROWS[2:]
        path = write_tape(tmp_path, rows)
        with pytest.raises(DataError,
                           match=re.escape(f"{path}: non-finite ts nan at record 1")):
            load_tape(path)

    def test_unsorted_timestamps_rejected(self, tmp_path):
        with pytest.raises(DataError, match="not sorted"):
            load_tape(write_tape(tmp_path, [GOOD_ROWS[1], GOOD_ROWS[0]]))

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("ts,price,size\n1.0,100.0,10\n")
        with pytest.raises(DataError, match="missing columns"):
            load_tape(path)

    def test_columns_are_read_only(self):
        price = np.array([100.6, 100.7, 99.4])
        tape = TradeTape(ts=[1.0, 2.5, 4.0], price=price, size=[1.0, 1.0, 1.0],
                         bid=[99.5, 99.6, 99.4], ask=[100.5, 100.6, 100.4])
        with pytest.raises(ValueError):
            tape.price[0] = 1.0
        with pytest.raises(ValueError):
            slice_time(tape, 1.0, 2.5).ts[0] = 0.0
        assert price.flags.writeable  # the caller's own array is untouched

    def test_write_csv_round_trip(self, tmp_path):
        tape = synthetic_tape(600.0, sigma=0.2, big_a=0.2, k=0.3, seed=5,
                              tick_size=0.5)
        path = tmp_path / "rt.csv"
        tape.write_csv(path)
        back = load_tape(path, tick_size=0.5)
        assert np.array_equal(back.ts, tape.ts)
        assert np.array_equal(back.price, tape.price)
        assert np.array_equal(back.bid, tape.bid)

    @pytest.mark.parametrize("tick_size", [float("nan"), float("inf"), 0.0, -1.0])
    def test_constructor_refuses_tick_size_naming_it(self, tick_size):
        # with a nan tick size, write_csv would write every price as nan
        with pytest.raises(ParameterError, match=re.escape(
                f"tick_size must be > 0 and finite, got {tick_size}")):
            TradeTape(ts=[1.0], price=[100.6], size=[1.0], bid=[99.5], ask=[100.5],
                      tick_size=tick_size)
        with pytest.raises(ParameterError, match=re.escape(
                f"tick_size must be > 0 and finite, got {tick_size}")):
            load_tape("unread.csv", tick_size=tick_size)


class TestLoadTapeMessages:
    """load_tape parses the rows in one NumPy call; each outcome here is
    that of a row-by-row read with csv and float, word for word, and no
    warning escapes."""

    @staticmethod
    def load(tmp_path, text):
        path = tmp_path / "tape.csv"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return path, load_tape(path)

    def refused(self, tmp_path, text, message):
        with pytest.raises(DataError) as err:
            self.load(tmp_path, text)
        assert str(err.value) == f"{tmp_path / 'tape.csv'}: {message}"

    def test_quoted_fields_load(self, tmp_path):
        quoted = '"2.5","100.7",80,"99.6",100.6\n'
        _, tape = self.load(tmp_path, HEADER + GOOD_ROWS[0] + quoted + GOOD_ROWS[2])
        assert tape.price.tolist() == [100.6, 100.7, 99.4]
        assert tape.bid.tolist() == [99.5, 99.6, 99.4]

    def test_missing_columns(self, tmp_path):
        self.refused(tmp_path, "ts,price,size\n1.0,100.0,10\n",
                     "missing columns ['bid', 'ask']")

    def test_malformed_value_names_its_line(self, tmp_path):
        rows = GOOD_ROWS[:1] + ["2.5,abc,80,99.6,100.6\n"] + GOOD_ROWS[2:]
        self.refused(tmp_path, HEADER + "".join(rows), "malformed row at line 3")

    def test_short_row_after_blank_line_names_its_line(self, tmp_path):
        rows = GOOD_ROWS[:1] + ["\n", "2.5,100.7,80,99.6\n"] + GOOD_ROWS[2:]
        self.refused(tmp_path, HEADER + "".join(rows), "malformed row at line 4")

    @pytest.mark.parametrize("line", ["  \n", "# a comment,1,1,1,2\n", "2.5,,80,99.6,100.6\n"])
    def test_only_an_empty_line_is_skipped(self, tmp_path, line):
        # only an empty line is skipped: whitespace, a '#' and an empty
        # field are malformed rows
        rows = GOOD_ROWS[:1] + [line] + GOOD_ROWS[2:]
        self.refused(tmp_path, HEADER + "".join(rows), "malformed row at line 3")

    def test_extra_columns_are_ignored(self, tmp_path):
        rows = [GOOD_ROWS[0], "2.5,100.7,80,99.6,100.6,x,7\n", GOOD_ROWS[2]]
        _, tape = self.load(tmp_path, HEADER + "".join(rows))
        assert tape.ts.tolist() == [1.0, 2.5, 4.0]
        assert tape.ask.tolist() == [100.5, 100.6, 100.4]

    def test_columns_are_found_by_name(self, tmp_path):
        text = "ask,note,bid,size,price,ts\n100.5,a,99.5,120,100.6,1.0\n100.6,b,99.6,80,100.7,2.5\n"
        _, tape = self.load(tmp_path, text)
        assert tape.ts.tolist() == [1.0, 2.5] and tape.price.tolist() == [100.6, 100.7]

    def test_header_only(self, tmp_path):
        self.refused(tmp_path, HEADER, "no data rows")
        self.refused(tmp_path, HEADER + "\n\n", "no data rows")

    def test_empty_file(self, tmp_path):
        self.refused(tmp_path, "", "empty file")

    @pytest.mark.parametrize("value,want", [("1_0", 10.0), (" 1.5 ", 1.5), ("\uff11", 1.0),
                                            ("+1.", 1.0), ("1e-1", 0.1)])
    def test_values_float_reads_load_as_float_reads_them(self, tmp_path, value, want):
        # NumPy's parser refuses 1_0 and the full-width digit; the rescan
        # reads every value with float, as the row-by-row parser did
        rows = ["0.0,100.6,120,99.5,100.5\n", f"{value},100.7,80,99.6,100.6\n"]
        _, tape = self.load(tmp_path, HEADER + "".join(rows))
        assert tape.ts.tolist() == [0.0, want]

    @pytest.mark.parametrize("value", ["0x1", "1d0", "1.5.", "one"])
    def test_values_float_refuses_name_their_line(self, tmp_path, value):
        rows = ["0.0,100.6,120,99.5,100.5\n", f"{value},100.7,80,99.6,100.6\n"]
        self.refused(tmp_path, HEADER + "".join(rows), "malformed row at line 3")

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_line_ends(self, tmp_path, end):
        _, tape = self.load(tmp_path, (HEADER + "".join(GOOD_ROWS)).replace("\n", end))
        assert tape.ts.tolist() == [1.0, 2.5, 4.0]


class TestSyntheticTape:
    @pytest.mark.parametrize("changes,match", [
        (dict(duration=float("nan")), "duration must be finite, got nan"),
        (dict(sigma=float("inf")), "sigma must be finite, got inf"),
        (dict(big_a=float("nan")), "big_a must be finite, got nan"),
        (dict(k=float("-inf")), "k must be finite, got -inf"),
        (dict(mid0=float("nan")), "mid0 must be finite, got nan"),
        (dict(drift=float("inf")), "drift must be finite, got inf"),
        (dict(tick_size=float("nan")), "tick_size must be finite, got nan"),
        (dict(duration=0.0), "duration must be > 0, got 0.0"),
        (dict(big_a=0.0), "big_a must be > 0, got 0.0"),
        (dict(big_a=-0.1), "big_a must be > 0, got -0.1"),
        (dict(k=0.0), "k must be > 0, got 0.0"),
        (dict(k=-0.3), "k must be > 0, got -0.3"),
        (dict(tick_size=0.0), "tick_size must be > 0, got 0.0"),
        (dict(sigma=-0.3), "sigma must be >= 0, got -0.3"),
        # 1.2e12 prints would need about 100 TB: refused before allocating
        (dict(big_a=1e9), r"about 1\.2e\+12 prints \(2 big_a duration\), "
                          r"above the limit of 10000000"),
        (dict(duration=1e300, big_a=1e300), r"about inf prints"),
        (dict(seed=-1), "seed must be >= 0, got -1"),
        (dict(seed=1.5), "seed must be an integer, got 1.5"),
        (dict(spread_schedule=[]), "spread_schedule must hold at least one"),
        # each entry of the schedule is checked by name before any draw
        (dict(spread_schedule=[(float("nan"), 1.0)]),
         "spread_schedule start times must be finite, got nan"),
        (dict(spread_schedule=[(0.0, float("nan"))]),
         "spread_schedule spreads must be finite and > 0, got nan"),
        (dict(spread_schedule=[(0.0, 1.0), (300.0, -1.0)]),
         "spread_schedule spreads must be finite and > 0, got -1.0"),
        (dict(spread_schedule=float("nan")),
         "spread_schedule spreads must be finite and > 0, got nan"),
        (dict(spread_schedule=-1.0),
         "spread_schedule spreads must be finite and > 0, got -1.0"),
        (dict(spread_schedule=[(0.0,)]),
         r"spread_schedule entries must be \(start_time, spread\) pairs, got \(0\.0,\)"),
        (dict(spread_schedule=[(0.0, 1.0, 2.0)]),
         r"spread_schedule entries must be \(start_time, spread\) pairs, "
         r"got \(0\.0, 1\.0, 2\.0\)"),
    ])
    def test_refuses_argument_naming_it(self, changes, match):
        args = dict(duration=600.0, sigma=0.3, big_a=0.1, k=0.3)
        with pytest.raises(ParameterError, match=match):
            synthetic_tape(**{**args, **changes})

    @pytest.mark.parametrize("changes,message", [
        # about 2e-4 prints expected: none is drawn
        (dict(duration=1e-3), "synthetic tape came out empty; increase duration or big_a"),
        # offsets of mean 1/k = 3.3 Ticks below a mid of 1 Tick
        (dict(mid0=1.0), "synthetic prices went non-positive; raise mid0"),
    ])
    def test_refuses_tape_it_cannot_draw(self, changes, message):
        args = dict(duration=600.0, sigma=0.3, big_a=0.1, k=0.3)
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            synthetic_tape(**{**args, **changes})


class TestCalibrateSigma:
    def test_constant_mid_gives_zero(self, tmp_path):
        rows = [f"{t},100.4,50,99.5,100.5\n" for t in range(0, 400, 2)]
        tape = load_tape(write_tape(tmp_path, rows))
        assert calibrate_sigma(tape, 1.0) == 0.0

    def test_recovers_generator_volatility(self):
        tape = synthetic_tape(36_000.0, sigma=0.3, big_a=0.1, k=0.3, seed=7)
        assert 0.27 <= calibrate_sigma(tape, 1.0) <= 0.33

    def test_tick_rescaling_halves_estimate(self, tmp_path):
        tape = synthetic_tape(3600.0, sigma=0.3, big_a=0.2, k=0.3, seed=11)
        path = tmp_path / "scale.csv"
        tape.write_csv(path)
        one = calibrate_sigma(load_tape(path), 1.0)
        two = calibrate_sigma(load_tape(path, tick_size=2.0), 1.0)
        assert two == pytest.approx(one / 2, rel=1e-12)

    def test_short_span_rejected(self, tmp_path):
        tape = load_tape(write_tape(tmp_path, GOOD_ROWS))
        with pytest.raises(CalibrationError, match="span"):
            calibrate_sigma(tape, 1.0)

    @pytest.mark.parametrize("sampling_dt,match", [
        (float("nan"), "sampling_dt must be finite, got nan"),
        (float("inf"), "sampling_dt must be finite, got inf"),
        (float("-inf"), "sampling_dt must be finite, got -inf"),
        (0.0, "sampling_dt must be > 0, got 0.0"),
        (-1.0, "sampling_dt must be > 0, got -1.0"),
    ])
    def test_refuses_sampling_dt_naming_it(self, sampling_dt, match):
        # a bad setting, not a fault of the data
        tape = synthetic_tape(1000.0, sigma=0.1, big_a=0.2, k=0.3, seed=2)
        with pytest.raises(ParameterError, match=match):
            calibrate_sigma(tape, sampling_dt)


class TestCalibrateIntensity:
    def test_recovers_generator_law(self):
        tape = synthetic_tape(36_000.0, sigma=0.3, big_a=0.1, k=0.3, seed=13)
        fits, dropped = calibrate_intensity(tape)
        assert not dropped
        (fit,) = fits.values()
        assert 0.08 <= fit.a_hat <= 0.12
        assert 0.25 <= fit.k_hat <= 0.35

    def test_flat_rates_flagged_unusable(self):
        # every print lands far above the whole offset grid, so all counts
        # coincide and the decay estimate collapses to zero
        n = 200
        ts = np.linspace(0, 2000, n)
        mid = np.full(n, 500.0)
        tape = TradeTape(ts=ts, price=mid + 10.0, size=np.full(n, 100.0),
                         bid=mid - 0.5, ask=mid + 0.5)
        fits, dropped = calibrate_intensity(tape)
        assert fits == {}
        assert dropped[1] == "non-positive decay estimate (0)"

    def test_single_spread_gives_single_bucket(self):
        tape = synthetic_tape(10_000.0, sigma=0.1, big_a=0.2, k=0.3, seed=3,
                              spread_schedule=2.0)
        fits, _ = calibrate_intensity(tape)
        assert list(fits) == [2]

    def test_buckets_partition_the_tape(self):
        tape = synthetic_tape(
            20_000.0, sigma=0.1, big_a=0.3, k=0.3, seed=9,
            spread_schedule=[(0.0, 1.0), (5000.0, 2.0), (10_000.0, 1.0),
                             (15_000.0, 3.0)])
        fits, dropped = calibrate_intensity(tape, n_min=10)
        n_assigned = (sum(f.n_obs for f in fits.values())
                      + sum(int(r.split()[1]) for r in dropped.values()
                            if r.startswith("only") and "prints <" in r))
        assert set(fits) | set(dropped) == {1, 2, 3}
        assert n_assigned == len(tape)

    def test_window_selects_recent_records(self):
        tape = synthetic_tape(
            20_000.0, sigma=0.1, big_a=0.2, k=0.3, seed=4,
            spread_schedule=[(0.0, 1.0), (10_000.0, 2.0)])
        fits, _ = calibrate_intensity(tape, window=5000.0)
        assert list(fits) == [2]  # the early spread-1 regime is out of window

    def test_guards(self):
        tape = synthetic_tape(1000.0, sigma=0.1, big_a=0.2, k=0.3, seed=2)
        with pytest.raises(ParameterError):
            calibrate_intensity(tape, distance_grid=[0.5, 1.0])
        with pytest.raises(ParameterError):
            calibrate_intensity(tape, distance_grid=[-1.0, 0.5, 1.0])
        with pytest.raises(ParameterError, match="n_min must be an integer"):
            calibrate_tape(tape, n_min=float("nan"))
        with pytest.raises(ParameterError, match="distance_grid must be positive"):
            calibrate_intensity(tape, distance_grid=[0.5, float("nan"), 1.5])

    @pytest.mark.parametrize("kwargs,match", [
        (dict(window=float("nan")), "window must be > 0, got nan"),
        (dict(window=0.0), "window must be > 0, got 0.0"),
        (dict(window=-600.0), "window must be > 0, got -600.0"),
        (dict(end_time=float("inf")), "end_time must be finite, got inf"),
        (dict(end_time=float("nan"), window=600.0), "end_time must be finite, got nan"),
    ])
    def test_refuses_window_naming_it(self, kwargs, match):
        tape = synthetic_tape(1000.0, sigma=0.1, big_a=0.2, k=0.3, seed=2)
        with pytest.raises(ParameterError, match=match):
            calibrate_intensity(tape, **kwargs)
        if "end_time" not in kwargs:
            with pytest.raises(ParameterError, match=match):
                calibrate_tape(tape, **kwargs)


def three_bucket_tape(tied: bool) -> TradeTape:
    """Spreads of 1, 2 and 3 Ticks taking turns every 40 s; with ``tied``
    the timestamps are floored to multiples of 5 s, so about three prints
    share each one."""
    tape = synthetic_tape(
        6000.0, sigma=0.2, big_a=0.3, k=0.4, seed=21,
        spread_schedule=[(40.0 * i, 1.0 + i % 3) for i in range(150)])
    if not tied:
        return tape
    return TradeTape(ts=5.0 * np.floor(tape.ts / 5.0), price=tape.price,
                     size=tape.size, bid=tape.bid, ask=tape.ask)


DROP_KINDS = {"prints < n_min": "n_min", "offsets with prints": "offsets",
              "no time attributed": "no time", "non-positive decay": "decay"}


def compare_with_recount(tape, **kwargs) -> dict:
    """Assert that the index fit of one window matches the recount oracle;
    return how often each kind of drop reason was seen."""
    try:
        expected = calibrate_intensity_recount(tape, **kwargs)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            calibrate_intensity(tape, **kwargs)
        assert str(got.value) == str(exc)
        return {}
    fits, dropped = calibrate_intensity(tape, **kwargs)
    want_fits, want_dropped = expected
    assert list(fits) == list(want_fits), kwargs
    assert list(dropped) == list(want_dropped), kwargs
    for key, fit in fits.items():
        want = want_fits[key]
        assert fit.n_obs == want.n_obs
        assert fit.a_hat == pytest.approx(want.a_hat, rel=1e-12, abs=0)
        assert fit.k_hat == pytest.approx(want.k_hat, rel=1e-12, abs=0)
    seen = {}
    for key, reason in dropped.items():
        (kind,) = [k for text, k in DROP_KINDS.items() if text in reason]
        if kind == "decay":
            # polyfit leaves a residue of ~1e-16 where the index reads 0
            assert want_dropped[key].startswith("non-positive decay estimate (")
        else:
            assert reason == want_dropped[key]
        seen[kind] = seen.get(kind, 0) + 1
    return seen


class TestIntensityIndex:
    """The prefix-count index against the slicing recount it replaced."""

    @pytest.mark.parametrize("tied", [False, True])
    def test_matches_recount_over_windows(self, tied):
        tape = three_bucket_tape(tied)
        rows = np.linspace(0, len(tape) - 2, 80).astype(int)
        switches = np.flatnonzero(np.diff(tape.spread)) + 1
        ends = np.concatenate((
            [tape.ts[0] - 1.0],                        # before the first print
            tape.ts[rows],                             # on a print time
            tape.ts[switches],                         # ... that opens a spread
            0.5 * (tape.ts[rows] + tape.ts[rows + 1]),  # between prints
            [tape.ts[-1] + 2.5, tape.ts[-1] + 900.0],  # past the last print
        ))
        seen = dict.fromkeys(DROP_KINDS.values(), 0)
        for end in ends:
            for window in (1800.0, 60.0, 5.0):
                for n_min in (50, 3):
                    for kind, n in compare_with_recount(
                            tape, window=window, end_time=end,
                            n_min=n_min).items():
                        seen[kind] += n
        assert 6 * ends.size >= 1000
        # every drop rule fired; a 5-s window that closes on the tied first
        # prints of a new spread gives that bucket no time
        assert all(seen[kind] > 0 for kind in DROP_KINDS.values()
                   if tied or kind != "no time"), seen

    def test_every_offset_mask_matches_per_window_formula(self):
        # the index keeps the offset terms of the fit per mask of offsets
        # with prints; the replay's windows all have prints at every offset.
        # Segment m of this tape has its largest offset above mid between
        # the m-th and (m+1)-th grid offset, so its window leaves m offsets
        # usable: 0-2 are dropped, 3-10 fitted to the bit of the formula
        # that forms those terms afresh.  Prints 1 s apart and a window
        # ending on a print make the bucket's time an exact integer
        grid = np.asarray(DEFAULT_DISTANCE_GRID)
        rng = np.random.default_rng(3)
        length = 200
        offsets = []
        for m in range(grid.size + 1):
            cap = 0.5 * m + 0.25  # between grid offsets m and m + 1 (from 1)
            draws = np.minimum(rng.exponential(0.8, length), cap)
            draws[rng.random(length) < 0.5] *= -1.0  # sells print below mid
            draws[0] = cap
            offsets.append(draws)
        offsets = np.concatenate(offsets)
        ts = np.arange(offsets.size, dtype=float)
        tape = TradeTape(ts=ts, price=100.0 + offsets, size=np.ones(ts.size),
                         bid=np.full(ts.size, 99.5), ask=np.full(ts.size, 100.5))
        above = tape.price - tape.mid
        results = []
        for m in range(grid.size + 1):
            rows = slice(m * length, (m + 1) * length)
            fits, dropped = calibrate_intensity(tape, window=length - 1.0,
                                                end_time=ts[rows][-1], n_min=3)
            got = fits.get(1, dropped.get(1))
            counts = np.array([np.count_nonzero(above[rows] >= d) for d in grid])
            assert np.count_nonzero(counts) == m
            assert got == intensity_fit_formula(grid, counts, length - 1.0, length), m
            results.append(got)
        assert results[:3] == [f"only {m} offsets with prints" for m in range(3)]
        assert all(isinstance(fit, IntensityFit) for fit in results[3:])

    def test_slice_builds_its_own_index(self):
        tape = three_bucket_tape(tied=False)
        calibrate_intensity(tape)  # the whole tape's index, now cached
        part = slice_time(tape, 1000.0, 2500.0)
        for end in (1500.0, 2000.0, 2600.0):
            compare_with_recount(part, window=600.0, end_time=end, n_min=3)
        compare_with_recount(part, n_min=3)

    def test_each_grid_has_its_own_index(self):
        tape = three_bucket_tape(tied=True)
        fine = tuple(np.arange(0.25, 4.01, 0.25))
        for end in np.linspace(500.0, 6000.0, 12):
            for grid in (fine, (0.5, 1.0, 1.5, 2.0), fine):
                compare_with_recount(tape, distance_grid=grid, window=1800.0,
                                     end_time=end, n_min=3)


class TestCalibrateGamma:
    def test_recovers_reference_risk_aversion(self, ref_params):
        gamma = calibrate_gamma(0.1, 0.3, 0.3, 0.0, 3.0, 300.0,
                                target_quote=10.6095)
        assert gamma == pytest.approx(0.05, abs=1e-3)

    def test_first_quote_decreasing_in_gamma(self):
        quotes = []
        for gamma in (1e-4, 0.01, 0.05, 0.5, 5.0):
            p = ModelParams(gamma=gamma, q_max=1)
            surface = quote_surface(solve_grid(p, 2000))
            quotes.append(surface.values[0, 0])
        assert np.all(np.diff(quotes) < 0)

    def test_gamma_rule_without_usable_bucket_refused(self):
        tape = synthetic_tape(600.0, sigma=0.3, big_a=0.1, k=0.3, seed=1)
        with pytest.raises(CalibrationError,
                           match="^no usable spread bucket for the gamma rule$"):
            calibrate_tape(tape, gamma_target=1.0, n_min=10 ** 6)

    def test_unattainable_target_reports_interval(self):
        with pytest.raises(CalibrationError, match="attainable"):
            calibrate_gamma(0.1, 0.3, 0.3, 0.0, 3.0, 300.0, target_quote=50.0)

    def test_deterministic(self):
        args = (0.1, 0.3, 0.3, 0.0, 3.0, 300.0)
        assert calibrate_gamma(*args) == calibrate_gamma(*args)


class TestRoundTrip:
    def test_generate_then_recover_all_parameters(self):
        # ten simulated hours with the reference market law
        tape = synthetic_tape(36_000.0, sigma=0.3, big_a=0.1, k=0.3, seed=101)
        result = calibrate_tape(tape, sampling_dt=1.0, gamma_target=1.0)
        assert abs(result.sigma_hat - 0.3) <= 0.03
        (fit,) = result.buckets.values()
        assert abs(fit.a_hat - 0.1) <= 0.02
        assert abs(fit.k_hat - 0.3) <= 0.06
        assert result.gamma_hat is not None and result.gamma_hat > 0

    def test_json_serialisation(self):
        tape = synthetic_tape(36_000.0, sigma=0.3, big_a=0.1, k=0.3, seed=101)
        result = calibrate_tape(tape, gamma_target=1.0)
        data = json.loads(json.dumps(result.to_json_dict()))
        assert set(data) == {"sigma_hat", "gamma_hat", "buckets", "dropped"}
        assert data["sigma_hat"] == result.sigma_hat
        assert data["gamma_hat"] == result.gamma_hat
        bucket = next(iter(data["buckets"].values()))
        assert set(bucket) == {"A_hat", "k_hat", "n_obs"}
