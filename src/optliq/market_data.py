"""Trade-by-trade data ingestion and parameter calibration.

Input format: comma-separated text with a header row naming the columns
``ts,price,size,bid,ask``, all finite numbers; ts is seconds since session
open (decimal) and prices are in currency, which loading converts to Ticks
via the tick size.  Ingestion parses every row in one ``np.loadtxt``
call, straight into the five columns; calibration is a pure function of
the loaded tape.

Estimators:

* sigma: realised volatility of the mid price sampled on a fixed clock
  anchored at the tape's first print.  The tape keeps the squared
  increments of that sampled mid, built on the first estimate with a
  given sampling step.  A prefix of the tape samples the same clock, so
  the estimate over the tape up to any print sums a leading run of them.
* (big_a, k) per spread bucket: count trades printing at or above
  mid + offset for a grid of offsets, divide by the time spent in the
  bucket, and fit ``log rate = log A - k * offset`` by centred least
  squares.  Every window of one tape is read from one prefix-count index,
  built on the first fit with a given offset grid and kept on the tape.
  Per bucket it holds the bucket's sorted row positions, prefix sums of
  those rows' gaps to the next print, and one sorted key
  ``j * (n + 1) + row`` per print at or above the ``j``-th offset.  A
  window fit of one bucket is then a few ``searchsorted`` calls: its
  print count is a difference of row positions, its time a difference of
  gap sums plus the tail to the window end, and every offset count a
  difference of key positions.  The index answers one bucket at a time,
  so a caller that quotes in one bucket fits only that one.
* gamma: bisection so the solved time-0 premium at q = 1 hits a target
  (one Tick by default).
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import CalibrationError, DataError, ParameterError
from .model import ModelParams, _require_finite, _require_int, _write_csv
from .ode import solve_w

__all__ = [
    "TradeTape",
    "IntensityFit",
    "CalibrationResult",
    "load_tape",
    "calibrate_sigma",
    "calibrate_intensity",
    "calibrate_gamma",
    "calibrate_tape",
    "synthetic_tape",
]

DEFAULT_DISTANCE_GRID = tuple(np.arange(0.5, 5.01, 0.5))
#: tape columns, in the order :meth:`TradeTape.write_csv` writes them
COLUMNS = ("ts", "price", "size", "bid", "ask")
# calibrate_gamma bisects over this gamma range until the quote is this close
_GAMMA_BRACKET = (1e-6, 1e2)
_QUOTE_TOL = 1e-4
# synthetic_tape refuses an expected print count above this before it
# allocates: a tape peaks at about 90 bytes per print while it is built,
# so the cap holds one call under about 0.9 GB
_MAX_SYNTHETIC_PRINTS = 10_000_000


def _frozen(values) -> np.ndarray:
    # a read-only view: the caller's own array stays writeable
    arr = np.asarray(values, dtype=float).view()
    arr.flags.writeable = False
    return arr


class TradeTape:
    """Time-sorted trade prints with quote context, prices in Ticks.

    A tape is immutable: its five columns are read-only views (of the
    arrays passed in, when they are float arrays; those must not change
    either).  Two estimators cache on the tape what they read of it: the
    intensity fit a prefix-count index per offset grid, and the sigma
    estimate the squared increments of the sampled mid per sampling step.
    An edit in place would leave both reading old prints.
    """

    def __init__(self, ts, price, size, bid, ask, tick_size: float = 1.0):
        self.ts = _frozen(ts)
        self.price = _frozen(price)
        self.size = _frozen(size)
        self.bid = _frozen(bid)
        self.ask = _frozen(ask)
        self.tick_size = _require_tick_size(tick_size)
        self._intensity_indexes = {}  # offset grid tuple -> _IntensityIndex
        self._mid_increments = {}  # sampling step -> squared mid increments
        n = self.ts.size
        if n == 0:
            raise DataError("empty tape: no trade records")
        for name in COLUMNS:
            arr = getattr(self, name)
            if arr.size != n:
                raise DataError(f"column {name} length mismatch")
            if not np.all(np.isfinite(arr)):
                i = int(np.argmax(~np.isfinite(arr)))
                raise DataError(f"non-finite {name} {arr[i]} at record {i}")
        if np.any(np.diff(self.ts) < 0):
            i = int(np.argmax(np.diff(self.ts) < 0)) + 1
            raise DataError(f"timestamps not sorted at record {i}")
        if np.any(self.bid >= self.ask):
            i = int(np.argmax(self.bid >= self.ask))
            raise DataError(f"bid >= ask at record {i}")
        if np.any(self.price <= 0):
            i = int(np.argmax(self.price <= 0))
            raise DataError(f"non-positive price at record {i}")
        if np.any(self.size <= 0):
            i = int(np.argmax(self.size <= 0))
            raise DataError(f"non-positive size at record {i}")

    def __len__(self) -> int:
        return int(self.ts.size)

    @property
    def mid(self) -> np.ndarray:
        return 0.5 * (self.bid + self.ask)

    @property
    def spread(self) -> np.ndarray:
        return self.ask - self.bid

    @property
    def span(self) -> float:
        return float(self.ts[-1] - self.ts[0])

    def _intensity_index(self, grid: np.ndarray) -> "_IntensityIndex":
        key = tuple(grid.tolist())
        index = self._intensity_indexes.get(key)
        if index is None:
            index = self._intensity_indexes[key] = _IntensityIndex(self, key)
        return index

    def _squared_increments(self, sampling_dt: float) -> np.ndarray:
        """``dS^2`` of the latest-known mid sampled every ``sampling_dt``
        seconds from the first print, over the whole tape."""
        sq = self._mid_increments.get(sampling_dt)
        if sq is None:
            n = int(self.span / sampling_dt)
            sample_t = self.ts[0] + sampling_dt * np.arange(n + 1)
            idx = np.searchsorted(self.ts, sample_t, side="right") - 1
            ds = np.diff(0.5 * (self.bid[idx] + self.ask[idx]))
            sq = self._mid_increments[sampling_dt] = ds * ds
        return sq

    def write_csv(self, path) -> None:
        """Write back in the input format (prices restored to currency),
        converting 4096 rows at a time to Python floats."""
        scale = np.array([1.0, self.tick_size, 1.0, self.tick_size, self.tick_size])
        blocks = (np.column_stack([getattr(self, c)[lo:lo + 4096] for c in COLUMNS]) * scale
                  for lo in range(0, len(self), 4096))
        _write_csv(path, COLUMNS, (row for block in blocks for row in block.tolist()))


def _require_tick_size(tick_size: float) -> float:
    if not 0 < tick_size < math.inf:
        raise ParameterError(f"tick_size must be > 0 and finite, got {tick_size}")
    return float(tick_size)


def load_tape(path, tick_size: float = 1.0) -> TradeTape:
    """Load and validate a tape file; prices divided by tick_size are Ticks.

    The header is read with :mod:`csv`, the rows in one ``np.loadtxt``.
    Where NumPy refuses a row, the file is read again row by row with
    :mod:`csv` and ``float``: that names the first malformed line, or,
    where ``float`` reads every value (``1_000``, say), loads those
    values instead."""
    _require_tick_size(tick_size)
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot read tape {path}: {exc}") from exc
    with fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise DataError(f"{path}: empty file")
        position = {name: i for i, name in enumerate(header)}
        missing = [c for c in COLUMNS if c not in position]
        if missing:
            raise DataError(f"{path}: missing columns {missing}")
        usecols = [position[c] for c in COLUMNS]
        try:
            with warnings.catch_warnings():
                # a file of only the header is refused below, by name
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(fh, delimiter=",", usecols=usecols, quotechar='"',
                                  comments=None, ndmin=2)
        except ValueError:
            fh.seek(0)
            rows = _read_rows(path, fh, usecols)
    if not rows.size:
        raise DataError(f"{path}: no data rows")
    ts, price, size, bid, ask = np.ascontiguousarray(rows.T)
    scale = 1.0 / tick_size
    try:
        return TradeTape(ts=ts, price=price * scale, size=size, bid=bid * scale,
                         ask=ask * scale, tick_size=tick_size)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _read_rows(path, fh, usecols: list) -> np.ndarray:
    """The columns ``usecols`` of every row after the header, read with
    :mod:`csv` and ``float``, blank lines skipped; the first row that
    ``float`` cannot read is refused by its line number."""
    reader = csv.reader(fh)
    next(reader)
    rows = []
    for row in reader:
        if not row:  # a blank line
            continue
        try:
            rows.append([float(row[i]) for i in usecols])
        except (IndexError, ValueError) as exc:
            raise DataError(f"{path}: malformed row at line {reader.line_num}") from exc
    return np.array(rows, dtype=float).reshape(-1, len(usecols))


def calibrate_sigma(tape: TradeTape, sampling_dt: float) -> float:
    """Realised volatility of the mid price in Tick/sqrt(s).

    Samples the latest-known mid every ``sampling_dt`` seconds and returns
    ``sqrt(sum(dS^2) / (n * sampling_dt))``.  Requires the tape to span at
    least 100 sampling intervals.  The increments are cached on the tape
    (see the module docstring).
    """
    return _prefix_sigma(tape, sampling_dt, len(tape) - 1)


def _prefix_sigma(tape: TradeTape, sampling_dt: float, last: int) -> float:
    """:func:`calibrate_sigma` of the tape's rows up to ``last``, bit for
    bit: that prefix samples the same clock, so its ``n`` increments lead
    the whole tape's."""
    _require_finite(sampling_dt=sampling_dt)
    if not sampling_dt > 0:
        raise ParameterError(f"sampling_dt must be > 0, got {sampling_dt}")
    span = float(tape.ts[last] - tape.ts[0])
    if span < 100 * sampling_dt:
        raise CalibrationError(
            f"tape spans {span:.6g}s < 100 * sampling_dt = {100 * sampling_dt:.6g}s"
        )
    n = int(span / sampling_dt)
    return float(math.sqrt(np.sum(tape._squared_increments(sampling_dt)[:n])
                           / (n * sampling_dt)))


@dataclass(frozen=True)
class IntensityFit:
    """Per-spread-bucket fill-rate fit: rate(offset) = A_hat exp(-k_hat offset)."""

    a_hat: float
    k_hat: float
    n_obs: int


def _spread_bucket(spread):
    """The bucket of a spread in Ticks: the whole Ticks, half rounded up.
    Floor division serves a column of spreads and, with no NumPy call, a
    single float spread alike."""
    return (spread + 0.5) // 1


class _IntensityIndex:
    """Prefix counts of one tape against one offset grid (see the module
    docstring); :meth:`fit_bucket` answers one bucket on a window of rows."""

    def __init__(self, tape: TradeTape, grid: tuple):
        self.grid = np.array(grid, dtype=float)
        # key base of each offset, as a column against (lo, hi)
        self.bases = (len(tape) + 1) * np.arange(self.grid.size)[:, None]
        buckets = _spread_bucket(tape.spread)
        # the number of grid offsets at or below each print's offset
        levels = np.searchsorted(self.grid, tape.price - tape.mid, side="right")
        # gap sums grow to the tape's span, so a short window's time is their
        # difference; extended precision (where the platform has it) keeps
        # the rounding of the long sums out of that difference
        gaps = np.append(np.diff(tape.ts), 0.0).astype(np.longdouble)
        self.buckets = {}  # bucket -> (rows, gap_sums, keys), in bucket order
        for bucket in np.unique(buckets):
            rows = np.flatnonzero(buckets == bucket)
            gap_sums = np.concatenate(([0.0], np.cumsum(gaps[rows])))
            keys = np.concatenate([base + rows[levels[rows] > j]
                                   for j, base in enumerate(self.bases[:, 0])])
            self.buckets[int(bucket)] = (rows, gap_sums, keys)
        # the mask of offsets with prints -> (count, x_mean, dx, dx . dx) of
        # the offsets it keeps: the fit's terms that depend on the mask only
        self._moments = {}

    def fit_bucket(self, key: int, lo: int, hi: int, tail: float, n_min: int):
        """Bucket ``key`` on rows ``[lo, hi)``, whose last print holds its
        bucket for ``tail`` seconds up to the window end: an
        :class:`IntensityFit`, the reason the bucket is dropped, or None
        when it has no prints there."""
        if key not in self.buckets:
            return None
        rows, gap_sums, keys = self.buckets[key]
        i_lo, i_last, i_hi = rows.searchsorted((lo, hi - 1, hi)).tolist()
        n_obs = i_hi - i_lo
        if n_obs == 0:
            return None
        if n_obs < n_min:
            return f"only {n_obs} prints < n_min = {n_min}"
        # each print holds its bucket up to the next print, the
        # window's last one up to the window end instead
        total_time = float(gap_sums[i_last] - gap_sums[i_lo])
        if i_hi > i_last:
            total_time += tail
        if total_time <= 0:
            return "no time attributed to bucket"
        ends = keys.searchsorted(self.bases + (lo, hi))
        counts = ends[:, 1] - ends[:, 0]
        usable = counts > 0
        mask = usable.tobytes()
        moments = self._moments.get(mask)
        if moments is None:
            moments = self._moments[mask] = self._offset_moments(usable)
        n_usable, x_mean, dx, dx_dx = moments
        if n_usable < 3:
            return f"only {n_usable} offsets with prints"
        log_rates = np.log(counts[usable] / total_time)
        # measured from the first point, a flat profile decays by exactly 0
        k_hat = float(dx @ (log_rates[0] - log_rates)) / dx_dx
        if k_hat <= 1e-12:  # flat or inverted rate profile
            return f"non-positive decay estimate ({k_hat:.3g})"
        log_a = float(np.add.reduce(log_rates)) / n_usable + k_hat * x_mean
        return IntensityFit(a_hat=math.exp(log_a), k_hat=k_hat, n_obs=n_obs)

    def _offset_moments(self, usable: np.ndarray) -> tuple:
        """The count of the offsets x under the mask ``usable`` and, where
        there are 3 or more, their mean, ``dx = x - x_mean`` and ``dx . dx``."""
        x = self.grid[usable]
        if x.size < 3:
            return x.size, None, None, None
        x_mean = float(x.sum()) / x.size
        dx = x - x_mean
        return x.size, x_mean, dx, float(dx @ dx)

    def fit(self, lo: int, hi: int, tail: float, n_min: int):
        """:func:`calibrate_intensity` on rows ``[lo, hi)``: every bucket
        through :meth:`fit_bucket`."""
        fits, dropped = {}, {}
        for key in self.buckets:
            fit = self.fit_bucket(key, lo, hi, tail, n_min)
            if isinstance(fit, IntensityFit):
                fits[key] = fit
            elif fit is not None:
                dropped[key] = fit
        return fits, dropped


def _checked_grid(distance_grid: Sequence[float]) -> np.ndarray:
    """The offset grid as a float array; at least 3 offsets, positive and
    increasing."""
    grid = np.asarray(distance_grid, dtype=float)
    if grid.size < 3:
        raise ParameterError(f"distance_grid needs >= 3 offsets, got {grid.size}")
    if not (grid[0] > 0 and np.all(np.diff(grid) > 0)):
        raise ParameterError("distance_grid must be positive and increasing")
    return grid


def _window_rows(tape: TradeTape, window: Optional[float],
                 end_time: Optional[float]) -> tuple:
    """Rows ``[lo, hi)`` of the fit window of ``window`` seconds up to
    ``end_time`` (by default the whole tape), and the tail its last print
    holds up to the window end; a window without records is an error."""
    _require_finite(end_time=end_time)
    end = float(tape.ts[-1]) if end_time is None else float(end_time)
    if window is None:
        start = float(tape.ts[0])
    elif not window > 0:
        raise ParameterError(f"window must be > 0, got {window}")
    else:
        start = end - float(window)
    lo = int(np.searchsorted(tape.ts, start, side="left"))
    hi = int(np.searchsorted(tape.ts, end, side="right"))
    if hi <= lo:
        raise DataError(f"no records in [{start}, {end}]")
    return lo, hi, max(end - float(tape.ts[hi - 1]), 0.0)


def calibrate_intensity(tape: TradeTape,
                        distance_grid: Sequence[float] = DEFAULT_DISTANCE_GRID,
                        window: Optional[float] = None,
                        end_time: Optional[float] = None,
                        n_min: int = 50):
    """Fit (A_hat, k_hat) per spread bucket from print arrival rates.

    For each bucket and each offset in ``distance_grid`` the arrival rate of
    trades printing at or above mid + offset is the count divided by the
    time attributed to the bucket; the log rates are then fit affinely in
    the offset.  Buckets with fewer than ``n_min`` prints, fewer than 3
    nonzero-count offsets, or a non-positive decay estimate are dropped.
    The counts come from the tape's prefix-count index for this grid,
    built on the first call (see the module docstring).  ``window``, when
    given, must be > 0 seconds and ``end_time`` finite.

    Returns ``(fits, dropped)``: a dict bucket -> :class:`IntensityFit` and
    a dict bucket -> reason for the unusable ones, both in bucket order.
    """
    _require_int(n_min=n_min)
    grid = _checked_grid(distance_grid)
    lo, hi, tail = _window_rows(tape, window, end_time)
    return tape._intensity_index(grid).fit(lo, hi, tail, n_min)


def calibrate_gamma(big_a: float, k: float, sigma: float, mu: float, b: float,
                    horizon: float, target_quote: float = 1.0) -> float:
    """Risk aversion that makes the time-0 premium at q = 1 hit the target.

    The premium is continuous and decreasing in gamma over the bracket
    [1e-6, 100], so plain bisection to 1e-4 Ticks on the quote suffices:
    each step is one point quote at ``q_max = 1``, which
    :meth:`optliq.ode.WSolution.quotes_at` takes in closed form.
    If the target falls outside the premiums attainable on the bracket,
    raises :class:`CalibrationError` reporting the attainable interval.
    Deterministic: no randomness anywhere in the evaluation.
    """
    lo, hi = _GAMMA_BRACKET

    def first_quote(gamma: float) -> float:
        params = ModelParams(mu=mu, sigma=sigma, big_a=big_a, k=k, gamma=gamma,
                             b=b, horizon=horizon, q_max=1)
        return float(solve_w(params).quotes_at(0.0)[0])

    q_lo, q_hi = first_quote(lo), first_quote(hi)
    if not (q_hi - _QUOTE_TOL <= target_quote <= q_lo + _QUOTE_TOL):
        raise CalibrationError(
            f"target quote {target_quote} outside attainable "
            f"[{q_hi:.6g}, {q_lo:.6g}] for gamma in [{lo:.3g}, {hi:.3g}]"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        q_mid = first_quote(mid)
        if abs(q_mid - target_quote) < _QUOTE_TOL:
            return mid
        if q_mid > target_quote:
            lo = mid
        else:
            hi = mid
    raise CalibrationError("gamma bisection failed to converge")


@dataclass(frozen=True)
class CalibrationResult:
    """Everything the backtester needs: sigma, per-bucket (A, k), gamma."""

    sigma_hat: float
    buckets: dict
    gamma_hat: Optional[float] = None
    dropped: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "sigma_hat": self.sigma_hat,
            "gamma_hat": self.gamma_hat,
            "buckets": {str(k): {"A_hat": f.a_hat, "k_hat": f.k_hat,
                                 "n_obs": f.n_obs}
                        for k, f in sorted(self.buckets.items())},
            "dropped": {str(k): v for k, v in sorted(self.dropped.items())},
        }


def calibrate_tape(tape: TradeTape, sampling_dt: float = 1.0,
                   distance_grid: Sequence[float] = DEFAULT_DISTANCE_GRID,
                   window: Optional[float] = None, n_min: int = 50,
                   gamma_target: Optional[float] = None,
                   b: float = 3.0, horizon: float = 300.0) -> CalibrationResult:
    """One-stop calibration of (sigma, A, k[, gamma]) from a tape."""
    sigma_hat = calibrate_sigma(tape, sampling_dt)
    fits, dropped = calibrate_intensity(tape, distance_grid, window=window,
                                        n_min=n_min)
    gamma_hat = None
    if gamma_target is not None:
        if not fits:
            raise CalibrationError("no usable spread bucket for the gamma rule")
        # the busiest bucket stands in for "typical values of A and k"
        best = max(fits.values(), key=lambda f: f.n_obs)
        gamma_hat = calibrate_gamma(best.a_hat, best.k_hat, sigma_hat, 0.0,
                                    b, horizon, target_quote=gamma_target)
    return CalibrationResult(sigma_hat=sigma_hat, buckets=fits,
                             gamma_hat=gamma_hat, dropped=dropped)


def synthetic_tape(duration: float, sigma: float, big_a: float, k: float,
                   mid0: float = 1000.0, drift: float = 0.0,
                   spread_schedule=1.0, tick_size: float = 1.0, seed: int = 0) -> TradeTape:
    """Generate a tape whose prints match the model's fill-rate law.

    Trades arrive as a Poisson stream of rate ``2 big_a``, half of them buys
    printing an Exp(k)-distributed offset above the mid, half sells printing one
    below, so trades at or above mid + d arrive at rate ``big_a exp(-k d)``
    exactly; sizes are uniform on [50, 150].  The mid diffuses with volatility
    ``sigma``.  ``spread_schedule`` is either a constant spread in Ticks or a
    list of ``(start_time, spread)`` pairs.  Prices are in Ticks; use
    :meth:`TradeTape.write_csv` to produce a loadable file in currency.
    An expected print count ``2 big_a duration`` above
    ``_MAX_SYNTHETIC_PRINTS`` is refused before anything is allocated.
    """
    _require_finite(duration=duration, sigma=sigma, big_a=big_a, k=k,
                    mid0=mid0, drift=drift, tick_size=tick_size)
    for name, value in (("duration", duration), ("big_a", big_a), ("k", k),
                        ("tick_size", tick_size)):
        if not value > 0:
            raise ParameterError(f"{name} must be > 0, got {value}")
    if sigma < 0:
        raise ParameterError(f"sigma must be >= 0, got {sigma}")
    _require_int(seed=seed)
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    # a constant spread is a schedule of one pair
    sched = [(0.0, spread_schedule)] if np.isscalar(spread_schedule) else list(spread_schedule)
    if not sched:
        raise ParameterError("spread_schedule must hold at least one (start_time, spread) pair")
    for entry in sched:
        if np.shape(entry) != (2,):
            raise ParameterError(f"spread_schedule entries must be (start_time, spread) "
                                 f"pairs, got {entry!r}")
        start, value = entry
        if not math.isfinite(start):
            raise ParameterError(f"spread_schedule start times must be finite, got {start}")
        if not (math.isfinite(value) and value > 0):
            raise ParameterError(f"spread_schedule spreads must be finite and > 0, got {value}")
    starts, vals = np.array(sorted(sched, key=tuple), dtype=float).T
    expected = 2.0 * big_a * duration
    if expected > _MAX_SYNTHETIC_PRINTS:
        raise ParameterError(
            f"synthetic tape would hold about {expected:.3g} prints "
            f"(2 big_a duration), above the limit of {_MAX_SYNTHETIC_PRINTS}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    n = rng.poisson(expected)
    if n < 2:
        raise DataError("synthetic tape came out empty; increase duration or big_a")
    ts = np.sort(rng.random(n) * duration)
    gaps = np.diff(np.concatenate(([0.0], ts)))
    mid = (mid0 + drift * ts
           + np.cumsum(rng.standard_normal(n) * sigma * np.sqrt(gaps)))
    side = rng.random(n) < 0.5
    offs = rng.exponential(1.0 / k, size=n)
    price = np.where(side, mid - offs, mid + offs)
    if np.any(price <= 0):
        raise DataError("synthetic prices went non-positive; raise mid0")
    spread = vals[np.clip(np.searchsorted(starts, ts, side="right") - 1, 0, None)]
    sizes = rng.uniform(50.0, 150.0, size=n)
    return TradeTape(ts=ts, price=price, size=sizes,
                     bid=mid - 0.5 * spread, ask=mid + 0.5 * spread,
                     tick_size=tick_size)
