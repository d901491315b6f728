"""Reference implementations kept as oracles, and the invariants the
solved tables must meet, as asserts.

Oracles of the w system, for the exact propagator in :mod:`optliq.ode`:

* :func:`solve_rk`          classical fixed-step 4th-order Runge-Kutta,
* :func:`solve_quadrature`  variation-of-constants form, with the
                            level-(q-1) integral evaluated by composite
                            Simpson quadrature, recursively in q;
* :func:`mp_log_w`          the eigen-expansion in 60-digit ``mpmath``
                            arithmetic, for spectra without repeated
                            eigenvalues, with no range limit;
* :func:`nodrift_novol_w`   the polynomial closed form at mu = sigma = 0;
* :func:`asymptotic_w`      the long-horizon limit of w(0).

For very large k*q*b the terminal values round to zero (below ~1e-300);
the two integrators then integrate the correctly rounded terminal data,
which coincides with the forced-complete-liquidation limit, and relax the
positivity check on the terminal row.

:func:`walk_reach`, :func:`walk_lift` and :func:`walk_profile` are the
segment bound of the ``w`` walk in NumPy: the oracles of the float forms
of ``_Walk.reach`` and ``_Walk.profile``, and of the lift they share.

:func:`event_rule_path` runs the event rule of :mod:`optliq.simulate` for
one path in a plain loop over the held intervals: the oracle of the
vectorised hazard table and fill rounds.

:func:`model_params_fields` checks a parameter set one field at a time:
the oracle of the combined check of ``ModelParams``.

:func:`tq_rows` yields the ``(t, q, value)`` rows of a time-by-level
table for ``optliq.model._write_csv``: the oracle of the one-format-call-
per-time-step writer ``_write_tq_csv``.

:func:`calibrate_intensity_recount` slices the window out of the tape
(:func:`slice_time`), recounts every print against every offset and fits
with ``np.polyfit``: the oracle of the prefix-count index in
:mod:`optliq.market_data`.  :func:`intensity_fit_formula` is the index's
fit of one window with every offset term formed afresh: the oracle, to
the bit, of the fit that keeps those terms per mask of offsets.

Invariants, each raising ``AssertionError``:

* :func:`assert_w_grid`       w_0 = 1, w > 0 and the terminal row exact;
* :func:`assert_quote_surface`  terminal quotes pinned, strictly
                            decreasing in q before T;
* :func:`assert_trading_curve`  V(0) = q0 and V non-increasing.
"""

import dataclasses
import math

import mpmath
import numpy as np

from optliq import (DataError, FixedQuote, ModelParams, NoAsymptoteError,
                    ParameterError, RegimeError, TradeTape, WGrid, terminal_quote)
from optliq.market_data import COLUMNS, DEFAULT_DISTANCE_GRID, IntensityFit, _spread_bucket
from optliq.model import FIELD_TO_CONFIG_KEY, DerivedCoefficients, derive_coefficients
from optliq.ode import _LIFT, _WINDOW, DEFAULT_N_STEPS, _terminal_state

# terminal values exp(-k*q*b) below this are treated as exact zeros
_UNDERFLOW_FLOOR = 1e-300


class OracleFailure(RuntimeError):
    """A reference solver lost positivity; its step is too coarse."""


def _terminal_values(p: ModelParams) -> np.ndarray:
    return np.exp(-p.k * p.b * np.arange(p.q_max + 1, dtype=float))


def _terminal_underflows(p: ModelParams) -> bool:
    return p.k * p.b * p.q_max > -math.log(_UNDERFLOW_FLOOR)


def system_matrix(p: ModelParams, coeffs: DerivedCoefficients | None = None) -> np.ndarray:
    """Bidiagonal matrix M with wdot = M w; row 0 is zero so w_0 stays 1."""
    if coeffs is None:
        coeffs = derive_coefficients(p)
    q = np.arange(p.q_max + 1, dtype=float)
    m = np.diag(coeffs.alpha * q * q - coeffs.beta * q)
    for i in range(1, p.q_max + 1):
        m[i, i - 1] = -coeffs.eta
    return m


def solve_rk(p: ModelParams, n_steps: int = DEFAULT_N_STEPS,
             coeffs: DerivedCoefficients | None = None) -> WGrid:
    """Integrate the system backward from T with classical 4th-order
    Runge-Kutta at fixed step T/n_steps.

    The system is linear and autonomous, so one RK4 step is the fixed
    polynomial ``I + P + P^2/2 + P^3/6 + P^4/24`` of ``P = h*M`` applied per
    step (identical arithmetic to the four-stage form).  Any non-positive w
    raises :class:`OracleFailure` naming the offending (t, q).
    """
    p.require_risk_averse("solve_rk")
    if n_steps < 1:
        raise ParameterError(f"n_steps must be >= 1, got {n_steps}")
    underflow = _terminal_underflows(p)
    h = p.horizon / n_steps
    # backward in t means forward in tau = T - t with v' = -M v
    step = h * system_matrix(p, coeffs)  # P = h*M; v_{n+1} = poly(-P) v_n
    rk = np.eye(p.q_max + 1)
    term = np.eye(p.q_max + 1)
    for order in range(1, 5):
        term = term @ (-step) / order
        rk = rk + term

    times = np.linspace(0.0, p.horizon, n_steps + 1)
    values = np.empty((n_steps + 1, p.q_max + 1))
    w = _terminal_values(p)
    values[n_steps] = w
    active = w > 0  # components that have become positive must stay so
    for i in range(n_steps - 1, -1, -1):
        w = rk @ w
        bad = active & ~(w > 0)
        if bad.any():
            q_bad = int(np.argmax(bad))
            raise OracleFailure(
                f"non-positive w at t={times[i]:.6g}, q={q_bad} "
                f"(w={w[q_bad]:.3g}); reduce the step size"
            )
        if not underflow and not np.all(w > 0):
            q_bad = int(np.argmax(~(w > 0)))
            raise OracleFailure(
                f"non-positive w at t={times[i]:.6g}, q={q_bad}; reduce the step size"
            )
        active |= w > 0
        values[i] = w
    if underflow and not np.all(values[0] > 0):
        raise OracleFailure("w failed to become positive by t=0; refine the grid")
    return WGrid(params=p, times=times, values=values)


def solve_quadrature(p: ModelParams, n_quad: int = DEFAULT_N_STEPS,
                     coeffs: DerivedCoefficients | None = None) -> WGrid:
    """Recursive variation-of-constants solution.

    Each level uses the exact representation

        w_q(t) = exp(-lambda_q (T-t)) w_q(T)
                 + eta * integral_t^T exp(-lambda_q (s-t)) w_{q-1}(s) ds

    with the integral accumulated backward two grid intervals at a time by
    Simpson's rule (one trapezoid interval closes the odd-offset chain).
    """
    p.require_risk_averse("solve_quadrature")
    if n_quad < 2:
        raise ParameterError(f"n_quad must be >= 2, got {n_quad}")
    if coeffs is None:
        coeffs = derive_coefficients(p)
    underflow = _terminal_underflows(p)
    n = n_quad
    h = p.horizon / n
    times = np.linspace(0.0, p.horizon, n + 1)
    values = np.empty((n + 1, p.q_max + 1))
    values[:, 0] = 1.0
    term = _terminal_values(p)
    tail = p.horizon - times  # T - t_i
    for q in range(1, p.q_max + 1):
        lam = coeffs.alpha * q * q - coeffs.beta * q
        prev = values[:, q - 1]
        e1 = math.exp(-lam * h)
        e2 = e1 * e1
        integral = np.empty(n + 1)
        integral[n] = 0.0
        integral[n - 1] = 0.5 * h * (prev[n - 1] + e1 * prev[n])
        for i in range(n - 2, -1, -1):
            local = (h / 3.0) * (prev[i] + 4.0 * e1 * prev[i + 1] + e2 * prev[i + 2])
            integral[i] = local + e2 * integral[i + 2]
        col = np.exp(-lam * tail) * term[q] + coeffs.eta * integral
        body = col if not underflow else col[:-1]
        if not np.all(body > 0):
            i = int(np.argmax(~(body > 0)))
            raise OracleFailure(
                f"non-positive w at t={times[i]:.6g}, q={q}; refine the quadrature grid"
            )
        values[:, q] = col
    return WGrid(params=p, times=times, values=values)


def mp_log_w(p: ModelParams, t: float, dps: int = 60) -> list:
    """ln w_q(t), q = 0..q_max, as ``mpmath`` numbers of ``dps`` digits.

    With distinct eigenvalues lambda_j the eigenvector of level j has
    ``x_i = eta x_{i-1} / (lambda_i - lambda_j)`` for i > j; w(T) is
    expanded in them by forward substitution and each mode decays as
    ``exp(-lambda_j (T - t))``.  The cancellation in that sum is absorbed
    by the working precision, not by the double range.
    """
    with mpmath.workdps(dps):
        c = derive_coefficients(p)
        alpha, beta, eta = (mpmath.mpf(x) for x in (c.alpha, c.beta, c.eta))
        n = p.q_max + 1
        lam = [alpha * q * q - beta * q for q in range(n)]
        if len(set(lam)) < n:
            raise ValueError("mp_log_w needs distinct eigenvalues")
        kb = mpmath.mpf(p.k) * mpmath.mpf(p.b)
        x = [[mpmath.mpf(0)] * n for _ in range(n)]  # x[j][i]
        for j in range(n):
            x[j][j] = mpmath.mpf(1)
            for i in range(j + 1, n):
                x[j][i] = eta * x[j][i - 1] / (lam[i] - lam[j])
        coef = []
        for i in range(n):
            coef.append(mpmath.exp(-kb * i) - mpmath.fsum(coef[j] * x[j][i] for j in range(i)))
        tau = mpmath.mpf(p.horizon) - mpmath.mpf(t)
        decay = [mpmath.exp(-lam[j] * tau) for j in range(n)]
        return [mpmath.log(mpmath.fsum(coef[j] * x[j][i] * decay[j] for j in range(i + 1)))
                for i in range(n)]


def nodrift_novol_w(p: ModelParams, t: float, q: int) -> float:
    """w_q(t) in the mu = sigma = 0 regime,
    ``sum_j eta^j / j! exp(-k b (q-j)) (T-t)^j``.

    Each term is formed from its logarithm and the terms are summed with
    ``math.fsum`` relative to the largest, so terms below the double range
    drop out without spoiling the sum.
    """
    if not (p.sigma == 0.0 and p.mu == 0.0):
        raise RegimeError(f"nodrift_novol_w requires sigma = 0 and mu = 0, got "
                          f"sigma={p.sigma}, mu={p.mu}")
    if q < 0:
        raise ParameterError(f"q must be >= 0, got {q}")
    if not 0.0 <= t <= p.horizon:
        raise ParameterError(f"t={t} outside [0, {p.horizon}]")
    tau = p.horizon - t
    if tau == 0.0:
        return math.exp(-p.k * p.b * q)
    log_rate = math.log(derive_coefficients(p).eta * tau)
    logs = [j * log_rate - math.lgamma(j + 1) - p.k * p.b * (q - j)
            for j in range(q + 1)]
    top = max(logs)
    return math.exp(top) * math.fsum(math.exp(x - top) for x in logs)


def asymptotic_w(p: ModelParams, q: int) -> float:
    """Long-horizon limit of w_q(0): ``eta^q / q! * prod_j 1/(alpha j - beta)``."""
    c = derive_coefficients(p)
    if not 0 <= q <= p.q_max:
        raise ParameterError(f"q must be in 0..{p.q_max}, got {q}")
    if q == 0:
        return 1.0
    if not c.alpha > c.beta:
        raise NoAsymptoteError(f"no long-horizon w limit: need alpha > beta "
                               f"({c.alpha} <= {c.beta})")
    out = 1.0
    for j in range(1, q + 1):
        out *= c.eta / (j * (c.alpha * j - c.beta))
    return out


def assert_w_grid(grid: WGrid) -> None:
    """w_0 is identically 1, the terminal row is the exact w(T) to the last
    bit and every mantissa is positive."""
    assert np.all(grid.values[:, 0] == 1.0) and np.all(grid.exponents[:, 0] == 0), \
        "w_0 must be identically 1"
    v_term, e_term = _terminal_state(grid.params)
    got = np.ldexp(grid.values[-1], (grid.exponents[-1] - e_term).astype(np.int32))
    assert np.array_equal(got, v_term), f"terminal row deviates: {got} vs {v_term}"
    assert np.all(grid.values > 0), "w must be strictly positive"


def assert_quote_surface(surface) -> None:
    """The terminal quotes are pinned to 1e-10 and, before T, the quotes
    decrease strictly in inventory; at T all levels meet at one value."""
    target = terminal_quote(surface.params)
    deviation = np.max(np.abs(surface.values[-1] - target))
    assert deviation < 1e-10, f"terminal quotes deviate from {target} by {deviation}"
    assert np.all(np.diff(surface.values[:-1], axis=1) < 0), \
        "quotes must be strictly decreasing in inventory for t < T"


def assert_trading_curve(curve, q0: int) -> None:
    """The expected inventory starts at q0 (when the curve starts at t = 0)
    and never increases."""
    if curve.times[0] == 0.0:
        assert abs(curve.expected_inventory[0] - q0) <= 1e-12 * q0
    assert np.all(np.diff(curve.expected_inventory) <= 1e-12), \
        "expected inventory must be non-increasing"


def model_params_fields(values: dict):
    """What ``ModelParams(**values)`` does, one field at a time: raises the
    refusal of the first field out of its domain, else returns the q_max
    the set stores."""
    p = {f.name: f.default for f in dataclasses.fields(ModelParams)}
    p.update(values)
    for name in FIELD_TO_CONFIG_KEY:
        value = p[name]
        if not math.isfinite(value):
            hint = (" (the forced-liquidation limit b -> inf has closed forms: "
                    "optliq.closed_forms.binf_*)" if name == "b" else "")
            raise ParameterError(f"{name} must be finite, got {value}{hint}")
    for name in ("big_a", "k", "horizon"):
        if not p[name] > 0:
            raise ParameterError(f"{name} must be > 0, got {p[name]}")
    for name in ("sigma", "gamma", "b"):
        if p[name] < 0:
            raise ParameterError(f"{name} must be >= 0, got {p[name]}")
    if int(p["q_max"]) != p["q_max"] or p["q_max"] < 1:
        raise ParameterError(f"q_max must be an integer >= 1, got {p['q_max']}")
    return int(p["q_max"])


def slice_time(tape, start: float, end: float) -> TradeTape:
    """The records of ``tape`` in [start, end] as a new tape, whose columns
    are read-only views and whose caches start empty."""
    lo = np.searchsorted(tape.ts, start, side="left")
    hi = np.searchsorted(tape.ts, end, side="right")
    if hi <= lo:
        raise DataError(f"no records in [{start}, {end}]")
    return TradeTape(*(getattr(tape, name)[lo:hi] for name in COLUMNS),
                     tick_size=tape.tick_size)


def calibrate_intensity_recount(tape, distance_grid=DEFAULT_DISTANCE_GRID,
                                window=None, end_time=None, n_min=50):
    """:func:`optliq.calibrate_intensity` by slicing the window out of the
    tape and recounting it: same arguments, drop rules, reasons, errors
    and bucket order, with the fit by ``np.polyfit``."""
    grid = np.asarray(distance_grid, dtype=float)
    if grid.size < 3:
        raise ParameterError(f"distance_grid needs >= 3 offsets, got {grid.size}")
    if np.any(np.diff(grid) <= 0) or grid[0] <= 0:
        raise ParameterError("distance_grid must be positive and increasing")
    end = float(tape.ts[-1]) if end_time is None else float(end_time)
    start = float(tape.ts[0]) if window is None else end - float(window)
    sliced = slice_time(tape, start, end)

    buckets = _spread_bucket(sliced.spread)
    offsets = sliced.price - sliced.mid
    # time in each bucket: the gap up to the next print carries the current
    # bucket's label, plus the tail out to the window end
    durations = np.append(np.diff(sliced.ts), max(end - sliced.ts[-1], 0.0))

    fits, dropped = {}, {}
    for bucket in np.unique(buckets):
        in_bucket = buckets == bucket
        n_obs = int(np.sum(in_bucket))
        key = int(bucket)
        if n_obs < n_min:
            dropped[key] = f"only {n_obs} prints < n_min = {n_min}"
            continue
        total_time = float(np.sum(durations[in_bucket]))
        if total_time <= 0:
            dropped[key] = "no time attributed to bucket"
            continue
        counts = np.array([np.sum(in_bucket & (offsets >= d)) for d in grid])
        usable = counts > 0
        if np.sum(usable) < 3:
            dropped[key] = f"only {int(np.sum(usable))} offsets with prints"
            continue
        rates = counts[usable] / total_time
        slope, intercept = np.polyfit(grid[usable], np.log(rates), 1)
        k_hat = -float(slope)
        if k_hat <= 1e-12:  # flat or inverted rate profile
            dropped[key] = f"non-positive decay estimate ({k_hat:.3g})"
            continue
        fits[key] = IntensityFit(a_hat=float(math.exp(intercept)),
                                 k_hat=k_hat, n_obs=n_obs)
    return fits, dropped


def intensity_fit_formula(grid: np.ndarray, counts: np.ndarray, total_time: float,
                          n_obs: int):
    """The fit of one bucket's window from its print count at or above each
    offset of ``grid`` and the time it spent in the bucket, with the mean
    offset, its deviations and their square sum formed on every call: an
    :class:`IntensityFit`, or the reason the bucket is dropped."""
    usable = counts > 0
    n_usable = int(np.count_nonzero(usable))
    if n_usable < 3:
        return f"only {n_usable} offsets with prints"
    x = grid[usable]
    log_rates = np.log(counts[usable] / total_time)
    x_mean = float(x.sum()) / n_usable
    dx = x - x_mean
    k_hat = float(dx @ (log_rates[0] - log_rates)) / float(dx @ dx)
    if k_hat <= 1e-12:
        return f"non-positive decay estimate ({k_hat:.3g})"
    log_a = float(log_rates.sum()) / n_usable + k_hat * x_mean
    return IntensityFit(a_hat=math.exp(log_a), k_hat=k_hat, n_obs=n_obs)


def calibrate_sigma_resample(tape, sampling_dt):
    """:func:`optliq.calibrate_sigma` by sampling the tape's mid afresh,
    without the increments the tape caches."""
    n = int(tape.span / sampling_dt)
    sample_t = tape.ts[0] + sampling_dt * np.arange(n + 1)
    idx = np.searchsorted(tape.ts, sample_t, side="right") - 1
    ds = np.diff(0.5 * (tape.bid[idx] + tape.ask[idx]))
    return math.sqrt(np.sum(ds * ds) / (n * sampling_dt))


def walk_lift(lw: np.ndarray) -> tuple:
    """log2 w with each level raised to at least 2^-_LIFT times the level
    below, and the mask of the levels left as they were."""
    lift = _LIFT * np.arange(lw.size)
    shifted = lw + lift
    floor = np.maximum.accumulate(shifted)
    own = shifted == floor
    return np.where(own, lw, floor - lift), own


def walk_reach(lam: np.ndarray, eta: float, v: np.ndarray, e: np.ndarray,
               log2=np.log2, exp2=np.exp2) -> float:
    """How long w = v 2^e can be walked back keeping every mantissa in the
    window: the lifted w bounds growth, the levels left as they were bound
    decay.  ``log2`` and ``exp2`` act elementwise on arrays."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = log2(v)
        lw = a + e
        lifted, own = walk_lift(lw)
        up = float((eta * exp2(lifted[:-1] - lifted[1:]) - lam[1:]).max())
        fed = eta * exp2(lw[:-1] - lw[1:]) - lam[1:]
    lo = float(fed[own[1:]].min(initial=0.0))
    top, bottom = float((lifted - e).max()), float(a[own].min(initial=math.inf))
    if not -_WINDOW <= bottom <= top <= _WINDOW:
        return 0.0
    growth = (_WINDOW - top) * math.log(2.0) / up if up > 0 else math.inf
    return min(growth, (_WINDOW + bottom) * math.log(2.0) / -lo if lo < 0 else math.inf)


def walk_profile(v: np.ndarray, e: np.ndarray) -> tuple:
    """w = v 2^e with each exponent moved to the nearest integer of the
    level's lifted log2."""
    with np.errstate(divide="ignore"):
        e_new = np.rint(walk_lift(np.log2(v) + e)[0]).astype(np.int64)
    return np.ldexp(v, (e - e_new).astype(np.int32)), e_new


def event_rule_path(cfg, exponentials, normals) -> dict:
    """One path of :func:`optliq.simulate_ensemble` under ``cfg``, from its
    draws: ``exponentials[j]`` and ``normals[j]`` are fill round j's.

    The policy holds premiums[i] on [edges[i], edges[i + 1]): a
    :class:`FixedQuote` one interval, a surface one per node before T (a
    node at T is never held), the first from 0.  An interval forces a sale
    at its start (or at once, inside it) where its premium is below a
    fallback threshold, a market order at the reference price, or where the
    rate ``big_a exp(-k delta)`` overflows, a sale at that premium.  Each
    round walks the intervals from the current time t: it sells at the
    first forced interval, unless before that the level's cumulative
    hazard from 0 (forced intervals add none) reaches its value at t plus
    the round's exponential.  The price moves by exact Gaussian increments
    to each sale and to T."""
    p, q0 = cfg.params, cfg.q0
    horizon = p.horizon
    policy = cfg.policy
    if isinstance(policy, FixedQuote):
        edges, premiums = [0.0, horizon], [[float(policy.delta)] * q0]
    else:
        times, values = policy.surface.times.tolist(), policy.surface.values
        held = [0] + [i for i in range(1, len(times))
                      if times[i] < horizon * (1 - 1e-12)]
        edges = [0.0] + [times[i] for i in held[1:]] + [horizon]
        premiums = [values[i, :q0].tolist() for i in held]
    threshold = getattr(policy, "threshold", -math.inf)

    t, s, x, market_orders, i = 0.0, float(cfg.s0), 0.0, 0, 0
    sales = []   # (time, settlement price)
    for j in range(q0):
        level = [row[q0 - 1 - j] for row in premiums]
        forced = []   # per interval: what a forced sale adds to S, or None
        rates, cum = [], [0.0]
        for n, delta in enumerate(level):
            try:
                rate = p.big_a * math.exp(-p.k * delta)
            except OverflowError:
                rate = math.inf
            if delta < threshold:
                forced.append(0.0)
            elif math.isinf(rate):
                forced.append(delta)
            else:
                forced.append(None)
            rates.append(rate if forced[-1] is None else 0.0)
            cum.append(cum[-1] + rates[-1] * (edges[n + 1] - edges[n]))
        target = cum[i] + rates[i] * (t - edges[i]) + exponentials[j]
        sale = None   # (time, premium, market order)
        for n in range(i, len(level)):
            if forced[n] is not None:
                sale = (max(t, edges[n]), forced[n], level[n] < threshold)
            elif target < cum[n + 1]:
                sale = (max(t, edges[n] + (target - cum[n]) / rates[n]), level[n], False)
            if sale is not None:
                i = n
                break
        event = horizon if sale is None else sale[0]
        gap = event - t
        s += p.mu * gap + p.sigma * math.sqrt(gap) * normals[j]
        if sale is None:
            break
        t = event
        x += s + sale[1]
        market_orders += sale[2]
        sales.append((t, s + sale[1]))
    else:
        s += p.mu * (horizon - t) + p.sigma * math.sqrt(horizon - t) * normals[q0]
    return {"q_final": q0 - len(sales), "x_final": x, "s_final": s,
            "market_orders": market_orders, "sales": sales}


def tq_rows(times, values, first_q: int):
    """``(t, q, value)`` per cell of a time-by-level table, level
    ``first_q`` in column 0; one time step is converted at a time."""
    for t, row in zip(times.tolist(), values):
        for q, value in enumerate(row.tolist(), first_q):
            yield t, q, value
