"""Exact solution of the w ODE system behind the optimal quotes.

The inventory-indexed family w_q(t), q = 0..Q, solves the lower-bidiagonal
linear system

    wdot_q(t) = lambda_q w_q(t) - eta w_{q-1}(t),   lambda_q = alpha q^2 - beta q,
    w_0 = 1,   w_q(T) = exp(-k q b),

so ``w(t) = exp(-(T - t) M) w(T)``.  :func:`solve_w` returns it, at one
time or on a uniform grid, and its quotes through one walk back from w(T).

The propagator is computed without a subtraction: with ``c = max lambda``,
``N = cI - M`` is entrywise nonnegative, ``exp(-tau M) = exp(-tau c)
exp(tau N)`` is a Taylor polynomial of N at a step ``tau / 2^s`` squared s
times, and every entry keeps its relative accuracy however small it is
(Moler & Van Loan, SIAM Rev. 2003; Xue & Ye, Numer. Math. 2008).  At the
sizes of a re-quote (q_max up to 10) it is some 20 products of small
matrices, so its set-up stays in Python floats and its products go through
``np.dot``, the BLAS call of ``np.matmul`` at a lower cost per call.

w can leave the double range by thousands of binary orders; quotes need
only ``w_q / w_{q-1}``.  So w is carried as mantissas times exact powers of
two, one exponent per level and per segment of the walk: ``w_q = v_q
2^(e_q)``.  With ``D = diag(2^e)`` the walk applies ``exp(-h D^-1 M D)``,
whose subdiagonal is ``eta 2^(e_{q-1} - e_q)``: nonnegative, scaled exactly
(Higham, *Accuracy and Stability of Numerical Algorithms*, 2002).  A
segment's length is worked out before it is walked: for ``G = -D^-1 M D``
and v > 0, the extreme log-growth rates ``r_lo <= (G v)_q / v_q <= r_up``
give ``e^(tau r_lo) v <= exp(tau G) v <= e^(tau r_up) v`` for all tau >= 0,
as ``exp(tau G)`` is nonnegative and commutes with G, and the segment goes
as far as that keeps every mantissa within ``2^+-_WINDOW``.  No ratio of
two mantissas, or entry of a scaled step, then exceeds ``2^(2 _WINDOW)``.
The exponents change only where the kept ones cannot reach _KEEP steps,
or the walk's end, and fresh ones reach further; a step too long even for
fresh ones is crossed as a walk of two half steps.  w(T) is split by a
reduction that is exact while its exponents stay below 2^22 in size, so a
k b q_max above _MAX_KBQ is refused.  The bound and the profile are
computed in Python floats, one level at a time: they see q_max + 1
numbers, few enough that NumPy's cost per call would outweigh the
arithmetic.

A grid fills the nodes of each run of segments that keep one profile by
doubling from the run's first node.  With E the scaled one-step
propagator, w at node m + 2^k is ``E^(2^k)`` times w at node m, and the
ladder of squares ``E^(2^k)`` is built once per step and profile, each
square's diagonal reset to its exact value as in the propagator's own
squarings.
Node j of a run of L steps is one rung per set bit of j applied to the
run's first node, so at most ``K = ceil(log2 L)`` products from it, and
rung k is k squarings from E: every entry comes from at most ``K (K + 1)
/ 2`` products of nonnegative matrices, and keeps its relative accuracy
as above.  Where w stays well inside the double range the exponents are
0 and the grid is one doubling walk of plain doubles from w(T).

Only the rungs a grid multiplies its rows by have their entries below the
double range set to 0: rung 0 is a copy of E so flushed, and each square
is flushed as it is formed, since a product with a subnormal operand can
run several times slower.  A rung spans at most its run, along which every
mantissa is at most ``2^W`` (W = _WINDOW) and every level the walk does
not lift at least ``2^-W``.  A flushed entry, under 2^-1022, thus drops a
term under ``2^(W - 1022)`` from a level of at least ``2^-W``: under
``2^(2W - 1022)`` of it.  W = 474 makes that 2^-74, what rounding such an
entry to a subnormal (an error up to 2^-1074) could move a level at the
former window of 500; at 500 a flush could move it by 2^-22.  A lifted
level has no such floor; where a level that is fed is left at 0 its quote
is refused by name, not returned as -inf.  E itself, built afresh for each
step and profile, keeps its subnormal entries, as do the propagator's own
squarings: a walk multiplies only its one state by it, where a subnormal
operand costs nothing measurable, and a subnormal entry, rounded by at
most 2^-1075, moves a level of at least ``2^-W`` by under
``2^(2W - 1075)`` = 2^-127 of it.

Level one couples only to ``w_0 = 1``: ``w_1(T - tau) = e^(-x - k b) +
eta tau phi1(-x)``, ``x = lambda_1 tau``, ``phi1(y) = expm1(y) / y``.  A
point at ``q_max = 1`` (the backtester's last unit, each step of the gamma
calibration) takes it in logs: its quote is ``ln w_1 / k + ln(1 +
gamma/k) / gamma`` straight from the log, and its w is the exponential of
the same log.  Grids, and points at ``q_max >= 2``, take the walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .model import (ModelParams, QuoteSurface, _require_int, _write_tq_csv,
                    derive_coefficients, terminal_quote)

__all__ = [
    "WGrid",
    "WSolution",
    "solve_w",
    "solve_spectral",
    "solve_grid",
    "quote_surface",
    "DEFAULT_N_STEPS",
]

#: default grid step count for :func:`solve_grid`; the grid values are
#: exact at every node, the count only sets the time resolution
DEFAULT_N_STEPS = 10_000

# the scaled step keeps h * max(diag N) + h * eta below this
_THETA = 0.5
# a walk keeps its exponents while they reach this many steps
_KEEP = 32
# rows per product when a grid is filled by doubling
_ROWS = 1024
_INV_FACTORIAL = 1.0 / np.array([math.factorial(j) for j in range(171)], dtype=float)
# 2^i for every squaring count i whose 2^i is a double
_POW2 = 2.0 ** np.arange(1024)
# log2 bound on the mantissas of a segment, (1022 - 74) / 2: a rung entry
# flushed below the double range moves a level by under 2^-74 of it
_WINDOW = 474.0
# a level more than 2^_LIFT below the one under it is lifted in the walk's
# profile: its value is negligible beside what it is fed in any
# representable step, and its mantissa may round to zero
_LIFT = 64.0
_TINY = np.finfo(float).tiny
_LOG_TINY = math.log(_TINY)
_LN2 = math.log(2.0)
# ln 2 in pieces of 31 bits, so that n * piece is exact for |n| < 2^22
_LN2_PIECES = (0.6931471801362932, 4.2365213637554633e-10, 2.0538208177030216e-19)
# the largest k b q_max: below (2^22 - 2) ln 2, so that the exponents of
# w(T) stay below 2^22 in size
_MAX_KBQ = 2.9e6
# the shortest half step, as a fraction of T: 2^_LIFT below the resolution
# of T, which leaves a lifted level room to catch up with its feeder (the
# tests' deepest half step is 2^-68 of T)
_HALF_STEP_FLOOR = 2.0 ** -(53 + _LIFT)


def _split_exp(x: np.ndarray, top: float) -> tuple:
    """exp(x) as (mantissas, exponents), given ``top = max |x|``: the double
    itself with exponent 0 where ``|x| <= -ln(tiny)``, so that it is normal,
    else reduced by a multiple of ``ln 2`` first (Cody & Waite)."""
    if top <= -_LOG_TINY:
        return np.exp(x), np.zeros(x.size, dtype=np.int64)
    outside = np.abs(x) > -_LOG_TINY
    e = np.where(outside, np.floor(x / math.log(2.0)) + 1.0, 0.0)
    for piece in _LN2_PIECES:
        x = x - e * piece
    return np.exp(x), e.astype(np.int64)


def _terminal_state(p: ModelParams) -> tuple:
    """w(T) = exp(-k q b) as (mantissas, exponents), for k b q_max up to
    _MAX_KBQ."""
    kbq = p.k * p.b * p.q_max
    if not kbq <= _MAX_KBQ:
        raise ParameterError(f"k * b * q_max = {kbq:.6g} is above {_MAX_KBQ:g}: the "
                             f"exponents of w(T) = exp(-k b q) cannot hold it exactly")
    # the largest |-k b q| is k b q_max, the same double
    return _split_exp(-p.k * p.b * np.arange(p.q_max + 1, dtype=float), kbq)


def _level_one_log(p: ModelParams, tau: float) -> float:
    """ln w_1(T - tau) in closed form, summed in logs, with
    ``ln phi1(y) = max(y, 0) + ln(-expm1(-|y|)) - ln|y|``: the logs take
    positive numbers formed without a cancellation."""
    c = derive_coefficients(p)
    y = (c.beta - c.alpha) * tau
    log_phi = max(y, 0.0) + math.log(-math.expm1(-abs(y))) - math.log(abs(y)) if y else 0.0
    # eta may round to 0; tau = 0 is w(T)
    log_feed = math.log(c.eta) + math.log(tau) + log_phi if c.eta > 0 and tau > 0 else -math.inf
    # ln(e^x + e^f), as np.logaddexp forms it
    x = y - p.k * p.b
    top = max(x, log_feed)
    return top + math.log1p(math.exp(min(x, log_feed) - top))


def _propagator(lam: np.ndarray, eta: float, tau: float, e: np.ndarray) -> np.ndarray:
    """``D^-1 exp(-tau M) D``, ``D = diag(2^e)``, each entry to relative
    accuracy.

    Entry (q, q - d) of the Taylor remainder of ``exp(hN)`` after degree m
    is at most ``theta^(m+1-d) e^theta / (m+1-d)!`` of that entry, with
    ``theta = h max(diag N)`` (the scaling multiplies it by a constant); the
    degree keeps that, amplified by the ``2^s`` factors of the product,
    below rounding for every ``d <= q_max``.  Resetting the exact diagonal
    keeps the squarings from compounding its rounding error (Al-Mohy &
    Higham, SIAM J. Matrix Anal. Appl. 2009).
    """
    n = lam.size
    rates = lam.tolist()
    c = max(rates)
    d_max = c - min(rates)  # max(diag): c - x rounds monotonically in x
    # the subdiagonal eta 2^(e_{q-1} - e_q): eta itself where the exponents
    # are 0, as they mostly are
    sub = (np.ldexp(eta, (e[:-1] - e[1:]).astype(np.int32)).tolist() if any(e.tolist())
           else [eta] * (n - 1))
    norm = tau * (d_max + max(sub))
    s = math.ceil(math.log2(norm / _THETA)) if norm > _THETA else 0
    h = tau / 2.0 ** s
    theta = h * d_max
    k, bound = 1, theta * math.exp(theta) * 2.0 ** s
    while bound > 2.0 ** -53:
        k += 1
        bound *= theta / k
    m = n + k - 2

    a = np.zeros((n, n))
    flat = a.reshape(-1)
    flat[::n + 1] = [h * (c - x) for x in rates]
    flat[n::n + 1] = [h * x for x in sub]  # subdiagonal
    # Horner's rule in A^r over blocks sum_j A^j / (i r + j)!
    # (Paterson-Stockmeyer), so a degree-m polynomial costs ~2 sqrt(m)
    # products; all coefficients are positive
    r = max(1, math.isqrt(m))
    n_blocks = m // r + 1
    powers = np.zeros((r, n, n))
    powers[0].reshape(-1)[::n + 1] = 1.0
    for j in range(1, r):
        np.dot(powers[j - 1], a, out=powers[j])
    a_r = np.dot(powers[-1], a)
    coef = np.zeros(n_blocks * r)
    # 1/j! underflows past j = 170; with h * sub <= 1/2 such terms are
    # below the double range anyway
    top = min(m, _INV_FACTORIAL.size - 1) + 1
    np.multiply(_INV_FACTORIAL[:top], math.exp(-h * c), out=coef[:top])
    blocks = np.dot(coef.reshape(n_blocks, r), powers.reshape(r, n * n)).reshape(n_blocks, n, n)
    out = blocks[-1]
    for block in blocks[-2::-1]:
        out = np.dot(a_r, out)
        out += block

    # square in place between two buffers, each with a view on its diagonal
    x, y = out, np.empty_like(out)
    x_diag, y_diag = x.reshape(-1)[::n + 1], y.reshape(-1)[::n + 1]
    exact_diag = np.exp(np.multiply.outer(-h * _POW2[:s + 1], lam))
    x_diag[:] = exact_diag[0]
    for diag in exact_diag[1:]:
        np.dot(x, x, out=y)
        y_diag[:] = diag
        x, y, x_diag, y_diag = y, x, y_diag, x_diag
    return x


class _Walk:
    """The walk of w back from T: the bound that sizes its segments and the
    scaled steps it takes."""

    def __init__(self, p: ModelParams):
        c = self._coefficients = derive_coefficients(p)
        # M has diagonal lam and subdiagonal -eta
        self._lam = [c.alpha * q * q - c.beta * q for q in range(p.q_max + 1)]
        self.lam, self.eta = np.array(self._lam), c.eta
        self._floor = p.horizon * _HALF_STEP_FLOOR
        self._step = None  # (h, profile, E) of the last step
        self._ladder = []  # [E, E^2, E^4, ...] of the last step, flushed

    def reach(self, v: np.ndarray, e: np.ndarray) -> float:
        """How long w = v 2^e can be walked back keeping every mantissa in
        the window: the lifted w bounds growth, the levels left as they
        were bound decay.  A level 0 of zero, or any mantissa that is
        negative, infinite or NaN, allows no step.  The lifted log2 w
        raises each level to at least 2^-_LIFT times the level below; one
        pass over the levels lifts them and keeps the extremes."""
        v = v.tolist()
        if not v[0] > 0.0:
            return 0.0
        eta, inf, log2 = self.eta, math.inf, math.log2
        up = top = floor = -inf
        lo = bottom = inf
        q = 0
        for x, y, rate in zip(v, e.tolist(), self._lam):
            if not 0.0 <= x < inf:
                return 0.0
            a = log2(x) if x else -inf
            lw = a + y
            shifted = lw + _LIFT * q
            # each lifted level, and so each level left as it was, is at
            # least 2^-_LIFT times the level below: no power here overflows
            if shifted >= floor:  # left as it was
                floor, lifted = shifted, lw
                if a < bottom:
                    bottom = a
                if q:
                    fed = eta * 2.0 ** (lw_below - lw) - rate
                    if fed < lo:
                        lo = fed
            else:
                lifted = floor - _LIFT * q
            if q:
                rise = eta * 2.0 ** (lifted_below - lifted) - rate
                if rise > up:
                    up = rise
            if lifted - y > top:
                top = lifted - y
            lw_below, lifted_below = lw, lifted
            q += 1
        if not -_WINDOW <= bottom <= top <= _WINDOW:
            return 0.0
        growth = (_WINDOW - top) * _LN2 / up if up > 0 else math.inf
        return min(growth, (_WINDOW + bottom) * _LN2 / -lo if lo < 0 else math.inf)

    def profile(self, v: np.ndarray, e: np.ndarray) -> tuple:
        """w = v 2^e with each exponent moved to the nearest integer of the
        level's lifted log2, as :meth:`reach` lifts it (v_0 > 0 and every
        mantissa finite)."""
        v, e = v.tolist(), e.tolist()
        e_new, floor = [], -math.inf
        for q, (x, y) in enumerate(zip(v, e)):
            lw = math.log2(x) + y if x else -math.inf
            if lw + _LIFT * q >= floor:  # left as it was
                floor = lw + _LIFT * q
                e_new.append(round(lw))
            else:
                e_new.append(round(floor - _LIFT * q))
        return (np.array([math.ldexp(x, y - z) for x, y, z in zip(v, e, e_new)]),
                np.array(e_new, dtype=np.int64))

    def step(self, h: float, e: np.ndarray) -> np.ndarray:
        """The propagator E over h in the profile e, built afresh unless h
        and e are those of the last step.  E keeps its entries below the
        double range: a walk multiplies only its one state by it."""
        last = self._step
        if last is None or h != last[0] or not np.array_equal(e, last[1]):
            self._step = h, e, _propagator(self.lam, self.eta, h, e)
            self._ladder = []
        return self._step[2]

    def power(self, k: int) -> np.ndarray:
        """E^(2^k) for the last step E: E squared k times, each square's
        diagonal reset to its exact value.  Every rung, E included, has its
        entries below the double range set to 0 as it is formed, since a
        grid multiplies its rows by it and a product with a subnormal
        operand can run several times slower."""
        h, _, step = self._step
        ladder = self._ladder
        if not ladder:
            ladder.append(np.where(step < _TINY, 0.0, step))
        while len(ladder) <= k:
            rung = ladder[-1] @ ladder[-1]
            rung.reshape(-1)[::rung.shape[0] + 1] = np.exp(-h * 2.0 ** len(ladder) * self.lam)
            rung[rung < _TINY] = 0.0
            ladder.append(rung)
        return ladder[k]

    def run(self, v: np.ndarray, e: np.ndarray, tau: float, n_steps: int, emit) -> tuple:
        """Walk w = v 2^e back over n_steps steps of tau / n_steps.

        Each segment goes to ``emit(i, v, e, step, length)``: the state
        w = v 2^e at node i (i steps back), the scaled one-step propagator
        (None when length is 0) and the number of steps it spans; emit
        returns the state at node i + length.  The exponents change only
        where the kept ones cannot reach _KEEP steps, or the walk's end if
        nearer, and a fresh profile reaches further.  Where even a fresh
        profile cannot take one step, the walk crosses it as a walk of two
        half steps, down to half steps of T * _HALF_STEP_FLOOR: a shorter
        one is refused.  Returns the state at node n_steps.
        """
        h = tau / n_steps
        i = 0
        while True:
            length = int(min(n_steps - i, self.reach(v, e) / h))
            if length < min(n_steps - i, _KEEP):
                v2, e2 = self.profile(v, e)
                length2 = int(min(n_steps - i, self.reach(v2, e2) / h))
                # node i is written in the new profile: only where it is exact
                if length2 > length and v2.min() >= _TINY:
                    v, e, length = v2, e2, length2
            v = emit(i, v, e, self.step(h, e) if length else None, length)
            i += length
            if i == n_steps:
                return v, e
            if not length:  # v2, e2: the fresh profile tried above
                if h / 2 < self._floor:
                    c = self._coefficients
                    raise ParameterError(
                        f"w leaves the window of 2^+-{_WINDOW:g} within a step of {h:.3g}s, "
                        f"and half of it is below the walk's shortest half step, "
                        f"T * 2^-{53 + _LIFT:g}: the rates alpha = k * gamma * sigma^2 / 2 = "
                        f"{c.alpha:.3g}, beta = k * mu = {c.beta:.3g} and eta = {c.eta:.3g} "
                        f"(1/s) are too fast to solve")
                v, e = self.run(v2, e2, h, 2, _advance)
                i += 1


def _advance(i, v, e, step, length) -> np.ndarray:
    """The emit of a walk that keeps only its state."""
    for _ in range(length):
        v = np.dot(step, v)
    return v


@dataclass(frozen=True)
class WGrid:
    """Solution w_q(t) on a uniform time grid.

    times      grid 0 = t_0 < ... < t_N = T, shape (N+1,)
    values     mantissas, shape (N+1, q_max+1); column q holds level q
    exponents  int64 powers of two, one row per exponent profile, so that
               ``w = values * 2^exponents``; default one row of zeros
    breaks     first row of each profile's rows, increasing from 0
    """

    params: ModelParams
    times: np.ndarray
    values: np.ndarray
    exponents: np.ndarray = None
    breaks: np.ndarray = (0,)

    def __post_init__(self):
        times = np.ascontiguousarray(self.times, dtype=float)
        values = np.ascontiguousarray(self.values, dtype=float)
        breaks = np.asarray(self.breaks, dtype=np.int64)
        exponents = np.zeros((breaks.size, values.shape[-1]), dtype=np.int64) \
            if self.exponents is None else np.asarray(self.exponents, dtype=np.int64)
        if (values.shape != (times.size, self.params.q_max + 1) or breaks[0] != 0
                or exponents.shape != (breaks.size, values.shape[1])):
            raise ParameterError("w grid shape mismatch")
        for name, value in (("times", times), ("values", values),
                            ("exponents", exponents), ("breaks", breaks)):
            object.__setattr__(self, name, value)

    @property
    def q_max(self) -> int:
        return self.params.q_max

    @property
    def terminal_underflow(self) -> bool:
        """True when exp(-k q b) rounds to zero as a double for some q."""
        p = self.params
        return not math.exp(-p.k * p.b * p.q_max) > 0.0

    def doubles(self, rows=slice(None)) -> np.ndarray:
        """w at the given rows as the doubles it rounds to (0 or inf beyond
        the double range)."""
        segment = np.searchsorted(self.breaks, np.arange(self.times.size)[rows], "right") - 1
        with np.errstate(over="ignore"):
            return np.ldexp(self.values[rows], self.exponents[segment].astype(np.int32))

    def to_csv(self, path) -> None:
        _write_tq_csv(path, self.times, self.doubles(), first_q=0)

    def to_json_dict(self) -> dict:
        return {
            "params": self.params.to_config_dict(),
            "times": self.times.tolist(),
            "w": self.doubles().tolist(),
        }


@dataclass(frozen=True)
class WSolution:
    """The solution w(t) = exp(-(T - t) M) w(T) of one parameter set
    (requires gamma > 0)."""

    params: ModelParams

    def __post_init__(self):
        self.params.require_risk_averse("solve_w")

    def _tau(self, t: float) -> float:
        """T - t, for t in [0, T]."""
        if not 0.0 <= t <= self.params.horizon:
            raise ParameterError(f"t={t} outside [0, {self.params.horizon}]")
        return self.params.horizon - t

    def _state_at(self, t: float) -> tuple:
        """w(t) as (mantissas, exponents): w(T) at T, else a walk of one
        step."""
        p = self.params
        tau = self._tau(t)
        v, e = _terminal_state(p)
        return (v, e) if tau == 0.0 else _Walk(p).run(v, e, tau, 1, _advance)

    def evaluate_at(self, t: float) -> np.ndarray:
        """w(t), q = 0..q_max, as doubles (0 or inf beyond the double
        range); at q_max = 1, the exponential of ln w_1."""
        p = self.params
        with np.errstate(over="ignore"):
            if p.q_max == 1:
                return np.array([1.0, np.exp(_level_one_log(p, self._tau(t)))])
            v, e = self._state_at(t)
            return np.ldexp(v, e.astype(np.int32))

    def quotes_at(self, t: float) -> np.ndarray:
        """The premiums delta*(t, q) for q = 1..q_max, formed from the
        mantissas and exponents of w(t) as :func:`quote_surface` forms
        them, so they keep their digits wherever w lies; at q_max = 1,
        straight from ln w_1."""
        p = self.params
        if p.q_max == 1:
            return np.array([_level_one_log(p, self._tau(t)) / p.k
                             + math.log1p(p.gamma / p.k) / p.gamma])
        return _quotes(*self._state_at(t), p, np.empty(p.q_max))

    def to_wgrid(self, n_steps: int = DEFAULT_N_STEPS) -> WGrid:
        """w on the uniform grid of n_steps steps, exact at every node.

        The nodes of a run that keeps one profile are filled by doubling
        from its first node: with ``E`` the scaled one-step propagator,
        node ``j`` of the run, ``2^k <= j < 2^(k+1)``, is ``E^(2^k)`` times
        node ``j - 2^k``.  In the rows of the grid, which run forward in
        time, that is one product ``rows[a - 2^k:b - 2^k] = rows[a:b] @
        (E^(2^k)).T`` per doubling, _ROWS rows at a time; a segment of the
        walk that keeps the profile goes on with the doubling where the one
        before it stopped.
        """
        p = self.params
        _require_int(n_steps=n_steps)
        if n_steps < 1:
            raise ParameterError(f"n_steps must be >= 1, got {n_steps}")
        walk = _Walk(p)
        rows = np.empty((n_steps + 1, p.q_max + 1))
        firsts, profiles = [], []
        run = [0, -1]  # the run's first node and the last node it filled

        def emit(i, v, e, step, length):
            # segments that keep their exponents share one profile
            if not profiles or not np.array_equal(e, profiles[-1]):
                firsts.append(i)
                profiles.append(e)
                run[1] = -1
            # a new profile, or a node reached in two half steps, starts a run
            if i != run[1]:
                run[0] = i
                rows[n_steps - i] = v
            origin = n_steps - run[0]  # the row of the run's first node
            lo, hi = i + 1 - run[0], i + length - run[0]  # the run's nodes to fill
            for k in range(lo.bit_length() - 1, hi.bit_length()):
                shift = 1 << k
                # the rows of nodes max(lo, 2^k)..min(hi, 2^(k+1) - 1)
                top = origin + 1 - max(lo, shift)
                for r in range(origin - min(hi, 2 * shift - 1), top, _ROWS):
                    end = min(r + _ROWS, top)
                    np.matmul(rows[r + shift:end + shift], walk.power(k).T, out=rows[r:end])
            run[1] = i + length
            return rows[n_steps - i - length].copy()

        walk.run(*_terminal_state(p), p.horizon, n_steps, emit)
        # a profile owns its rows down to the next profile's first node
        return WGrid(params=p, times=np.linspace(0.0, p.horizon, n_steps + 1),
                     values=rows, exponents=profiles[::-1],
                     breaks=[0] + [n_steps - i + 1 for i in firsts[:0:-1]])


def solve_w(p: ModelParams) -> WSolution:
    """The exact solution of the w system for ``p`` (requires gamma > 0)."""
    return WSolution(params=p)


# the benchmark workloads (bench/workloads.py) import the solver under its
# former name
solve_spectral = solve_w


def solve_grid(p: ModelParams, n_steps: int = DEFAULT_N_STEPS) -> WGrid:
    """w on a uniform grid of ``n_steps`` steps over [0, T]."""
    return solve_w(p).to_wgrid(n_steps)


def quote_surface(w: WGrid) -> QuoteSurface:
    """Optimal premiums delta*(t, q) for q = 1..q_max from a solved grid.

    Each quote is ``(ln(v_q / v_{q-1}) + (e_q - e_{q-1}) ln 2) / k`` plus
    the spread term, from the mantissas v and exponents e of its row, so it
    keeps its digits wherever w lies.  The terminal row is
    ``terminal_quote(p)``, as consecutive terminal values differ by exactly
    ``exp(-k b)``.
    """
    p = w.params
    p.require_risk_averse("quote_surface")
    vals = w.values
    quotes = np.empty((vals.shape[0], p.q_max))
    ends = list(w.breaks[1:]) + [vals.shape[0] - 1]
    for first, end, e in zip(w.breaks, ends, w.exponents):
        _quotes(vals[first:end], e, p, quotes[first:end])
    quotes[-1] = terminal_quote(p)
    return QuoteSurface(times=w.times, values=quotes, params=p)


def _quotes(v: np.ndarray, e: np.ndarray, p: ModelParams, out: np.ndarray) -> np.ndarray:
    """``(ln(v_q / v_{q-1}) + (e_q - e_{q-1}) ln 2) / k`` plus the spread
    term, for q = 1..q_max along the last axis of v, written into out.  A
    mantissa of 0 or below, which the walk leaves where a level underflows
    in it, is refused, naming the level."""
    # a ufunc's reduce and a list: no NumPy wrapper in Python per call
    if not np.minimum.reduce(v, axis=None, initial=math.inf) > 0.0:
        level = int(np.flatnonzero(~(v.reshape(-1, v.shape[-1]) > 0.0).all(axis=0))[0])
        c = derive_coefficients(p)
        raise ParameterError(
            f"w_{level} is not positive: its mantissa of {v[..., level].min():g} underflows in "
            f"the walk back from T, as the rates alpha = k * gamma * sigma^2 / 2 = "
            f"{c.alpha:.3g}, beta = k * mu = {c.beta:.3g} and eta = {c.eta:.3g} (1/s) are "
            f"too far apart")
    np.divide(v[..., 1:], v[..., :-1], out=out)
    np.log(out, out=out)
    if any(e.tolist()):  # no exponent term where w is a double, as it mostly is
        out += (e[1:] - e[:-1]) * _LN2
    out /= p.k
    out += math.log1p(p.gamma / p.k) / p.gamma
    return out
