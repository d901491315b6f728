"""Exact solution of the w ODE system behind the optimal quotes.

The inventory-indexed family w_q(t), q = 0..Q, solves the lower-bidiagonal
linear system

    wdot_q(t) = lambda_q w_q(t) - eta w_{q-1}(t),   lambda_q = alpha q^2 - beta q,
    w_0 = 1,   w_q(T) = exp(-k q b),

so ``w(t) = exp(-(T - t) M) w(T)``.  :func:`solve_w` returns it, at one
time or on a uniform grid, through one walk back from w(T).

The propagator is computed without a subtraction: with ``c = max lambda``,
``N = cI - M`` is entrywise nonnegative, ``exp(-tau M) = exp(-tau c)
exp(tau N)`` is a Taylor polynomial of N at a step ``tau / 2^s`` squared s
times, and every entry keeps its relative accuracy however small it is
(Moler & Van Loan, SIAM Rev. 2003; Xue & Ye, Numer. Math. 2008).

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
two mantissas, or entry of a scaled step, then exceeds 2^1000, and the
rounding of an entry below the double range is under 2^-70 of the level
it feeds.  The exponents change only where a segment could not reach the
next grid node; where w stays well inside the double range they are 0 and
the arithmetic is that of plain doubles.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ParameterError
from .model import (FIELD_TO_CONFIG_KEY, ModelParams, QuoteSurface, _write_tq_csv,
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
# powers E_h^j precomputed per block when building a grid
_BLOCK = 32
_INV_FACTORIAL = 1.0 / np.array([math.factorial(j) for j in range(171)], dtype=float)
# log2 bound on the mantissas of a segment
_WINDOW = 500.0
# a level more than 2^_LIFT below the one under it is lifted in the walk's
# profile: its value is negligible beside what it is fed in any
# representable step, and its mantissa may round to zero
_LIFT = 64.0
_TINY = np.finfo(float).tiny
_LOG_TINY = math.log(_TINY)
# ln 2 in pieces of 31 bits, so that n * piece is exact for |n| < 2^22
_LN2_PIECES = (0.6931471801362932, 4.2365213637554633e-10, 2.0538208177030216e-19)


def _terminal_state(p: ModelParams) -> tuple:
    """w(T) = exp(-k q b) as (mantissas, exponents): the double itself with
    exponent 0 where it is normal, else reduced by a multiple of ``ln 2``
    first (Cody & Waite)."""
    x = -p.k * p.b * np.arange(p.q_max + 1, dtype=float)
    if x[-1] >= _LOG_TINY:  # the top level, the smallest, is normal
        return np.exp(x), np.zeros(x.size, dtype=np.int64)
    e = np.where(x < _LOG_TINY, np.floor(x / math.log(2.0)) + 1.0, 0.0)
    for piece in _LN2_PIECES:
        x = x - e * piece
    return np.exp(x), e.astype(np.int64)


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
    sub = np.ldexp(eta, (e[:-1] - e[1:]).astype(np.int32))
    n = lam.size
    c = float(lam.max())
    diag = c - lam
    d_max = float(diag.max())
    norm = tau * (d_max + float(np.max(sub)))
    s = math.ceil(math.log2(norm / _THETA)) if norm > _THETA else 0
    h = tau / 2.0 ** s
    theta = h * d_max
    k, bound = 1, theta * math.exp(theta) * 2.0 ** s
    while bound > 2.0 ** -53:
        k += 1
        bound *= theta / k
    m = n + k - 2

    a = np.zeros((n, n))
    a.reshape(-1)[::n + 1] = h * diag
    a.reshape(-1)[n::n + 1] = h * sub  # subdiagonal
    # Horner's rule in A^r over blocks sum_j A^j / (i r + j)!
    # (Paterson-Stockmeyer), so a degree-m polynomial costs ~2 sqrt(m)
    # products; all coefficients are positive
    r = max(1, math.isqrt(m))
    n_blocks = m // r + 1
    powers = np.zeros((r, n, n))
    powers[0].reshape(-1)[::n + 1] = 1.0
    for j in range(1, r):
        np.matmul(powers[j - 1], a, out=powers[j])
    a_r = powers[-1] @ a
    coef = np.zeros(n_blocks * r)
    # 1/j! underflows past j = 170; with h * sub <= 1/2 such terms are
    # below the double range anyway
    top = min(m, _INV_FACTORIAL.size - 1) + 1
    coef[:top] = _INV_FACTORIAL[:top] * math.exp(-h * c)
    blocks = (coef.reshape(n_blocks, r) @ powers.reshape(r, n * n)).reshape(n_blocks, n, n)
    out = blocks[-1]
    for i in range(n_blocks - 2, -1, -1):
        out = a_r @ out
        out += blocks[i]

    # square in place between two buffers, each with a view on its diagonal
    buffers = (out, np.empty_like(out))
    diagonals = tuple(b.reshape(-1)[::n + 1] for b in buffers)
    exact_diag = np.exp(np.multiply.outer(-h * 2.0 ** np.arange(s + 1), lam))
    diagonals[0][:] = exact_diag[0]
    for i in range(1, s + 1):
        np.matmul(buffers[1 - i % 2], buffers[1 - i % 2], out=buffers[i % 2])
        diagonals[i % 2][:] = exact_diag[i]
    return buffers[s % 2]


class _Walk:
    """The walk of w back from T: the bound that sizes its segments and the
    scaled steps it takes."""

    def __init__(self, p: ModelParams):
        c = derive_coefficients(p)
        q = np.arange(p.q_max + 1, dtype=float)
        # M has diagonal lam and subdiagonal -eta
        self.p, self.lam, self.eta = p, c.alpha * q * q - c.beta * q, c.eta
        self._step = None  # (h, profile, propagator) last built

    @staticmethod
    def _lift(lw: np.ndarray) -> tuple:
        """log2 w with each level raised to at least 2^-_LIFT times the
        level below, and the mask of the levels left as they were."""
        lift = _LIFT * np.arange(lw.size)
        shifted = lw + lift
        floor = np.maximum.accumulate(shifted)
        own = shifted == floor
        return np.where(own, lw, floor - lift), own

    def reach(self, v: np.ndarray, e: np.ndarray) -> float:
        """How long w = v 2^e can be walked back keeping every mantissa in
        the window: the lifted w bounds growth, the levels left as they
        were bound decay."""
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            a = np.log2(v)
            lw = a + e
            lifted, own = self._lift(lw)
            up = float((self.eta * np.exp2(lifted[:-1] - lifted[1:]) - self.lam[1:]).max())
            fed = self.eta * np.exp2(lw[:-1] - lw[1:]) - self.lam[1:]
        lo = float(fed[own[1:]].min(initial=0.0))
        top, bottom = float((lifted - e).max()), float(a[own].min())
        if not -_WINDOW <= bottom <= top <= _WINDOW:
            return 0.0
        growth = (_WINDOW - top) * math.log(2.0) / up if up > 0 else math.inf
        return min(growth, (_WINDOW + bottom) * math.log(2.0) / -lo if lo < 0 else math.inf)

    def profile(self, v: np.ndarray, e: np.ndarray) -> tuple:
        """w = v 2^e with each exponent moved to the nearest integer of the
        level's lifted log2."""
        with np.errstate(divide="ignore"):
            e_new = np.rint(self._lift(np.log2(v) + e)[0]).astype(np.int64)
        return np.ldexp(v, (e - e_new).astype(np.int32)), e_new

    def step(self, h: float, e: np.ndarray) -> np.ndarray:
        """The propagator over h in the profile e.  The last one built, for
        h or h / 2^j, is rescaled exactly and squared j times, unless the
        rescaling would raise an entry below the diagonal: one lost below
        the double range would stay lost."""
        if self._step is not None:
            h0, e0, s = self._step
            j = math.log2(h / h0)
            d = e - e0
            shift = d[None, :] - d[:, None]
            if j >= 0 and j == int(j) and not (np.tril(shift) > 0).any():
                if d.any():
                    s = np.ldexp(s, shift.astype(np.int32))
                for i in range(1, int(j) + 1):
                    s = s @ s
                    s.reshape(-1)[::s.shape[0] + 1] = np.exp(-h0 * 2.0 ** i * self.lam)
                self._step = (h, e, s)
                return s
        self._step = (h, e, _propagator(self.lam, self.eta, h, e))
        return self._step[2]

    def run(self, tau: float, n_steps: int, emit) -> tuple:
        """Walk w back from T over n_steps steps of tau / n_steps.

        Each segment goes to ``emit(i, v, e, step, length)``: the state
        w = v 2^e at node i (i steps before T), the scaled one-step
        propagator (None when length is 0) and the number of steps it
        spans; emit returns the state at node i + length.  Where even a
        fresh profile cannot take one step, the walk crosses it in dyadic
        sub-steps.  Returns the state at node n_steps.
        """
        h = tau / n_steps
        v, e = _terminal_state(self.p)
        i = 0
        while True:
            length = int(min(n_steps - i, self.reach(v, e) / h))
            if length < min(n_steps - i, _BLOCK):
                v2, e2 = self.profile(v, e)
                length2 = int(min(n_steps - i, self.reach(v2, e2) / h))
                # node i is written in the new profile: only where it is exact
                if length2 > length and v2.min() >= _TINY:
                    v, e, length = v2, e2, length2
            v = emit(i, v, e, self.step(h, e) if length else None, length)
            i += length
            if i == n_steps:
                return v, e
            if not length:
                v, e = self._substeps(v, e, h)
                i += 1

    def _substeps(self, v: np.ndarray, e: np.ndarray, h: float) -> tuple:
        """Cross one step h in pieces h / 2^level, each as long as the
        bound allows and aligned to its own length."""
        level, done = 0, 0  # done pieces of h / 2^level
        while done < 2 ** level:
            reach = self.reach(v, e)
            if reach < h / 2.0 ** level:
                v, e = self.profile(v, e)
                reach = self.reach(v, e)
            want = math.ceil(math.log2(h / reach)) if reach < h else 0
            while level > want and done % 2 == 0:
                level, done = level - 1, done // 2
            if want > level:
                done, level = done << (want - level), want
            v = self.step(h / 2.0 ** level, e) @ v
            done += 1
        return v, e


@dataclass(frozen=True)
class WGrid:
    """Solution w_q(t) on a uniform time grid.

    times      grid 0 = t_0 < ... < t_N = T, shape (N+1,)
    values     mantissas, shape (N+1, q_max+1); column q holds level q
    exponents  int64 powers of two, one row per segment of rows, so that
               ``w = values * 2^exponents``; default one row of zeros
    breaks     first row of each segment, increasing from 0
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

    def check_invariants(self) -> None:
        assert np.all(self.values[:, 0] == 1.0) and np.all(self.exponents[:, 0] == 0), \
            "w_0 must be identically 1"
        v_term, e_term = _terminal_state(self.params)
        got = np.ldexp(self.values[-1], (self.exponents[-1] - e_term).astype(np.int32))
        assert np.array_equal(got, v_term), f"terminal row deviates: {got} vs {v_term}"
        assert np.all(self.values > 0), "w must be strictly positive"

    def to_csv(self, path) -> None:
        _write_tq_csv(path, self.times, self.doubles(), first_q=0)

    def to_json_dict(self) -> dict:
        return {
            "params": {FIELD_TO_CONFIG_KEY[f.name]: getattr(self.params, f.name)
                       for f in fields(self.params)},
            "times": self.times.tolist(),
            "w": self.doubles().tolist(),
        }

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh)


@dataclass(frozen=True)
class WSolution:
    """The solution w(t) = exp(-(T - t) M) w(T) of one parameter set."""

    params: ModelParams

    def evaluate_at(self, t: float) -> np.ndarray:
        """w(t) for q = 0..q_max as doubles (0 or inf beyond the double
        range): a walk of one step, ``exp(-(T - t) M) w(T)``, crossed in
        pieces where the bound falls short of it."""
        p = self.params
        if not 0.0 <= t <= p.horizon:
            raise ParameterError(f"t={t} outside [0, {p.horizon}]")
        v, e = _terminal_state(p) if t == p.horizon else _Walk(p).run(
            p.horizon - t, 1, lambda i, v, e, step, length: step @ v if length else v)
        with np.errstate(over="ignore"):
            return np.ldexp(v, e.astype(np.int32))

    def to_wgrid(self, n_steps: int = DEFAULT_N_STEPS) -> WGrid:
        """w on the uniform grid of n_steps steps, exact at every node.

        Within a segment, with ``E`` its scaled propagator over one step,
        the nodes are taken in blocks of B = 32: node j of a block is
        ``E^(B-1-j) S``, S being w at the block's last node.  The powers
        ``E^j``, ``j <= B``, are built once, the starts are walked back from
        the segment's first node by ``E^B``, and one matrix product writes
        every node into the rows of the grid, in time order.
        """
        p = self.params
        if n_steps < 1:
            raise ParameterError(f"n_steps must be >= 1, got {n_steps}")
        n = p.q_max + 1
        h = p.horizon / n_steps
        walk = _Walk(p)
        # the padding of a segment's earliest block falls on rows that the
        # next segment, or nothing past t = 0, overwrites
        rows = np.empty((n_steps + 1 + _BLOCK, n))
        firsts, profiles = [], []
        built = [None, np.empty((0, n, n))]  # a step and its powers

        def emit(i, v, e, step, length):
            last = _BLOCK + n_steps - i  # the segment's first node
            firsts.append(i)
            profiles.append(e)
            block = min(_BLOCK, length + 1)
            n_blocks = -(-(length + 1) // block)
            if length and (built[0] is not step or len(built[1]) < block + (n_blocks > 1)):
                built[:] = step, np.empty((block + (n_blocks > 1), n, n))
                built[1][0] = np.eye(n)
                for j in range(1, len(built[1])):
                    np.matmul(built[1][j - 1], step, out=built[1][j])
                    built[1][j].reshape(-1)[::n + 1] = np.exp(-j * h * walk.lam)
            powers = built[1] if length else np.eye(n)[None]
            starts = np.empty((n, n_blocks))
            starts[:, -1] = v
            for k in range(n_blocks - 2, -1, -1):
                starts[:, k] = powers[block] @ starts[:, k + 1]
            # stacked[l, j * n + q] = (E^(B-1-j))[q, l]
            stacked = powers[block - 1::-1].transpose(2, 0, 1).reshape(n, block * n)
            out = rows[last + 1 - n_blocks * block:last + 1].reshape(n_blocks, block * n)
            np.matmul(starts.T, stacked, out=out)
            return rows[last - length].copy()

        walk.run(p.horizon, n_steps, emit)
        # a segment owns its rows down to the next segment's first node
        return WGrid(params=p, times=np.linspace(0.0, p.horizon, n_steps + 1),
                     values=rows[_BLOCK:], exponents=profiles[::-1],
                     breaks=[0] + [n_steps - i + 1 for i in firsts[:0:-1]])


def solve_w(p: ModelParams) -> WSolution:
    """The exact solution of the w system for ``p`` (requires gamma > 0)."""
    p.require_risk_averse("solve_w")
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
    if not np.all(vals > 0):
        raise ParameterError("w grid must be strictly positive")
    quotes = np.empty((vals.shape[0], p.q_max))
    body = quotes[:-1]
    np.divide(vals[:-1, 1:], vals[:-1, :-1], out=body)
    np.log(body, out=body)
    for first, end, e in zip(w.breaks, list(w.breaks[1:]) + [None], w.exponents):
        body[first:end] += np.diff(e) * math.log(2.0)
    body /= p.k
    body += math.log1p(p.gamma / p.k) / p.gamma
    quotes[-1] = terminal_quote(p)
    return QuoteSurface(times=w.times, values=quotes, params=p)
