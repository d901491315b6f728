"""Exact solution of the w ODE system behind the optimal quotes.

The inventory-indexed family w_q(t), q = 0..Q, solves the lower-bidiagonal
linear system

    wdot_q(t) = lambda_q w_q(t) - eta w_{q-1}(t),   lambda_q = alpha q^2 - beta q,
    w_0 = 1,   w_q(T) = exp(-k q b),

so ``w(t) = exp(-(T - t) M) w(T)`` with M the bidiagonal system matrix.
:func:`solve_w` returns that solution; it evaluates w at one time or on a
uniform grid through a single propagator, ``exp(-tau M)``.

The propagator is computed without a subtraction.  ``-M`` is Metzler (its
off-diagonal ``eta`` is nonnegative), so with ``c = max lambda_q`` the
shifted matrix ``N = cI - M`` is entrywise nonnegative and
``exp(-tau M) = exp(-tau c) exp(tau N)``.  ``exp(h N)`` is a Taylor
polynomial of a nonnegative matrix, evaluated by Horner's rule, at a step
``h = tau / 2^s`` small enough that the truncation is below rounding; ``s``
squarings then reach ``tau``, each followed by writing the exact diagonal
``exp(-h' lambda)``.  Every operation adds or multiplies
nonnegative numbers, so every entry keeps its relative accuracy however
small it is: degenerate or resonant spectra, ``mu = sigma = 0``, long
horizons and terminal values that underflow need no special case (Moler &
Van Loan, *Nineteen dubious ways to compute the exponential of a matrix*,
SIAM Rev. 2003; Xue & Ye, Numer. Math. 2008).

A w that is not a normal double at t = 0 cannot give a quote; that is
refused by :func:`quote_surface`, see :class:`optliq.errors.SolverFailureError`.

All functions are pure; distinct parameter sets may be solved concurrently
by the caller.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ParameterError, SolverFailureError
from .model import (FIELD_TO_CONFIG_KEY, ModelParams, QuoteSurface,
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


def _terminal_values(p: ModelParams) -> np.ndarray:
    return np.exp(-p.k * p.b * np.arange(p.q_max + 1, dtype=float))


def _rates(p: ModelParams) -> tuple:
    """(lambda_q for q = 0..q_max, eta): M has diagonal lambda and
    subdiagonal -eta."""
    coeffs = derive_coefficients(p)
    q = np.arange(p.q_max + 1, dtype=float)
    return coeffs.alpha * q * q - coeffs.beta * q, coeffs.eta


def _propagator(p: ModelParams, tau: float) -> np.ndarray:
    """exp(-tau M), entrywise nonnegative, each entry to relative accuracy.

    Entry (q, q - d) of the Taylor remainder of ``exp(hN)`` after degree m
    is at most ``theta^(m+1-d) e^theta / (m+1-d)!`` of that entry, with
    ``theta = h max(diag N)``; the degree is chosen so the bound, amplified
    by the ``2^s`` factors of the product, stays below rounding for every
    ``d <= q_max``.  The diagonal of each power is reset to the exact
    ``exp(-h' lambda)``, which keeps the squarings from compounding its
    rounding error (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 2009).
    """
    lam, eta = _rates(p)
    n = p.q_max + 1
    c = float(lam.max())
    diag = c - lam
    d_max = float(diag.max())
    norm = tau * (d_max + eta)
    s = math.ceil(math.log2(norm / _THETA)) if norm > _THETA else 0
    h = tau / 2.0 ** s
    theta = h * d_max
    k, bound = 1, theta * math.exp(theta) * 2.0 ** s
    while bound > 2.0 ** -53:
        k += 1
        bound *= theta / k
    m = p.q_max + k - 1

    a = np.zeros((n, n))
    a.reshape(-1)[::n + 1] = h * diag
    a.reshape(-1)[n::n + 1] = h * eta  # subdiagonal
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
    # 1/j! underflows past j = 170; with h * eta <= 1/2 such terms are
    # below the double range anyway
    top = min(m, _INV_FACTORIAL.size - 1) + 1
    coef[:top] = _INV_FACTORIAL[:top] * math.exp(-h * c)
    blocks = (coef.reshape(n_blocks, r) @ powers.reshape(r, n * n)).reshape(n_blocks, n, n)
    e = blocks[-1]
    for i in range(n_blocks - 2, -1, -1):
        e = a_r @ e
        e += blocks[i]

    # square in place between two buffers, each with a view on its diagonal
    buffers = (e, np.empty_like(e))
    diagonals = tuple(b.reshape(-1)[::n + 1] for b in buffers)
    with np.errstate(over="ignore", invalid="ignore"):
        exact_diag = np.exp(np.multiply.outer(-h * 2.0 ** np.arange(s + 1), lam))
        diagonals[0][:] = exact_diag[0]
        for i in range(1, s + 1):
            np.matmul(buffers[1 - i % 2], buffers[1 - i % 2], out=buffers[i % 2])
            diagonals[i % 2][:] = exact_diag[i]
    return buffers[s % 2]


@dataclass(frozen=True)
class WGrid:
    """Solution w_q(t) on a uniform time grid.

    times   grid 0 = t_0 < ... < t_N = T, shape (N+1,)
    values  w values, shape (N+1, q_max+1); column q holds w_q
    """

    params: ModelParams
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.ascontiguousarray(self.times, dtype=float)
        values = np.ascontiguousarray(self.values, dtype=float)
        if values.shape != (times.size, self.params.q_max + 1):
            raise ParameterError("w grid shape mismatch")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def q_max(self) -> int:
        return self.params.q_max

    @property
    def terminal_underflow(self) -> bool:
        """True when exp(-k q b) rounded to zero for some q, so the terminal
        row, and near it the top levels, legitimately hold zeros."""
        return not bool(np.all(self.values[-1] > 0))

    def check_invariants(self) -> None:
        assert np.all(self.values[:, 0] == 1.0), "w_0 must be identically 1"
        term = _terminal_values(self.params)
        got = self.values[-1]
        assert np.allclose(got, term, rtol=1e-12, atol=0.0), (
            f"terminal row deviates: {got} vs {term}"
        )
        if not self.terminal_underflow:
            assert np.all(self.values > 0), "w must be strictly positive"
        else:
            # each level switches on at some time before T and must then
            # stay positive all the way back to t = 0
            assert np.all(self.values >= 0)
            assert np.all(self.values[0] > 0), "w must be positive by t=0"
            for q in range(1, self.q_max + 1):
                positive = self.values[:, q] > 0
                first_zero = np.argmin(positive)
                assert positive[:first_zero].all() and not positive[first_zero:].any()

    # -- exports ----------------------------------------------------------

    def to_csv(self, path) -> None:
        _write_tq_csv(path, self.times, self.values, first_q=0)

    def to_json_dict(self) -> dict:
        return {
            "params": {FIELD_TO_CONFIG_KEY[f.name]: getattr(self.params, f.name)
                       for f in fields(self.params)},
            "times": self.times.tolist(),
            "w": self.values.tolist(),
        }

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh)


def _write_tq_csv(path, times, values, first_q: int) -> None:
    # 17 significant digits so a read-back reproduces the doubles
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,q,value\n")
        n_q = values.shape[1]
        for i, t in enumerate(times):
            row = values[i]
            for j in range(n_q):
                fh.write(f"{t:.17g},{first_q + j},{row[j]:.17g}\n")


@dataclass(frozen=True)
class WSolution:
    """The solution w(t) = exp(-(T - t) M) w(T) of one parameter set."""

    params: ModelParams

    def evaluate_at(self, t: float) -> np.ndarray:
        """w(t) for q = 0..q_max.

        One product ``exp(-(T - t) M) w(T)``.  With a positive drift over a
        long time to go an entry of the whole propagator can overflow while
        w is still a double; the time to go is then halved until the
        propagator of one piece is finite, and w(T) is walked back through
        the 2^m pieces.  A w that itself leaves the double range stays inf.
        """
        p = self.params
        if not 0.0 <= t <= p.horizon:
            raise ParameterError(f"t={t} outside [0, {p.horizon}]")
        tau = p.horizon - t
        w = _terminal_values(p)
        out = _propagator(p, tau) @ w
        if np.isfinite(out).all():
            return out
        pieces = 2
        step = _propagator(p, tau / 2)
        while not np.isfinite(step).all():
            pieces *= 2
            step = _propagator(p, tau / pieces)
        out = w
        with np.errstate(over="ignore", invalid="ignore"):  # w itself may overflow
            for _ in range(pieces):
                out = step @ out
        return out

    def to_wgrid(self, n_steps: int = DEFAULT_N_STEPS) -> WGrid:
        """w on the uniform grid of n_steps steps, exact at every node.

        With ``E = exp(-h M)``, ``h = T / n_steps``, the grid times are
        taken in blocks of B = 32: node j of a block is ``E^(B-1-j) S``,
        where the start S is w at the block's last node.  The powers
        ``E^j``, ``j <= B``, are built once, the starts are walked back from
        w(T) by ``E^B``, and one matrix product forms every node, in time
        order.
        """
        p = self.params
        if n_steps < 1:
            raise ParameterError(f"n_steps must be >= 1, got {n_steps}")
        n = p.q_max + 1
        h = p.horizon / n_steps
        step = _propagator(p, h)
        lam, _ = _rates(p)
        block = min(_BLOCK, n_steps + 1)
        n_blocks = -(-(n_steps + 1) // block)
        # the first `pad` rows of the product fall before t = 0
        pad = n_blocks * block - (n_steps + 1)
        powers = np.empty((block + 1, n, n))
        powers[0] = np.eye(n)
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(1, block + 1):
                np.matmul(powers[j - 1], step, out=powers[j])
                powers[j].reshape(-1)[::n + 1] = np.exp(-j * h * lam)
            starts = np.empty((n, n_blocks))
            starts[:, -1] = _terminal_values(p)
            for k in range(n_blocks - 2, -1, -1):
                starts[:, k] = powers[block] @ starts[:, k + 1]
            # stacked[l, j * n + q] = (E^(B-1-j))[q, l]
            stacked = powers[block - 1::-1].transpose(2, 0, 1).reshape(n, block * n)
            values = (starts.T @ stacked).reshape(-1, n)[pad:]
        times = np.linspace(0.0, p.horizon, n_steps + 1)
        return WGrid(params=p, times=times, values=values)


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

    Applies :func:`optliq.model.quote_from_w` column past column.  The
    terminal row is ``terminal_quote(p)`` wherever ``w_q(T) > 0``, since the
    ratio of consecutive terminal values is exactly ``exp(-k b)``, and -inf
    where ``exp(-k q b)`` rounded to zero (the forced-liquidation limit is
    unbounded below at T); other quotes from zeros near T are -inf too.

    Raises :class:`SolverFailureError` when a level of w(0) is not a
    normal double or a level overflowed, since its quotes would be ratios
    of lost digits.
    """
    p = w.params
    p.require_risk_averse("quote_surface")
    vals = w.values
    if np.any(vals < 0):
        raise ParameterError("w grid contains negative values")
    info = np.finfo(float)
    out_of_range = ~((vals[0] >= info.tiny) & np.isfinite(vals).all(axis=0))
    if out_of_range.any():
        q = int(np.argmax(out_of_range))
        raise SolverFailureError(
            f"w_{q}(0) = {vals[0, q]:.3g} left the double range "
            f"[{info.tiny:.3g}, {info.max:.3g}], so its quotes cannot be "
            f"formed; lower q_max below {q}"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        quotes = vals[:, 1:] / vals[:, :-1]
        np.log(quotes, out=quotes)
    quotes /= p.k
    quotes += math.log1p(p.gamma / p.k) / p.gamma
    # 0/0 where consecutive levels both underflowed near T
    quotes[np.isnan(quotes)] = -np.inf
    quotes[-1] = np.where(vals[-1, 1:] > 0, terminal_quote(p), -np.inf)
    return QuoteSurface(times=w.times, values=quotes, params=p)
