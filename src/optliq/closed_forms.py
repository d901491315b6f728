"""Closed-form quotes and trading curves for the tractable limiting regimes.

Four regimes admit explicit expressions:

* long horizon (T -> infinity): constant quote per inventory level, valid
  when ``mu < gamma sigma^2 / 2``;
* no drift and no volatility (mu = sigma = 0): an explicit premium, from
  the ratio of two polynomials in (T-t), bounded below by the terminal
  quote;
* risk-neutral limit (gamma -> 0) of the no-drift case: same shape with
  eta replaced by big_a/e and the spread term by 1/k, unbounded in T;
* forced complete liquidation (terminal discount b -> infinity, sigma = 0):
  quotes independent of the discount, and an explicit expected-inventory
  schedule ("trading curve") independent of big_a.

Everything here is a pure function of the inputs and cross-checks the
numerical solution of :mod:`optliq.ode` in its own regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import NoAsymptoteError, ParameterError, RegimeError
from .model import ModelParams, _require_int, _write_csv, derive_coefficients

__all__ = [
    "TradingCurve",
    "asymptotic_quote",
    "nodrift_novol_quote",
    "risk_neutral_quote",
    "binf_w",
    "binf_quote",
    "binf_trading_curve",
]

# relative threshold under which (exp(x)-1)/x is evaluated by its limit
_BETA_ZERO_REL = 1e-12


def _require(cond: bool, message: str):
    if not cond:
        raise RegimeError(message)


def asymptotic_quote(p: ModelParams, q: int) -> float:
    """Long-horizon limit of the time-0 premium for inventory q.

    ``(1/k) ln( big_a / (k + gamma) * 1 / (gamma sigma^2 q^2 / 2 - mu q) )``,
    requiring ``mu < gamma sigma^2 / 2``; otherwise the quotes grow without
    bound and no asymptote exists.  Note the limit does not involve b.
    """
    _require_int(q=q)
    p.require_risk_averse("asymptotic_quote")
    derive_coefficients(p)  # refuses a k * gamma * sigma^2 / 2 beyond the double range
    if q < 1:
        raise ParameterError(f"q must be >= 1, got {q}")
    # in exact rationals: the terms may leave the double range where alpha
    # and the quote do not
    half_var = Fraction(p.gamma) * Fraction(p.sigma) ** 2 / 2
    if not (p.mu < 0.5 * p.gamma * p.sigma ** 2 and p.mu < half_var):
        raise NoAsymptoteError(
            f"no long-horizon quote limit: need mu < gamma*sigma^2/2 "
            f"({p.mu} >= {0.5 * p.gamma * p.sigma ** 2})"
        )
    ratio = (Fraction(p.big_a) / (Fraction(p.k) + Fraction(p.gamma))
             / (q * (q * half_var - Fraction(p.mu))))
    scale = ratio.numerator.bit_length() - ratio.denominator.bit_length()
    return (math.log(ratio / Fraction(2) ** scale) + scale * math.log(2.0)) / p.k


def _log_poly_w_terms(scale: float, kb: float, q: int, remaining: float) -> np.ndarray:
    """ln of the terms ``scale^j / j! * exp(-kb (q-j)) * remaining^j`` for
    j = 0..q, finite wherever the term is positive."""
    log_rate = math.log(scale * remaining) if remaining > 0 else -math.inf
    j = np.arange(1, q + 1, dtype=float)
    out = np.empty(q + 1)
    out[0] = -kb * q
    out[1:] = j * (log_rate + kb) - np.log(j).cumsum() + out[0]
    return out


def _log_sum(logs: np.ndarray) -> float:
    """ln of the sum of exp(logs) (logsumexp)."""
    top = logs.max()
    return float(top + math.log(np.exp(logs - top).sum()))


def _poly_quote(scale: float, p: ModelParams, t: float, q: int) -> float:
    """``-b + (1/k) ln(1 + top/bottom)`` of the series with rate ``scale``:
    top is its j = q term and bottom the j < q partial sum, both in logs."""
    if q < 1:
        raise ParameterError(f"q must be >= 1, got {q}")
    if not 0.0 <= t <= p.horizon:
        raise ParameterError(f"t={t} outside [0, {p.horizon}]")
    logs = _log_poly_w_terms(scale, p.k * p.b, q, p.horizon - t)
    return -p.b + float(np.logaddexp(0.0, logs[q] - _log_sum(logs[:q]))) / p.k


def nodrift_novol_quote(p: ModelParams, t: float, q: int) -> float:
    """Premium in the mu = sigma = 0 regime.

    ``-b + (1/k) ln(1 + top/bottom) + (1/gamma) ln(1 + gamma/k)`` where top
    is the j = q term and bottom the j < q partial sum of the w series,
    summed in logs so the quote is finite wherever w is positive.
    Strictly above the terminal quote for t < T.
    """
    _require_int(q=q)
    _require(p.sigma == 0.0 and p.mu == 0.0,
             f"nodrift_novol_quote requires sigma = 0 and mu = 0, got "
             f"sigma={p.sigma}, mu={p.mu}")
    p.require_risk_averse("nodrift_novol_quote")
    eta = derive_coefficients(p).eta
    return _poly_quote(eta, p, t, q) + math.log1p(p.gamma / p.k) / p.gamma


def risk_neutral_quote(p: ModelParams, t: float, q: int) -> float:
    """Premium in the gamma -> 0 limit; gamma in ``p`` is ignored.

    Same shape as :func:`nodrift_novol_quote` with eta replaced by big_a/e
    and the spread term by 1/k.  Derived with sigma = 0 but independent of
    sigma, so any sigma is accepted; mu must be 0.  Grows without bound as
    the remaining horizon increases.
    """
    _require_int(q=q)
    _require(p.mu == 0.0, f"risk_neutral_quote requires mu = 0, got mu={p.mu}")
    return _poly_quote(p.big_a / math.e, p, t, q) + 1.0 / p.k


def _growth_factor(beta: float, remaining: float, horizon: float) -> float:
    """(exp(beta x) - 1) / beta, evaluated as x at the removable beta = 0."""
    if abs(beta) < _BETA_ZERO_REL / horizon:
        return remaining
    return math.expm1(beta * remaining) / beta


def binf_w(p: ModelParams, t: float, q: int) -> float:
    """Forced-liquidation limit of w_q(t) for sigma = 0.

    ``eta^q / q! * ((exp(beta (T-t)) - 1)/beta)^q`` with the mu = 0 branch
    ``eta^q / q! * (T-t)^q``.  Returns 0 at t = T for q >= 1, the boundary
    of positivity (the quote diverges to -inf there).
    """
    _require_int(q=q)
    _require(p.sigma == 0.0, f"binf_w requires sigma = 0, got sigma={p.sigma}")
    if q < 0:
        raise ParameterError(f"q must be >= 0, got {q}")
    if not 0.0 <= t <= p.horizon:
        raise ParameterError(f"t={t} outside [0, {p.horizon}]")
    c = derive_coefficients(p)
    g = _growth_factor(c.beta, p.horizon - t, p.horizon)
    out = 1.0
    for j in range(1, q + 1):
        out *= c.eta * g / j
    return out


def binf_quote(p: ModelParams, t: float, q: int) -> float:
    """Forced-liquidation limit of the premium for sigma = 0, t < T.

    ``(1/k) ln( big_a / (1 + gamma/k) * (1/q) * (exp(beta (T-t)) - 1)/beta )``
    (mu = 0 branch: ``(T-t)/q`` in place of the growth factor).  Unbounded
    below as t -> T; t = T raises :class:`RegimeError`.
    """
    _require_int(q=q)
    _require(p.sigma == 0.0, f"binf_quote requires sigma = 0, got sigma={p.sigma}")
    p.require_risk_averse("binf_quote")
    if q < 1:
        raise ParameterError(f"q must be >= 1, got {q}")
    if not 0.0 <= t <= p.horizon:
        raise ParameterError(f"t={t} outside [0, {p.horizon}]")
    if t == p.horizon:
        raise RegimeError(
            "the forced-liquidation premium has no lower bound: it diverges "
            "to -inf at t = T"
        )
    beta = p.k * p.mu
    g = _growth_factor(beta, p.horizon - t, p.horizon)
    return math.log(p.big_a / (1.0 + p.gamma / p.k) * g / q) / p.k


@dataclass(frozen=True)
class TradingCurve:
    """Expected inventory path V(t), non-increasing from V(0) = q0."""

    times: np.ndarray
    expected_inventory: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        inv = np.asarray(self.expected_inventory, dtype=float)
        if times.shape != inv.shape or times.ndim != 1:
            raise ParameterError("trading curve shape mismatch")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "expected_inventory", inv)

    def to_csv(self, path) -> None:
        _write_csv(path, ("t", "V"), zip(self.times, self.expected_inventory))


def binf_trading_curve(p: ModelParams, q0: int,
                       times: Sequence[float]) -> TradingCurve:
    """Expected inventory under the forced-liquidation limit, sigma = 0.

    ``V(t) = q0 ((1 - exp(-beta (T-t))) / (1 - exp(-beta T)))^(1 + gamma/k)``
    with the mu = 0 branch ``q0 (1 - t/T)^(1 + gamma/k)``.  The curve does
    not involve big_a at all.
    """
    _require_int(q0=q0)
    _require(p.sigma == 0.0,
             f"binf_trading_curve requires sigma = 0, got sigma={p.sigma}")
    p.require_risk_averse("binf_trading_curve")
    if q0 < 1:
        raise ParameterError(f"q0 must be >= 1, got {q0}")
    t = np.asarray(times, dtype=float)
    if np.any((t < 0) | (t > p.horizon)):
        raise ParameterError("times must lie within [0, horizon]")
    power = 1.0 + p.gamma / p.k
    beta = p.k * p.mu
    if abs(beta) < _BETA_ZERO_REL / p.horizon:
        base = 1.0 - t / p.horizon
    else:
        base = np.expm1(-beta * (p.horizon - t)) / math.expm1(-beta * p.horizon)
    v = q0 * np.clip(base, 0.0, None) ** power
    return TradingCurve(times=t, expected_inventory=v)
