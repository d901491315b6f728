"""Model parameters, derived coefficients and the optimal ask-quote formula.

A trader liquidates an inventory of q identical share bunches before a
horizon T by resting a sell limit order at premium delta (in Ticks) over a
drifted Brownian reference price.  The order is lifted at rate
``big_a * exp(-k * delta)``, so quoting closer trades faster but earns less.
Remaining shares at T are valued at the reference price minus a per-share
discount b.  Preferences are CARA with absolute risk aversion gamma.

Under this setup the value function factorises and everything reduces to a
family of positive functions ``w_q(t)`` solving a lower-triangular linear
ODE system (see :mod:`optliq.ode`).  The optimal premium is

    delta*(t, q) = (1/k) ln(w_q(t) / w_{q-1}(t)) + (1/gamma) ln(1 + gamma/k)

which this module evaluates from solved w values, together with the ODE
coefficients and a residual checker used to verify solver output.

All types are immutable after construction and all operations are pure, so
everything here is safe to share across worker threads or processes.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, fields, replace
from typing import TextIO

import numpy as np

from .errors import ParameterError

__all__ = [
    "ModelParams",
    "DerivedCoefficients",
    "QuoteSurface",
    "derive_coefficients",
    "quote_from_w",
    "terminal_quote",
    "hjb_residual",
]

# Units used throughout: prices/premiums in Ticks, time in seconds,
# inventory in unit bunches (e.g. average trade size multiples).

#: key names used in flat key=value config files -> dataclass field names
CONFIG_KEY_TO_FIELD = {
    "mu": "mu",
    "sigma": "sigma",
    "A": "big_a",
    "k": "k",
    "gamma": "gamma",
    "b": "b",
    "T": "horizon",
    "q_max": "q_max",
}
FIELD_TO_CONFIG_KEY = {v: k for k, v in CONFIG_KEY_TO_FIELD.items()}
#: parse_config's section of the model keys, which no [header] can spell
MODEL_SECTION = None
_INF = math.inf
# ints below this are exact as floats, the form in which _refuse tests q_max
_Q_MAX_EXACT = 2 ** 53


def _require_finite(**values) -> None:
    """Refuse, by name, the first of ``values`` that is set but not finite."""
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")


def _require_int(**values) -> None:
    """Refuse, by name, the first of ``values`` that is not an integer."""
    for name, value in values.items():
        if not isinstance(value, numbers.Integral):
            raise ParameterError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ModelParams:
    """Market and preference parameters.

    mu       drift of the reference price, Tick/s
    sigma    volatility of the reference price, Tick/s^(1/2)
    big_a    fill-rate scale of resting orders, 1/s
    k        fill-rate decay per Tick of premium, 1/Tick
    gamma    absolute risk aversion, 1/Tick
    b        terminal liquidation discount per share, Tick
    horizon  liquidation deadline T, s
    q_max    largest inventory level solved for (initial inventory <= q_max)

    ``gamma = 0`` is accepted at construction but is only meaningful for the
    dedicated risk-neutral formulas in :mod:`optliq.closed_forms`; every
    other quote path requires ``gamma > 0``.
    """

    mu: float = 0.0
    sigma: float = 0.3
    big_a: float = 0.1
    k: float = 0.3
    gamma: float = 0.05
    b: float = 3.0
    horizon: float = 300.0
    q_max: int = 6

    def __post_init__(self):
        # one combined test of floats and an int q_max in their domains;
        # anything else goes through the per-field checks of _refuse
        mu, sigma, big_a, k, gamma, b, horizon = (self.mu, self.sigma, self.big_a, self.k,
                                                  self.gamma, self.b, self.horizon)
        if not (type(mu) is type(sigma) is type(big_a) is type(k) is type(gamma)
                is type(b) is type(horizon) is float and type(self.q_max) is int
                and -_INF < mu < _INF and 0.0 <= sigma < _INF and 0.0 < big_a < _INF
                and 0.0 < k < _INF and 0.0 <= gamma < _INF and 0.0 <= b < _INF
                and 0.0 < horizon < _INF and 1 <= self.q_max < _Q_MAX_EXACT):
            self._refuse()

    def _refuse(self):
        """Refuse the first field out of its domain, by name; else store
        q_max as an int."""
        for name in FIELD_TO_CONFIG_KEY:
            value = getattr(self, name)
            if not math.isfinite(value):
                hint = (" (the forced-liquidation limit b -> inf has closed forms: "
                        "optliq.closed_forms.binf_*)" if name == "b" else "")
                raise ParameterError(f"{name} must be finite, got {value}{hint}")
        if not self.big_a > 0:
            raise ParameterError(f"big_a must be > 0, got {self.big_a}")
        if not self.k > 0:
            raise ParameterError(f"k must be > 0, got {self.k}")
        if not self.horizon > 0:
            raise ParameterError(f"horizon must be > 0, got {self.horizon}")
        if self.sigma < 0:
            raise ParameterError(f"sigma must be >= 0, got {self.sigma}")
        if self.gamma < 0:
            raise ParameterError(f"gamma must be >= 0, got {self.gamma}")
        if self.b < 0:
            raise ParameterError(f"b must be >= 0, got {self.b}")
        if int(self.q_max) != self.q_max or self.q_max < 1:
            raise ParameterError(f"q_max must be an integer >= 1, got {self.q_max}")
        object.__setattr__(self, "q_max", int(self.q_max))

    def require_risk_averse(self, context: str = "this operation"):
        if self.gamma <= 0:
            raise ParameterError(
                f"gamma must be > 0 for {context}; gamma=0 is only supported by "
                "the risk-neutral closed form (optliq.closed_forms.risk_neutral_quote)"
            )

    def with_(self, **changes) -> "ModelParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    # -- flat key=value serialization ------------------------------------

    def to_config_dict(self) -> dict:
        """The parameters under their config keys, in field order."""
        return {FIELD_TO_CONFIG_KEY[f.name]: getattr(self, f.name) for f in fields(self)}

    def to_config_text(self) -> str:
        lines = [f"{key} = {value!r}" for key, value in self.to_config_dict().items()]
        return "\n".join(lines) + "\n"

    def to_config_file(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_config_text())


def parse_config(fh: TextIO) -> dict:
    """Parse a config file into ``{section: {key: raw value}}``.

    ``key = value`` lines before the first section header are model keys,
    under :data:`MODEL_SECTION`; a line ``[name]`` opens section ``name``,
    whose keys go to ``sections[name]``.  '#' comments and blank lines are
    ignored; any other line raises :class:`ParameterError`.
    """
    sections = {MODEL_SECTION: {}}
    target = sections[MODEL_SECTION]
    for line in fh:
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            target = sections.setdefault(stripped[1:-1].strip(), {})
            continue
        if "=" not in stripped:
            raise ParameterError(f"malformed config line: {line.strip()!r}")
        key, _, value = stripped.partition("=")
        target[key.strip()] = value.strip()
    return sections


@dataclass(frozen=True)
class DerivedCoefficients:
    """Coefficients of the w ODE system, all in 1/s.

    alpha = (k/2) * gamma * sigma^2   (inventory-risk curvature)
    beta  = k * mu                    (drift tilt)
    eta   = big_a * (1 + gamma/k)^(-(1 + k/gamma))  (effective fill reward)

    eta lies in (0, big_a] and tends to big_a/e as gamma -> 0; the gamma=0
    evaluation returns exactly big_a/e.
    """

    alpha: float
    beta: float
    eta: float


def derive_coefficients(p: ModelParams) -> DerivedCoefficients:
    """Compute the ODE coefficients (alpha, beta, eta) from model parameters;
    an alpha beyond the double range is refused by name."""
    try:
        alpha = 0.5 * p.k * p.gamma * p.sigma ** 2
    except OverflowError:  # sigma^2 alone is beyond the double range
        alpha = math.inf
    if not alpha < math.inf:
        raise ParameterError(
            f"k * gamma * sigma^2 / 2 is beyond the double range (k = {p.k}, "
            f"gamma = {p.gamma}, sigma = {p.sigma})")
    beta = p.k * p.mu
    if p.gamma < p.k * 1e-300:
        # gamma = 0 and gammas too small for k/gamma to stay finite share
        # the limit value big_a/e (the deviation is O(gamma/k))
        eta = p.big_a / math.e
    else:
        # exp/log1p form keeps full precision for tiny gamma/k
        eta = p.big_a * math.exp(-(1.0 + p.k / p.gamma) * math.log1p(p.gamma / p.k))
    return DerivedCoefficients(alpha=alpha, beta=beta, eta=eta)


def terminal_quote(p: ModelParams) -> float:
    """Common premium all inventory levels quote at the deadline:
    ``-b + (1/gamma) ln(1 + gamma/k)``."""
    p.require_risk_averse("terminal_quote")
    return -p.b + math.log1p(p.gamma / p.k) / p.gamma


def quote_from_w(w_q: float, w_qm1: float, p: ModelParams) -> float:
    """Optimal ask premium from two consecutive w values.

    Returns ``(1/k) ln(w_q / w_{q-1}) + (1/gamma) ln(1 + gamma/k)`` in Ticks.
    The result may be negative; callers decide what to do with quotes below
    the reference price (see the market-order fallback in the simulator and
    backtester).  Both values must be finite positive doubles;
    :meth:`optliq.ode.WSolution.quotes_at` quotes w beyond the double range.
    """
    p.require_risk_averse("quote_from_w")
    if not (0 < w_q < math.inf and 0 < w_qm1 < math.inf):
        raise ParameterError(
            f"w values must be finite and strictly positive, got w_q={w_q}, "
            f"w_qm1={w_qm1} (w left the double range; quote it with WSolution.quotes_at)"
        )
    return math.log(w_q / w_qm1) / p.k + math.log1p(p.gamma / p.k) / p.gamma


@dataclass(frozen=True)
class QuoteSurface:
    """Optimal premium delta*(t, q) on a time grid for q = 1..q_max.

    times   increasing grid covering [0, T], shape (n,)
    values  premiums in Ticks, shape (n, q_max); column j holds q = j+1
    params  parameters the surface was solved under
    """

    times: np.ndarray
    values: np.ndarray
    params: ModelParams

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or values.shape != (times.size, self.params.q_max):
            raise ParameterError("quote surface shape mismatch")
        if np.any(np.diff(times) <= 0):
            raise ParameterError("surface times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def q_max(self) -> int:
        return self.params.q_max

    # -- exports ----------------------------------------------------------

    def to_csv(self, path) -> None:
        _write_tq_csv(path, self.times, self.values, first_q=1)

    def to_json_dict(self) -> dict:
        return {
            "params": self.params.to_config_dict(),
            "times": self.times.tolist(),
            "quotes": self.values.tolist(),
        }


def _write_csv(path, header, rows) -> None:
    """Write a table as CSV: the header, then one line per row of ``rows``.

    The one CSV format of the package: ``\\n`` line ends, text cells as
    they are and every other cell to 17 significant digits, so that a
    read-back gives the same doubles.  The cell types of the first row set
    the format of every row, which keeps the cost of a row to one
    ``str.format``; ``rows`` may be any iterable, consumed once.
    """
    rows = iter(rows)
    first = next(rows, None)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        if first is None:
            return
        line = ",".join("{}" if isinstance(cell, str) else "{:.17g}" for cell in first) + "\n"
        fh.write(line.format(*first))
        fh.writelines(itertools.starmap(line.format, rows))


def _write_tq_csv(path, times, values, first_q: int) -> None:
    """Write a time-by-level table as ``t,q,value`` CSV in the format of
    :func:`_write_csv`, one line per cell, level ``first_q`` in column 0.

    One ``str.format`` writes the lines of a time step, with ``t``
    formatted once; the table is converted one time step at a time.
    """
    levels = range(first_q, first_q + values.shape[1])
    line = "".join(f"{{0}},{q},{{{j}:.17g}}\n" for j, q in enumerate(levels, 1))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,q,value\n")
        fh.writelines(line.format("%.17g" % t, *row.tolist())
                      for t, row in zip(times.tolist(), values))


def hjb_residual(w, p: ModelParams, t: float, q: int,
                 coeffs: DerivedCoefficients | None = None) -> float:
    """Residual of the w ODE at grid point (t, q), time derivative by
    centred finite difference.

    Evaluates ``wdot_q + (beta q - alpha q^2) w_q + eta w_{q-1}``; a small
    value certifies that the grid solves the system at that point.  t must
    coincide with an interior grid time.
    """
    if coeffs is None:
        coeffs = derive_coefficients(p)
    times = w.times
    i = int(np.argmin(np.abs(times - t)))
    if abs(times[i] - t) > 1e-9 * max(1.0, p.horizon):
        raise ParameterError(f"t={t} is not on the solution grid")
    if i == 0 or i == times.size - 1:
        raise ParameterError(
            f"t={t} must be an interior grid time for the centred difference"
        )
    if not 1 <= q <= p.q_max:
        raise ParameterError(f"q must be in 1..{p.q_max}, got {q}")
    rows = w.doubles(slice(i - 1, i + 2))
    stencil = (rows[0, q], rows[1, q], rows[2, q], rows[1, q - 1])
    if not all(v > 0 for v in stencil):
        raise ParameterError(
            f"w must be strictly positive around (t={t}, q={q})"
        )
    h = times[i + 1] - times[i - 1]
    wdot = (rows[2, q] - rows[0, q]) / h
    lam_q = coeffs.alpha * q * q - coeffs.beta * q
    return float(wdot - lam_q * rows[1, q] + coeffs.eta * rows[1, q - 1])
