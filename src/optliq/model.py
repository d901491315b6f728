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

import math
from dataclasses import dataclass, fields, replace
from typing import Mapping, TextIO

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

    def to_config_text(self) -> str:
        lines = [f"{FIELD_TO_CONFIG_KEY[f.name]} = {getattr(self, f.name)!r}"
                 for f in fields(self)]
        return "\n".join(lines) + "\n"

    def to_config_file(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_config_text())

    @classmethod
    def from_mapping(cls, items: Mapping[str, str]) -> "ModelParams":
        """Build from flat config keys (mu, sigma, A, k, gamma, b, T, q_max)."""
        kwargs = {}
        for key, raw in items.items():
            if key not in CONFIG_KEY_TO_FIELD:
                raise ParameterError(f"unknown model parameter key {key!r}")
            field = CONFIG_KEY_TO_FIELD[key]
            try:
                kwargs[field] = int(raw) if field == "q_max" else float(raw)
            except ValueError as exc:
                raise ParameterError(f"bad value for {key!r}: {raw!r}") from exc
        return cls(**kwargs)

    @classmethod
    def from_config_file(cls, path) -> "ModelParams":
        """Model keys of a config file; its sections are ignored."""
        with open(path, "r", encoding="utf-8") as fh:
            model_items, _ = parse_config(fh)
        return cls.from_mapping(model_items)


def parse_config(fh: TextIO) -> tuple:
    """Parse a config file into ``(model_items, sections)``.

    ``key = value`` lines before the first section header are model keys;
    a line ``[name]`` opens section ``name``, whose keys go to
    ``sections[name]``.  '#' comments and blank lines are ignored; any other
    line raises :class:`ParameterError`.
    """
    model_items, sections = {}, {}
    target = model_items
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
    return model_items, sections


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
    """Compute the ODE coefficients (alpha, beta, eta) from model parameters."""
    alpha = 0.5 * p.k * p.gamma * p.sigma ** 2
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
    :func:`optliq.ode.quote_surface` quotes w beyond the double range.
    """
    p.require_risk_averse("quote_from_w")
    if not (0 < w_q < math.inf and 0 < w_qm1 < math.inf):
        raise ParameterError(
            f"w values must be finite and strictly positive, got w_q={w_q}, "
            f"w_qm1={w_qm1} (w left the double range; quote it with quote_surface)"
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

    def quote(self, time_index: int, q: int) -> float:
        if not 1 <= q <= self.q_max:
            raise ParameterError(f"q must be in 1..{self.q_max}, got {q}")
        return float(self.values[time_index, q - 1])

    def nodes_at(self, t) -> np.ndarray:
        """Index of the nearest grid time not after each t (controls are
        decided on information available at t); -1 before the grid.

        A t a few ulps below a node, as ``i * dt`` can be, counts as that
        node."""
        t = np.asarray(t, dtype=float)
        return np.searchsorted(self.times, t * (1 + 1e-15) + 1e-300, side="right") - 1

    def at_time(self, t: float, q: int) -> float:
        """Quote at the nearest grid time not after t."""
        i = int(self.nodes_at(t))
        if i < 0:
            raise ParameterError(f"t={t} precedes the surface grid")
        return self.quote(i, q)

    def check_invariants(self, terminal_tol: float = 1e-10) -> None:
        """Raise AssertionError unless terminal pinning and monotonicity in
        q hold.  Intended for tests and post-solve sanity checks."""
        target = terminal_quote(self.params)
        deviation = np.max(np.abs(self.values[-1] - target))
        assert deviation < terminal_tol, (
            f"terminal quotes deviate from {target} by {deviation}")
        if self.q_max > 1:
            # strictly decreasing in inventory before the deadline; at T all
            # levels meet at the common terminal value
            assert np.all(np.diff(self.values[:-1], axis=1) < 0), (
                "quotes must be strictly decreasing in inventory for t < T"
            )

    # -- exports ----------------------------------------------------------

    def to_csv(self, path) -> None:
        _write_tq_csv(path, self.times, self.values, first_q=1)

    def to_json_dict(self) -> dict:
        return {
            "params": {FIELD_TO_CONFIG_KEY[f.name]: getattr(self.params, f.name)
                       for f in fields(self.params)},
            "times": self.times.tolist(),
            "quotes": self.values.tolist(),
        }


def _write_tq_csv(path, times, values, first_q: int) -> None:
    # 17 significant digits so a read-back reproduces the doubles
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,q,value\n")
        n_q = values.shape[1]
        for i, t in enumerate(times):
            row = values[i]
            for j in range(n_q):
                fh.write(f"{t:.17g},{first_q + j},{row[j]:.17g}\n")


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
