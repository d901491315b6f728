"""Reference solvers of the w system, kept as oracles for the exact
propagator in :mod:`optliq.ode`.

* :func:`solve_rk`          classical fixed-step 4th-order Runge-Kutta,
* :func:`solve_quadrature`  variation-of-constants form, with the
                            level-(q-1) integral evaluated by composite
                            Simpson quadrature, recursively in q;
* :func:`mp_log_w`          the eigen-expansion in 60-digit ``mpmath``
                            arithmetic, for spectra without repeated
                            eigenvalues, with no range limit.

For very large k*q*b the terminal values round to zero (below ~1e-300);
both then integrate the correctly rounded terminal data, which coincides
with the forced-complete-liquidation limit, and relax the positivity check
on the terminal row.
"""

import math

import mpmath
import numpy as np

from optliq import ModelParams, ParameterError, WGrid
from optliq.model import DerivedCoefficients, derive_coefficients
from optliq.ode import DEFAULT_N_STEPS

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
