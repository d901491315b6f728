"""Shared fixtures: the reference parameter set and its known premiums,
and a two-spread-bucket replay episode."""

import math

import numpy as np
import pytest

from optliq import BacktestConfig, ModelParams, synthetic_tape
from optliq.model import derive_coefficients

# Reference fixture: T = 300 s, mu = 0, sigma = 0.3, A = 0.1, k = 0.3,
# gamma = 0.05, b = 3, inventory up to 6.  The time-0 premiums per starting
# inventory are externally tabulated to 5-6 significant digits.
REFERENCE_QUOTES_T0 = np.array(
    [10.6095, 7.8737, 6.1299, 4.8082, 3.728, 2.8073])

# time-0 premiums under single-parameter changes from the reference fixture
SWEEP_QUOTES_T0 = {
    ("mu", -0.01): [9.2252, 6.581, 4.92, 3.6732, 2.6607, 1.8012],
    ("mu", 0.01): [12.2329, 9.3921, 7.5507, 6.1391, 4.9765, 3.9806],
    ("sigma", 0.0): [10.9538, 8.6482, 7.3019, 6.3486, 5.6109, 5.0097],
    ("sigma", 0.6): [9.6493, 6.0262, 3.6874, 1.9455, 0.55671, -0.59773],
    ("big_a", 0.05): [8.4128, 5.6704, 3.9199, 2.5917, 1.5051, 0.57851],
    ("big_a", 0.15): [11.9222, 9.1898, 7.4491, 6.1302, 5.0525, 4.1341],
    ("k", 0.2): [15.8107, 11.9076, 9.4656, 7.6334, 6.1436, 4.8761],
    ("k", 0.4): [7.941, 5.7972, 4.4144, 3.3618, 2.5011, 1.7688],
    ("b", 0.0): [10.7743, 8.0304, 6.278, 4.9477, 3.859, 2.9301],
    ("b", 20.0): [10.4924, 7.7685, 6.0353, 4.7229, 3.6509, 2.7374],
    ("gamma", 0.01): [11.2809, 8.8826, 7.4447, 6.4008, 5.5735, 4.8835],
}

# same fixture with sigma = 3, swept over k (heavy price risk, mostly
# negative premiums)
HIGH_VOL_K_SWEEP = {
    0.2: [2.8768, -4.0547, -8.1093, -10.9861, -13.2176, -15.0408],
    0.3: [0.79631, -3.8247, -6.5278, -8.4457, -9.9333, -11.1488],
    0.4: [-0.031056, -3.4968, -5.5241, -6.9625, -8.0782, -8.9899],
}

TABLE_TOL = 5e-4  # last printed digit of the tabulated premiums


def q1_asymptote_gap(p: ModelParams) -> float:
    """Exact |delta*(0, 1) - asymptotic_quote(p, 1)| at horizon ``T = p.horizon``.

    Level q = 1 only couples to w_0 = 1, so with the slowest rate
    ``lambda_1 = alpha - beta`` it solves in closed form:
    ``w_1(0) = (eta/lambda_1)(1 - e^{-lambda_1 T}) + e^{-k b} e^{-lambda_1 T}``.
    The asymptote is the quote built from ``eta/lambda_1``, so the gap is
    ``(1/k) |ln(1 - e^{-lambda_1 T} (1 - (lambda_1/eta) e^{-k b}))|``,
    independent of every solver in the package.
    """
    c = derive_coefficients(p)
    lam = c.alpha - c.beta
    decay = math.exp(-lam * p.horizon)
    return abs(math.log1p(-decay * (1.0 - lam / c.eta * math.exp(-p.k * p.b)))) / p.k


@pytest.fixture
def ref_params() -> ModelParams:
    return ModelParams()


@pytest.fixture
def nodrift_params() -> ModelParams:
    return ModelParams(mu=0.0, sigma=0.0)


def two_bucket_episode():
    """A tape replay episode: the spread alternates 1 and 2 Ticks every
    minute, re-quotes every 5 s from q0 = 10."""
    schedule = [(60.0 * i, 1.0 + i % 2) for i in range(60)]
    tape = synthetic_tape(3600.0, sigma=0.3, big_a=0.2, k=0.3, mid0=1000.0,
                          spread_schedule=schedule, seed=1)
    cfg = BacktestConfig(q0=10, delta_t=5.0, warmup=1800.0, horizon=1800.0,
                         recalib_window=1800.0, gamma_mode="quote_target",
                         gamma_value=1.0)
    return tape, cfg
