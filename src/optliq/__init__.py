"""Optimal portfolio liquidation with resting limit orders.

Solves for the premium a seller should quote over a diffusing reference
price, as a function of time left and inventory, when fills arrive at an
exponentially decaying rate in the premium and leftover shares at the
deadline are discounted.  Ships the exact ODE solution behind the quotes, the
closed forms of the tractable regimes, a Monte Carlo engine for the
controlled dynamics, trade-tape calibration, and a backtester for the
discrete re-quoting protocol.
"""

from .backtest import (BacktestConfig, BacktestLedger, BacktestReport,
                       round_quote, run_backtest, summarize)
from .closed_forms import (TradingCurve, asymptotic_quote, asymptotic_w,
                           binf_quote, binf_trading_curve, binf_w,
                           nodrift_novol_quote, nodrift_novol_w,
                           risk_neutral_quote)
from .errors import (CalibrationError, DataError, NoAsymptoteError,
                     OptliqError, ParameterError, RegimeError, UsageError)
from .market_data import (CalibrationResult, IntensityFit, TradeTape,
                          calibrate_gamma, calibrate_intensity,
                          calibrate_sigma, calibrate_tape, load_tape,
                          synthetic_tape)
from .model import (DerivedCoefficients, ModelParams, QuoteSurface,
                    derive_coefficients, hjb_residual, quote_from_w,
                    terminal_quote)
from .ode import (DEFAULT_N_STEPS, WGrid, WSolution, quote_surface,
                  solve_grid, solve_spectral, solve_w)
from .simulate import (FixedQuote, MarketOrderFallback, OptimalSurface,
                       SimConfig, SimPath, SimSummary, simulate_ensemble,
                       simulate_path, simulate_policies)

__version__ = "0.1.0"
