"""The opposition's civil-war decision, its closed-form threshold, and turnover.

The decision has two equivalent routes: a direct comparison of the
opposition's war and peace expected utilities, and a closed-form threshold on
sigma_f whose denominator must be positive for the threshold to be defined.
Both are implemented and cross-checked on every call where both apply.
"""

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from .params import ModelParams
from .policy import expected_utility_O1

class UndefinedThreshold(ValueError):
    """Raised when a threshold-only quantity is requested but the threshold
    denominator is not positive."""


@dataclass(frozen=True)
class ConflictDecision:
    """The opposition's war choice: gamma=1 means civil war."""

    gamma: int
    threshold: Optional[float]  # None when undefined: the direct comparison decided alone


def _threshold_parts(params: ModelParams):
    p = params
    k = p.alpha * p.omega + (1.0 - p.alpha) * p.delta - (1.0 - p.alpha) * p.epsilon
    num = 2.0 * (p.alpha * (p.rho - p.mu) * (p.sigma_d - p.lam) - (1.0 - p.sigma_d) * k)
    den = p.alpha * (p.rho - p.mu) * (1.0 - p.lam * p.sigma_d) + (1.0 - p.sigma_d) * k
    return num, den, k


def civil_war_threshold(params: ModelParams) -> Optional[float]:
    """Closed-form war threshold on sigma_f, or None when its denominator
    is not positive (the comparison must then be made on utilities directly)."""
    num, den, _ = _threshold_parts(params)
    if den <= 0.0:
        return None
    return num / den


def _decide(params: ModelParams, eu_O1: Callable,
            threshold_of: Callable) -> ConflictDecision:
    """War decision from O1's expected utility eu_O1(params, tau2, war),
    cross-checked against the closed-form threshold_of(params) when that is
    defined; indifference resolves to peace."""
    war = eu_O1(params, 1.0, war=True)
    peace = eu_O1(params, 1.0, war=False)
    gamma = 1 if war > peace else 0
    threshold = threshold_of(params)
    if threshold is None:
        return ConflictDecision(gamma=gamma, threshold=None)
    by_threshold = 1 if params.sigma_f > threshold else 0
    # the routes agree identically in exact arithmetic; only a genuine
    # formula error can separate them beyond rounding at an indifference point
    if by_threshold != gamma and abs(war - peace) > 1e-9 * params.m:
        raise AssertionError(
            f"war-decision routes disagree: direct gamma={gamma}, "
            f"threshold gamma={by_threshold} at {params!r}")
    return ConflictDecision(gamma=gamma, threshold=threshold)


def civil_war_decision(params: ModelParams) -> ConflictDecision:
    """Decide war vs peace; indifference resolves to peace.

    The direct utility comparison at tau2=1 is authoritative (the sign does
    not depend on tau2). When the threshold is defined the two routes are
    cross-checked; threshold=None means the direct comparison decided alone.
    """
    return _decide(params, expected_utility_O1, civil_war_threshold)


def threshold_sensitivities(params: ModelParams) -> Dict[str, float]:
    """Closed-form derivatives of the war threshold in sigma_d, lam, and alpha.

    Requires a defined threshold. On the intended domain the signs are
    d_sigma_d > 0 (when alpha*(rho-mu)*(1+lam) + 2k > 0), d_lambda < 0 (when
    alpha*(rho-mu) + k > 0), and sign(d_alpha) = sign(delta - epsilon).
    """
    num, den, k = _threshold_parts(params)
    if den <= 0.0:
        raise UndefinedThreshold("threshold denominator is not positive")
    p = params
    d2 = den * den
    d_sigma_d = (2.0 * p.alpha * (p.rho - p.mu) * (1.0 - p.lam)
                 * (p.alpha * (p.rho - p.mu) * (1.0 + p.lam) + 2.0 * k)) / d2
    d_lambda = (-2.0 * p.alpha * (p.rho - p.mu) * (1.0 - p.sigma_d ** 2)
                * (p.alpha * (p.rho - p.mu) + k)) / d2
    d_alpha = (2.0 * (p.rho - p.mu) * (1.0 - p.lam) * (p.delta - p.epsilon)
               * (1.0 - p.sigma_d) * (1.0 + p.sigma_d)) / d2
    return {"d_sigma_d": d_sigma_d, "d_lambda": d_lambda, "d_alpha": d_alpha}


def turnover_probability(params: ModelParams, gamma: int) -> float:
    """Probability that someone other than the period-1 incumbent rules in
    period 2, given the war decision."""
    if gamma not in (0, 1):
        raise ValueError(f"gamma must be 0 or 1, got {gamma!r}")
    p = params
    if gamma == 1:
        return p.alpha * p.omega + (1.0 - p.alpha) * p.delta + p.alpha * p.rho
    return p.alpha * p.mu + (1.0 - p.alpha) * p.epsilon
