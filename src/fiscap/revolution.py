"""Variant where a victorious rebel government owes the loser nothing.

This is the baseline solver under one different war-branch payoff rule: an
opposition that takes power on the war branch rules as
OPPOSITION_RULES_POST_REVOLUTION, free of the cohesiveness rule, instead of
as OPPOSITION_RULES. That raises the opposition's war payoff and so lowers
the war threshold relative to the baseline (they coincide exactly at zero
cohesiveness, where the rule pays nothing anyway). The peace branch is
untouched: with no war there is no revolution, and the baseline peace
solution applies bit for bit.

The utilities, clamps, grid oracle, decision cross-check, regime labels and
the solve record are the baseline's: revolution_solve returns the same
fiscal.Solution as solve_equilibrium, with a fourth period-2 ruler. Only the
war threshold and the war-branch marginal benefit of capacity have closed
forms of their own here; they are the independent routes the property suite
checks the shared code against.
"""

from typing import Optional

from .conflict import _decide, turnover_probability
from .fiscal import Solution, Tau2Solution, _clamped, _grid_argmax, _solution, optimal_tau2
from .params import CostSpec, ModelParams
from .policy import OutcomeKind, _expected_I1, _mixture

# the ruler an opposition that wins power on the war branch becomes
WAR_RULER = OutcomeKind.OPPOSITION_RULES_POST_REVOLUTION
# solver variants by name: the baseline game and this one
VARIANTS = ("baseline", "revolution")


def _check_variant(variant: str) -> None:
    """Raise ValueError unless `variant` names one of VARIANTS."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")


def revolution_threshold(params: ModelParams) -> Optional[float]:
    """War threshold on sigma_f under the revolution rule, or None when its
    denominator is not positive."""
    p = params
    num = 2.0 * (p.alpha * (p.rho - p.mu) * (p.sigma_d - p.lam)
                 - (p.alpha * p.omega + (1.0 - p.alpha) * p.delta)
                 + (1.0 - p.alpha) * p.epsilon * (1.0 - p.sigma_d)
                 - p.alpha * p.rho * p.lam * p.sigma_d)
    den = (p.alpha * (p.rho - p.mu) * (1.0 - p.lam * p.sigma_d)
           + p.alpha * p.omega + (1.0 - p.alpha) * p.delta
           - (1.0 - p.alpha) * p.epsilon * (1.0 - p.sigma_d)
           + p.alpha * p.rho * p.lam * p.sigma_d)
    if den <= 0.0:
        return None
    return num / den


def expected_utility_O1_variant(params: ModelParams, tau2, war: bool):
    """O1's expected period-2 utility when winning a war voids the rule.

    Every opposition accession inside the war branch pays the full transfer
    (winning the civil war outright, or being installed after the foreign
    power wins the simultaneous interstate war). The peace branch is the
    baseline one.
    """
    return _mixture(params, "O1", tau2, war, WAR_RULER)


def expected_utility_I1_variant(params: ModelParams, cost: CostSpec, tau2, war: bool):
    """I1's total expected utility in the variant (war branch pays the old
    incumbent nothing whenever the opposition accedes)."""
    return _expected_I1(params, cost, tau2, war, WAR_RULER)


def variant_war_tau2(params: ModelParams, cost: CostSpec) -> Tau2Solution:
    """Optimal capacity on the variant war branch: losing power now means
    losing everything, so only the keep probability carries weight."""
    p = params
    phi = turnover_probability(params, 1)
    argument = p.m * (-phi + (1.0 - p.sigma_d) / 2.0)
    return _clamped(params, cost, argument)


def brute_force_tau2_variant(params: ModelParams, cost: CostSpec, gamma: int) -> float:
    """Grid argmax of the variant expected utility (lowest tau2 on ties)."""
    return _grid_argmax(expected_utility_I1_variant, params, cost, gamma)


def revolution_solve(params: ModelParams, cost: CostSpec) -> Solution:
    """Full solve under the revolution rule.

    The war decision comes from the variant utilities directly (threshold as
    cross-check when defined); the peace branch reuses the baseline
    investment solution unchanged.
    """
    decision = _decide(params, expected_utility_O1_variant, revolution_threshold)
    tau2_solution = (variant_war_tau2(params, cost) if decision.gamma == 1
                     else optimal_tau2(params, cost, 0))
    return _solution(params, cost, decision, tau2_solution, WAR_RULER)
