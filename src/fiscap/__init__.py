"""Equilibrium solver for a two-period model of external threats, civil
conflict, and fiscal-capacity investment."""

from .bargaining import (BargainingRegime, InvestmentEffect, bargaining_outcome,
                         check_bargaining_assumptions, classify_prop5,
                         condition11_lhs, condition12_lhs, equilibrium_share,
                         inside_value, o1_accept_decision, offer_value_I1,
                         reject_value_I1, reservation_value)
from .conflict import (UndefinedThreshold, civil_war_decision, civil_war_threshold,
                       threshold_sensitivities, turnover_probability)
from .fiscal import (brute_force_tau2, investment_argument, inverse_marginal,
                     max_feasible_tau2, optimal_tau2, solve_equilibrium)
from .params import (AssumptionViolation, CostSpec, ModelParams, NonConvexCost,
                     check_params, parse_config_text, sample_params,
                     validate_params)
from .policy import (InfeasibleInvestment, OutcomeKind, expected_utility_I1,
                     expected_utility_O1, indirect_utility, period1_policy,
                     period2_policy)
from .revolution import (brute_force_tau2_variant, expected_utility_I1_variant,
                         expected_utility_O1_variant, revolution_solve,
                         revolution_threshold, variant_war_tau2)
from .statics import (InvestmentRegime, JointRegime, TurnoverResponse, classify,
                      finite_difference, investment_condition)
from .verify import PROPERTY_NAMES, render_report, run_trials

__version__ = "0.1.0"

__all__ = [
    "AssumptionViolation", "BargainingRegime", "CostSpec",
    "InfeasibleInvestment", "InvestmentEffect", "InvestmentRegime",
    "JointRegime", "ModelParams", "NonConvexCost", "OutcomeKind",
    "PROPERTY_NAMES", "TurnoverResponse", "UndefinedThreshold",
    "bargaining_outcome", "brute_force_tau2", "brute_force_tau2_variant",
    "check_bargaining_assumptions", "check_params", "civil_war_decision",
    "civil_war_threshold", "classify", "classify_prop5", "condition11_lhs",
    "condition12_lhs", "equilibrium_share", "expected_utility_I1",
    "expected_utility_I1_variant", "expected_utility_O1",
    "expected_utility_O1_variant", "finite_difference", "indirect_utility",
    "inside_value", "investment_argument", "investment_condition",
    "inverse_marginal", "max_feasible_tau2", "o1_accept_decision",
    "offer_value_I1", "optimal_tau2", "parse_config_text", "period1_policy",
    "period2_policy", "reject_value_I1", "render_report", "reservation_value",
    "revolution_solve", "revolution_threshold", "run_trials", "sample_params",
    "solve_equilibrium", "threshold_sensitivities", "turnover_probability",
    "validate_params", "variant_war_tau2",
]
