"""Regime classification and finite-difference checks of the comparative statics.

Each parameter point is classified by how turnover and investment respond to
the external-conflict probability: prop1 tracks the direction of turnover,
prop2 the direction of investment (war regime, more investment, knife edge,
less investment), and prop3 the joint pattern. The labels are the row ids
used in sweep CSVs and reports.
"""

from dataclasses import dataclass
from enum import Enum
from typing import Dict

from .conflict import civil_war_decision, turnover_probability
from .fiscal import investment_argument, optimal_tau2
from .params import CostSpec, ModelParams

EQUALITY_TOL = 1e-12      # knife-edge classification width
BOUNDARY_TOL = 1e-9       # near-tie flagging width


class TurnoverResponse(Enum):
    """Direction of d(turnover)/d(alpha)."""

    UP = "up"      # war regime: more external risk means more turnover
    DOWN = "down"  # peace regime: more external risk means less turnover


class InvestmentRegime(Enum):
    """Direction of d(tau2*)/d(alpha) at interior solutions."""

    WAR = "2.A"              # war: investment falls with alpha
    INVEST_UP = "2.B.1"      # peace, (eps-mu) > sigma_d*(eps-lam*mu)
    KNIFE_EDGE = "2.B.2"     # peace, equality within tolerance
    INVEST_DOWN = "2.B.3"    # peace, strict reverse inequality


class JointRegime(Enum):
    """Joint turnover/investment pattern."""

    WAR = "3.A"                      # turnover up, investment down
    TURNOVER_DOWN_INVEST_UP = "3.B.1"
    TURNOVER_DOWN_INVEST_DOWN = "3.B.2"


@dataclass(frozen=True)
class RegimeClassification:
    prop1: TurnoverResponse
    prop2: InvestmentRegime
    prop3: JointRegime
    boundary_flags: Dict[str, bool]


@dataclass(frozen=True)
class FiniteDifference:
    phi: float           # d(turnover)/dx
    tau2: float          # d(tau2*)/dx
    regime_stable: bool  # false when gamma or any flag changed across probes
    corner: bool         # base point sits at the no-investment corner


def investment_condition(params: ModelParams) -> float:
    """(eps - mu) - sigma_d*(eps - lam*mu): positive means investment rises
    with alpha in the peace regime."""
    return ((params.epsilon - params.mu)
            - params.sigma_d * (params.epsilon - params.lam * params.mu))


def _labels(gamma: int, cond: float):
    """(prop1, prop2, prop3) labels from the war decision and the
    investment condition."""
    if gamma == 1:
        return TurnoverResponse.UP, InvestmentRegime.WAR, JointRegime.WAR
    if cond > EQUALITY_TOL:
        return (TurnoverResponse.DOWN, InvestmentRegime.INVEST_UP,
                JointRegime.TURNOVER_DOWN_INVEST_UP)
    prop2 = (InvestmentRegime.KNIFE_EDGE if abs(cond) <= EQUALITY_TOL
             else InvestmentRegime.INVEST_DOWN)
    return TurnoverResponse.DOWN, prop2, JointRegime.TURNOVER_DOWN_INVEST_DOWN


def classify(params: ModelParams) -> RegimeClassification:
    """Regime labels plus near-tie flags for one parameter point."""
    decision = civil_war_decision(params)
    gamma = decision.gamma
    cond = investment_condition(params)
    prop1, prop2, prop3 = _labels(gamma, cond)
    threshold = decision.threshold
    flags = {
        "prop2_near_equality": abs(cond) <= BOUNDARY_TOL,
        "near_war_threshold": (threshold is not None
                               and abs(params.sigma_f - threshold) <= BOUNDARY_TOL),
        "near_corner": abs(investment_argument(params, gamma)) <= BOUNDARY_TOL * params.m,
    }
    return RegimeClassification(prop1=prop1, prop2=prop2, prop3=prop3,
                                boundary_flags=flags)


def _solve_point(params: ModelParams, cost: CostSpec):
    gamma = civil_war_decision(params).gamma
    solution = optimal_tau2(params, cost, gamma)
    return turnover_probability(params, gamma), solution.tau2_star, gamma, solution.flags


def finite_difference(params: ModelParams, cost: CostSpec, wrt: str) -> FiniteDifference:
    """Central differences of phi and tau2* in alpha, lam, or sigma_d, with
    step 1e-6*max(1, |x|) at x, from one set of three solves.

    A probe outside [0, 1] raises the constructor's AssumptionViolation
    (range:<wrt>). regime_stable is False when the war decision or any
    corner/clamp flag differs across the three evaluation points; such
    estimates straddle a kink and must not be sign-checked.
    """
    attr = {"alpha": "alpha", "lambda": "lam", "sigma_d": "sigma_d"}.get(wrt)
    if attr is None:
        raise ValueError(f"wrt must be alpha, lambda, or sigma_d, got {wrt!r}")
    x = getattr(params, attr)
    h = 1e-6 * max(1.0, abs(x))
    lo = params.replace(**{attr: x - h})
    hi = params.replace(**{attr: x + h})
    phi_lo, tau_lo, g_lo, flags_lo = _solve_point(lo, cost)
    _, _, g_mid, flags_mid = _solve_point(params, cost)
    phi_hi, tau_hi, g_hi, flags_hi = _solve_point(hi, cost)
    stable = (g_lo == g_mid == g_hi) and (flags_lo == flags_mid == flags_hi)
    return FiniteDifference(
        phi=(phi_hi - phi_lo) / (2.0 * h),
        tau2=(tau_hi - tau_lo) / (2.0 * h),
        regime_stable=stable,
        corner=flags_mid.corner)
