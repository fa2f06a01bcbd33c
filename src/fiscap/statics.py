"""Regime classification and finite-difference checks of the comparative statics.

Each parameter point is classified by how turnover and investment respond to
the external-conflict probability: prop1 tracks the direction of turnover,
prop2 the direction of investment (war regime, more investment, knife edge,
less investment), and prop3 the joint pattern. The labels are the row ids
used in sweep CSVs and reports.
"""

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .conflict import civil_war_decision
from .fiscal import solve_equilibrium
from .params import CostSpec, ModelParams

EQUALITY_TOL = 1e-12      # knife-edge classification width


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


class RegimeClassification(NamedTuple):
    prop1: TurnoverResponse
    prop2: InvestmentRegime
    prop3: JointRegime


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


def _labels(gamma: int, cond: float) -> RegimeClassification:
    """(prop1, prop2, prop3) labels from the war decision and the
    investment condition."""
    if gamma == 1:
        return RegimeClassification(TurnoverResponse.UP, InvestmentRegime.WAR, JointRegime.WAR)
    if cond > EQUALITY_TOL:
        return RegimeClassification(TurnoverResponse.DOWN, InvestmentRegime.INVEST_UP,
                                    JointRegime.TURNOVER_DOWN_INVEST_UP)
    prop2 = (InvestmentRegime.KNIFE_EDGE if abs(cond) <= EQUALITY_TOL
             else InvestmentRegime.INVEST_DOWN)
    return RegimeClassification(TurnoverResponse.DOWN, prop2,
                                JointRegime.TURNOVER_DOWN_INVEST_DOWN)


def classify(params: ModelParams) -> RegimeClassification:
    """Regime labels (prop1, prop2, prop3) for one parameter point."""
    return _labels(civil_war_decision(params).gamma, investment_condition(params))


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
    lo_s, mid_s, hi_s = (solve_equilibrium(q, cost) for q in (lo, params, hi))
    stable = (lo_s.gamma == mid_s.gamma == hi_s.gamma
              and lo_s.flags == mid_s.flags == hi_s.flags)
    return FiniteDifference(
        phi=(hi_s.phi - lo_s.phi) / (2.0 * h),
        tau2=(hi_s.tau2_star - lo_s.tau2_star) / (2.0 * h),
        regime_stable=stable,
        corner=mid_s.flags.corner)
