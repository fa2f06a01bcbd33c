"""Per-period equilibrium policies and the indirect/expected utilities.

Both periods have corner policy solutions: the ruler taxes at capacity and
splits the proceeds according to the mandated transfer shares. All utilities
are per member of the viewing group. Utilities take tau2 as a float or a
numpy array, so grid oracles can evaluate them vectorized.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .params import CostSpec, ModelParams


class OutcomeKind(Enum):
    """Who rules in period 2."""

    INCUMBENT_RETAINS = "incumbent_retains"
    OPPOSITION_RULES = "opposition_rules"
    OPPOSITION_RULES_POST_REVOLUTION = "opposition_rules_post_revolution"
    FOREIGN_ADMINISTRATION = "foreign_administration"


_OPPOSITION_RULERS = (OutcomeKind.OPPOSITION_RULES,
                      OutcomeKind.OPPOSITION_RULES_POST_REVOLUTION)


class InfeasibleInvestment(ValueError):
    """Raised when the investment cost exceeds period-1 tax revenue."""


@dataclass(frozen=True)
class PolicyOutcome:
    """A period's tax rate and per-member transfers.

    Revenue accounting: t*m = invest_cost + (r_inc + r_opp)/2 + r_f, where the
    incumbent-group and opposition-group transfers each reach half the
    population and r_f goes to the foreign power.
    """

    t: float
    r_inc: float
    r_opp: float
    r_f: float
    invest_cost: float = 0.0

    def budget_gap(self, m: float) -> float:
        """Signed budget residual, relative to the revenue scale."""
        revenue = self.t * m
        spend = self.invest_cost + (self.r_inc + self.r_opp) / 2.0 + self.r_f
        return (revenue - spend) / max(1.0, abs(revenue))


def _transfers(kind: OutcomeKind, tau2, sigma_d: float, sigma_f: float, m: float):
    """Period-2 per-member transfers (r_inc, r_opp, r_f) under the given ruler;
    tau2 is a float or a numpy array."""
    if kind is OutcomeKind.INCUMBENT_RETAINS or kind is OutcomeKind.OPPOSITION_RULES:
        r_inc = 2.0 * tau2 * m / (1.0 + sigma_d)
        return r_inc, sigma_d * r_inc, 0.0
    if kind is OutcomeKind.FOREIGN_ADMINISTRATION:
        return (0.0, 2.0 * sigma_f * tau2 * m / (2.0 + sigma_f),
                2.0 * tau2 * m / (2.0 + sigma_f))
    if kind is OutcomeKind.OPPOSITION_RULES_POST_REVOLUTION:
        # the winner owes the loser nothing
        return 2.0 * tau2 * m, 0.0, 0.0
    raise ValueError(f"ruler must be an OutcomeKind, got {kind!r}")


def _period1(tau1: float, tau2, sigma_d: float, m: float, cost: CostSpec):
    """Period-1 investment cost and ruling-group transfer at capacity tau2;
    raises InfeasibleInvestment if any investment exceeds period-1 revenue."""
    invest = cost.value(tau2 - tau1)
    if np.any(invest > tau1 * m):
        raise InfeasibleInvestment(
            f"investment cost exceeds period-1 revenue {tau1 * m:.6g}")
    return invest, 2.0 * (tau1 * m - invest) / (1.0 + sigma_d)


def period2_policy(kind: OutcomeKind, tau2: float, sigma_d: float,
                   sigma_f: float, m: float) -> PolicyOutcome:
    """Period-2 corner policy for the given ruler."""
    if not 0.0 <= tau2 <= 1.0:
        raise ValueError(f"tau2={tau2!r} must be in [0, 1]")
    return PolicyOutcome(tau2, *_transfers(kind, tau2, sigma_d, sigma_f, m))


def period1_policy(tau1: float, tau2: float, sigma_d: float, m: float,
                   cost: CostSpec) -> PolicyOutcome:
    """Period-1 corner policy: tax at capacity, pay the investment, split the rest."""
    invest, r_inc = _period1(tau1, tau2, sigma_d, m, cost)
    return PolicyOutcome(t=tau1, r_inc=r_inc, r_opp=sigma_d * r_inc, r_f=0.0,
                         invest_cost=invest)


def indirect_utility(viewer: str, kind: OutcomeKind, tau2, params: ModelParams):
    """Period-2 indirect utility of `viewer` ("I1" or "O1") under the given
    ruler: after-tax income plus the transfer `period2_policy` pays the
    viewer's group. tau2 is a float or a numpy array."""
    if viewer not in ("I1", "O1"):
        raise ValueError(f"viewer must be 'I1' or 'O1', got {viewer!r}")
    r_inc, r_opp, _ = _transfers(kind, tau2, params.sigma_d, params.sigma_f, params.m)
    # O1's group rules after an opposition win, I1's otherwise (r_inc = 0 under foreign rule)
    o1_rules = kind in _OPPOSITION_RULERS
    out = (1.0 - tau2) * params.m + (r_inc if o1_rules == (viewer == "O1") else r_opp)
    return out if isinstance(out, np.ndarray) else float(out)


def _mixture(params: ModelParams, viewer: str, tau2, war: bool,
             war_ruler: OutcomeKind):
    """`viewer`'s expected period-2 value over the turnover lottery for either
    branch, when an opposition that takes power on the war branch rules as
    `war_ruler` (OPPOSITION_RULES in the baseline)."""
    p = params
    w_opp = indirect_utility(viewer, war_ruler if war else OutcomeKind.OPPOSITION_RULES,
                             tau2, params)
    w_keep = indirect_utility(viewer, OutcomeKind.INCUMBENT_RETAINS, tau2, params)
    w_foreign = indirect_utility(viewer, OutcomeKind.FOREIGN_ADMINISTRATION, tau2, params)
    if war:
        with_conflict = ((p.omega + p.rho * p.lam) * w_opp
                         + (1.0 - p.omega - p.rho) * w_keep
                         + p.rho * (1.0 - p.lam) * w_foreign)
        without = p.delta * w_opp + (1.0 - p.delta) * w_keep
    else:
        with_conflict = (p.mu * p.lam * w_opp
                         + (1.0 - p.mu) * w_keep
                         + p.mu * (1.0 - p.lam) * w_foreign)
        without = p.epsilon * w_opp + (1.0 - p.epsilon) * w_keep
    out = p.alpha * with_conflict + (1.0 - p.alpha) * without
    return out if isinstance(out, np.ndarray) else float(out)


def _expected_I1(params: ModelParams, cost: CostSpec, tau2, war: bool,
                 war_ruler: OutcomeKind):
    """I1's total expected utility when an opposition that takes power on the
    war branch rules as `war_ruler`."""
    _, r_inc = _period1(params.tau1, tau2, params.sigma_d, params.m, cost)
    out = ((1.0 - params.tau1) * params.m + r_inc
           + _mixture(params, "I1", tau2, war, war_ruler))
    return out if isinstance(out, np.ndarray) else float(out)


def expected_utility_O1(params: ModelParams, tau2, war: bool):
    """O1's expected period-2 utility under civil war (war=True) or peace."""
    return _mixture(params, "O1", tau2, war, OutcomeKind.OPPOSITION_RULES)


def expected_utility_I1(params: ModelParams, cost: CostSpec, tau2, war: bool):
    """I1's total expected utility: period-1 value net of investment plus the
    expected period-2 value. tau2 is a float or a numpy array; raises
    InfeasibleInvestment if any point costs more than period-1 revenue."""
    return _expected_I1(params, cost, tau2, war, OutcomeKind.OPPOSITION_RULES)
