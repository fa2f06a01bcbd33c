"""The incumbent's fiscal-capacity investment problem and the composed solve.

optimal_tau2 inverts the marginal cost at the closed-form marginal benefit;
brute_force_tau2 maximizes the same expected utility on a grid and exists
purely as an independent check. solve_equilibrium chains the war decision,
turnover, investment, and policies into one Solution, the record the
revolution variant's solve returns too.
"""

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from .conflict import ConflictDecision, civil_war_decision, turnover_probability
from .params import CostSpec, ModelParams
from .policy import (OutcomeKind, PolicyOutcome, _expected_I1, _mixture,
                     expected_utility_I1, period1_policy, period2_policy)

# period-2 rulers a solve reports, in OutcomeKind order, by the ruler an
# opposition that takes power on the war branch becomes; built once
_RULERS = {war_ruler: tuple(k for k in OutcomeKind
                            if k is not OutcomeKind.OPPOSITION_RULES_POST_REVOLUTION
                            or k is war_ruler)
           for war_ruler in OutcomeKind}
GRID_STEP = 1e-4  # spacing of the grid oracles' tau2 grid


@dataclass(frozen=True)
class SolveFlags:
    corner: bool                    # marginal benefit <= 0, no investment
    clamped_at_tau_max: bool        # solution cut at the tax-rate cap
    clamped_for_feasibility: bool   # solution cut so period-1 transfers stay nonnegative

    @property
    def clamped(self) -> bool:
        """The solution was cut by either clamp."""
        return self.clamped_at_tau_max or self.clamped_for_feasibility


@dataclass(frozen=True)
class Tau2Solution:
    tau2_star: float
    argument: float  # marginal benefit handed to the inverse marginal cost
    flags: SolveFlags


@dataclass(frozen=True)
class Solution:
    """One solved parameter point, in either variant."""

    gamma: int
    sigma_f_bar: Optional[float]  # war threshold on sigma_f; None when undefined
    phi: float
    tau2_star: float
    argument: float               # marginal benefit handed to the clamp
    flags: SolveFlags
    period1: PolicyOutcome
    period2_by_kind: Dict[OutcomeKind, PolicyOutcome]  # the variant's rulers
    eu_I1: float
    eu_O1: float


def inverse_marginal(cost: CostSpec, y: float) -> float:
    """Investment x >= 0 with marginal cost y; 0 whenever y <= 0.

    Quadratic costs invert exactly; tabulated costs bisect the strictly
    increasing marginal to |residual| <= 1e-12 * max(1, |y|). The exact
    piecewise-linear inverse would move one row of the seed-0 tabulated
    sweep pinned in perfbench/reference.json (sigma_d=0.85, epsilon=0.25:
    tau2_star 0.207813 -> 0.207812, a rounding tie), so the bisection stays
    until that reference is re-recorded.
    """
    if not np.isfinite(y):
        raise ValueError(f"marginal value must be finite, got {y!r}")
    if y <= 0.0:
        return 0.0
    if cost.kind == "quadratic":
        return y / cost.c
    lo, hi = 0.0, float(cost.knots[-1])
    while cost.marginal(hi) < y:
        hi *= 2.0
    tol = 1e-12 * max(1.0, abs(y))
    for _ in range(200):
        mid = (lo + hi) / 2.0
        resid = cost.marginal(mid) - y
        if abs(resid) <= tol:
            return mid
        if resid < 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def max_feasible_tau2(params: ModelParams, cost: CostSpec) -> float:
    """Largest tau2 whose investment cost period-1 revenue can still cover,
    capped at tau_max.

    A tabulated cost is quadratic on each knot segment and on the tail past
    the last knot: cum + m0*f + s*f^2/2 at distance f from a knot with
    cumulative cost cum and marginal m0, where s is the segment's slope (the
    last segment's on the tail). The bound solves that quadratic for
    budget = tau1*m on the segment starting at the last knot within budget.
    """
    budget = params.tau1 * params.m
    if cost.kind == "quadratic":
        x_max = float(np.sqrt(2.0 * budget / cost.c))
    else:
        xs, ms, cum, tail_slope = cost._table
        i = int(np.searchsorted(cum, budget, side="right")) - 1
        if i == xs.size - 1:
            s = tail_slope
        else:
            s = (ms[i + 1] - ms[i]) / (xs[i + 1] - xs[i])
        r = budget - cum[i]
        m0 = ms[i]
        # cancellation-free form of (-m0 + sqrt(m0^2 + 2*s*r)) / s
        f = 2.0 * r / (m0 + math.sqrt(m0 * m0 + 2.0 * s * r)) if r > 0.0 else 0.0
        x_max = float(xs[i] + f)
        # the root lands an ulp or two off the boundary that cost.value draws;
        # step to the last float it still affords, where a bisection would end
        for _ in range(4):
            if x_max > 0.0 and cost.value(x_max) > budget:
                x_max = math.nextafter(x_max, 0.0)
            elif budget > 0.0 and cost.value(math.nextafter(x_max, math.inf)) <= budget:
                x_max = math.nextafter(x_max, math.inf)
            else:
                break
    top = min(params.tau_max, params.tau1 + x_max)
    # round-off guard on the value consumers re-derive: tau1 + x - tau1 can
    # land an ulp above x, so check affordability after the round trip
    for _ in range(16):
        if cost.value(top - params.tau1) <= budget:
            break
        top = float(np.nextafter(top, params.tau1))
    return top


def investment_argument(params: ModelParams, gamma: int,
                        sigma_d2: Optional[float] = None) -> float:
    """Marginal benefit of capacity at zero investment.

    sigma_d2 overrides period-2 cohesiveness (the constitutional-stage case);
    period 1 keeps params.sigma_d, which scales the marginal through the
    period-1 value of retained funds.
    """
    p = params
    phi = turnover_probability(params, gamma)
    if sigma_d2 is None:
        s1 = s2 = p.sigma_d
    else:
        s1, s2 = p.sigma_d, sigma_d2
    loser_prob = p.rho if gamma == 1 else p.mu
    bracket = (-phi * (1.0 - s2)
               - p.alpha * loser_prob * (1.0 - p.lam) * s2
               + (1.0 - s2) / 2.0)
    return p.m * (1.0 + s1) / (1.0 + s2) * bracket


def _clamped(params: ModelParams, cost: CostSpec, argument: float) -> Tau2Solution:
    """Capacity that equates marginal cost to the marginal benefit `argument`,
    with corner, tax-cap and feasibility handling."""
    raw = params.tau1 + inverse_marginal(cost, argument)
    corner = argument <= 0.0
    clamped_cap = raw > params.tau_max
    tau2 = min(raw, params.tau_max)
    feasible_hi = max_feasible_tau2(params, cost)
    clamped_feas = tau2 > feasible_hi
    if clamped_feas:
        tau2 = feasible_hi
    return Tau2Solution(
        tau2_star=tau2, argument=argument,
        flags=SolveFlags(corner=corner, clamped_at_tau_max=clamped_cap,
                         clamped_for_feasibility=clamped_feas))


def optimal_tau2(params: ModelParams, cost: CostSpec, gamma: int,
                 sigma_d2: Optional[float] = None) -> Tau2Solution:
    """Closed-form optimal period-2 capacity with corner and clamp handling."""
    return _clamped(params, cost, investment_argument(params, gamma, sigma_d2))


def _grid_argmax(eu_I1: Callable, params: ModelParams, cost: CostSpec,
                 gamma: int) -> float:
    """Feasible tau2 on a grid of GRID_STEP that maximizes
    eu_I1(params, cost, tau2, war); ties resolve to the lowest tau2."""
    hi = max_feasible_tau2(params, cost)
    n = int(np.floor((hi - params.tau1) / GRID_STEP + 1e-9))
    grid = params.tau1 + GRID_STEP * np.arange(n + 1)
    grid = grid[grid <= hi]
    if grid[-1] < hi:
        grid = np.append(grid, hi)  # include the exact feasibility endpoint
    values = eu_I1(params, cost, grid, war=(gamma == 1))
    return float(grid[int(np.argmax(values))])


def brute_force_tau2(params: ModelParams, cost: CostSpec, gamma: int) -> float:
    """Grid argmax of the incumbent's expected utility over feasible tau2.

    Independent of the closed form on purpose. Exact ties resolve to the
    lowest tau2 (first index), so the result never depends on evaluation
    order.
    """
    return _grid_argmax(expected_utility_I1, params, cost, gamma)


def _solution(params: ModelParams, cost: CostSpec, decision: ConflictDecision,
              tau2_solution: Tau2Solution, war_ruler: OutcomeKind) -> Solution:
    """The solve's record, with policies and utilities at the chosen capacity,
    when an opposition that takes power on the war branch rules as `war_ruler`."""
    gamma, tau2 = decision.gamma, tau2_solution.tau2_star
    war = gamma == 1
    p = params
    # the sweep discards the policies and utilities; they stay until ROADMAP
    # item 8 replaces the pinned indirect_utility call count
    return Solution(
        gamma=gamma, sigma_f_bar=decision.threshold,
        phi=turnover_probability(params, gamma), tau2_star=tau2,
        argument=tau2_solution.argument, flags=tau2_solution.flags,
        period1=period1_policy(p.tau1, tau2, p.sigma_d, p.m, cost),
        period2_by_kind={kind: period2_policy(kind, tau2, p.sigma_d, p.sigma_f, p.m)
                         for kind in _RULERS[war_ruler]},
        eu_I1=_expected_I1(params, cost, tau2, war, war_ruler),
        eu_O1=_mixture(params, "O1", tau2, war, war_ruler))


def solve_equilibrium(params: ModelParams, cost: CostSpec) -> Solution:
    """Full backward-induction solve for one parameter point."""
    decision = civil_war_decision(params)
    return _solution(params, cost, decision, optimal_tau2(params, cost, decision.gamma),
                     OutcomeKind.OPPOSITION_RULES)
