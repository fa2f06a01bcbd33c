"""The constitutional stage: the incumbent proposes period-2 cohesiveness.

Before period 1 the incumbent offers the opposition a cohesiveness level for
period 2; rejection means civil war with zero cohesiveness. Two inequalities
partition the outcome: when both hold the incumbent offers the smallest
accepted share (an interior value, or 1 when the first inequality binds
exactly); when only the first holds the offer is zero and still accepted;
when the first fails every acceptable offer is worse for the incumbent than
war, so the offer is rejected.

The value functions are the game's expected period-2 payoffs at a given
period-2 cohesiveness: the accepted share, or zero under civil war.
"""

from dataclasses import dataclass
from enum import Enum
from typing import List

from .fiscal import optimal_tau2
from .params import ModelParams, CostSpec, Violation
from .policy import OutcomeKind, _mixture


class BargainingRegime(Enum):
    ACCEPTED_POSITIVE = "4.A"  # interior offer, accepted
    ACCEPTED_ZERO = "4.B"      # zero offer, accepted
    REJECTED = "4.C"           # any acceptable offer beats war for nobody; war follows


class InvestmentEffect(Enum):
    """How the bargained outcome transmits external risk to investment."""

    DAMPED = "5.A"     # interior share: investment never rises with alpha
    PASSTHROUGH = "5.B"  # zero share accepted: peace-regime response survives
    WAR = "5.C"        # rejection: war-regime response


@dataclass(frozen=True)
class BargainingOutcome:
    regime: BargainingRegime
    sigma_d2_star: float
    cond11_lhs: float
    cond12_lhs: float
    cond12_rhs: float
    accepted: bool


@dataclass(frozen=True)
class Prop5Result:
    case: InvestmentEffect
    derivative: float  # finite-difference d(tau2*)/d(alpha) at the bargained share
    corner: bool       # investment sits at the no-investment corner


def _foreign_share(params: ModelParams) -> float:
    return params.sigma_f / (2.0 + params.sigma_f)


def check_bargaining_assumptions(params: ModelParams) -> List[Violation]:
    """All violated constitutional-stage assumptions (empty list when ok)."""
    found = []
    if params.epsilon > 0.5:
        found.append(Violation("epsilon_le_half", "requires epsilon <= 1/2"))
    if params.epsilon != params.delta:
        found.append(Violation("epsilon_eq_delta", "requires epsilon = delta"))
    interior = ((1.0 - params.alpha) * params.epsilon
                + params.alpha * params.mu * (1.0 + params.lam) / 2.0)
    if not interior < 0.5:
        found.append(Violation(
            "proposer_interior",
            "requires 1/2 > (1-alpha)*epsilon + alpha*mu*(1+lambda)/2"))
    return found


def condition11_lhs(params: ModelParams) -> float:
    """Opposition's war value coefficient; the offer stage is interior when
    this does not exceed 1/2."""
    p = params
    return (p.alpha * p.omega + p.alpha * p.rho * p.lam
            + p.alpha * p.mu * (1.0 - p.lam) / 2.0
            + (1.0 - p.alpha) * p.delta
            + p.alpha * (p.rho - p.mu) * (1.0 - p.lam) * _foreign_share(p))


def condition12_lhs(params: ModelParams) -> float:
    """Opposition's peace value coefficient at a zero share."""
    p = params
    return (1.0 - p.alpha) * p.epsilon + p.alpha * p.mu * (1.0 + p.lam) / 2.0


def equilibrium_share(params: ModelParams) -> float:
    """The smallest share the opposition accepts, from the binding acceptance
    constraint; exactly 1 when the interior condition binds with equality,
    and never above 1."""
    p = params
    q = p.alpha * (p.rho - p.mu) * (1.0 - p.lam) * _foreign_share(p)
    num = p.alpha * (p.omega + (p.rho - p.mu) * p.lam) + q
    den = (1.0 - p.alpha * (p.omega + p.mu + p.rho * p.lam)
           - 2.0 * (1.0 - p.alpha) * p.epsilon - q)
    # den - num = 1 - 2*condition11_lhs (delta = epsilon): 1 where the interior
    # condition binds (0/0 at alpha=0), never past 1 by rounding
    if condition11_lhs(params) == 0.5 or num >= den:
        return 1.0
    return num / den


def bargaining_outcome(params: ModelParams) -> BargainingOutcome:
    """Classify the offer stage and compute the equilibrium share."""
    c11 = condition11_lhs(params)
    c12_lhs = condition12_lhs(params)
    c12_rhs = c11
    if c11 > 0.5:
        regime, share, accepted = BargainingRegime.REJECTED, 0.0, False
    elif c12_lhs < c12_rhs:
        regime, share, accepted = BargainingRegime.ACCEPTED_POSITIVE, equilibrium_share(params), True
    else:
        regime, share, accepted = BargainingRegime.ACCEPTED_ZERO, 0.0, True
    return BargainingOutcome(regime=regime, sigma_d2_star=share, cond11_lhs=c11,
                             cond12_lhs=c12_lhs, cond12_rhs=c12_rhs, accepted=accepted)


def reservation_value(params: ModelParams, tau2: float) -> float:
    """Opposition's expected value of rejecting: civil war at zero cohesiveness."""
    return _mixture(params.replace(sigma_d=0.0), "O1", tau2, True,
                    OutcomeKind.OPPOSITION_RULES)


def inside_value(params: ModelParams, offer: float, tau2: float) -> float:
    """Opposition's expected value of accepting a share `offer`: peace at
    period-2 cohesiveness `offer`."""
    return _mixture(params.replace(sigma_d=offer), "O1", tau2, False,
                    OutcomeKind.OPPOSITION_RULES)


def o1_accept_decision(params: ModelParams, offer: float, tau2: float) -> bool:
    """Accept iff the inside value covers the war reservation value.

    Indifference accepts. The comparison does not depend on tau2 (both values
    share the same (1-tau2)*m term and scale by 2*tau2*m), which the
    precondition 0 < tau2 <= 1 keeps meaningful.
    """
    if not 0.0 <= offer <= 1.0:
        raise ValueError(f"offer={offer!r} must be in [0, 1]")
    if not 0.0 < tau2 <= 1.0:
        raise ValueError(f"tau2={tau2!r} must be in (0, 1]")
    return inside_value(params, offer, tau2) >= reservation_value(params, tau2)


def offer_value_I1(params: ModelParams, share: float, tau2: float) -> float:
    """Incumbent's expected period-2 value when a share is accepted: peace at
    period-2 cohesiveness `share`."""
    return _mixture(params.replace(sigma_d=share), "I1", tau2, False,
                    OutcomeKind.OPPOSITION_RULES)


def reject_value_I1(params: ModelParams, tau2: float) -> float:
    """Incumbent's expected period-2 value under rejection: civil war at zero
    cohesiveness. Valid on the stage's domain delta = epsilon, which
    check_bargaining_assumptions and sample_params(bargaining=True) enforce."""
    return _mixture(params.replace(sigma_d=0.0), "I1", tau2, True,
                    OutcomeKind.OPPOSITION_RULES)


def classify_prop5(params: ModelParams, cost: CostSpec) -> Prop5Result:
    """Investment-response case of the bargained outcome plus a finite
    difference of tau2* in alpha.

    The probes re-evaluate the bargained share under the base regime's rule
    (the war decision is fixed by that regime: war only under rejection), so
    the derivative tracks the equilibrium path rather than a frozen share.
    One-sided differences are used at the alpha boundaries.
    """
    outcome = bargaining_outcome(params)
    gamma = 1 if outcome.regime is BargainingRegime.REJECTED else 0
    # the zero-share case carries an investment-up condition,
    # (eps - mu) > share*(eps - lam*mu); at a zero share it reduces to
    # eps > mu, which validation already guarantees
    case = {
        BargainingRegime.ACCEPTED_POSITIVE: InvestmentEffect.DAMPED,
        BargainingRegime.ACCEPTED_ZERO: InvestmentEffect.PASSTHROUGH,
        BargainingRegime.REJECTED: InvestmentEffect.WAR,
    }[outcome.regime]

    h = 1e-6 * max(1.0, abs(params.alpha))
    lo = max(params.alpha - h, 0.0)
    hi = min(params.alpha + h, 1.0)

    def tau2_at(alpha: float) -> float:
        probe = params.replace(alpha=alpha)
        # the probe keeps the base regime's rule: interior share for 4.A, else 0
        share = (equilibrium_share(probe)
                 if outcome.regime is BargainingRegime.ACCEPTED_POSITIVE else 0.0)
        return optimal_tau2(probe, cost, gamma, sigma_d2=share).tau2_star

    derivative = (tau2_at(hi) - tau2_at(lo)) / (hi - lo)
    base = optimal_tau2(params, cost, gamma, sigma_d2=outcome.sigma_d2_star)
    return Prop5Result(case=case, derivative=derivative, corner=base.flags.corner)
