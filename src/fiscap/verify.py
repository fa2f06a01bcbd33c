"""Seeded property harness: rejection-sampled draws, cross-checked routes.

Each trial derives its own generator from (seed, trial), so results do not
depend on execution order. Every property is one function of a Trial, listed
in PROPERTIES in report order; it returns None to skip the trial, where its
preconditions do not hold (undefined threshold, clamped solve, regime flip
across probes), or (passed, detail).
"""

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import bargaining, conflict, fiscal, policy, revolution, statics
from .params import CostSpec, ModelParams, sample_params


@dataclass
class PropertyStats:
    passed: int = 0
    failed: int = 0
    skipped: int = 0


@dataclass
class VerifyReport:
    trials: int
    seed: int
    properties: Dict[str, PropertyStats] = field(default_factory=dict)
    counterexamples: List[str] = field(default_factory=list)
    regime_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def failures(self) -> int:
        return sum(s.failed for s in self.properties.values())


# None to skip a property on a trial, else (passed, detail)
Outcome = Optional[Tuple[bool, str]]


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _near_label_boundary(params: ModelParams, cost: CostSpec,
                         result: fiscal.Solution) -> bool:
    """True when a baseline solve sits within rounding of a label boundary:
    sigma_f on the war threshold, zero marginal benefit, or an investment
    condition too small for a finite difference in alpha to sign."""
    bar = result.sigma_f_bar
    return ((bar is not None and abs(params.sigma_f - bar) <= 1e-9)
            or abs(result.argument) <= 1e-9 * params.m
            or abs(statics.investment_condition(params)) * params.m / cost.c <= 1e-7)


@dataclass(frozen=True)
class Trial:
    """One trial's draws and the solves every property reads."""

    params: ModelParams
    cost: CostSpec
    bparams: ModelParams               # drawn under the bargaining assumptions
    tau2_probe: float
    offer_probe: float
    result: fiscal.Solution            # baseline solve
    vresult: fiscal.Solution           # revolution solve
    hi_feas: float                     # the largest feasible tau2
    labels: statics.RegimeClassification  # from the baseline solve
    outcome: bargaining.BargainingOutcome


def _make_trial(trial: int, seed: int) -> Trial:
    """Draw one trial's inputs (every draw first, in a fixed order) and solve them."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, trial)))
    params = sample_params(rng)
    cost = CostSpec(kind="quadratic", c=float(rng.uniform(0.5, 5.0)))
    bparams = sample_params(rng, bargaining=True)
    tau2_probe = float(rng.uniform(params.tau1, 1.0))
    offer_probe = float(rng.uniform(0.0, 1.0))

    result = fiscal.solve_equilibrium(params, cost)
    vresult = revolution.revolution_solve(params, cost)
    hi_feas = fiscal.max_feasible_tau2(params, cost)
    labels = statics._labels(result.gamma, statics.investment_condition(params))
    outcome = bargaining.bargaining_outcome(bparams)
    return Trial(params, cost, bparams, tau2_probe, offer_probe, result, vresult,
                 hi_feas, labels, outcome)


def _objectives(t: Trial) -> Tuple[Tuple[fiscal.Solution, Callable], ...]:
    """Each solve with its objective: the baseline's, then the variant's."""
    return ((t.result, policy.expected_utility_I1),
            (t.vresult, revolution.expected_utility_I1_variant))


def budget_identity(t: Trial) -> Outcome:
    """Budget identities on every policy both solves emit, plus a
    post-revolution policy at a probe capacity."""
    p = t.params
    outs = [t.result.period1, *t.result.period2_by_kind.values(),
            t.vresult.period1, *t.vresult.period2_by_kind.values(),
            policy.period2_policy(policy.OutcomeKind.OPPOSITION_RULES_POST_REVOLUTION,
                                  t.tau2_probe, p.sigma_d, p.sigma_f, p.m)]
    return (all(abs(o.budget_gap(p.m)) <= 1e-12 for o in outs),
            "budget residual above 1e-12")


def utility_affine_in_tau2(t: Trial) -> Outcome:
    """Utilities are affine in tau2: exact midpoint collinearity."""
    p = t.params
    a, b = p.tau1, min(1.0, p.tau1 + 0.5)
    mid = (a + b) / 2.0
    affine = True
    for wflag in (False, True):
        ya = policy.expected_utility_O1(p, a, wflag)
        yb = policy.expected_utility_O1(p, b, wflag)
        ym = policy.expected_utility_O1(p, mid, wflag)
        affine &= abs(ym - (ya + yb) / 2.0) <= 1e-12 * max(1.0, abs(ya), abs(yb))
    return affine, "midpoint collinearity violated"


def war_peace_sign_invariance(t: Trial) -> Outcome:
    """The war-vs-peace comparison has one sign for every positive tau2."""
    gaps = [policy.expected_utility_O1(t.params, t2, True)
            - policy.expected_utility_O1(t.params, t2, False)
            for t2 in (0.1, 0.5, 0.9, 1.0)]
    if abs(gaps[-1]) <= 1e-12 * t.params.m:
        return None
    return all((g > 0) == (gaps[-1] > 0) for g in gaps), f"gaps={gaps!r}"


def scale_invariance(t: Trial) -> Outcome:
    """Income is a pure scale at zero investment."""
    p, k, war = t.params, 3.0, t.result.gamma == 1
    scaled = p.replace(m=p.m * k)
    pol = policy.period2_policy(policy.OutcomeKind.INCUMBENT_RETAINS, t.tau2_probe,
                                p.sigma_d, p.sigma_f, p.m)
    pol_k = policy.period2_policy(policy.OutcomeKind.INCUMBENT_RETAINS, t.tau2_probe,
                                  p.sigma_d, p.sigma_f, scaled.m)
    eu = policy.expected_utility_O1(p, t.tau2_probe, war)
    eu_k = policy.expected_utility_O1(scaled, t.tau2_probe, war)
    return (_rel_close(pol_k.r_inc, k * pol.r_inc, 1e-12) and _rel_close(eu_k, k * eu, 1e-12),
            "scaling m did not scale transfers/utilities")


def threshold_decision_agreement(t: Trial) -> Outcome:
    """The closed-form threshold and the direct comparison agree when defined."""
    threshold = t.result.sigma_f_bar
    if threshold is None:
        return None
    return ((t.params.sigma_f > threshold) == (t.result.gamma == 1),
            f"threshold={threshold!r} gamma={t.result.gamma}")


def threshold_at_full_cohesion(t: Trial) -> Outcome:
    """Perfectly cohesive institutions force the threshold to 2."""
    t_full = conflict.civil_war_threshold(t.params.replace(sigma_d=1.0))
    return (t_full is not None and abs(t_full - 2.0) <= 1e-12,
            f"threshold at sigma_d=1 was {t_full!r}")


def threshold_sensitivity_fd(t: Trial) -> Outcome:
    """Closed-form threshold sensitivities against central differences; the
    first mismatching derivative is reported."""
    p = t.params
    _, den, _ = conflict._threshold_parts(p)
    if t.result.sigma_f_bar is None or den < 0.05:
        return None
    sens = conflict.threshold_sensitivities(p)
    for wrt, attr in (("d_sigma_d", "sigma_d"), ("d_lambda", "lam"), ("d_alpha", "alpha")):
        x = getattr(p, attr)
        h = 1e-6
        lo_t = conflict.civil_war_threshold(p.replace(**{attr: x - h}))
        hi_t = conflict.civil_war_threshold(p.replace(**{attr: x + h}))
        if lo_t is None or hi_t is None:
            return None
        fd = (hi_t - lo_t) / (2.0 * h)
        if not _rel_close(fd, sens[wrt], 1e-6):
            return False, f"{wrt}: fd={fd!r} closed={sens[wrt]!r}"
    return True, ""


def turnover_alpha_derivative(t: Trial) -> Outcome:
    """Turnover is affine in alpha with known slope on each branch."""
    p = t.params
    ok = True
    for g, slope in ((0, -(p.epsilon - p.mu)), (1, p.omega - p.delta + p.rho)):
        h = 1e-6
        lo_p = conflict.turnover_probability(p.replace(alpha=p.alpha - h), g)
        hi_p = conflict.turnover_probability(p.replace(alpha=p.alpha + h), g)
        ok &= abs((hi_p - lo_p) / (2.0 * h) - slope) <= 1e-9
    return ok, "turnover slope mismatch"


def _matches_oracle(t: Trial, sol: fiscal.Solution, brute_force: Callable) -> Outcome:
    """A solve matches its grid oracle unless clamped."""
    if sol.flags.clamped:
        return None
    bf = brute_force(t.params, t.cost, sol.gamma)
    return (abs(sol.tau2_star - bf) <= 2.0 * fiscal.GRID_STEP,
            f"closed={sol.tau2_star!r} grid={bf!r}")


def oracle_equivalence(t: Trial) -> Outcome:
    """Closed-form investment equals the grid argmax when nothing clamps."""
    return _matches_oracle(t, t.result, fiscal.brute_force_tau2)


def second_order_condition(t: Trial) -> Outcome:
    """Both objectives are concave in tau2."""
    grid = np.linspace(t.params.tau1, t.hi_feas, 201)
    second = np.concatenate([np.diff(eu_I1(t.params, t.cost, grid, sol.gamma == 1), n=2)
                             for sol, eu_I1 in _objectives(t)])
    return (bool(np.all(second <= 1e-12)),
            f"max second difference {float(second.max())!r}")


def maximality(t: Trial) -> Outcome:
    """Both reported optima beat nearby feasible points."""
    p, cost, ok = t.params, t.cost, True
    for sol, eu_I1 in _objectives(t):
        tau2_star, war = sol.tau2_star, sol.gamma == 1
        probes = [tau2_star - 10 * fiscal.GRID_STEP, tau2_star + 10 * fiscal.GRID_STEP]
        v_star = eu_I1(p, cost, tau2_star, war)
        ok &= all(v_star >= eu_I1(p, cost, t2, war) - 1e-12 * max(1.0, abs(v_star))
                  for t2 in probes if p.tau1 <= t2 <= t.hi_feas)
    return ok, "a nearby point beats the reported optimum"


def corner_consistency(t: Trial) -> Outcome:
    """Corner flag, zero marginal benefit, and tau2*=tau1 line up on every
    unclamped solve; skipped when both solves clamp."""
    checks = [(sol.flags.corner == (sol.argument <= 0.0)
               == (abs(sol.tau2_star - t.params.tau1) == 0.0),
               f"corner={sol.flags.corner} argument={sol.argument!r} tau2={sol.tau2_star!r}")
              for sol in (t.result, t.vresult) if not sol.flags.clamped]
    return min(checks, default=None)  # False sorts first: a failure wins


def regime_fd_signs(t: Trial) -> Outcome:
    """Finite-difference signs match the regime labels (baseline solver)."""
    p, cost, cls = t.params, t.cost, t.labels
    if (_near_label_boundary(p, cost, t.result) or t.result.flags.corner
            or t.result.flags.clamped):
        return None
    slopes = statics.finite_difference(p, cost, "alpha")
    if not slopes.regime_stable:
        return None
    ok = (slopes.phi > 0) == (cls.prop1 is statics.TurnoverResponse.UP)
    if cls.prop2 is statics.InvestmentRegime.INVEST_UP:
        ok &= slopes.tau2 > 0
    elif cls.prop2 in (statics.InvestmentRegime.WAR, statics.InvestmentRegime.INVEST_DOWN):
        ok &= slopes.tau2 < 0
    else:
        ok &= abs(slopes.tau2) <= 1e-8 * p.m / cost.c
    return ok, (f"prop1={cls.prop1.value} prop2={cls.prop2.value} "
                f"fd_phi={slopes.phi!r} fd_tau={slopes.tau2!r}")


def invest_boundary_lambda_zero(t: Trial) -> Outcome:
    """At lam=0 the investment-direction boundary is where epsilon*(1-sigma_d)=mu."""
    flat = t.params.replace(lam=0.0)
    eps_star = flat.mu / (1.0 - flat.sigma_d)
    lo_eps, hi_eps = eps_star - 0.01, eps_star + 0.01
    if hi_eps >= 1.0 or lo_eps <= flat.mu:
        return None
    lo_2 = statics.classify(flat.replace(epsilon=lo_eps)).prop2
    hi_2 = statics.classify(flat.replace(epsilon=hi_eps)).prop2
    if statics.InvestmentRegime.WAR in (lo_2, hi_2):
        return None
    return (lo_2 is statics.InvestmentRegime.INVEST_DOWN
            and hi_2 is statics.InvestmentRegime.INVEST_UP,
            "labels did not flip across the boundary")


def bargain_share_valid(t: Trial) -> Outcome:
    """Constitutional stage: the share is valid and the acceptance constraint binds."""
    if t.outcome.regime is not bargaining.BargainingRegime.ACCEPTED_POSITIVE:
        return None
    share = t.outcome.sigma_d2_star
    slack = (bargaining.inside_value(t.bparams, share, 0.5)
             - bargaining.reservation_value(t.bparams, 0.5))
    return 0.0 < share <= 1.0 and abs(slack) <= 1e-10, f"share={share!r} slack={slack!r}"


def bargain_offer_beats_war(t: Trial) -> Outcome:
    """The proposer prefers the equilibrium offer to a rejection."""
    if t.outcome.regime is not bargaining.BargainingRegime.ACCEPTED_POSITIVE:
        return None
    return (bargaining.offer_value_I1(t.bparams, t.outcome.sigma_d2_star, 0.5)
            > bargaining.reject_value_I1(t.bparams, 0.5),
            "offering did not beat rejection for the proposer")


def bargain_share_monotonic(t: Trial) -> Outcome:
    """The share rises with alpha and sigma_f; skipped once a probe leaves 4.A."""
    if t.outcome.regime is not bargaining.BargainingRegime.ACCEPTED_POSITIVE:
        return None
    h = 1e-5
    ok = True
    for attr in ("alpha", "sigma_f"):
        x = getattr(t.bparams, attr)
        lo_b = bargaining.bargaining_outcome(t.bparams.replace(**{attr: max(x - h, 0.0)}))
        hi_b = bargaining.bargaining_outcome(t.bparams.replace(**{attr: min(x + h, 1.0)}))
        if (lo_b.regime is not bargaining.BargainingRegime.ACCEPTED_POSITIVE
                or hi_b.regime is not bargaining.BargainingRegime.ACCEPTED_POSITIVE):
            return None
        ok &= hi_b.sigma_d2_star > lo_b.sigma_d2_star
    return ok, "share not increasing"


def bargain_interior_shrinks_with_alpha(t: Trial) -> Outcome:
    """More external risk makes the interior-offer condition harder to satisfy."""
    if t.bparams.alpha + 0.05 > 1.0:
        return None
    bumped = t.bparams.replace(alpha=t.bparams.alpha + 0.05)
    return (bargaining.condition11_lhs(bumped) > bargaining.condition11_lhs(t.bparams),
            "interior condition loosened as alpha rose")


def bargain_accept_tau2_independent(t: Trial) -> Outcome:
    """Acceptance never depends on the capacity it will apply to."""
    answers = {bargaining.o1_accept_decision(t.bparams, t.offer_probe, t2)
               for t2 in (0.1, 0.5, 1.0)}
    return len(answers) == 1, f"decision varied with tau2 at offer {t.offer_probe!r}"


def variant_threshold_ordering(t: Trial) -> Outcome:
    """The revolution rule never raises the war threshold."""
    threshold, t_prime = t.result.sigma_f_bar, t.vresult.sigma_f_bar
    if threshold is None or t_prime is None:
        return None
    return t_prime <= threshold + 1e-12, f"prime={t_prime!r} baseline={threshold!r}"


def variant_equal_at_zero_cohesion(t: Trial) -> Outcome:
    """At zero cohesiveness the rule pays nothing anyway: variants coincide."""
    zero = t.params.replace(sigma_d=0.0)
    base0 = fiscal.solve_equilibrium(zero, t.cost)
    var0 = revolution.revolution_solve(zero, t.cost)
    t0, t0p = base0.sigma_f_bar, var0.sigma_f_bar
    same_threshold = t0 == t0p or (None not in (t0, t0p) and abs(t0 - t0p) <= 1e-12)
    return (same_threshold and base0.gamma == var0.gamma
            and base0.tau2_star == var0.tau2_star,
            f"baseline={base0.tau2_star!r} variant={var0.tau2_star!r}")


def variant_peace_identity(t: Trial) -> Outcome:
    """Without a war there is no revolution: peace solves are identical."""
    if t.vresult.gamma == 1:
        return None
    return (t.result.gamma == 0 and t.vresult.tau2_star == t.result.tau2_star,
            f"variant={t.vresult.tau2_star!r} baseline={t.result.tau2_star!r}")


def variant_war_derivative(t: Trial) -> Outcome:
    """Interior variant war solutions move against external risk at known slope."""
    p, vflags = t.params, t.vresult.flags
    if t.vresult.gamma == 0 or vflags.corner or vflags.clamped:
        return None
    h = 1e-6
    expected = -p.m * (p.omega - p.delta + p.rho) / t.cost.c
    lo_v = revolution.revolution_solve(p.replace(alpha=p.alpha - h), t.cost)
    hi_v = revolution.revolution_solve(p.replace(alpha=p.alpha + h), t.cost)
    if not (lo_v.gamma == hi_v.gamma == 1 and lo_v.flags == hi_v.flags == vflags):
        return None
    fd = (hi_v.tau2_star - lo_v.tau2_star) / (2.0 * h)
    return fd < 0 and _rel_close(fd, expected, 1e-6), f"fd={fd!r} expected={expected!r}"


def variant_oracle_equivalence(t: Trial) -> Outcome:
    """The variant closed form also matches its own grid oracle."""
    return _matches_oracle(t, t.vresult, revolution.brute_force_tau2_variant)


# every property, in report order
PROPERTIES = (
    budget_identity, utility_affine_in_tau2, war_peace_sign_invariance,
    scale_invariance, threshold_decision_agreement, threshold_at_full_cohesion,
    threshold_sensitivity_fd, turnover_alpha_derivative, oracle_equivalence,
    second_order_condition, maximality, corner_consistency, regime_fd_signs,
    invest_boundary_lambda_zero, bargain_share_valid, bargain_offer_beats_war,
    bargain_share_monotonic, bargain_interior_shrinks_with_alpha,
    bargain_accept_tau2_independent, variant_threshold_ordering,
    variant_equal_at_zero_cohesion, variant_peace_identity, variant_war_derivative,
    variant_oracle_equivalence,
)
PROPERTY_NAMES = [prop.__name__ for prop in PROPERTIES]


def run_trials(trials: int, seed: int, workers: int = 1,
               max_counterexamples: int = 50) -> VerifyReport:
    """Run the property suite on both variants; deterministic for a given seed.
    `workers` must be 1; it stays only for perfbench/run.py, which passes it."""
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers!r}")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    report = VerifyReport(trials=trials, seed=seed)
    for name in PROPERTY_NAMES:
        report.properties[name] = PropertyStats()

    for trial in range(trials):
        t = _make_trial(trial, seed)
        for prop in PROPERTIES:
            stats, outcome = report.properties[prop.__name__], prop(t)
            if outcome is None:
                stats.skipped += 1
            elif outcome[0]:
                stats.passed += 1
            else:
                stats.failed += 1
                if len(report.counterexamples) < max_counterexamples:
                    report.counterexamples.append(
                        f"{prop.__name__} trial={trial}: {outcome[1]}; params={t.params!r} "
                        f"bargaining_params={t.bparams!r} cost={t.cost!r}")
        key = "regime[" + "/".join(label.value for label in t.labels) + "]"
        report.regime_counts[key] = report.regime_counts.get(key, 0) + 1
        bkey = f"bargaining[{t.outcome.regime.value}]"
        report.regime_counts[bkey] = report.regime_counts.get(bkey, 0) + 1
    return report


def render_report(report: VerifyReport) -> str:
    """Fixed-width text rendering, stable across runs with the same seed."""
    width = max(len(name) for name in PROPERTY_NAMES)
    # perfbench/reference.json pins this header; the frequencies are the baseline's
    lines = [f"verification: trials={report.trials} seed={report.seed} variant=baseline",
             f"{'property':<{width}}  {'pass':>6} {'fail':>6} {'skip':>6}"]
    for name in PROPERTY_NAMES:
        stats = report.properties[name]
        lines.append(f"{name:<{width}}  {stats.passed:>6} {stats.failed:>6} "
                     f"{stats.skipped:>6}")
    lines.append("regime frequencies:")
    for key in sorted(report.regime_counts):
        lines.append(f"  {key} {report.regime_counts[key]}")
    if report.counterexamples:
        lines.append("counterexamples:")
        lines.extend(f"  {entry}" for entry in report.counterexamples)
    else:
        lines.append("counterexamples: none")
    lines.append(f"result: {'FAIL' if report.failures else 'PASS'} "
                 f"({report.failures} failing checks)")
    return "\n".join(lines)
