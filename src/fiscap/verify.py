"""Seeded property harness: rejection-sampled draws, cross-checked routes.

Each trial derives its own generator from (seed, trial), so results do not
depend on execution order. Every property reports pass, fail, or skip for
every trial; skips mark draws where a property's preconditions do not hold
(undefined threshold, clamped solve, regime flip across probes).
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import bargaining, conflict, fiscal, policy, revolution, statics
from .params import CostSpec, ModelParams, sample_params

Status = str  # "pass" | "fail" | "skip"


@dataclass
class PropertyStats:
    passed: int = 0
    failed: int = 0
    skipped: int = 0


@dataclass
class VerifyReport:
    trials: int
    seed: int
    variant: str
    properties: Dict[str, PropertyStats] = field(default_factory=dict)
    counterexamples: List[str] = field(default_factory=list)
    regime_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def failures(self) -> int:
        return sum(s.failed for s in self.properties.values())


# every property name, in report order
PROPERTY_NAMES = [
    "budget_identity",
    "utility_affine_in_tau2",
    "war_peace_sign_invariance",
    "scale_invariance",
    "threshold_decision_agreement",
    "threshold_at_full_cohesion",
    "threshold_sensitivity_fd",
    "turnover_alpha_derivative",
    "oracle_equivalence",
    "second_order_condition",
    "maximality",
    "corner_consistency",
    "regime_fd_signs",
    "invest_boundary_lambda_zero",
    "bargain_share_valid",
    "bargain_offer_beats_war",
    "bargain_share_monotonic",
    "bargain_interior_shrinks_with_alpha",
    "bargain_accept_tau2_independent",
    "variant_threshold_ordering",
    "variant_equal_at_zero_cohesion",
    "variant_peace_identity",
    "variant_war_derivative",
    "variant_oracle_equivalence",
]

Outcome = Tuple[str, Status, Optional[str]]


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _budget_ok(out: policy.PolicyOutcome, m: float) -> bool:
    return abs(out.budget_gap(m)) <= 1e-12


def _trial_outcomes(trial: int, seed: int,
                    variant: str) -> Tuple[List[Outcome], str, str]:
    """Run every property for one trial; returns outcomes plus regime labels."""
    grid_step = fiscal.GRID_STEP
    rng = np.random.default_rng(np.random.SeedSequence((seed, trial)))
    params = sample_params(rng)
    cost = CostSpec(kind="quadratic", c=float(rng.uniform(0.5, 5.0)))
    bparams = sample_params(rng, bargaining=True)
    tau2_probe = float(rng.uniform(params.tau1, 1.0))
    offer_probe = float(rng.uniform(0.0, 1.0))

    outcomes: List[Outcome] = []

    def record(name: str, status: Status, detail: Optional[str] = None):
        outcomes.append((name, status, detail))

    def check(name: str, ok: bool, detail: str = ""):
        record(name, "pass" if ok else "fail", None if ok else detail)

    use_variant = variant == "revolution"
    result = fiscal.solve_equilibrium(params, cost)
    vresult = revolution.revolution_solve(params, cost)
    if use_variant:
        gamma, tau2_star, flags = vresult.gamma_prime, vresult.tau2_star_prime, vresult.flags
        eu_I1, brute_force = (revolution.expected_utility_I1_variant,
                              revolution.brute_force_tau2_variant)
        closed = revolution._tau2_solution(params, cost, gamma)
    else:
        gamma, tau2_star, flags = result.gamma, result.tau2_star, result.flags
        eu_I1, brute_force = policy.expected_utility_I1, fiscal.brute_force_tau2
        closed = fiscal.optimal_tau2(params, cost, gamma)
    war = gamma == 1

    # budget identities on every policy the solve emits, plus all period-2 kinds
    outs = [result.period1] + list(result.period2_by_kind.values())
    outs.append(policy.period2_policy(policy.OutcomeKind.OPPOSITION_RULES_POST_REVOLUTION,
                                      tau2_probe, params.sigma_d, params.sigma_f, params.m))
    check("budget_identity", all(_budget_ok(o, params.m) for o in outs),
          "budget residual above 1e-12")

    # utilities are affine in tau2: exact midpoint collinearity
    a, b = params.tau1, min(1.0, params.tau1 + 0.5)
    mid = (a + b) / 2.0
    affine = True
    for wflag in (False, True):
        ya = policy.expected_utility_O1(params, a, wflag)
        yb = policy.expected_utility_O1(params, b, wflag)
        ym = policy.expected_utility_O1(params, mid, wflag)
        affine &= abs(ym - (ya + yb) / 2.0) <= 1e-12 * max(1.0, abs(ya), abs(yb))
    check("utility_affine_in_tau2", affine, "midpoint collinearity violated")

    # the war-vs-peace comparison has one sign for every positive tau2
    gaps = [policy.expected_utility_O1(params, t2, True)
            - policy.expected_utility_O1(params, t2, False)
            for t2 in (0.1, 0.5, 0.9, 1.0)]
    if abs(gaps[-1]) <= 1e-12 * params.m:
        record("war_peace_sign_invariance", "skip", None)
    else:
        same = all((g > 0) == (gaps[-1] > 0) for g in gaps)
        check("war_peace_sign_invariance", same, f"gaps={gaps!r}")

    # income is a pure scale at zero investment
    k = 3.0
    scaled = params.replace(m=params.m * k)
    pol = policy.period2_policy(policy.OutcomeKind.INCUMBENT_RETAINS, tau2_probe,
                                params.sigma_d, params.sigma_f, params.m)
    pol_k = policy.period2_policy(policy.OutcomeKind.INCUMBENT_RETAINS, tau2_probe,
                                  params.sigma_d, params.sigma_f, scaled.m)
    eu = policy.expected_utility_O1(params, tau2_probe, war)
    eu_k = policy.expected_utility_O1(scaled, tau2_probe, war)
    check("scale_invariance",
          _rel_close(pol_k.r_inc, k * pol.r_inc, 1e-12) and _rel_close(eu_k, k * eu, 1e-12),
          "scaling m did not scale transfers/utilities")

    # the closed-form threshold and the direct comparison agree when defined
    threshold = conflict.civil_war_threshold(params)
    if threshold is None:
        record("threshold_decision_agreement", "skip", None)
    else:
        check("threshold_decision_agreement",
              (params.sigma_f > threshold) == (result.gamma == 1),
              f"threshold={threshold!r} gamma={result.gamma}")

    # perfectly cohesive institutions force the threshold to 2
    full = params.replace(sigma_d=1.0)
    t_full = conflict.civil_war_threshold(full)
    check("threshold_at_full_cohesion",
          t_full is not None and abs(t_full - 2.0) <= 1e-12,
          f"threshold at sigma_d=1 was {t_full!r}")

    # closed-form threshold sensitivities against central differences
    num, den, _ = conflict._threshold_parts(params)
    if threshold is None or den < 0.05:
        record("threshold_sensitivity_fd", "skip", None)
    else:
        sens = conflict.threshold_sensitivities(params)
        ok, detail = True, ""
        for wrt, attr in (("d_sigma_d", "sigma_d"), ("d_lambda", "lam"), ("d_alpha", "alpha")):
            x = getattr(params, attr)
            h = 1e-6
            lo_t = conflict.civil_war_threshold(params.replace(**{attr: x - h}))
            hi_t = conflict.civil_war_threshold(params.replace(**{attr: x + h}))
            if lo_t is None or hi_t is None:
                ok = None
                break
            fd = (hi_t - lo_t) / (2.0 * h)
            if not _rel_close(fd, sens[wrt], 1e-6):
                ok, detail = False, f"{wrt}: fd={fd!r} closed={sens[wrt]!r}"
                break
        if ok is None:
            record("threshold_sensitivity_fd", "skip", None)
        else:
            check("threshold_sensitivity_fd", ok, detail)

    # turnover is affine in alpha with known slope on each branch
    ok = True
    for g, slope in ((0, -(params.epsilon - params.mu)),
                     (1, params.omega - params.delta + params.rho)):
        h = 1e-6
        lo_p = conflict.turnover_probability(params.replace(alpha=params.alpha - h), g)
        hi_p = conflict.turnover_probability(params.replace(alpha=params.alpha + h), g)
        ok &= abs((hi_p - lo_p) / (2.0 * h) - slope) <= 1e-9
    check("turnover_alpha_derivative", ok, "turnover slope mismatch")

    # closed-form investment equals the grid argmax when nothing clamps
    clamped = flags.clamped_at_tau_max or flags.clamped_for_feasibility
    if clamped:
        record("oracle_equivalence", "skip", None)
    else:
        bf = brute_force(params, cost, gamma)
        check("oracle_equivalence", abs(tau2_star - bf) <= 2.0 * grid_step,
              f"closed={tau2_star!r} grid={bf!r}")

    # objective is concave in tau2
    hi_feas = fiscal.max_feasible_tau2(params, cost)
    grid = np.linspace(params.tau1, hi_feas, 201)
    vals = eu_I1(params, cost, grid, war)
    second = np.diff(vals, n=2)
    check("second_order_condition", bool(np.all(second <= 1e-12)),
          f"max second difference {float(second.max())!r}")

    # the reported optimum beats nearby feasible points
    probes = [tau2_star - 10 * grid_step, tau2_star + 10 * grid_step]
    probes = [t2 for t2 in probes if params.tau1 <= t2 <= hi_feas]
    v_star = eu_I1(params, cost, tau2_star, war)
    check("maximality",
          all(v_star >= eu_I1(params, cost, t2, war) - 1e-12 * max(1.0, abs(v_star))
              for t2 in probes),
          "a nearby point beats the reported optimum")

    # corner flag, zero marginal benefit, and tau2*=tau1 line up
    if clamped:
        record("corner_consistency", "skip", None)
    else:
        agree = (flags.corner == (closed.argument <= 0.0)
                 == (abs(tau2_star - params.tau1) == 0.0))
        check("corner_consistency", agree,
              f"corner={flags.corner} argument={closed.argument!r} tau2={tau2_star!r}")

    # finite-difference signs match the regime labels (baseline solver)
    cls = statics.classify(params)
    guard = (cls.boundary_flags["near_war_threshold"]
             or cls.boundary_flags["near_corner"]
             or abs(statics.investment_condition(params)) * params.m / cost.c <= 1e-7)
    slopes = statics.finite_difference(params, cost, "alpha")
    interior = (not result.flags.corner
                and not result.flags.clamped_at_tau_max
                and not result.flags.clamped_for_feasibility)
    if guard or not slopes.regime_stable or not interior:
        record("regime_fd_signs", "skip", None)
    else:
        ok = (slopes.phi > 0) == (cls.prop1 is statics.TurnoverResponse.UP)
        if cls.prop2 is statics.InvestmentRegime.INVEST_UP:
            ok &= slopes.tau2 > 0
        elif cls.prop2 in (statics.InvestmentRegime.WAR, statics.InvestmentRegime.INVEST_DOWN):
            ok &= slopes.tau2 < 0
        else:
            ok &= abs(slopes.tau2) <= 1e-8 * params.m / cost.c
        check("regime_fd_signs", ok,
              f"prop1={cls.prop1.value} prop2={cls.prop2.value} "
              f"fd_phi={slopes.phi!r} fd_tau={slopes.tau2!r}")

    # at lam=0 the investment-direction boundary is where epsilon*(1-sigma_d)=mu
    flat = params.replace(lam=0.0)
    eps_star = flat.mu / (1.0 - flat.sigma_d)
    lo_eps, hi_eps = eps_star - 0.01, eps_star + 0.01
    if hi_eps >= 1.0 or lo_eps <= flat.mu:
        record("invest_boundary_lambda_zero", "skip", None)
    else:
        lo_p, hi_p = flat.replace(epsilon=lo_eps), flat.replace(epsilon=hi_eps)
        if (conflict.civil_war_decision(lo_p).gamma == 1
                or conflict.civil_war_decision(hi_p).gamma == 1):
            record("invest_boundary_lambda_zero", "skip", None)
        else:
            check("invest_boundary_lambda_zero",
                  statics.classify(lo_p).prop2 is statics.InvestmentRegime.INVEST_DOWN
                  and statics.classify(hi_p).prop2 is statics.InvestmentRegime.INVEST_UP,
                  "labels did not flip across the boundary")

    # constitutional stage: share validity and the binding acceptance constraint
    outcome = bargaining.bargaining_outcome(bparams)
    if outcome.regime is not bargaining.BargainingRegime.ACCEPTED_POSITIVE:
        record("bargain_share_valid", "skip", None)
        record("bargain_offer_beats_war", "skip", None)
        record("bargain_share_monotonic", "skip", None)
    else:
        share = outcome.sigma_d2_star
        slack = (bargaining.inside_value(bparams, share, 0.5)
                 - bargaining.reservation_value(bparams, 0.5))
        check("bargain_share_valid",
              0.0 < share <= 1.0 and abs(slack) <= 1e-10,
              f"share={share!r} slack={slack!r}")
        check("bargain_offer_beats_war",
              bargaining.offer_value_I1(bparams, share, 0.5)
              > bargaining.reject_value_I1(bparams, 0.5),
              "offering did not beat rejection for the proposer")
        h = 1e-5
        ok = True
        for attr in ("alpha", "sigma_f"):
            x = getattr(bparams, attr)
            lo_b = bargaining.bargaining_outcome(bparams.replace(**{attr: max(x - h, 0.0)}))
            hi_b = bargaining.bargaining_outcome(bparams.replace(**{attr: min(x + h, 1.0)}))
            if (lo_b.regime is not bargaining.BargainingRegime.ACCEPTED_POSITIVE
                    or hi_b.regime is not bargaining.BargainingRegime.ACCEPTED_POSITIVE):
                ok = None
                break
            ok &= hi_b.sigma_d2_star > lo_b.sigma_d2_star
        if ok is None:
            record("bargain_share_monotonic", "skip", None)
        else:
            check("bargain_share_monotonic", bool(ok), "share not increasing")

    # more external risk makes the interior-offer condition harder to satisfy
    if bparams.alpha + 0.05 > 1.0:
        record("bargain_interior_shrinks_with_alpha", "skip", None)
    else:
        bumped = bparams.replace(alpha=bparams.alpha + 0.05)
        check("bargain_interior_shrinks_with_alpha",
              bargaining.condition11_lhs(bumped) > bargaining.condition11_lhs(bparams),
              "interior condition loosened as alpha rose")

    # acceptance never depends on the capacity it will apply to
    answers = {bargaining.o1_accept_decision(bparams, offer_probe, t2)
               for t2 in (0.1, 0.5, 1.0)}
    check("bargain_accept_tau2_independent", len(answers) == 1,
          f"decision varied with tau2 at offer {offer_probe!r}")

    # the revolution rule never raises the war threshold
    t_prime = revolution.revolution_threshold(params)
    if threshold is None or t_prime is None:
        record("variant_threshold_ordering", "skip", None)
    else:
        check("variant_threshold_ordering", t_prime <= threshold + 1e-12,
              f"prime={t_prime!r} baseline={threshold!r}")

    # at zero cohesiveness the rule pays nothing anyway: variants coincide
    zero = params.replace(sigma_d=0.0)
    t0, t0p = conflict.civil_war_threshold(zero), revolution.revolution_threshold(zero)
    base0 = fiscal.solve_equilibrium(zero, cost)
    var0 = revolution.revolution_solve(zero, cost)
    same_threshold = ((t0 is None and t0p is None)
                      or (t0 is not None and t0p is not None and abs(t0 - t0p) <= 1e-12))
    check("variant_equal_at_zero_cohesion",
          same_threshold and base0.gamma == var0.gamma_prime
          and base0.tau2_star == var0.tau2_star_prime,
          f"baseline={base0.tau2_star!r} variant={var0.tau2_star_prime!r}")

    # without a war there is no revolution: peace solves are identical
    if vresult.gamma_prime == 1:
        record("variant_peace_identity", "skip", None)
    else:
        check("variant_peace_identity",
              result.gamma == 0 and vresult.tau2_star_prime == result.tau2_star,
              f"variant={vresult.tau2_star_prime!r} baseline={result.tau2_star!r}")

    # interior variant war solutions move against external risk at known slope
    if vresult.gamma_prime == 0:
        record("variant_war_derivative", "skip", None)
    else:
        h = 1e-6
        expected = -params.m * (params.omega - params.delta + params.rho) / cost.c
        lo_v = revolution.revolution_solve(params.replace(alpha=params.alpha - h), cost)
        hi_v = revolution.revolution_solve(params.replace(alpha=params.alpha + h), cost)
        stable = (lo_v.gamma_prime == hi_v.gamma_prime == 1
                  and lo_v.flags == hi_v.flags == vresult.flags
                  and not vresult.flags.corner
                  and not vresult.flags.clamped_at_tau_max
                  and not vresult.flags.clamped_for_feasibility)
        if not stable:
            record("variant_war_derivative", "skip", None)
        else:
            fd = (hi_v.tau2_star_prime - lo_v.tau2_star_prime) / (2.0 * h)
            check("variant_war_derivative",
                  fd < 0 and _rel_close(fd, expected, 1e-6),
                  f"fd={fd!r} expected={expected!r}")

    # the variant closed form also matches its own grid oracle
    vclamped = vresult.flags.clamped_at_tau_max or vresult.flags.clamped_for_feasibility
    if vclamped:
        record("variant_oracle_equivalence", "skip", None)
    else:
        bf = revolution.brute_force_tau2_variant(params, cost, vresult.gamma_prime)
        check("variant_oracle_equivalence",
              abs(vresult.tau2_star_prime - bf) <= 2.0 * grid_step,
              f"closed={vresult.tau2_star_prime!r} grid={bf!r}")

    regime_label = f"{cls.prop1.value}/{cls.prop2.value}/{cls.prop3.value}"
    bargain_label = outcome.regime.value
    detail_params = f"params={params!r} bargaining_params={bparams!r} cost={cost!r}"
    outcomes = [(n, s, None if d is None else f"{d}; {detail_params}")
                for n, s, d in outcomes]
    return outcomes, regime_label, bargain_label


def run_trials(trials: int, seed: int, variant: str = "baseline",
               workers: int = 1, max_counterexamples: int = 50) -> VerifyReport:
    """Run the whole property suite; deterministic for a given seed.
    `workers` must be 1; it stays only for perfbench/run.py, which passes it."""
    revolution._check_variant(variant)
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers!r}")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    report = VerifyReport(trials=trials, seed=seed, variant=variant)
    for name in PROPERTY_NAMES:
        report.properties[name] = PropertyStats()

    for trial in range(trials):
        outcomes, regime_label, bargain_label = _trial_outcomes(trial, seed, variant)
        for name, status, detail in outcomes:
            stats = report.properties[name]
            if status == "pass":
                stats.passed += 1
            elif status == "fail":
                stats.failed += 1
                if len(report.counterexamples) < max_counterexamples:
                    report.counterexamples.append(
                        f"{name} trial={trial}: {detail}")
            else:
                stats.skipped += 1
        key = f"regime[{regime_label}]"
        report.regime_counts[key] = report.regime_counts.get(key, 0) + 1
        bkey = f"bargaining[{bargain_label}]"
        report.regime_counts[bkey] = report.regime_counts.get(bkey, 0) + 1
    return report


def render_report(report: VerifyReport) -> str:
    """Fixed-width text rendering, stable across runs with the same seed."""
    width = max(len(name) for name in PROPERTY_NAMES)
    lines = [f"verification: trials={report.trials} seed={report.seed} "
             f"variant={report.variant}",
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
