"""Acceptance gate: eight numbered end-to-end criteria with pinned tolerances.

Every test prints one `[criterion N] PASS` or `[criterion N] FAIL` line on the
real stderr stream (bypassing pytest capture) before asserting, so a plain
`pytest -v` run always shows the verdict for each criterion.

All randomness is seeded per (criterion tag, trial index), so every run checks
the identical set of parameter draws.
"""

import hashlib
import sys
import time

import numpy as np
import pytest

from fiscap import (AssumptionViolation, CostSpec, InvestmentRegime, bargaining_outcome,
                    brute_force_tau2, civil_war_decision, civil_war_threshold,
                    classify, expected_utility_O1, finite_difference,
                    inside_value, investment_condition, offer_value_I1,
                    optimal_tau2, period1_policy, period2_policy,
                    reject_value_I1, reservation_value, revolution_solve,
                    revolution_threshold, sample_params, solve_equilibrium)
from fiscap.bargaining import BargainingRegime
from fiscap.cli import CSV_HEADER, parse_axis, sweep_rows
from fiscap.conflict import THRESHOLD_COMPARISON
from fiscap.policy import OutcomeKind

from conftest import regime_map_point


@pytest.fixture
def verdict(capfd):
    """Print one visible `[criterion N] PASS/FAIL` line, then assert."""

    def _verdict(n: int, failures) -> None:
        ok = not failures
        with capfd.disabled():
            print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}",
                  file=sys.stderr, flush=True)
        assert ok, (f"criterion {n}: {len(failures)} failures; "
                    f"first: {failures[:3]}")

    return _verdict


def _draw(tag: int, trial: int, bargaining: bool = False):
    """One seeded draw plus a quadratic cost coefficient in [0.5, 5]."""
    rng = np.random.default_rng(np.random.SeedSequence((tag, trial)))
    params = sample_params(rng, bargaining=bargaining)
    cost = CostSpec(kind="quadratic", c=float(rng.uniform(0.5, 5.0)))
    return params, cost


def test_criterion_1_closed_form_matches_grid_oracle(verdict):
    """|closed-form tau2* - grid argmax (step 1e-4)| <= 2e-4 on unclamped
    draws; 1000 seeded draws; loop runtime under 60 s single-threaded."""
    failures = []
    unclamped = 0
    start = time.perf_counter()
    for t in range(1000):
        params, cost = _draw(42, t)
        gamma = civil_war_decision(params).gamma
        sol = optimal_tau2(params, cost, gamma)
        if sol.flags.clamped_at_tau_max or sol.flags.clamped_for_feasibility:
            continue
        unclamped += 1
        oracle = brute_force_tau2(params, cost, gamma)
        if abs(sol.tau2_star - oracle) > 2e-4:
            failures.append((t, sol.tau2_star, oracle))
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(("runtime_seconds", elapsed))
    if unclamped < 400:
        failures.append(("too_few_unclamped_draws", unclamped))
    verdict(1, failures)


def test_criterion_2_threshold_agrees_with_direct_comparison(verdict):
    """100% threshold/decision agreement whenever the threshold denominator
    is positive; the war-vs-peace utility gap keeps one sign across
    tau2 in {0.1, 0.5, 0.9, 1.0}."""
    failures = []
    defined = 0
    for t in range(1000):
        params, _ = _draw(2, t)
        decision = civil_war_decision(params)
        threshold = civil_war_threshold(params)
        if threshold is not None:
            defined += 1
            expected = 1 if params.sigma_f > threshold else 0
            if decision.gamma != expected:
                failures.append(("disagreement", t, decision.gamma, expected))
            if decision.method != THRESHOLD_COMPARISON:
                failures.append(("method", t, decision.method))
        signs = []
        for tau2 in (0.1, 0.5, 0.9, 1.0):
            war = expected_utility_O1(params, tau2, war=True)
            peace = expected_utility_O1(params, tau2, war=False)
            signs.append(war > peace)
        if len(set(signs)) != 1:
            failures.append(("tau2_dependent_sign", t, signs))
        if signs[0] != (decision.gamma == 1):
            failures.append(("sign_vs_decision", t))
    if defined < 400:
        failures.append(("too_few_defined_thresholds", defined))
    verdict(2, failures)


def test_criterion_3_analytic_threshold_anchors(verdict):
    """Threshold == 2 at full domestic cohesiveness (lambda < 1); the variant
    and baseline thresholds coincide at zero cohesiveness; the variant
    threshold never exceeds the baseline when both are defined."""
    failures = []
    # full cohesiveness: exactly 2 up to 1e-12
    for t in range(500):
        params, _ = _draw(3, t)
        at_one = params.replace(sigma_d=1.0)
        thr = civil_war_threshold(at_one)
        if thr is None or abs(thr - 2.0) > 1e-12:
            failures.append(("full_cohesion", t, thr))
    # zero cohesiveness: baseline and variant agree to 1e-12
    both_defined = 0
    for t in range(500):
        params, _ = _draw(3, t)
        at_zero = params.replace(sigma_d=0.0)
        base = civil_war_threshold(at_zero)
        var = revolution_threshold(at_zero)
        if (base is None) != (var is None):
            failures.append(("definedness_mismatch", t, base, var))
            continue
        if base is None:
            continue
        both_defined += 1
        if abs(base - var) > 1e-12 * max(1.0, abs(base), abs(var)):
            failures.append(("zero_cohesion_gap", t, base, var))
    if both_defined < 300:
        failures.append(("too_few_zero_cohesion_draws", both_defined))
    # ordering on doubly-defined draws at the sampled cohesiveness
    doubly = 0
    for t in range(1000):
        params, _ = _draw(33, t)
        base = civil_war_threshold(params)
        var = revolution_threshold(params)
        if base is None or var is None:
            continue
        doubly += 1
        if var > base + 1e-12 * max(1.0, abs(base)):
            failures.append(("ordering", t, base, var))
    if doubly < 300:
        failures.append(("too_few_doubly_defined_draws", doubly))
    verdict(3, failures)


def test_criterion_4_comparative_statics_signs(verdict):
    """Turnover's alpha-derivative matches the per-branch closed form to 1e-9;
    the sign of tau2*'s alpha-derivative matches the investment-regime label
    on every regime-stable interior draw; constructed boundary points have a
    vanishing derivative."""
    failures = []
    # (a) finite-difference turnover slope vs closed form, both branches
    war_seen = peace_seen = 0
    stable = 0
    for t in range(1000):
        params, cost = _draw(4, t)
        gamma = civil_war_decision(params).gamma
        expected = ((params.omega - params.delta + params.rho) if gamma == 1
                    else -(params.epsilon - params.mu))
        try:
            fd = finite_difference(params, cost, "alpha")
        except AssumptionViolation:
            continue
        if not fd.regime_stable:
            continue
        stable += 1
        if gamma == 1:
            war_seen += 1
        else:
            peace_seen += 1
        if abs(fd.phi - expected) > 1e-9:
            failures.append(("phi_slope", t, fd.phi, expected))
    if stable < 900 or war_seen == 0 or peace_seen == 0:
        failures.append(("phi_coverage", stable, war_seen, peace_seen))

    # (b) investment-response sign vs regime label on interior draws
    sign_checked = 0
    for t in range(1000):
        params, cost = _draw(4, t)
        gamma = civil_war_decision(params).gamma
        sol = optimal_tau2(params, cost, gamma)
        if (sol.flags.corner or sol.flags.clamped_at_tau_max
                or sol.flags.clamped_for_feasibility):
            continue
        if gamma == 1:
            slope = params.m * (-(params.omega - params.delta + params.rho)
                                * (1.0 - params.sigma_d)
                                - params.rho * (1.0 - params.lam)
                                * params.sigma_d) / cost.c
        else:
            slope = params.m * investment_condition(params) / cost.c
        if abs(slope) <= 1e-7:
            continue  # too close to the regime boundary for a sign test
        try:
            fd = finite_difference(params, cost, "alpha")
        except AssumptionViolation:
            continue
        if not fd.regime_stable or fd.corner:
            continue
        sign_checked += 1
        prop2 = classify(params).prop2
        expected_positive = prop2 is InvestmentRegime.INVEST_UP
        if (fd.tau2 > 0.0) != expected_positive or fd.tau2 == 0.0:
            failures.append(("tau2_sign", t, fd.tau2, prop2.value))
    if sign_checked < 150:
        failures.append(("too_few_sign_checks", sign_checked))

    # (c) constructed boundary points: |d tau2*/d alpha| <= 1e-8 * m / c
    evaluated = 0
    attempts = 0
    while evaluated < 100 and attempts < 1000:
        params, cost = _draw(104, attempts)
        attempts += 1
        boundary_sigma = ((params.epsilon - params.mu)
                          / (params.epsilon - params.lam * params.mu))
        probe = params.replace(sigma_d=boundary_sigma)
        if civil_war_decision(probe).gamma == 1:
            continue
        try:
            fd = finite_difference(probe, cost, "alpha")
        except AssumptionViolation:
            continue
        if not fd.regime_stable:
            continue
        evaluated += 1
        if abs(fd.tau2) > 1e-8 * params.m / cost.c:
            failures.append(("boundary_point", attempts - 1, fd.tau2))
    if evaluated < 100:
        failures.append(("too_few_boundary_points", evaluated))
    verdict(4, failures)


def test_criterion_5_worked_points(verdict, p0a, p0b, p0c, p1, cost):
    """The four worked parameter points reproduce their frozen values to
    1e-6 (binding-offer slack to 1e-10)."""
    failures = []

    def check(label, got, want, tol=1e-6):
        if abs(got - want) > tol:
            failures.append((label, got, want))

    res_a = solve_equilibrium(p0a, cost)
    check("p0a_gamma", res_a.gamma, 0, tol=0)
    check("p0a_phi", res_a.phi, 0.2)
    check("p0a_sigma_f_bar", res_a.sigma_f_bar, 1.304348)
    check("p0a_tau2", res_a.tau2_star, p0a.tau1)
    if not res_a.flags.corner:
        failures.append(("p0a_corner", res_a.flags))

    res_b = solve_equilibrium(p0b, cost)
    check("p0b_gamma", res_b.gamma, 1, tol=0)
    check("p0b_phi", res_b.phi, 0.7)
    check("p0b_sigma_f_bar", res_b.sigma_f_bar, -0.731707)

    res_c = solve_equilibrium(p0c, cost)
    check("p0c_gamma", res_c.gamma, 0, tol=0)
    check("p0c_phi", res_c.phi, 0.17)
    check("p0c_tau2", res_c.tau2_star, 0.462)
    fd = finite_difference(p0c, cost, "alpha")
    check("p0c_dtau2_dalpha", fd.tau2, 0.11)
    if not fd.regime_stable:
        failures.append(("p0c_fd_unstable", fd))

    outcome = bargaining_outcome(p1)
    if outcome.regime is not BargainingRegime.ACCEPTED_POSITIVE:
        failures.append(("p1_regime", outcome.regime))
    check("p1_share", outcome.sigma_d2_star, 0.206897)
    slack = (inside_value(p1, outcome.sigma_d2_star, 1.0)
             - reservation_value(p1, 1.0))
    check("p1_binding_slack", slack, 0.0, tol=1e-10)
    verdict(5, failures)


def test_criterion_6_bargained_share_monotone(verdict):
    """On accepted-interior draws the bargained share rises with alpha and
    with sigma_f (finite differences), and the proposer prefers the offer to
    rejection."""
    failures = []
    r4a = 0
    fd_alpha_done = fd_sigma_done = 0

    def share_slope(params, field):
        base = getattr(params, field)
        for h in (1e-5, 1e-7):
            if base - h < 0.0 or base + h > 1.0:
                continue
            lo = bargaining_outcome(params.replace(**{field: base - h}))
            hi = bargaining_outcome(params.replace(**{field: base + h}))
            if (lo.regime is BargainingRegime.ACCEPTED_POSITIVE
                    and hi.regime is BargainingRegime.ACCEPTED_POSITIVE):
                return (hi.sigma_d2_star - lo.sigma_d2_star) / (2.0 * h)
        return None  # probes straddle a regime boundary; measure-zero draw

    for t in range(1000):
        params, _ = _draw(6, t, bargaining=True)
        outcome = bargaining_outcome(params)
        if outcome.regime is not BargainingRegime.ACCEPTED_POSITIVE:
            continue
        r4a += 1
        slope_a = share_slope(params, "alpha")
        if slope_a is not None:
            fd_alpha_done += 1
            if not slope_a > 0.0:
                failures.append(("alpha_slope", t, slope_a))
        slope_s = share_slope(params, "sigma_f")
        if slope_s is not None:
            fd_sigma_done += 1
            if not slope_s > 0.0:
                failures.append(("sigma_f_slope", t, slope_s))
        offer = offer_value_I1(params, outcome.sigma_d2_star, params.tau1)
        reject = reject_value_I1(params, params.tau1)
        if offer < reject - 1e-12 * max(1.0, abs(offer), abs(reject)):
            failures.append(("offer_vs_reject", t, offer, reject))
    if r4a < 200:
        failures.append(("too_few_interior_draws", r4a))
    if fd_alpha_done < r4a - 10 or fd_sigma_done < r4a - 10:
        failures.append(("too_many_fd_skips", r4a, fd_alpha_done, fd_sigma_done))
    verdict(6, failures)


def test_criterion_7_regime_map_replication(verdict, cost):
    """The 101 x 91 sweep over (sigma_d, epsilon) splits the rectangle along
    the analytic war and investment boundaries (within one grid cell), its
    rows are identical across runs, and its CSV is the pinned regime map."""
    failures = []
    base = regime_map_point(epsilon=0.3, sigma_d=0.5)
    axis1 = parse_axis("sigma_d=0:1:0.01")
    axis2 = parse_axis("epsilon=0.1:1:0.01")
    rows = sweep_rows(base, cost, axis1, axis2)
    if len(rows) != 101 * 91:
        failures.append(("row_count", len(rows)))

    # analytic boundaries for the sweep's base parameters
    # (alpha=.5, rho=.5, mu=.1, omega=.5, delta=.4, lam=0, sigma_f=.1)
    def war_boundary_epsilon(sigma_d):
        # sets the war threshold equal to sigma_f: war below this epsilon
        k_star = 0.2 * (2.0 * sigma_d - 0.1) / (2.1 * (1.0 - sigma_d))
        return 0.9 - 2.0 * k_star

    def invest_boundary_epsilon(sigma_d):
        # zero investment condition: capacity rises with alpha above this
        return 0.1 / (1.0 - sigma_d)

    cell = 0.01 * (1.0 + 1e-9)
    seen = {"war": 0, "peace": 0, "2.B.1": 0, "2.B.3": 0}
    for i in range(101):
        sigma_d = i * 0.01
        for j in range(91):
            epsilon = 0.1 + j * 0.01
            fields = rows[i * 91 + j].split(",")
            if j == 0:
                if fields[11] != "invalid":
                    failures.append(("expected_invalid", i, j, fields[11]))
                continue
            if fields[11] != "ok":
                failures.append(("expected_ok", i, j, fields[11]))
                continue
            gamma = int(fields[2])
            prop2 = fields[7]
            seen["war" if gamma == 1 else "peace"] += 1
            if i == 100:
                war_expected = 0  # full cohesiveness: threshold is 2 > sigma_f
            else:
                bound = war_boundary_epsilon(sigma_d)
                if epsilon < bound - cell:
                    war_expected = 1
                elif epsilon > bound + cell:
                    war_expected = 0
                else:
                    war_expected = gamma  # within one cell of the curve
            if gamma != war_expected:
                failures.append(("war_boundary", sigma_d, epsilon, gamma))
            if gamma == 0:
                if i == 100:
                    invest_up = False  # condition is -mu at full cohesiveness
                    near = False
                else:
                    bound = invest_boundary_epsilon(sigma_d)
                    invest_up = epsilon > bound + cell
                    near = abs(epsilon - bound) <= cell
                if not near:
                    expected_label = "2.B.1" if invest_up else "2.B.3"
                    if prop2 != expected_label:
                        failures.append(("invest_boundary", sigma_d, epsilon,
                                         prop2, expected_label))
                if prop2 in seen:
                    seen[prop2] += 1
    for label, count in seen.items():
        if count == 0:
            failures.append(("region_missing", label))

    rows_again = sweep_rows(base, cost, axis1, axis2)
    if rows != rows_again:
        failures.append(("rerun_mismatch",))
    csv = CSV_HEADER + "\n" + "".join(row + "\n" for row in rows)
    digest = hashlib.sha256(csv.encode()).hexdigest()
    # perfbench/reference.json's regime_map digest
    if digest != "9ad657d3f8f2b577a1d0bbdcefb3d17dede34bc2ed54f0494ff117e1bf9db401":
        failures.append(("regime_map_digest", digest))
    verdict(7, failures)


def test_criterion_8_budget_identities(verdict):
    """Every emitted policy outcome balances its period's budget to 1e-12
    relative, across baseline and revolution solves."""
    failures = []
    for t in range(300):
        params, cost = _draw(8, t)

        def check(label, outcome):
            gap = outcome.budget_gap(params.m)
            if abs(gap) > 1e-12:
                failures.append((label, t, gap))

        res = solve_equilibrium(params, cost)
        check("period1", res.period1)
        for kind, outcome in res.period2_by_kind.items():
            check(f"period2[{kind.value}]", outcome)

        var = revolution_solve(params, cost)
        check("variant_period1",
              period1_policy(params.tau1, var.tau2_star_prime, params.sigma_d,
                             params.m, cost))
        for kind in OutcomeKind:
            check(f"variant_period2[{kind.value}]",
                  period2_policy(kind, var.tau2_star_prime, params.sigma_d,
                                 params.sigma_f, params.m))
    verdict(8, failures)
