"""Model primitives, assumption checks, and the investment-cost specification.

Every other module takes a validated ModelParams. The type checks its own
ranges: every construction, `replace` and `dataclasses.replace` included,
rejects a field outside its range with a `range:<field>` code. The model
inequalities (rho > mu, omega > delta, ...) are checked by `check_params`,
because the constitutional stage waives omega > delta. Validation is total:
all violated conditions are collected and reported together, never one at
a time.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

# Attribute names in declaration order; "lambda" is a reserved word in Python,
# so the attribute is "lam" while config files and CLI flags use "lambda".
FIELD_ORDER = [
    "alpha", "lambda", "epsilon", "delta", "rho", "mu", "omega",
    "sigma_d", "sigma_f", "m", "tau1", "tau_max",
]
KEY_TO_ATTR = {name: ("lam" if name == "lambda" else name) for name in FIELD_ORDER}
DEFAULTS = {"m": 1.0, "tau1": 0.0, "tau_max": 1.0}
PROBABILITY_FIELDS = [
    "alpha", "lambda", "epsilon", "delta", "rho", "mu", "omega", "sigma_d", "sigma_f",
]
SAMPLE_MARGIN = 0.01  # slack sample_params leaves on every strict inequality
MAX_M = 1e300  # income cap: payoffs (up to 2*tau2*m) and their sums stay finite


@dataclass(frozen=True)
class ModelParams:
    """Primitives of the two-period game, all per the model's interpretation."""

    alpha: float     # probability of interstate conflict
    lam: float       # probability the opposition is installed when the foreign power wins
    epsilon: float   # opposition election-win probability absent any conflict
    delta: float     # opposition civil-war-win probability absent external conflict
    rho: float       # foreign interstate-win probability given a civil war
    mu: float        # foreign interstate-win probability given no civil war
    omega: float     # opposition civil-war-win probability given simultaneous external conflict
    sigma_d: float   # cohesiveness of domestic institutions (share owed to the opposition)
    sigma_f: float   # share of foreign-administration transfers paid to the opposition
    m: float = 1.0       # per-member income (pure scale)
    tau1: float = 0.0    # initial fiscal capacity
    tau_max: float = 1.0  # upper bound on the feasible tax rate

    def __post_init__(self):
        violations = _check_ranges(self.as_dict())
        if violations:
            raise AssumptionViolation(violations)

    def as_dict(self) -> Dict[str, float]:
        """Field map keyed by the external (config-file) names."""
        return {key: getattr(self, attr) for key, attr in KEY_TO_ATTR.items()}

    def replace(self, **attrs) -> "ModelParams":
        return replace(self, **attrs)


@dataclass(frozen=True)
class Violation:
    """One violated validity condition, named by what it requires."""

    which: str
    message: str


class AssumptionViolation(ValueError):
    """Raised with the complete list of violations found during validation."""

    def __init__(self, violations: Sequence[Violation]):
        self.violations = list(violations)
        super().__init__("; ".join(v.message for v in self.violations))


class NonConvexCost(ValueError):
    """Raised when a tabulated cost's marginal is not strictly increasing."""


@dataclass(frozen=True)
class CostSpec:
    """Strictly convex investment cost with zero value and zero marginal at zero.

    kind="quadratic" uses C(x) = c*x^2/2. kind="custom" interpolates a
    tabulated marginal piecewise-linearly between knots (extended linearly
    beyond the last knot) and integrates it exactly for the cost value.
    """

    kind: str = "quadratic"
    c: float = 1.0
    knots: Tuple[float, ...] = ()      # custom only: x grid, starting at 0
    marginals: Tuple[float, ...] = ()  # custom only: marginal cost at each knot

    def __post_init__(self):
        if self.kind == "quadratic":
            if not 0.0 < self.c < math.inf:
                raise ValueError(f"quadratic cost requires finite c > 0, got {self.c!r}")
            if len(self.knots) or len(self.marginals):
                raise ValueError("quadratic cost takes no knot or marginal table")
            return
        if self.kind != "custom":
            raise ValueError(f"unknown cost kind: {self.kind}")
        if self.c != 1.0:
            raise ValueError(f"custom cost takes its scale from the table, not c={self.c!r}")
        xs = np.asarray(self.knots, dtype=float)
        ms = np.asarray(self.marginals, dtype=float)
        if xs.size < 2 or xs.size != ms.size:
            raise ValueError("custom cost needs matching knot and marginal tables")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ms))):
            raise ValueError("custom cost knots and marginals must be finite")
        if xs[0] != 0.0 or ms[0] != 0.0:
            raise ValueError("custom cost requires a knot at 0 with zero marginal")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("custom cost knots must be strictly increasing")
        if np.any(np.diff(ms) <= 0):
            raise NonConvexCost("marginal cost must be strictly increasing")

    @cached_property
    def _table(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """Custom cost's (knots, marginals, cost at each knot, tail slope),
        built once per instance; not a field, so eq, hash and repr ignore it."""
        xs = np.asarray(self.knots)
        ms = np.asarray(self.marginals)
        seg = np.diff(xs)
        # exact integral of the piecewise-linear marginal up to each knot
        cum = np.concatenate([[0.0], np.cumsum(seg * (ms[:-1] + ms[1:]) / 2.0)])
        slope = (ms[-1] - ms[-2]) / (xs[-1] - xs[-2])
        return xs, ms, cum, slope

    def marginal(self, x):
        """Marginal cost at investment x >= 0 (vectorized)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "quadratic":
            out = self.c * x
        else:
            xs, ms, _, slope = self._table
            out = np.where(x <= xs[-1], np.interp(x, xs, ms), ms[-1] + slope * (x - xs[-1]))
        return out if out.ndim else float(out)

    def value(self, x):
        """C(x) for investment x >= 0 (vectorized); C(0) = 0."""
        x = np.asarray(x, dtype=float)
        if np.any(x < 0):
            raise ValueError("investment cannot be negative")
        if self.kind == "quadratic":
            out = self.c * x ** 2 / 2.0
        else:
            xs, ms, cum, slope = self._table
            # x >= 0 = xs[0] puts idx at 0 or above; cap it at the last segment
            idx = np.minimum(np.searchsorted(xs, x, side="right") - 1, xs.size - 2)
            x0, x1 = xs[idx], xs[idx + 1]
            m0, m1 = ms[idx], ms[idx + 1]
            inside = np.minimum(x, xs[-1])
            frac = inside - x0
            # trapezoid of the linear marginal from x0 to min(x, last knot)
            m_at = m0 + (m1 - m0) / (x1 - x0) * frac
            out = cum[idx] + frac * (m0 + m_at) / 2.0
            extra = x - inside
            # extra * extra: on a numpy scalar, ** 2 is pow and can land an ulp off
            out = out + extra * ms[-1] + slope * (extra * extra) / 2.0
        return out if out.ndim else float(out)


def _check_ranges(values: Mapping[str, float]) -> List[Violation]:
    found = []
    for key in PROBABILITY_FIELDS:
        v = values[key]
        if not (0.0 <= v <= 1.0):
            found.append(Violation(f"range:{key}", f"{key}={v!r} must be in [0, 1]"))
    if not 0.0 < values["m"] <= MAX_M:
        found.append(Violation("range:m", f"m={values['m']!r} must be in (0, {MAX_M:g}]"))
    if not (0.0 <= values["tau1"] <= values["tau_max"] <= 1.0):
        found.append(Violation(
            "range:tau1",
            f"requires 0 <= tau1 <= tau_max <= 1 (tau1={values['tau1']!r}, "
            f"tau_max={values['tau_max']!r})"))
    return found


def check_params(values: Mapping[str, float],
                 bargaining: bool = False) -> List[Violation]:
    """All violated conditions for a complete field map (empty list if valid).

    bargaining=True waives the omega > delta condition: the constitutional
    stage pins delta = epsilon, and delta never enters its formulas on its
    own, so points sitting exactly on that boundary stay solvable there.
    """
    found = _check_ranges(values)
    if not values["rho"] > values["mu"]:
        found.append(Violation("rho_gt_mu", "requires rho > mu"))
    if not bargaining and not values["omega"] > values["delta"]:
        found.append(Violation("omega_gt_delta", "requires omega > delta"))
    if not values["epsilon"] > values["mu"]:
        found.append(Violation("epsilon_gt_mu", "requires epsilon > mu"))
    if values["omega"] + values["rho"] > 1.0:
        found.append(Violation("lottery_overflow", "requires omega + rho <= 1"))
    return found


def validate_params(raw: Mapping[str, float], bargaining: bool = False) -> ModelParams:
    """Build a validated ModelParams from a field map (external key names).

    Raises AssumptionViolation carrying every violation found: missing or
    unknown fields, out-of-range values, and violated model inequalities.
    """
    violations: List[Violation] = []
    values: Dict[str, float] = {}
    for key in FIELD_ORDER:
        if key in raw:
            values[key] = float(raw[key])
        elif key in DEFAULTS:
            values[key] = DEFAULTS[key]
        else:
            violations.append(Violation(f"missing:{key}", f"missing field: {key}"))
    for key in raw:
        if key not in KEY_TO_ATTR:
            violations.append(Violation(f"unknown:{key}", f"unknown field: {key}"))
    if violations:
        raise AssumptionViolation(violations)

    violations = check_params(values, bargaining=bargaining)
    if violations:
        raise AssumptionViolation(violations)
    return ModelParams(**{KEY_TO_ATTR[k]: v for k, v in values.items()})


def parse_config_text(text: str) -> Dict[str, float]:
    """Parse flat key=value config text; '#' starts a comment, blank lines skipped."""
    values: Dict[str, float] = {}
    lines_of: Dict[str, List[int]] = {}
    violations: List[Violation] = []
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            violations.append(Violation(
                "parse:line", f"line {lineno}: expected key=value, got {line!r}"))
            continue
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        lines_of.setdefault(key, []).append(lineno)
        try:
            values[key] = float(val)
        except ValueError:
            violations.append(Violation(f"parse:{key}", f"invalid value for {key}: {val!r}"))
    for key, linenos in lines_of.items():
        if len(linenos) > 1:
            violations.append(Violation(
                f"duplicate:{key}",
                f"duplicate key {key} on lines {', '.join(map(str, linenos))}"))
    if violations:
        raise AssumptionViolation(violations)
    return values


def sample_params(rng: np.random.Generator, bargaining: bool = False) -> ModelParams:
    """Rejection-sample one valid ModelParams with every strict inequality
    satisfied by at least SAMPLE_MARGIN, keeping finite-difference probes
    inside a single regime. With bargaining=True the draw additionally
    satisfies the constitutional-stage assumptions (delta = epsilon,
    epsilon <= 1/2 with margin, and the interior condition on the proposer's
    value). A draw that passes the loop's tests is valid as it stands.
    """
    margin = SAMPLE_MARGIN
    while True:
        vals = rng.uniform(margin, 1.0 - margin, size=9)
        alpha, lam, epsilon, delta, rho, mu, omega, sigma_d, sigma_f = vals
        if bargaining:
            delta = epsilon
        if rho - mu < margin or omega - delta < margin or epsilon - mu < margin:
            continue
        if omega + rho > 1.0 - margin:
            continue
        if bargaining:
            if epsilon > 0.5 - margin:
                continue
            if (1 - alpha) * epsilon + alpha * mu * (1 + lam) / 2 >= 0.5 - margin:
                continue
            sigma_d = 0.0  # the constitutional stage starts from zero cohesiveness
        return ModelParams(
            alpha=alpha, lam=lam, epsilon=epsilon, delta=delta, rho=rho, mu=mu,
            omega=omega, sigma_d=sigma_d, sigma_f=sigma_f,
            m=float(rng.uniform(0.5, 2.0)), tau1=float(rng.uniform(0.05, 0.45)),
            tau_max=1.0)
