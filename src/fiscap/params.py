"""Model primitives, assumption checks, and the investment-cost specification.

Every other module takes a validated ModelParams. The type checks its own
ranges: every construction, `replace` and `dataclasses.replace` included,
rejects a field outside its range with a `range:<field>` code. The model
inequalities (rho > mu, omega > delta, ...) are checked by `validate_params`
and `check_params`, on one route that range-checks each point once.
Validation is total: all violated conditions are collected and reported
together, never one at a time.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import attrgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

# Attribute names in declaration order; "lambda" is a reserved word in Python,
# so the attribute is "lam" while config files and CLI flags use "lambda".
FIELD_ORDER = [
    "alpha", "lambda", "epsilon", "delta", "rho", "mu", "omega",
    "sigma_d", "sigma_f", "m", "tau1", "tau_max",
]
KEY_TO_ATTR = {name: ("lam" if name == "lambda" else name) for name in FIELD_ORDER}
DEFAULTS = {"m": 1.0, "tau1": 0.0, "tau_max": 1.0}
PROBABILITY_FIELDS = FIELD_ORDER[:9]  # the rest are m, tau1 and tau_max
_BY_ATTR = attrgetter(*KEY_TO_ATTR.values())   # field values of a ModelParams
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
        violations = _check_ranges(_BY_ATTR(self))
        if violations:
            raise AssumptionViolation(violations)

    def as_dict(self) -> Dict[str, float]:
        """Field map keyed by the external (config-file) names."""
        return {key: getattr(self, attr) for key, attr in KEY_TO_ATTR.items()}

    def replace(self, **attrs) -> "ModelParams":
        """A copy with `attrs` changed, as `dataclasses.replace` makes it."""
        return type(self)(**{**self.__dict__, **attrs})


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
    `value` and `marginal` compute a scalar in Python floats and return a
    float, and an array in numpy, with the same bits at every point.
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
    def _table(self) -> Tuple[Tuple[float, ...], ...]:
        """Custom cost's (knots, marginals, cost at each knot, slope from each
        knot on) as float tuples; past the last knot the last segment's slope
        goes on. Built once per instance; not a field, so eq, hash and repr
        ignore it."""
        xs, ms = tuple(map(float, self.knots)), tuple(map(float, self.marginals))
        segs = tuple(zip(xs, xs[1:], ms, ms[1:]))
        # exact integral of the piecewise-linear marginal up to each knot
        cum = (0.0, *accumulate((x1 - x0) * (m0 + m1) / 2.0 for x0, x1, m0, m1 in segs))
        slopes = tuple((m1 - m0) / (x1 - x0) for x0, x1, m0, m1 in segs)
        return xs, ms, cum, slopes + slopes[-1:]

    @cached_property
    def _arrays(self) -> Tuple[np.ndarray, ...]:
        """`_table` as numpy arrays, for array inputs."""
        return tuple(map(np.array, self._table))

    def _segment(self, x):
        """Index j of the last knot at or below x (x >= 0 puts it at 0 or
        above), and the table in the form that matches x."""
        if isinstance(x, np.ndarray):
            table = self._arrays
            return np.searchsorted(table[0], x, side="right") - 1, table
        table = self._table
        return bisect_right(table[0], x) - 1, table

    def marginal(self, x):
        """Marginal cost at investment x >= 0 (vectorized)."""
        x = _investment(x)
        if self.kind == "quadratic":
            out = self.c * x
        else:
            j, (xs, ms, _, slopes) = self._segment(x)
            # np.interp's formula; at a knot x - xs[j] is 0, so it gives ms[j]
            out = slopes[j] * (x - xs[j]) + ms[j]
        return out if isinstance(out, np.ndarray) else float(out)

    def value(self, x):
        """C(x) for investment x >= 0 (vectorized); C(0) = 0."""
        x = _investment(x)
        if self.kind == "quadratic":
            out = self.c * (x * x) / 2.0  # x ** 2 is libm pow on a float
        else:
            j, (xs, ms, cum, slopes) = self._segment(x)
            minimum = np.minimum if isinstance(x, np.ndarray) else min
            i = minimum(j, len(xs) - 2)  # the last knot and the tail: last segment
            inside = minimum(x, xs[-1])
            frac = inside - xs[i]
            # trapezoid of the linear marginal from xs[i] to min(x, last knot)
            m_at = ms[i] + slopes[i] * frac
            out = cum[i] + frac * (ms[i] + m_at) / 2.0
            extra = x - inside
            out = out + extra * ms[-1] + slopes[-1] * (extra * extra) / 2.0
        return out if isinstance(out, np.ndarray) else float(out)


def _investment(x):
    """x as a Python float (from a Python or numpy scalar) or as a float
    array; rejects a non-finite or negative investment."""
    if isinstance(x, (float, int, np.number)):
        x = float(x)
        finite, negative = math.isfinite(x), x < 0.0
    else:
        x = np.asarray(x, dtype=float)
        finite, negative = np.isfinite(x).all(), (x < 0.0).any()
    if not finite:
        raise ValueError("investment must be finite")
    if negative:
        raise ValueError("investment cannot be negative")
    return x


def _check_ranges(values: Sequence[float]) -> List[Violation]:
    """Range violations of the field values, given in FIELD_ORDER."""
    *probabilities, m, tau1, tau_max = values
    found = [Violation(f"range:{key}", f"{key}={v!r} must be in [0, 1]")
             for key, v in zip(PROBABILITY_FIELDS, probabilities) if not 0.0 <= v <= 1.0]
    if not 0.0 < m <= MAX_M:
        found.append(Violation("range:m", f"m={m!r} must be in (0, {MAX_M:g}]"))
    if not (0.0 <= tau1 <= tau_max <= 1.0):
        found.append(Violation(
            "range:tau1",
            f"requires 0 <= tau1 <= tau_max <= 1 (tau1={tau1!r}, tau_max={tau_max!r})"))
    return found


def _validate(raw: Mapping[str, float]) -> Tuple[Optional[ModelParams], List[Violation]]:
    """A field map's point (None if it cannot be built) and all its violations:
    key codes alone if any, else range codes, then the model inequalities."""
    found: List[Violation] = []
    values: Dict[str, float] = {}
    for key in FIELD_ORDER:
        if key in raw:
            try:
                values[key] = float(raw[key])
            except (TypeError, ValueError, OverflowError):
                found.append(Violation(f"parse:{key}", f"invalid value for {key}: {raw[key]!r}"))
        elif key in DEFAULTS:
            values[key] = DEFAULTS[key]
        else:
            found.append(Violation(f"missing:{key}", f"missing field: {key}"))
    found += [Violation(f"unknown:{key}", f"unknown field: {key}")
              for key in raw if key not in KEY_TO_ATTR]
    if found:
        return None, found
    try:
        params = ModelParams(**{KEY_TO_ATTR[k]: v for k, v in values.items()})
    except AssumptionViolation as exc:
        params, found = None, exc.violations
    if not values["rho"] > values["mu"]:
        found.append(Violation("rho_gt_mu", "requires rho > mu"))
    if not values["omega"] > values["delta"]:
        found.append(Violation("omega_gt_delta", "requires omega > delta"))
    if not values["epsilon"] > values["mu"]:
        found.append(Violation("epsilon_gt_mu", "requires epsilon > mu"))
    if values["omega"] + values["rho"] > 1.0:
        found.append(Violation("lottery_overflow", "requires omega + rho <= 1"))
    return params, found


def check_params(values: Mapping[str, float]) -> List[Violation]:
    """All violated conditions for a field map (empty list if valid)."""
    return _validate(values)[1]


def validate_params(raw: Mapping[str, float]) -> ModelParams:
    """Build a validated ModelParams from a field map (external key names).

    Raises AssumptionViolation carrying every violation found: missing,
    non-numeric or unknown fields, out-of-range values, and violated model
    inequalities.
    """
    params, found = _validate(raw)
    if found:
        raise AssumptionViolation(found)
    return params


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
