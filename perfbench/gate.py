"""Correctness gate: every pass's output is checked before its time counts.

Sweeps: the first pass's CSV is checked row by row against what the inputs
imply (axis values, validity from params.check_params, turnover formula,
regime labels, bounds on tau2), and every later pass must reproduce it byte
for byte. Verify: the report must account for every trial of every
property, and a trial fails when it fails a property other than by a known
false alarm (is_false_alarm); later passes must reproduce the report. At
seed 0 the first pass must also match the sha256 recorded in reference.json.
"""

import hashlib
import json
import re
from pathlib import Path

from fiscap import cli
from fiscap.params import check_params
from fiscap.verify import PROPERTY_NAMES

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

# A failure of variant_equal_at_zero_cohesion whose two tau2 values are
# equal is a false alarm and not a failed trial. The property compares the
# baseline and revolution thresholds at sigma_d=0 with an absolute 1e-12
# tolerance; thresholds reach 10^3 when the denominator is small, and the two
# formulas then differ by rounding alone (seed 0: trials 13, 243 and 663,
# threshold gaps of 1.4e-12 to 2.5e-12). Any other failure of the property,
# such as the two solves disagreeing on tau2, counts. False alarms still show
# in the report, its digest and the verify.failed_checks metric.
ZERO_COHESION = "variant_equal_at_zero_cohesion"
ZERO_COHESION_TAU2 = re.compile(r"baseline=(?:np\.float64\()?([^\s();]+)\)? "
                                r"variant=(?:np\.float64\()?([^\s();]+)\)?;")

TOL = 1e-6           # CSV values carry six decimals
LABEL_TIE = 1e-9     # investment conditions this close to 0 may take either label
PEACE_LABELS = {"2.B.1": "3.B.1", "2.B.2": "3.B.2", "2.B.3": "3.B.2"}
CEX = re.compile(r"(\w+) trial=(\d+): (.*)")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def is_false_alarm(name: str, detail: str) -> bool:
    """True for a zero-cohesion failure that only the threshold tripped."""
    match = ZERO_COHESION_TAU2.match(detail) if name == ZERO_COHESION else None
    try:
        return match is not None and float(match.group(1)) == float(match.group(2))
    except ValueError:  # a tau2 that is not a number
        return False


def _row_ok(row: str, v1: float, v2: float, raw: dict) -> bool:
    f = row.split(",")
    if len(f) != 12 or abs(float(f[0]) - v1) > TOL or abs(float(f[1]) - v2) > TOL:
        return False
    if check_params(raw):
        return f[2:] == [""] * 9 + ["invalid"]
    if f[11] != "ok" or f[2] not in ("0", "1") or f[9] not in ("0", "1"):
        return False
    gamma, phi, tau2 = int(f[2]), float(f[4]), float(f[5])
    a = raw["alpha"]
    expected_phi = (a * raw["omega"] + (1 - a) * raw["delta"] + a * raw["rho"] if gamma
                    else a * raw["mu"] + (1 - a) * raw["epsilon"])
    ok = abs(phi - expected_phi) <= TOL
    ok &= raw["tau1"] - TOL <= tau2 <= raw["tau_max"] + TOL
    ok &= f[9] == "0" or abs(tau2 - raw["tau1"]) <= TOL
    if f[3] and abs(raw["sigma_f"] - float(f[3])) > 1e-5:
        ok &= gamma == int(raw["sigma_f"] > float(f[3]))
    if gamma:
        return ok and f[6:9] == ["up", "2.A", "3.A"]
    cond = ((raw["epsilon"] - raw["mu"])
            - raw["sigma_d"] * (raw["epsilon"] - raw["lambda"] * raw["mu"]))
    ok &= f[6] == "down" and PEACE_LABELS.get(f[7]) == f[8]
    if abs(cond) > LABEL_TIE:
        ok &= f[7] == ("2.B.1" if cond > 0 else "2.B.3")
    return ok


class SweepGate:
    """Checks the CSV each sweep pass wrote; counts failed rows."""

    def __init__(self, workload: str, seed: int, inputs):
        self.workload, self.seed, self.inputs = workload, seed, inputs
        self.first = None        # rows of the first pass
        self.first_bad = None    # indices of its failed rows
        self.digest = None

    def check(self, data: bytes) -> int:
        text = data.decode("utf-8")
        header, _, body = text.partition("\n")
        rows = body.split("\n")
        if rows[-1] != "":
            return len(rows)
        rows.pop()
        if self.first is None:
            self.first, self.digest = rows, sha256(data)
            self.first_bad = self._check_rows(header, rows)
            if self.seed == 0 and self.digest != REFERENCE["sha256"][self.workload]:
                self.first_bad = set(range(len(rows)))
            return len(self.first_bad)
        if len(rows) != len(self.first):
            return max(len(rows), len(self.first))
        return sum(1 for i, (row, ref) in enumerate(zip(rows, self.first))
                   if row != ref or i in self.first_bad)

    def _check_rows(self, header: str, rows) -> set:
        inp = self.inputs
        axis1, axis2 = cli.parse_axis(inp.axis1), cli.parse_axis(inp.axis2)
        points = [(v1, v2) for v1 in axis1.values for v2 in axis2.values]
        if header != cli.CSV_HEADER or len(rows) != len(points):
            return set(range(max(len(rows), len(points))))
        base = inp.base.as_dict()
        bad = set()
        for i, (row, (v1, v2)) in enumerate(zip(rows, points)):
            raw = dict(base, **{axis1.name: v1, axis2.name: v2})
            try:
                ok = _row_ok(row, v1, v2, raw)
            except ValueError:  # a field that does not parse as a number
                ok = False
            if not ok:
                bad.add(i)
        return bad


class VerifyGate:
    """Checks each verify pass's report; counts failed trials."""

    def __init__(self, workload: str, seed: int, inputs):
        self.workload, self.seed, self.inputs = workload, seed, inputs
        self.first = None
        self.first_failed = 0
        self.digest = None

    def check(self, report, text: str) -> int:
        trials = self.inputs.trials
        if self.first is not None:
            return self.first_failed if text == self.first else trials
        self.first, self.digest = text, sha256(text.encode("utf-8"))
        complete = (list(report.properties) == PROPERTY_NAMES
                    and all(s.passed + s.failed + s.skipped == trials
                            for s in report.properties.values())
                    and len(report.counterexamples) == report.failures)
        failed = set()
        for entry in report.counterexamples:
            match = CEX.match(entry)
            if match is None:
                complete = False
            elif not is_false_alarm(match.group(1), match.group(3)):
                failed.add(int(match.group(2)))
        if not complete or (self.seed == 0
                            and self.digest != REFERENCE["sha256"][self.workload]):
            self.first_failed = trials
        else:
            self.first_failed = len(failed)
        return self.first_failed
