"""Span tracing of fiscap's public functions from outside the package.

install() wraps each function in TRACED and rebinds every name that any
loaded fiscap module holds for it, because modules such as cli and statics
import functions by name; CostSpec and ModelParams methods are wrapped on
the class. Each call records a span (function, start, end, parent span,
whether it raised) in memory; nothing is written until the caller saves.
"""

import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# module -> public functions (Class.method for methods) whose calls are spans
TRACED = {
    "params": ("validate_params", "check_params", "sample_params",
               "CostSpec.value", "CostSpec.marginal", "ModelParams.replace"),
    "conflict": ("civil_war_decision", "civil_war_threshold",
                 "turnover_probability"),
    "policy": ("indirect_utility", "expected_utility_O1", "expected_utility_I1",
               "period1_policy", "period2_policy"),
    "fiscal": ("solve_equilibrium", "optimal_tau2", "inverse_marginal",
               "max_feasible_tau2", "brute_force_tau2"),
    "statics": ("classify", "finite_difference"),
    "bargaining": ("bargaining_outcome", "o1_accept_decision"),
    "revolution": ("revolution_solve", "variant_war_tau2",
                   "brute_force_tau2_variant"),
    "verify": ("run_trials", "render_report"),
    "cli": ("sweep_rows", "write_sweep_csv"),
}
SPAN_NAMES = tuple(f"{module}.{func}" for module, funcs in TRACED.items()
                   for func in funcs)


class Spans:
    """Spans of one traced pass, in call order (a span precedes its children)."""

    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")   # -1 for a root span
        self.raised = array("b")
        self._open = []            # stack of open span indices

    def wrap(self, name_ix: int, fn):
        name, start, end = self.name, self.start, self.end
        parent, raised, open_ = self.parent, self.raised, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ix = len(name)
            name.append(name_ix)
            parent.append(open_[-1] if open_ else -1)
            start.append(0.0)
            end.append(0.0)
            raised.append(1)
            open_.append(ix)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                raised[ix] = 0
                return out
            finally:
                end[ix] = time.perf_counter()
                start[ix] = t0
                open_.pop()
        return traced

    def arrays(self):
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "raised": np.frombuffer(self.raised, dtype=np.int8)}


@contextmanager
def install(spans: Spans):
    """Route every traced function through `spans` until the block exits."""
    wrapped = {}      # id(original) -> wrapper
    restore = []      # (owner, attribute, original)
    for ix, span_name in enumerate(SPAN_NAMES):
        module_name, _, attr = span_name.partition(".")
        module = sys.modules[f"fiscap.{module_name}"]
        cls_name, _, method = attr.rpartition(".")
        if cls_name:
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            wrapper = spans.wrap(ix, original)
            setattr(cls, method, wrapper)
            restore.append((cls, method, original))
        else:
            wrapped[id(getattr(module, attr))] = spans.wrap(ix, getattr(module, attr))
    modules = [m for n, m in sys.modules.items()
               if n == "fiscap" or n.startswith("fiscap.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in wrapped:
                setattr(module, attr, wrapped[id(value)])
                restore.append((module, attr, value))
    try:
        yield spans
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def summarize(spans: Spans):
    """Per-function calls, self time and raise counts, plus per-module
    exceptions that left the module (raised into a caller outside it)."""
    a = spans.arrays()
    n_names = len(SPAN_NAMES)
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    self_s = np.bincount(a["name"], weights=dur - child, minlength=n_names)
    calls = np.bincount(a["name"], minlength=n_names)
    raised = np.bincount(a["name"], weights=a["raised"], minlength=n_names)
    module_of = np.array([n.partition(".")[0] for n in SPAN_NAMES])
    own = module_of[a["name"]]
    parent_module = np.where(has_parent, module_of[a["name"][np.maximum(a["parent"], 0)]], "")
    escaped = (a["raised"] == 1) & (own != parent_module)
    left_module = {m: int(np.sum(escaped & (own == m))) for m in TRACED}
    per_function = {name: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                           "raised": int(raised[i])}
                    for i, name in enumerate(SPAN_NAMES)}
    return per_function, left_module
