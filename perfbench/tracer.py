"""Span recorder for the traced benchmark run (standard library only).

The recorder wraps public functions of the ``crmfinite`` modules from the
outside: every module namespace under ``crmfinite`` that holds a reference to
a wrapped function gets the wrapper, and methods are replaced on their class.
``Tracer.restore`` puts every original back.  A target that no longer exists
is reported as absent instead of failing, so the benchmark keeps running when
later versions rename or merge functions.

Spans are kept in memory as ``(name, start, end, parent)`` tuples, where
``parent`` is the index of the enclosing span or -1.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from collections import Counter
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``attr`` is a dotted path inside ``module``
    (``"AifaConfig.sample"`` for a method).  ``span`` names the recorded span
    and ``observe(tracer, args, kwargs, result)`` may add counters;
    ``factory(tracer, fn)`` replaces the plain span wrapper altogether."""

    module: str
    attr: str
    span: str
    observe: Callable | None = None
    factory: Callable | None = None


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        name, start, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent)
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, fn, span, observe=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.call(span, fn, *args, **kwargs)
            if observe is not None:
                try:
                    observe(tracer, args, kwargs, result)
                except Exception:  # a counter must never break the program
                    tracer.counters["trace.observer_errors"] += 1
            return result

        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self, targets):
        """Wrap every target; returns the names of absent targets."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        absent = []
        for t in targets:
            owner, leaf = _resolve_owner(t.module, t.attr)  # may import the module
            original = getattr(owner, leaf, None) if owner is not None else None
            if not callable(original):
                absent.append(t.span)
                continue
            wrapper = (t.factory(self, original) if t.factory is not None
                       else self.wrap(original, t.span, t.observe))
            if isinstance(owner, type):
                self._set(owner, leaf, wrapper)
                continue
            for mod in [m for name, m in list(sys.modules.items()) if m is not None
                        and (name == "crmfinite" or name.startswith("crmfinite."))]:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, name, wrapper)
        return absent

    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def _resolve_owner(module_name, attr):
    mod = sys.modules.get(module_name)
    if mod is None:
        try:
            __import__(module_name)
        except ImportError:
            return None, None
        mod = sys.modules[module_name]
    *path, leaf = attr.split(".")
    owner = mod
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if isinstance(owner, type) and leaf not in owner.__dict__:
        return None, None  # inherited or missing: nothing of ours to patch
    return owner, leaf


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans):
    """Per span: its duration minus the part of its interval that its direct
    children cover (overlapping children are merged, not double counted)."""
    children: dict[int, list[int]] = {}
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children.get(i, ())):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def summarize(spans):
    """{span name: (calls, total self time)}."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for (name, *_), st in zip(spans, self_times(spans)):
        calls[name] += 1
        self_s[name] += st
    return {name: (calls[name], self_s[name]) for name in calls}


# ---------------------------------------------------------------------------
# observers: counters measured where the work happens
# ---------------------------------------------------------------------------

def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_atoms(tracer, args, kwargs, result):
    tracer.counters["atoms_drawn"] += len(result)


def _count_columns(tracer, args, kwargs, result):
    tracer.counters["columns_simulated"] += int(result.n_columns)


def _count_mc_reps(tracer, args, kwargs, result):
    tracer.counters["mc_reps"] += int(_arg(args, kwargs, 2, "reps"))


def _count_degenerate(tracer, args, kwargs, result):
    tracer.counters["truncated_beta_draws"] += 1
    tracer.counters["degenerate_draws"] += bool(result[1])


def _count_kept(tracer, args, kwargs, result):
    tracer.counters["samples_kept"] += len(result[1])


class _AifaSampleProbe:
    """Wraps ``AifaConfig.sample`` itself: besides the span it tells the first
    call on each configuration (table build plus KS validation) from later
    ones, and draws made inside another call on the same configuration (the
    validation draws) from draws returned to the caller."""

    def __init__(self):
        self.seen = weakref.WeakSet()
        self.active: list[int] = []

    def __call__(self, tracer, fn):
        probe = self

        @functools.wraps(fn)
        def sample(cfg, n, *args, **kwargs):
            nested = id(cfg) in probe.active
            first = not nested and cfg not in probe.seen
            tracer.counters["validation_draws" if nested else "useful_draws"] += int(n)
            probe.active.append(id(cfg))
            start = time.perf_counter()
            try:
                return tracer.call("AifaConfig.sample", fn, cfg, n, *args, **kwargs)
            finally:
                probe.active.pop()
                if first:
                    probe.seen.add(cfg)
                    tracer.counters["aifa_first_sample_s"] += time.perf_counter() - start

        return sample


def targets():
    """Everything the traced run wraps, grouped by the layer it belongs to."""
    approx = "crmfinite.approximations"
    marg = "crmfinite.marginals"
    ana = "crmfinite.analysis"
    inf = "crmfinite.inference"
    return [
        Target("crmfinite.cli", "main", "cli"),
        Target("crmfinite.cli", "read_data_csv", "cli.read_data_csv"),
        Target(approx, "sample_weights", "sample_weights", _count_atoms),
        Target(approx, "AifaConfig.sample", "AifaConfig.sample", factory=_AifaSampleProbe()),
        Target("crmfinite.quadrature", "gauss_legendre", "gauss_legendre"),
        Target("crmfinite.measures", "log_g", "measures.log_g"),
        Target("crmfinite.measures", "log_h", "measures.log_h"),
        Target("crmfinite.measures", "indicator_value", "measures.indicator_value"),
        Target(marg, "simulate_allocation", "simulate_allocation", _count_columns),
        Target(marg, "target_new_atom_rate", "target_new_atom_rate"),
        Target(marg, "total_new_atom_rate", "total_new_atom_rate"),
        Target(marg, "approx_fresh_mass", "approx_fresh_mass"),
        Target(marg, "check_condition_1", "check_condition_1"),
        Target(ana, "composition_frequencies", "composition_frequencies", _count_mc_reps),
        Target(ana, "tv_binom_poisson", "tv_binom_poisson"),
        Target(ana, "lecam_upper", "lecam_upper"),
        Target(inf, "gibbs_sweep", "gibbs_sweep"),
        Target(inf, "tfa_tau_conditional_sample", "tfa_tau_conditional_sample"),
        Target(inf, "sample_truncated_beta", "sample_truncated_beta", _count_degenerate),
        Target(inf, "joint_log_density", "joint_log_density"),
        Target(inf, "impute_heldout_locals", "impute_heldout_locals"),
        Target(inf, "predictive_log_likelihood", "predictive_log_likelihood"),
        Target(inf, "run_chain", "run_chain", _count_kept),
    ]


# (metric name, span name) pairs; measures.* are summed over the group
_SELF = [
    ("cli.self_s", "cli"),
    ("cli.read_data_csv.self_s", "cli.read_data_csv"),
    ("sample_weights.self_s", "sample_weights"),
    ("AifaConfig.sample.self_s", "AifaConfig.sample"),
    ("gauss_legendre.self_s", "gauss_legendre"),
    ("simulate_allocation.self_s", "simulate_allocation"),
    ("check_condition_1.self_s", "check_condition_1"),
    ("composition_frequencies.self_s", "composition_frequencies"),
    ("tv_binom_poisson.self_s", "tv_binom_poisson"),
    ("gibbs_sweep.self_s", "gibbs_sweep"),
    ("tfa_tau_conditional_sample.self_s", "tfa_tau_conditional_sample"),
    ("sample_truncated_beta.self_s", "sample_truncated_beta"),
    ("joint_log_density.self_s", "joint_log_density"),
    ("impute_heldout_locals.self_s", "impute_heldout_locals"),
    ("predictive_log_likelihood.self_s", "predictive_log_likelihood"),
    ("run_chain.self_s", "run_chain"),
]
_CALLS = ["sample_weights", "AifaConfig.sample", "gauss_legendre", "simulate_allocation",
          "target_new_atom_rate", "total_new_atom_rate", "approx_fresh_mass",
          "tv_binom_poisson", "lecam_upper", "gibbs_sweep", "sample_truncated_beta"]
_MEASURES = ("measures.log_g", "measures.log_h", "measures.indicator_value")


def layer_metrics(spans, counters):
    """Per-layer metrics of one traced round (unit-free numbers)."""
    summary = summarize(spans)
    calls = {name: c for name, (c, _) in summary.items()}
    selfs = {name: s for name, (_, s) in summary.items()}
    out = {metric: selfs.get(span, 0.0) for metric, span in _SELF}
    out.update({f"{name}.calls": calls.get(name, 0) for name in _CALLS})
    out["measures.calls"] = sum(calls.get(n, 0) for n in _MEASURES)
    out["measures.self_s"] = sum(selfs.get(n, 0.0) for n in _MEASURES)
    useful, validation = counters["useful_draws"], counters["validation_draws"]
    out["atoms_drawn"] = counters["atoms_drawn"]
    out["aifa_first_sample_s"] = float(counters["aifa_first_sample_s"])
    out["validation_draws"] = validation
    out["useful_draw_frac"] = useful / (useful + validation) if useful + validation else 0.0
    out["columns_simulated"] = counters["columns_simulated"]
    out["mc_reps"] = counters["mc_reps"]
    draws = counters["truncated_beta_draws"]
    out["degenerate_frac"] = counters["degenerate_draws"] / draws if draws else 0.0
    out["samples_kept"] = counters["samples_kept"]
    out["trace.spans"] = len(spans)
    return out


def unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes_written"):
        return "bytes"
    return "frac" if metric.endswith("_frac") else "count"
