"""The benchmark's workloads: set-up, timed steps and output checks.

Every step drives a public entry point from outside, the way a user would:
``crmfinite.cli.main(argv)`` for the CLI steps and
``crmfinite.analysis.composition_frequencies`` for the Monte Carlo EPPF.
Each check compares the step's output with an exact value computed through
the public API.  The exact values are computed once, before any timing or
tracing, so no check runs inside a span.

Statistical checks are z-tests against exact means and exact variances.
``run.py`` sets the critical value by Bonferroni so that the family-wise
false-alarm rate of a whole run stays at or below ``FWER``.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

from crmfinite import analysis, approximations, cli, marginals
from crmfinite.approximations import AifaConfig, bfry_log_density
from crmfinite.measures import RateMeasureSpec
from crmfinite.rng import derive_rng

FWER = 1e-4
# BP(gamma=2, alpha=0, d=0.6): the power-law beta process of ROADMAP items 2-3
BP_SPEC = {"family": "beta", "gamma": 2.0, "discount": 0.6, "extras": {"eta": 0.6}}


@dataclass
class Step:
    """``run(ctx)`` is the timed call; ``check(ctx, result)`` returns the list
    of failures.  ``stat_tests`` counts the z-tests one check makes."""

    name: str
    run: Callable
    check: Callable
    stat_tests: int = 0


@dataclass
class Context:
    workdir: str
    seed: int
    z_crit: float = math.inf
    expected: dict = None

    def path(self, *parts):
        return os.path.join(self.workdir, *parts)


# ---------------------------------------------------------------------------
# configs
# ---------------------------------------------------------------------------

COMPARE_K = 1000
COMPARE_DRAWS = 1_000_000
COMPARE_A = [0.1, 1.0]
COMPARE_B = ["1/K", "1/sqrt(K)"]
GIBBS_SWEEPS = 200
EPPF_REPS = 20_000

# (step name, CLI command, config, replicates)
_CLI_STEPS = {
    "prior": [
        ("sample_prior_aifa_s", "sample-prior",
         {"distribution": {"kind": "aifa_numeric", "K": 100, "spec": BP_SPEC}}, 1000),
        ("sample_prior_stick_s", "sample-prior",
         {"distribution": {"kind": "beta_stick_breaking", "K": 200, "gamma": 2.0,
                           "alpha": 1.0}}, 60),
        ("compare_ifa_s", "compare-ifa",
         {"spec": BP_SPEC, "K": COMPARE_K, "draws": COMPARE_DRAWS, "a_grid": COMPARE_A,
          "b_grid": COMPARE_B}, 1),
    ],
    "marginals": [
        ("marginal_sim_gp_s", "marginal-sim",
         {"model": {"kind": "gamma_poisson", "gamma": 2.0, "lam": 1.0},
          "N": 50, "source": "aifa", "K": 200}, 4),
        # alpha = 3, not 2: at alpha = 2 the round-1 fresh-atom size loop runs to
        # x ~ 3.5e6 (about 100 s per replicate), past the per-run time limit
        ("marginal_sim_bnb_s", "marginal-sim",
         {"model": {"kind": "beta_neg_binomial", "gamma": 2.0, "alpha": 3.0, "r": 2.0},
          "N": 100, "source": "target"}, 1),
        ("marginal_sim_bb_s", "marginal-sim",
         {"model": {"kind": "beta_bernoulli", "gamma": 2.0, "alpha": 2.0},
          "N": 500, "source": "aifa", "K": 1000}, 30),
        ("check_conditions_s", "check-conditions",
         {"model": {"kind": "beta_neg_binomial", "gamma": 1.0, "alpha": 2.0, "r": 1.0},
          "n_max": 10_000, "K_set": [10, 100, 1000]}, 1),
        ("bounds_table_s", "bounds-table", {"gamma": 2.0, "K_max": 2000}, 1),
    ],
    "gibbs": [
        (f"gibbs_{tag}_s", "gibbs-run",
         {"model": {"D": 5, "gamma": 1.0, "alpha": 1.0, "K": 20,
                    "prec_shape": 1.0, "prec_rate": 1.0},
          "prior_kind": prior, "sweeps": GIBBS_SWEEPS, "burnin": GIBBS_SWEEPS // 2,
          "data_path": "data/train/data.csv", "heldout_path": "data/heldout/data.csv"}, 1)
        for tag, prior in (("aifa", "aifa"), ("tfa", "bondesson_tfa"))
    ],
}
_DATA = {"N": 500, "D": 5, "n_features": 5, "activation": 0.5, "noise_prec": 4.0,
         "feature_scale": 2.0}
_EPPF_SOURCES = [analysis.DPSource(1.0), analysis.FSDSource(1.0, 8)]


def _write_json(path, obj):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def clear_caches():
    """Empty crmfinite's per-process cache of BFRY inverse-CDF tables, so
    every round pays the cold table builds that a fresh CLI call pays.  A
    cache under another name is left as it is."""
    getattr(approximations, "_BFRY_TABLES", {}).clear()


def setup(workload, workdir, seed):
    """Write the configs and, for ``gibbs``, generate training and held-out
    data with ``make-data``.  This is what ``setup_s`` times."""
    if workload not in _CLI_STEPS:
        raise ValueError(f"unknown workload {workload!r}")
    ctx = Context(workdir, seed)
    for name, _, config, _ in _CLI_STEPS[workload]:
        if "data_path" in config:
            config = dict(config, data_path=ctx.path(config["data_path"]),
                          heldout_path=ctx.path(config["heldout_path"]))
        _write_json(ctx.path("configs", name + ".json"), config)
    if workload == "gibbs":
        for part, n_rows, data_seed in (("train", 500, seed), ("heldout", 200, seed + 1)):
            cfg = _write_json(ctx.path("configs", f"data_{part}.json"), dict(_DATA, N=n_rows))
            code = cli.main(["make-data", "--config", cfg, "--seed", str(data_seed),
                             "--out", ctx.path("data", part)])
            if code != 0:
                raise RuntimeError(f"make-data for {part} exited {code}")
    return ctx


# ---------------------------------------------------------------------------
# exact values
# ---------------------------------------------------------------------------

def aifa_moments(spec_json, K, a=1.0, b=None):
    """(E[theta], Var[theta]) under the numeric AIFA law, by quadrature of
    ``AifaConfig.log_density`` split at the indicator knots."""
    from scipy import integrate  # not imported by the CLI, so kept out of setup_s

    cfg = AifaConfig(RateMeasureSpec.from_json(spec_json), K, a=a, b=b)
    upper = cfg.spec.support_upper
    knots = sorted({k for k in (cfg.a / K, cfg.a / K + cfg.b) if k < upper})
    edges = [0.0, *knots, upper]

    def moment(power):
        f = lambda th: th**power * math.exp(cfg.log_density(th))  # noqa: E731
        return sum(integrate.quad(f, lo, hi, limit=200, epsabs=1e-13, epsrel=1e-10)[0]
                   for lo, hi in zip(edges, edges[1:]))

    m1 = moment(1)
    return m1, moment(2) - m1 * m1


def stick_moments(gamma, alpha, K):
    """(E, Var) of the beta stick-breaking total mass: round i holds
    Poisson(gamma) atoms v prod_{j<i}(1 - v_j), v ~ Beta(1, alpha)."""
    r1 = alpha / (1.0 + alpha)            # E[1 - v]
    r2 = alpha / (2.0 + alpha)            # E[(1 - v)^2]
    e2 = 2.0 / ((1.0 + alpha) * (2.0 + alpha))  # E[v^2]
    mean = gamma * (1.0 - r1**K)
    var = gamma * e2 * (1.0 - r2**K) / (1.0 - r2)  # compound Poisson: gamma E[W^2]
    return mean, var


def bfry_mean_weight(gamma, d, K):
    """E[s / (1 + s)] for s from the BFRY density with c = gamma/K, by
    quadrature in log s."""
    from scipy import integrate

    c = gamma / K

    def f(u):
        s = math.exp(u)
        return s / (1.0 + s) * math.exp(bfry_log_density(c, d, s)) * s

    edges = range(-80, 161, 4)
    return sum(integrate.quad(f, lo, hi, epsabs=1e-15, epsrel=1e-11)[0]
               for lo, hi in zip(edges, edges[1:]))


def _columns_aifa(model, K, N):
    """Columns ~ Binomial(K, P): each atom activates independently by round N."""
    never = 1.0
    for n in range(1, N + 1):
        never *= 1.0 - float(marginals.approx_fresh_mass(model, K, n))
    p = 1.0 - never
    return K * p, K * p * (1.0 - p)


def _columns_target(model, N):
    """Columns ~ Poisson(sum_n total_new_atom_rate(n))."""
    mu = sum(float(marginals.total_new_atom_rate(model, n)) for n in range(1, N + 1))
    return mu, mu


def expectations(workload):
    """Exact values the checks compare against, keyed by step name."""
    out = {}
    if workload == "prior":
        (_, _, aifa_cfg, _), (_, _, stick_cfg, _), _ = _CLI_STEPS["prior"]
        K = aifa_cfg["distribution"]["K"]
        m, v = aifa_moments(BP_SPEC, K)
        out["sample_prior_aifa_s"] = (K * m, K * v)
        d = stick_cfg["distribution"]
        out["sample_prior_stick_s"] = stick_moments(d["gamma"], d["alpha"], d["K"])
        per_entry = {}
        for a in COMPARE_A:
            for b_name in COMPARE_B:
                b = 1.0 / COMPARE_K if b_name == "1/K" else 1.0 / math.sqrt(COMPARE_K)
                per_entry[f"aifa(a={a},b={b_name})"] = aifa_moments(BP_SPEC, COMPARE_K, a, b)[0]
        per_entry["bfry"] = bfry_mean_weight(BP_SPEC["gamma"], BP_SPEC["discount"], COMPARE_K)
        out["compare_ifa_s"] = per_entry
    elif workload == "marginals":
        for name, _, config, _ in _CLI_STEPS["marginals"]:
            if name.startswith("marginal_sim"):
                model = _model(config)
                out[name] = (_columns_aifa(model, config["K"], config["N"])
                             if config["source"] == "aifa"
                             else _columns_target(model, config["N"]))
        out["eppf_mc_s"] = [
            {c.sizes: float(analysis.eppf(src, c)) * analysis.partition_count(c)
             for c in analysis.all_compositions(3)}
            for src in _EPPF_SOURCES]
    return out


def _model(config):
    m = config["model"]
    if m["kind"] == "gamma_poisson":
        return marginals.gamma_poisson(m["gamma"], m["lam"])
    if m["kind"] == "beta_bernoulli":
        return marginals.beta_bernoulli(m["gamma"], m["alpha"])
    return marginals.beta_negative_binomial(m["gamma"], m["alpha"], m["r"])


# ---------------------------------------------------------------------------
# checks: each returns a list of failure messages
# ---------------------------------------------------------------------------

def z_failures(label, observed, mean, var_of_mean, z_crit):
    if not (isinstance(observed, (int, float)) and math.isfinite(observed)):
        return [f"{label}: non-finite value {observed!r}"]
    z = (observed - mean) / math.sqrt(var_of_mean) if var_of_mean > 0 else (
        0.0 if observed == mean else math.inf)
    if abs(z) > z_crit:
        return [f"{label}: {observed!r} vs exact {mean!r} (z = {z:.2f}, limit {z_crit:.2f})"]
    return []


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def check_sample_prior(summary, expected, replicates, z_crit):
    mean, var = expected
    fails = [] if summary.get("replicates") == replicates else [
        f"replicates {summary.get('replicates')!r} != {replicates}"]
    return fails + z_failures("mean_total_mass", summary.get("mean_total_mass"),
                              mean, var / replicates, z_crit)


def check_compare(summary, expected, K, draws, z_crit):
    n_vec = draws // K
    fails = []
    for key, p in expected.items():
        fails += z_failures(key, summary.get(key), K * p, K * p * (1 - p) / n_vec, z_crit)
    return fails


def check_marginal(summary, expected, replicates, z_crit):
    mean, var = expected
    return z_failures("mean_columns", summary.get("mean_columns"), mean,
                      var / replicates, z_crit)


def check_conditions(report):
    return [] if report.get("pass") is True else ["check-conditions report did not pass"]


def check_bounds(rows, k_max):
    tv = [float(v) for name, _, v in rows if name == "tv_binom_poisson"]
    fails = [] if len(tv) == k_max else [f"{len(tv)} tv rows, expected {k_max}"]
    bad = [v for v in tv if not 0.0 <= v <= 1.0]
    return fails + ([f"{len(bad)} tv values outside [0, 1]"] if bad else [])


def check_eppf(freqs, expected, reps, z_crit):
    fails = []
    for src, freq, exact in zip(_EPPF_SOURCES, freqs, expected):
        if sum(freq.values()) != reps or set(freq) - set(exact):
            fails.append(f"{src}: frequencies {freq!r} do not cover {reps} samples of N=3")
            continue
        for sizes, p in exact.items():
            fails += z_failures(f"{src} {sizes}", freq.get(sizes, 0) / reps, p,
                                p * (1 - p) / reps, z_crit)
    return fails


def check_gibbs(out, sweeps, prior):
    names = ("chain.csv", "chain_0000.csv", "state_0000.json", "summary.json",
             "manifest.json")
    missing = [n for n in names if not os.path.exists(os.path.join(out, n))]
    if missing:
        return [f"missing outputs {missing}"]
    fails = []
    with open(os.path.join(out, "chain.csv")) as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != sweeps * 5:
        fails.append(f"chain.csv has {len(rows)} rows, expected {sweeps * 5}")
    if not all(math.isfinite(float(r[3])) for r in rows):
        fails.append("chain.csv holds non-finite values")
    pll = _read_json(os.path.join(out, "summary.json")).get("predictive_log_likelihood")
    if not (isinstance(pll, list) and len(pll) == 1 and math.isfinite(pll[0])):
        fails.append(f"predictive log-likelihood {pll!r} is not one finite value")
    state = _read_json(os.path.join(out, "state_0000.json"))
    if any(v not in (0, 1) for row in state["x"] for v in row):
        fails.append("x is not binary")
    tau = state["tau"]
    if prior == "bondesson_tfa" and any(b > a for a, b in zip(tau, tau[1:])):
        fails.append("TFA tau is not non-increasing")
    return fails


# ---------------------------------------------------------------------------
# steps
# ---------------------------------------------------------------------------

def _cli_step(name, command, config, replicates):
    def run(ctx):
        argv = [command, "--config", ctx.path("configs", name + ".json"),
                "--seed", str(ctx.seed), "--out", ctx.path("out", name)]
        if replicates > 1:
            argv += ["--replicates", str(replicates)]
        return cli.main(argv)

    def check(ctx, code):
        if code != 0:
            return [f"exit code {code}"]
        out = ctx.path("out", name)
        expected = ctx.expected.get(name)
        if command == "sample-prior":
            return check_sample_prior(_read_json(os.path.join(out, "summary.json")),
                                      expected, replicates, ctx.z_crit)
        if command == "compare-ifa":
            return check_compare(_read_json(os.path.join(out, "summary.json")), expected,
                                 config["K"], config["draws"], ctx.z_crit)
        if command == "marginal-sim":
            return check_marginal(_read_json(os.path.join(out, "summary.json")), expected,
                                  replicates, ctx.z_crit)
        if command == "check-conditions":
            return check_conditions(_read_json(os.path.join(out, "report.json")))
        if command == "bounds-table":
            with open(os.path.join(out, "bounds.csv")) as fh:
                rows = list(csv.reader(fh))[1:]
            return check_bounds(rows, config["K_max"])
        return check_gibbs(out, config["sweeps"], config["prior_kind"])

    tests = {"sample-prior": 1, "compare-ifa": len(COMPARE_A) * len(COMPARE_B) + 1,
             "marginal-sim": 1}.get(command, 0)
    return Step(name, run, check, tests)


def _eppf_step():
    def run(ctx):
        return [analysis.composition_frequencies(src, 3, EPPF_REPS, derive_rng(ctx.seed, i))
                for i, src in enumerate(_EPPF_SOURCES)]

    def check(ctx, freqs):
        return check_eppf(freqs, ctx.expected["eppf_mc_s"], EPPF_REPS, ctx.z_crit)

    return Step("eppf_mc_s", run, check, len(_EPPF_SOURCES) * 3)


def steps(workload):
    out = [_cli_step(*spec) for spec in _CLI_STEPS[workload]]
    if workload == "marginals":
        out.append(_eppf_step())
    return out
