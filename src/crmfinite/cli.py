"""Reproducible experiment runner.

Every subcommand reads a JSON config, derives all randomness from a single
64-bit master seed (env BNP_SEED > --seed flag > config "seed"), writes its
outputs plus a manifest.json into --out, and exits 0 only if every requested
check passed (1: a check failed, 2: bad config or data, 3: the run crashed).
Replicates run on independent Philox streams derived as
split(master, replicate); files are written atomically (tmp + rename) and
merged in replicate order, so outputs are byte-identical for identical
(config, seed, version).  The manifest records the config hash, seed, library
version, wall time (the one field that varies between runs) and the run's
status: ok, check_failed, config_error or crashed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
import traceback

import numpy as np

from . import __version__
from .analysis import (
    DPSource,
    FSDSource,
    POISSON_MEAN_MAX,
    PartitionComposition,
    all_compositions,
    binom_poisson_lower_constant,
    eppf,
    lecam_upper,
    tv_binom_poisson,
)
from .approximations import (
    AifaConfig,
    WeightDistribution,
    WeightKind,
    aifa_closed_form,
    aifa_numeric,
    beta_stick_breaking,
    bfry,
    bondesson,
    fsd,
    sample_weights,
    tsb,
)
from .inference import (
    CHAIN_STATS,
    LinearGaussianModel,
    generate_synthetic,
    impute_heldout_locals,
    predictive_log_likelihood,
    run_chain,
)
from .marginals import (
    ExpFamilyModel,
    ModelKind,
    check_condition_1,
    condition_preset,
    generic_condition_bounds,
    simulate_allocation,
)
from .measures import IndicatorKind, RateMeasureSpec
from .rng import derive_rng

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


def _require_keys(obj, required, optional=(), where="config"):
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown fields in {where}: {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(f"missing fields in {where}: {sorted(missing)}")


def _integer(value, field, floor=1):
    """A count from a config or flag: a JSON integer (not a bool) >= floor."""
    if isinstance(value, bool) or not isinstance(value, int) or value < floor:
        raise ConfigError(f"{field} must be an integer >= {floor}, got {value!r}")
    return value


def _write_atomic(path, text, lines=()):
    """Write ``text``, then stream the strings ``lines``, to a temp file renamed to ``path``."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
        fh.writelines(lines)
    os.replace(tmp, path)


def _write_csv(path, header, *columns):
    """Write equal-length 1-D columns as a CSV table, one line per row.

    A cell is ``str`` of its column's ``tolist()`` value: the shortest repr
    that round-trips for a float, the digits for an integer."""
    line = ",".join(["%s"] * len(columns)) + "\n"
    rows = zip(*(np.asarray(c).tolist() for c in columns), strict=True)
    _write_atomic(path, ",".join(header) + "\n", map(line.__mod__, rows))


def _by_replicate(tables):
    """One table from per-replicate tuples of columns, led by a replicate column."""
    return (np.repeat(np.arange(len(tables)), [len(t[0]) for t in tables]),
            *(np.concatenate(cols) for cols in zip(*tables)))


def _model_from_config(obj) -> ExpFamilyModel:
    _require_keys(obj, {"kind"}, {"gamma", "alpha", "lam", "r"}, "model")
    kind = ModelKind(obj["kind"])
    from .marginals import beta_bernoulli, beta_negative_binomial, gamma_poisson
    if kind is ModelKind.BETA_BERNOULLI:
        return beta_bernoulli(obj["gamma"], obj["alpha"])
    if kind is ModelKind.GAMMA_POISSON:
        return gamma_poisson(obj["gamma"], obj["lam"])
    return beta_negative_binomial(obj["gamma"], obj["alpha"], obj["r"])


def _indicator_width(b, K):
    """AIFA width b_K from a config value: a number, null (1/K) or a rule name."""
    rules = {"1/K": 1.0 / K, "1/sqrt(K)": 1.0 / math.sqrt(K)}
    if isinstance(b, str) and b not in rules:
        raise ConfigError(f"unknown indicator width rule {b!r}; use a number, '1/K' or '1/sqrt(K)'")
    return rules[b] if isinstance(b, str) else b


def weight_distribution_from_config(obj) -> WeightDistribution:
    """Friendlier construction payload than the raw serialized form."""
    _require_keys(obj, {"kind", "K"},
                  {"gamma", "alpha", "d", "spec", "a", "b", "indicator"}, "distribution")
    kind = WeightKind(obj["kind"])
    K = _integer(obj["K"], "K")
    if kind is WeightKind.AIFA_NUMERIC:
        spec = RateMeasureSpec.from_json(obj["spec"])
        cfg = AifaConfig(spec, K, a=obj.get("a", 1.0), b=_indicator_width(obj.get("b"), K),
                         indicator_kind=IndicatorKind(obj.get("indicator", "smoothed")))
        return aifa_numeric(cfg)
    if kind is WeightKind.AIFA_CLOSED_FORM:
        return aifa_closed_form(RateMeasureSpec.from_json(obj["spec"]), K)
    if kind is WeightKind.BONDESSON:
        return bondesson(obj["gamma"], obj["alpha"], K)
    if kind is WeightKind.BETA_STICK_BREAKING:
        return beta_stick_breaking(obj["gamma"], obj["alpha"], K)
    if kind is WeightKind.TSB:
        return tsb(obj["alpha"], K)
    if kind is WeightKind.FSD:
        return fsd(obj["gamma"], K)
    return bfry(obj["gamma"], obj["d"], K)


# ---------------------------------------------------------------------------
# subcommands; each returns (ok, summary_dict)
# ---------------------------------------------------------------------------

def cmd_sample_prior(config, out, seed, replicates):
    _require_keys(config, {"distribution"}, {"seed"}, "sample-prior config")
    dist = weight_distribution_from_config(config["distribution"])

    def one(rep):
        rng = derive_rng(seed, rep)
        weights = sample_weights(dist, rng)
        actives = rng.random(weights.size) < np.minimum(weights, 1.0)
        return weights, int(actives.sum())

    results = [one(rep) for rep in range(replicates)]
    _write_csv(os.path.join(out, "weights.csv"), ("replicate", "atom_index", "weight"),
               *_by_replicate([(np.arange(w.size), w) for w, _ in results]))
    totals = np.array([w.sum() for w, _ in results])
    active = np.array([a for _, a in results], dtype=float)
    summary = {
        "kind": dist.kind.value,
        "K": dist.K,
        "replicates": replicates,
        "mean_total_mass": float(totals.mean()),
        "sd_total_mass": float(totals.std()),
        "mean_active_count": float(active.mean()),
        "sd_active_count": float(active.std()),
    }
    _write_atomic(os.path.join(out, "summary.json"), json.dumps(summary, indent=2))
    return True, summary


def cmd_marginal_sim(config, out, seed, replicates):
    _require_keys(config, {"model", "N", "source"}, {"K", "seed"}, "marginal-sim config")
    model = _model_from_config(config["model"])
    N, source, K = _integer(config["N"], "N"), config["source"], config.get("K")
    K = None if K is None else _integer(K, "K")

    allocs = [simulate_allocation(model, N, derive_rng(seed, rep), source=source, K=K)
              for rep in range(replicates)]
    cells = [(*np.nonzero(a.counts), a.counts[a.counts != 0]) for a in allocs]
    _write_csv(os.path.join(out, "allocations.csv"), ("replicate", "row", "col", "count"),
               *_by_replicate(cells))
    cols = np.array([a.n_columns for a in allocs], dtype=float)
    summary = {"model": model.kind.value, "N": N, "source": source, "K": K,
               "replicates": replicates,
               "mean_columns": float(cols.mean()), "var_columns": float(cols.var())}
    _write_atomic(os.path.join(out, "summary.json"), json.dumps(summary, indent=2))
    return True, summary


def cmd_check_conditions(config, out, seed, replicates):
    _require_keys(config, {"model", "n_max", "K_set"}, {"constants", "seed"},
                  "check-conditions config")
    model = _model_from_config(config["model"])
    if "constants" in config:
        c = config["constants"]
        _require_keys(c, {"C1"}, {"C2", "C3", "C4", "C5"}, "constants")
        bounds = generic_condition_bounds(c["C1"], c.get("C2", 0.0), c.get("C3", 0.0),
                                          c.get("C4", 0.0), c.get("C5", 0.0))
    else:
        bounds = condition_preset(model)
    report = check_condition_1(model, bounds, config["n_max"], config["K_set"])
    _write_atomic(os.path.join(out, "report.json"), json.dumps(report, indent=2))
    return bool(report["pass"]), {"pass": report["pass"], "bounds": bounds.name}


def cmd_bounds_table(config, out, seed, replicates):
    _require_keys(config, {"gamma", "K_max"}, {"K_min", "seed"}, "bounds-table config")
    gamma = float(config["gamma"])
    if not 0 < gamma <= POISSON_MEAN_MAX:
        raise ConfigError(f"gamma must lie in (0, {POISSON_MEAN_MAX:.4f}] (e^-gamma must be a "
                          f"normal double), got {config['gamma']!r}")
    k_lo, k_hi = _integer(config.get("K_min", 1), "K_min"), _integer(config["K_max"], "K_max")
    if k_lo > k_hi:
        raise ConfigError(f"K_min must not exceed K_max, got {k_lo} > {k_hi}")
    const = binom_poisson_lower_constant(gamma)
    K = np.arange(k_lo, k_hi + 1)
    q = (gamma / K) / (1.0 + gamma / K)
    tv = tv_binom_poisson(K, gamma)
    lower = const * K * q * q
    upper = lecam_upper(K, q)
    names = ["binom_poisson_lower_constant",
             *["tv_binom_poisson", "binom_poisson_lower", "lecam_upper"] * K.size]
    args = [f"gamma={gamma!r}", *np.repeat([f"K={k};gamma={gamma!r}" for k in K.tolist()], 3)]
    values = np.concatenate([[const], np.column_stack([tv, lower, upper]).ravel()])
    ok = bool(np.all(lower <= tv))
    _write_csv(os.path.join(out, "bounds.csv"), ("name", "args", "value"), names, args, values)
    return ok, {"gamma": gamma, "K_range": [k_lo, k_hi], "lower_bound_ok": ok}


def cmd_eppf_convergence(config, out, seed, replicates):
    _require_keys(config, {"alpha", "N", "K_set"}, {"seed"}, "eppf-convergence config")
    alpha, N = float(config["alpha"]), _integer(config["N"], "N")
    K_set = sorted(_integer(k, "K_set entries") for k in config["K_set"])
    dp, fsds = DPSource(alpha), [FSDSource(alpha, K) for K in K_set]
    comps = all_compositions(N)
    names = ["+".join(str(s) for s in comp.sizes) for comp in comps]
    p_dp = np.array([float(eppf(dp, comp)) for comp in comps])
    p_k = np.array([[float(eppf(fsd_k, comp)) for fsd_k in fsds] for comp in comps])
    gaps = np.abs(p_k - p_dp[:, None])  # (composition, K)
    slopes = {}
    ok = True
    for name, row in zip(names, gaps):
        decreasing = bool(np.all(row[:-1] > row[1:]))
        slope = float(np.polyfit(np.log(K_set), np.log(row), 1)[0]) if row.min() > 0 else None
        slopes[name] = {"slope": slope, "decreasing": decreasing}
        ok = ok and decreasing and slope is not None and abs(slope + 1.0) <= 0.3
    _write_csv(os.path.join(out, "eppf.csv"), ("K", "composition", "p_K", "p_target", "abs_gap"),
               np.tile(K_set, len(comps)), np.repeat(names, len(K_set)), p_k.ravel(),
               np.repeat(p_dp, len(K_set)), gaps.ravel())
    _write_atomic(os.path.join(out, "slopes.json"), json.dumps(slopes, indent=2))
    return ok, {"alpha": alpha, "N": N, "slopes": slopes}


def cmd_make_data(config, out, seed, replicates):
    _require_keys(config, {"N", "D", "n_features"},
                  {"activation", "feature_scale", "noise_prec", "weight_prec", "seed"},
                  "make-data config")
    rng = derive_rng(seed, 0)
    y, truth = generate_synthetic(
        _integer(config["N"], "N"), _integer(config["D"], "D"),
        _integer(config["n_features"], "n_features", 0), rng,
        activation=config.get("activation", 0.3),
        feature_scale=config.get("feature_scale", 1.0),
        noise_prec=config.get("noise_prec", 4.0),
        weight_prec=config.get("weight_prec", 1.0))
    n, d = y.shape
    _write_csv(os.path.join(out, "data.csv"), ("row", "dim", "value"),
               np.repeat(np.arange(n), d), np.tile(np.arange(d), n), y.ravel())
    summary = {"N": n, "D": d, "n_features": config["n_features"],
               "true_active_per_row": float(truth["x"].sum(axis=1).mean())}
    _write_atomic(os.path.join(out, "summary.json"), json.dumps(summary, indent=2))
    return True, summary


def read_data_csv(path) -> np.ndarray:
    """The (row, dim) grid of a row,dim,value CSV after a header line: finite values at
    non-negative integer indices that name each cell of the grid exactly once."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape[0] == 0 or table.shape[1] != 3:
        raise ConfigError(f"{path}: expected one or more row,dim,value lines after the header")
    if not np.all(np.isfinite(table)):
        raise ConfigError(f"{path}: {int((~np.isfinite(table)).sum())} non-finite values")
    rows, dims, values = table.T
    width = dims.max() + 1
    # each cell appears once iff the n flat indices are 0..n-1 and n is whole rows
    flat = rows * width + dims
    order = np.argsort(flat)
    if (np.any(table[:, :2] < 0) or np.any(table[:, :2] % 1) or flat.size % width
            or np.any(flat[order] != np.arange(flat.size))):
        raise ConfigError(f"{path}: row and dim must be non-negative integers that name each cell "
                          f"of the (max row + 1) x (max dim + 1) grid exactly once")
    return values[order].reshape(-1, int(width))


def cmd_gibbs_run(config, out, seed, replicates):
    _require_keys(config, {"model", "prior_kind", "sweeps", "burnin", "data_path"},
                  {"thin", "heldout_path", "heldout_scans", "seed"}, "gibbs-run config")
    m = config["model"]
    _require_keys(m, {"D", "gamma", "alpha", "K"},
                  {"prec_shape", "prec_rate", "psi_scale"}, "model")
    model = LinearGaussianModel(
        D=_integer(m["D"], "D"), gamma=m["gamma"], alpha=m["alpha"], K=_integer(m["K"], "K"),
        prec_shape=m.get("prec_shape", 1e-6), prec_rate=m.get("prec_rate", 1e-6),
        psi_scale=m.get("psi_scale"))
    sweeps = _integer(config["sweeps"], "sweeps")
    burnin = _integer(config["burnin"], "burnin", 0)
    thin = _integer(config.get("thin", max(1, (sweeps - burnin) // 50)), "thin")
    scans = _integer(config.get("heldout_scans", 5), "heldout_scans", 0)
    y = read_data_csv(config["data_path"])
    heldout = read_data_csv(config["heldout_path"]) if config.get("heldout_path") else None

    def one(rep):
        rng = derive_rng(seed, rep)
        state, samples, stats = run_chain(model, y, sweeps, rng,
                                          prior=config["prior_kind"], burnin=burnin, thin=thin)
        pll = None
        if heldout is not None:
            eval_samples = [impute_heldout_locals(s, heldout, model, rng, scans=scans)
                            for s in samples]
            pll = predictive_log_likelihood(eval_samples, heldout)
        return state, stats, pll

    results = [one(rep) for rep in range(replicates)]
    chains = [(np.repeat(np.arange(1, sweeps + 1), len(CHAIN_STATS)),
               np.tile(CHAIN_STATS, sweeps), stats.ravel()) for _, stats, _ in results]
    for rep, chain in enumerate(chains):
        _write_csv(os.path.join(out, f"chain_{rep:04d}.csv"), ("sweep", "stat_name", "value"),
                   *chain)
    _write_csv(os.path.join(out, "chain.csv"), ("replicate", "sweep", "stat_name", "value"),
               *_by_replicate(chains))
    for rep, (state, _, _) in enumerate(results):
        checkpoint = {
            "tau": state.tau.tolist(), "psi": state.psi.tolist(),
            "x": state.x.tolist(), "w": state.w.tolist(),
            "gamma_w": state.gamma_w, "gamma_e": state.gamma_e, "prior": state.prior,
            "degenerate_draws": state.degenerate_draws,
        }
        _write_atomic(os.path.join(out, f"state_{rep:04d}.json"), json.dumps(checkpoint))
    plls = [pll for *_, pll in results if pll is not None]
    summary = {"prior_kind": config["prior_kind"], "sweeps": sweeps, "burnin": burnin,
               "thin": thin, "replicates": replicates,
               "predictive_log_likelihood": plls or None,
               "degenerate_draws": [state.degenerate_draws for state, *_ in results]}
    _write_atomic(os.path.join(out, "summary.json"), json.dumps(summary, indent=2))
    return True, summary


def cmd_compare_ifa(config, out, seed, replicates):
    _require_keys(config, {"spec", "K", "draws"}, {"a_grid", "b_grid", "seed"},
                  "compare-ifa config")
    spec = RateMeasureSpec.from_json(config["spec"])
    K, draws = _integer(config["K"], "K"), _integer(config["draws"], "draws")
    if draws < K:
        raise ConfigError(f"draws must cover at least one K-vector (K={K})")
    grid = [(a, b) for a in config.get("a_grid", [1.0]) for b in config.get("b_grid", ["1/K"])]

    def mean_active(dist, stream):
        # 50k draws per call: bigger batches leave the heap fragmented and
        # raise peak RSS over repeated runs, without being faster
        rng, n_vec, per_call = derive_rng(seed, stream), draws // K, max(1, 50_000 // K)
        total = 0.0
        for start in range(0, n_vec, per_call):
            w = np.minimum(sample_weights(dist, rng, size=min(per_call, n_vec - start)), 1.0)
            total += (rng.random(w.shape) < w).sum()
        return total / n_vec

    # one stream per construction: the AIFA (a, b) grid in order, then BFRY
    dists = [aifa_numeric(AifaConfig(spec, K, a=float(a), b=_indicator_width(b, K)))
             for a, b in grid] + [bfry(spec.gamma, spec.discount, K)]
    values = [mean_active(dist, stream) for stream, dist in enumerate(dists)]
    _write_csv(os.path.join(out, "compare.csv"), ("name", "args", "value"),
               ["aifa_mean_active"] * len(grid) + ["bfry_mean_active"],
               [f"K={K};a={float(a)!r};b={b}" for a, b in grid] + [f"K={K}"], values)
    results = dict(zip([f"aifa(a={a},b={b})" for a, b in grid] + ["bfry"], values))
    _write_atomic(os.path.join(out, "summary.json"), json.dumps(results, indent=2))
    return True, results


_COMMANDS = {
    "sample-prior": cmd_sample_prior,
    "marginal-sim": cmd_marginal_sim,
    "check-conditions": cmd_check_conditions,
    "bounds-table": cmd_bounds_table,
    "eppf-convergence": cmd_eppf_convergence,
    "make-data": cmd_make_data,
    "gibbs-run": cmd_gibbs_run,
    "compare-ifa": cmd_compare_ifa,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="crmfinite",
        description="Finite CRM approximations: seeded experiment runner")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--seed", type=int, default=None, help="64-bit master seed")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--replicates", type=int, default=1)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    config = seed = None
    try:
        os.makedirs(args.out, exist_ok=True)
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ConfigError("config must be a JSON object")
        seed = config.get("seed")
        if args.seed is not None:
            seed = args.seed
        if os.environ.get("BNP_SEED"):
            seed = int(os.environ["BNP_SEED"])
        if seed is None:
            raise ConfigError("no seed: set BNP_SEED, --seed, or config.seed")
        seed = int(seed) & (2**64 - 1)
        replicates = _integer(args.replicates, "--replicates")
        ok, summary = _COMMANDS[args.command](config, args.out, seed, replicates)
        status, code, message = ("ok", 0, None) if ok else ("check_failed", 1, {"failures": summary})
    except (ValueError, KeyError, FileNotFoundError) as exc:
        status, code, message = "config_error", 2, {"error": type(exc).__name__, "detail": str(exc)}
    except Exception as exc:  # a crash: the traceback, then the one-line JSON error
        traceback.print_exc()
        status, code, message = "crashed", 3, {"error": type(exc).__name__, "detail": str(exc)}
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "config_sha256": None if config is None else hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()).hexdigest(),
        "seed": seed,
        "replicates": args.replicates,
        "library_version": __version__,
        "wall_time_s": time.perf_counter() - started,
        "pass": status == "ok",
        "status": status,
    }
    try:
        _write_atomic(os.path.join(args.out, "manifest.json"), json.dumps(manifest, indent=2))
    except OSError:  # --out is not writable; the error line below names the cause
        traceback.print_exc()
    if message is not None:
        print(json.dumps(message), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
