"""Reproducible experiment runner.

Every subcommand reads a JSON config, derives all randomness from a single
64-bit master seed (env BNP_SEED > --seed flag > config "seed"), writes its
outputs plus a manifest.json into --out, and exits 0 only if every requested
check passed (1: a check failed).  A run first parses: it builds every model,
distribution, count and data grid it needs before it draws or writes.  A
config object's fields are the parameters of the constructor that builds it
(required where it has no default), numbers are finite and seeds integers;
bad input raises ConfigError, the one exception that exits 2, with the
manifest as the only output.  Anything raised after parsing exits 3.
Replicate r runs on its own SFC64 stream derive_rng(master, r), independent
of the others through its SeedSequence spawn key; files are written
atomically (tmp + rename) and merged in replicate order, so outputs are
byte-identical for identical (config, seed, version).  A write that raises
removes its temp file and leaves the target as it was.  Every table is one
CSV written in fixed blocks of rows, so the writer's memory is bounded by one
block, not by the table.  The manifest records the config hash, seed, library
version, wall time and peak resident memory (the two fields that vary between
runs) and the run's status: ok, check_failed, config_error or crashed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import inspect
import json
import math
import os
import sys
import time
import traceback

try:
    import resource
except ImportError:  # Unix only; elsewhere the manifest's peak_rss_mb is null
    resource = None

import numpy as np

from . import __version__
from .analysis import (
    DPSource,
    FSDSource,
    POISSON_MEAN_MAX,
    all_compositions,
    binom_poisson_lower_constant,
    eppf,
    lecam_upper,
    tv_binom_poisson,
)
from .approximations import (
    AifaConfig,
    aifa_closed_form,
    beta_stick_breaking,
    bfry,
    bondesson,
    fsd,
    sample_weights,
    tsb,
)
from .checks import integer, real
from .inference import (
    CHAIN_STATS,
    LinearGaussianModel,
    generate_synthetic,
    impute_heldout_locals,
    predictive_log_likelihood,
    run_chain,
)
from .marginals import (
    beta_bernoulli,
    beta_negative_binomial,
    check_condition_1,
    gamma_poisson,
    generic_condition_bounds,
    simulate_allocation,
)
from .measures import rate_measure
from .rng import derive_rng

SCHEMA_VERSION = 1


class ConfigError(Exception):
    """Bad input, found while parsing and before any work: the run exits 2."""


@contextlib.contextmanager
def _rejecting(where=None):
    """Re-raise a ValueError, TypeError, KeyError or OSError as a ConfigError naming where."""
    try:
        yield
    except (ValueError, TypeError, KeyError, OSError) as exc:
        raise ConfigError(f"{where}: {exc}" if where else str(exc)) from exc


def _require_keys(obj, required, optional=(), where="config"):
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown fields in {where}: {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(f"missing fields in {where}: {sorted(missing)}")


def _build(fn, obj, where, **given):
    """``fn(**obj, **given)`` for a JSON object whose fields are fn's other parameters,
    required where fn gives no default; a ValueError, TypeError or KeyError from fn
    becomes a ConfigError naming ``where``.  ``fn`` may be a {kind: constructor}
    table, from which obj's "kind" field picks the constructor."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object, got {obj!r}")
    if isinstance(fn, dict):
        obj = dict(obj)
        kind = obj.pop("kind", None)
        if kind not in list(fn):
            raise ConfigError(f"{where} kind must be one of {sorted(fn)}, got {kind!r}")
        fn = fn[kind]
    params = [p for p in inspect.signature(fn).parameters.values() if p.name not in given]
    _require_keys(obj, {p.name for p in params if p.default is p.empty},
                  {p.name for p in params if p.default is not p.empty}, where)
    with _rejecting(where):
        return fn(**obj, **given)


def _integer(value, field, floor=1):
    """A count from a config or flag: an integer (not a bool) >= floor."""
    with _rejecting():
        return integer(value, field, floor)


def _counts(value, field, distinct=1):
    """A list of integers >= 1 holding at least ``distinct`` different values,
    none repeated."""
    if not isinstance(value, list):
        raise ConfigError(f"{field} must be a list, got {value!r}")
    counts = [_integer(v, f"{field} entries") for v in value]
    if len(set(counts)) < len(counts):
        raise ConfigError(f"{field} must not repeat an entry, got {value!r}")
    if len(counts) < distinct:
        raise ConfigError(f"{field} must hold at least {distinct} different integers, "
                          f"got {value!r}")
    return counts


def _check_finite(value, path=""):
    """Reject NaN and +-Infinity anywhere in a parsed JSON value, naming its path."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{path} must be a finite number, got {value}")
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            _check_finite(item, f"{path}[{key}]" if isinstance(key, int)
                          else f"{path}.{key}" if path else key)


def _master_seed(config, flag):
    """BNP_SEED, else --seed, else the config's seed, masked to 64 bits.  Each
    one given must be an integer, even where another overrides it."""
    with _rejecting("BNP_SEED"):
        env = int(os.environ["BNP_SEED"]) if os.environ.get("BNP_SEED") else None
    own = config.get("seed")
    if own is not None and (isinstance(own, bool) or not isinstance(own, int)):
        raise ConfigError(f"config seed must be an integer, got {own!r}")
    seed = next((s for s in (env, flag, own) if s is not None), None)
    if seed is None:
        raise ConfigError("no seed: set BNP_SEED, --seed, or config.seed")
    return seed & (2**64 - 1)


def _write_atomic(path, text, lines=()):
    """Write ``text``, then stream the strings ``lines``, to a temp file renamed to ``path``.

    If anything raises, the temp file is removed and ``path`` is left as it was."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
            fh.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        # the write's own exception is the one to report, not a failed clean-up
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


# rows formatted at a time: a block's Python objects are the writer's only
# memory that grows with the table
_BLOCK_ROWS = 4096


def _write_csv(path, header, *columns):
    """Write equal-length 1-D columns as a CSV table, one line per row.

    A cell is ``str`` of its column's ``tolist()`` value: the shortest repr
    that round-trips for a float, the digits for an integer.  Rows are
    formatted and written ``_BLOCK_ROWS`` at a time.  Columns of unequal
    length raise ValueError before any file is opened."""
    columns = [np.asarray(c) for c in columns]
    lengths = {len(c) for c in columns}
    if len(lengths) != 1:
        raise ValueError(f"{path}: expected columns of one length, got {[len(c) for c in columns]}")
    (n_rows,) = lengths
    line = ",".join(["%s"] * len(columns)) + "\n"

    def blocks():
        for start in range(0, n_rows, _BLOCK_ROWS):
            rows = zip(*(c[start:start + _BLOCK_ROWS].tolist() for c in columns))
            yield "".join(map(line.__mod__, rows))

    _write_atomic(path, ",".join(header) + "\n", blocks())


def _by_replicate(tables):
    """One table from per-replicate tuples of columns, led by a replicate column."""
    return (np.repeat(np.arange(len(tables)), [len(t[0]) for t in tables]),
            *(np.concatenate(cols) for cols in zip(*tables)))


def _spec(family, gamma, discount, extras):
    """A RateMeasureSpec from its JSON form."""
    return rate_measure(family, gamma, discount, **extras)


def _aifa_numeric(spec, K, a=1.0, b=None, indicator="smoothed"):
    return AifaConfig(_build(_spec, spec, "spec"), K, a, b, indicator)


def _aifa_closed_form(spec, K):
    return aifa_closed_form(_build(_spec, spec, "spec"), K)


# the fields of each kind are the parameters of its constructor
_WEIGHT_KINDS = {"aifa_numeric": _aifa_numeric, "aifa_closed_form": _aifa_closed_form,
                 "bondesson": bondesson, "beta_stick_breaking": beta_stick_breaking,
                 "tsb": tsb, "fsd": fsd, "bfry": bfry}
_MODEL_KINDS = {"beta_bernoulli": beta_bernoulli, "gamma_poisson": gamma_poisson,
                "beta_neg_binomial": beta_negative_binomial}


# ---------------------------------------------------------------------------
# subcommands; each returns (ok, summary_dict)
# ---------------------------------------------------------------------------

def cmd_sample_prior(config, out, seed, replicates):
    _require_keys(config, {"distribution"}, {"seed"}, "sample-prior config")
    dist = _build(_WEIGHT_KINDS, config["distribution"], "distribution")

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
        "kind": dist.kind,
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
    model = _build(_MODEL_KINDS, config["model"], "model")
    N, source, K = _integer(config["N"], "N"), config["source"], config.get("K")
    K = None if K is None else _integer(K, "K")
    if source not in ("target", "aifa"):
        raise ConfigError(f"source must be 'target' or 'aifa', got {source!r}")
    if source == "aifa" and K is None:
        raise ConfigError("source 'aifa' needs an approximation level K")
    if source == "target" and K is not None:
        raise ConfigError(f"source 'target' takes no approximation level K, got {K}")

    allocs = [simulate_allocation(model, N, derive_rng(seed, rep), K=K)
              for rep in range(replicates)]
    cells = [(*np.nonzero(a.counts), a.counts[a.counts != 0]) for a in allocs]
    _write_csv(os.path.join(out, "allocations.csv"), ("replicate", "row", "col", "count"),
               *_by_replicate(cells))
    cols = np.array([a.n_columns for a in allocs], dtype=float)
    summary = {"model": model.kind, "N": N, "source": source, "K": K,
               "replicates": replicates,
               "mean_columns": float(cols.mean()), "var_columns": float(cols.var())}
    _write_atomic(os.path.join(out, "summary.json"), json.dumps(summary, indent=2))
    return True, summary


def cmd_check_conditions(config, out, seed, replicates):
    _require_keys(config, {"model", "n_max", "K_set"}, {"constants", "seed"},
                  "check-conditions config")
    model = _build(_MODEL_KINDS, config["model"], "model")
    bounds = (_build(generic_condition_bounds, config["constants"], "constants")
              if "constants" in config else model.preset())
    n_max, K_set = _integer(config["n_max"], "n_max", 2), _counts(config["K_set"], "K_set")
    report = check_condition_1(model, bounds, n_max, K_set)
    _write_atomic(os.path.join(out, "report.json"), json.dumps(report, indent=2))
    return bool(report["pass"]), {"pass": report["pass"], "bounds": bounds.name}


def cmd_bounds_table(config, out, seed, replicates):
    _require_keys(config, {"gamma", "K_max"}, {"K_min", "seed"}, "bounds-table config")
    with _rejecting():
        gamma = real(config["gamma"], "gamma")
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
    # a slope needs two K
    N, K_set = _integer(config["N"], "N"), sorted(_counts(config["K_set"], "K_set", 2))
    with _rejecting():
        alpha = real(config["alpha"], "alpha")
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
    # generate_synthetic checks every parameter before its first draw
    fields = {k: v for k, v in config.items() if k != "seed"}
    y, truth = _build(generate_synthetic, fields, "make-data config", rng=derive_rng(seed, 0))
    n, d = y.shape
    _write_csv(os.path.join(out, "data.csv"), ("row", "dim", "value"),
               np.repeat(np.arange(n), d), np.tile(np.arange(d), n), y.ravel())
    summary = {"N": n, "D": d, "n_features": config["n_features"],
               "true_active_per_row": float(truth["x"].sum(axis=1).mean())}
    _write_atomic(os.path.join(out, "summary.json"), json.dumps(summary, indent=2))
    return True, summary


def read_data_csv(path) -> np.ndarray:
    """The (row, dim) grid of a row,dim,value CSV after a header line: finite values at
    non-negative integer indices that name each cell of the grid exactly once; else ValueError."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape[0] == 0 or table.shape[1] != 3:
        raise ValueError(f"{path}: expected one or more row,dim,value lines after the header")
    if not np.all(np.isfinite(table)):
        raise ValueError(f"{path}: {int((~np.isfinite(table)).sum())} non-finite values")
    rows, dims, values = table.T
    width = dims.max() + 1
    # each cell appears once iff the n flat indices are 0..n-1 and n is whole rows
    flat = rows * width + dims
    order = np.argsort(flat)
    if (np.any(table[:, :2] < 0) or np.any(table[:, :2] % 1) or flat.size % width
            or np.any(flat[order] != np.arange(flat.size))):
        raise ValueError(f"{path}: row and dim must be non-negative integers that name each cell "
                          f"of the (max row + 1) x (max dim + 1) grid exactly once")
    return values[order].reshape(-1, int(width))


def _data_grid(path, field, D):
    """The data grid at the path in a config field, checked to have D columns."""
    if not isinstance(path, str):
        raise ConfigError(f"{field} must be a file path, got {path!r}")
    with _rejecting(field):
        y = read_data_csv(path)
    if y.shape[1] != D:
        raise ConfigError(f"{field}: {path} holds {y.shape[1]}-dim rows, but model D is {D}")
    return y


def cmd_gibbs_run(config, out, seed, replicates):
    _require_keys(config, {"model", "prior_kind", "sweeps", "burnin", "data_path"},
                  {"thin", "heldout_path", "heldout_scans", "seed"}, "gibbs-run config")
    # "prior" is no field of the model object; a bad prior_kind is named as such
    model = _build(LinearGaussianModel, config["model"], "model", prior="aifa")
    with _rejecting("prior_kind"):
        model = dataclasses.replace(model, prior=config["prior_kind"])
    sweeps = _integer(config["sweeps"], "sweeps")
    burnin = _integer(config["burnin"], "burnin", 0)
    thin = _integer(config.get("thin", max(1, (sweeps - burnin) // 50)), "thin")
    scans = _integer(config.get("heldout_scans", 5), "heldout_scans", 0)
    heldout_path = config.get("heldout_path")
    if heldout_path is not None and max(0, sweeps - burnin) // thin == 0:
        raise ConfigError(f"a heldout_path needs a kept sample, and sweeps={sweeps}, "
                          f"burnin={burnin}, thin={thin} keep none")
    y = _data_grid(config["data_path"], "data_path", model.D)
    heldout = None if heldout_path is None else _data_grid(heldout_path, "heldout_path", model.D)

    def one(rep):
        rng = derive_rng(seed, rep)
        state, samples, stats = run_chain(model, y, sweeps, rng, burnin=burnin, thin=thin)
        pll = None if heldout is None else predictive_log_likelihood(
            impute_heldout_locals(samples, heldout, model, rng, scans=scans), heldout)
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
        values = {f.name: getattr(state, f.name) for f in dataclasses.fields(state)}
        checkpoint = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in values.items()}
        _write_atomic(os.path.join(out, f"state_{rep:04d}.json"), json.dumps(checkpoint))
    plls = [pll for *_, pll in results if pll is not None]
    summary = {"prior_kind": model.prior, "sweeps": sweeps, "burnin": burnin,
               "thin": thin, "replicates": replicates,
               "predictive_log_likelihood": plls or None,
               "degenerate_draws": [state.degenerate_draws for state, *_ in results]}
    _write_atomic(os.path.join(out, "summary.json"), json.dumps(summary, indent=2))
    return True, summary


def cmd_compare_ifa(config, out, seed, replicates):
    _require_keys(config, {"spec", "K", "draws"}, {"a_grid", "b_grid", "seed"},
                  "compare-ifa config")
    spec = _build(_spec, config["spec"], "spec")
    K, draws = _integer(config["K"], "K"), _integer(config["draws"], "draws")
    if draws < K:
        raise ConfigError(f"draws must cover at least one K-vector (K={K})")
    # one stream per construction: the AIFA (a, b) grid in order, then BFRY
    with _rejecting("a_grid and b_grid"):
        grid = [(a, b) for a in config.get("a_grid", [1.0]) for b in config.get("b_grid", ["1/K"])]
        dists = [AifaConfig(spec, K, a=a, b=b) for a, b in grid]
    with _rejecting("spec"):
        dists.append(bfry(spec.gamma, spec.discount, K))

    def mean_active(dist, stream):
        # 50k draws per call: bigger batches leave the heap fragmented and
        # raise peak RSS over repeated runs, without being faster
        rng, n_vec, per_call = derive_rng(seed, stream), draws // K, max(1, 50_000 // K)
        total = 0.0
        for start in range(0, n_vec, per_call):
            w = np.minimum(sample_weights(dist, rng, size=min(per_call, n_vec - start)), 1.0)
            total += (rng.random(w.shape) < w).sum()
        return total / n_vec

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


def _peak_rss_mb():
    """The process's peak resident set size so far in MiB, or None where unknown."""
    if resource is None:
        return None
    # ru_maxrss is in KiB on Linux, in bytes on macOS
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (
        2**20 if sys.platform == "darwin" else 2**10)


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
        with _rejecting("--config"), open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ConfigError("config must be a JSON object")
        _check_finite(config)
        seed = _master_seed(config, args.seed)
        replicates = _integer(args.replicates, "--replicates")
        ok, summary = _COMMANDS[args.command](config, args.out, seed, replicates)
        status, code, message = ("ok", 0, None) if ok else ("check_failed", 1, {"failures": summary})
    except ConfigError as exc:
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
        "peak_rss_mb": _peak_rss_mb(),
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
