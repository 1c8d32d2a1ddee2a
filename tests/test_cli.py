import contextlib
import copy
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

import crmfinite
from crmfinite import _special, cli
from crmfinite.cli import main, read_data_csv


def run(tmp_path, command, config, seed=11, replicates=1, name="cfg", env=None, extra=()):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / f"out_{name}_{seed}_{replicates}"
    argv = [command, "--config", str(cfg), "--seed", str(seed), "--out", str(out),
            "--replicates", str(replicates), *extra]
    old = {}
    if env:
        for k, v in env.items():
            old[k] = os.environ.get(k)
            os.environ[k] = v
    try:
        code = main(argv)
    finally:
        for k, v in old.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return code, out


def test_aifa_sample_prior_imports_only_scipy_special(tmp_path):
    # one fresh process: the import, make-data, bounds-table and a
    # stick-breaking sample-prior load no scipy at all; then one cold AIFA run
    # (inverse-CDF table and KS check) loads scipy.special and nothing else
    src = os.path.dirname(os.path.dirname(crmfinite.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    configs = {
        "make-data": {"N": 12, "D": 3, "n_features": 2},
        "bounds-table": {"gamma": 1.5, "K_min": 2, "K_max": 6},
        "sample-prior": {"distribution": {"kind": "beta_stick_breaking", "K": 4,
                                          "gamma": 2.0, "alpha": 1.0}},
        "aifa": {"distribution": {"kind": "aifa_numeric", "K": 5, "spec": {
            "family": "beta", "gamma": 2.0, "discount": 0.6, "extras": {"eta": 0.6}}}},
    }
    for name, config in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
    probe = (
        "import sys, crmfinite.cli as cli\n"
        "def run(command, name):\n"
        "    code = cli.main([command, '--config', f'{sys.argv[1]}/{name}.json', '--seed', '3',\n"
        "                     '--out', f'{sys.argv[1]}/{name}'])\n"
        "    if code:\n"
        "        sys.exit(f'{name} exited {code}')\n"
        "def no_scipy(after):\n"
        "    if 'scipy' in sys.modules:\n"
        "        sys.exit(f'scipy imported by {after}')\n"
        "no_scipy('import')\n"
        "for command in ('make-data', 'bounds-table', 'sample-prior'):\n"
        "    run(command, command)\n"
        "    no_scipy(command)\n"
        "run('sample-prior', 'aifa')\n"
        "bad = [m for m in ('scipy.interpolate', 'scipy.stats', 'scipy.optimize')"
        " if m in sys.modules]\n"
        "sys.exit(f'imported {bad}' if bad or 'scipy.special' not in sys.modules else 0)\n")
    done = subprocess.run([sys.executable, "-c", probe, str(tmp_path)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    for name, table in (("make-data", "data.csv"), ("bounds-table", "bounds.csv"),
                        ("sample-prior", "weights.csv"), ("aifa", "weights.csv")):
        assert (tmp_path / name / table).exists()


def test_special_shim_resolves_to_scipy_objects():
    for name in ("gammaln", "betaln", "betainc", "betaincinv", "digamma", "poch",
                 "logsumexp", "kolmogorov"):
        assert getattr(_special, name) is getattr(special, name)
        assert vars(_special)[name] is getattr(special, name)  # stored on first use
    for name in ("not_a_function", "erf", "expit", "__path__"):
        with pytest.raises(AttributeError):
            getattr(_special, name)


def test_sample_prior_fsd_symmetry(tmp_path):
    config = {"distribution": {"kind": "fsd", "K": 2, "gamma": 1.0}}
    code, out = run(tmp_path, "sample-prior", config, replicates=3000)
    assert code == 0
    lines = (out / "weights.csv").read_text().strip().splitlines()
    assert lines[0] == "replicate,atom_index,weight"
    first = np.array([float(l.split(",")[2]) for l in lines[1:] if l.split(",")[1] == "0"])
    assert abs(first.mean() - 0.5) < 3 * first.std() / np.sqrt(first.size)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mean_total_mass"] == pytest.approx(1.0, abs=1e-12)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["pass"] and manifest["seed"] == 11 and manifest["command"] == "sample-prior"
    assert manifest["status"] == "ok" and manifest["peak_rss_mb"] > 0


def test_outputs_byte_identical_across_runs(tmp_path):
    config = {"distribution": {"kind": "bondesson", "K": 6, "gamma": 1.0, "alpha": 1.5}}
    _, out1 = run(tmp_path, "sample-prior", config, replicates=8, name="a")
    _, out2 = run(tmp_path, "sample-prior", config, replicates=8, name="b")
    assert (out1 / "weights.csv").read_bytes() == (out2 / "weights.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def _one_shot_csv(header, *columns):
    """The table as one string, every row formatted at once: the block writer's reference."""
    line = ",".join(["%s"] * len(columns)) + "\n"
    rows = zip(*(np.asarray(c).tolist() for c in columns), strict=True)
    return ",".join(header) + "\n" + "".join(map(line.__mod__, rows))


_B = cli._BLOCK_ROWS


@pytest.mark.parametrize("n_rows", [0, 1, _B - 1, _B, _B + 1, 2 * _B + 1])
def test_csv_blocks_match_one_shot_writer(tmp_path, n_rows):
    columns = (np.arange(n_rows, dtype=np.int64) - n_rows // 2,
               np.resize([1e-300, -0.0, 0.1, 1 / 3, 1e22, -2.5e-8], n_rows),
               np.resize(np.array(["tv_binom_poisson", "K=3;gamma=1.5", "1+2"]), n_rows),
               [f"s{i}" for i in range(n_rows)])
    header = ("int", "float", "unicode", "str")
    cli._write_csv(tmp_path / "t.csv", header, *columns)
    assert (tmp_path / "t.csv").read_text() == _one_shot_csv(header, *columns)
    assert os.listdir(tmp_path) == ["t.csv"]


class _Unprintable:
    def __str__(self):
        raise RuntimeError("cell failed to format mid-table")


def test_failed_write_leaves_no_temp_file(tmp_path):
    # the bad cell sits in the second block, after the first was written
    target = tmp_path / "t.csv"
    cells = np.array([0] * (_B + 1) + [_Unprintable()], dtype=object)
    with pytest.raises(RuntimeError, match="mid-table"):
        cli._write_csv(target, ("a", "b"), np.arange(cells.size), cells)
    assert os.listdir(tmp_path) == []
    target.write_text("kept\n")
    with pytest.raises(RuntimeError, match="mid-table"):
        cli._write_csv(target, ("a", "b"), np.arange(cells.size), cells)
    assert os.listdir(tmp_path) == ["t.csv"] and target.read_text() == "kept\n"
    # unequal columns are rejected before any file is opened
    with pytest.raises(ValueError, match="one length"):
        cli._write_csv(tmp_path / "u.csv", ("a", "b"), [1, 2, 3], [1, 2])
    assert os.listdir(tmp_path) == ["t.csv"]


def test_csv_writer_memory_bounded_by_one_block(tmp_path):
    # a writer that lists every cell of the table at once traces about 7 MB here
    n = 100_000
    columns = (np.repeat(np.arange(n // 100), 100), np.tile(np.arange(100), n // 100),
               np.random.default_rng(0).random(n))
    tracemalloc.start()
    try:
        cli._write_csv(tmp_path / "w.csv", ("replicate", "atom_index", "weight"), *columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert (tmp_path / "w.csv").read_bytes().count(b"\n") == n + 1


def test_threads_flag_rejected(tmp_path, capsys):
    config = {"distribution": {"kind": "fsd", "K": 2, "gamma": 1.0}}
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "sample-prior", config, replicates=2, extra=("--threads", "2"))
    assert exc.value.code == 2
    capsys.readouterr()


def test_seed_changes_output(tmp_path):
    config = {"distribution": {"kind": "tsb", "K": 4, "alpha": 1.0}}
    _, out1 = run(tmp_path, "sample-prior", config, seed=1, name="s1")
    _, out2 = run(tmp_path, "sample-prior", config, seed=2, name="s2")
    assert (out1 / "weights.csv").read_text() != (out2 / "weights.csv").read_text()


def test_env_seed_override(tmp_path):
    config = {"distribution": {"kind": "tsb", "K": 4, "alpha": 1.0}}
    _, out1 = run(tmp_path, "sample-prior", config, seed=1, name="e1", env={"BNP_SEED": "99"})
    _, out2 = run(tmp_path, "sample-prior", config, seed=99, name="e2")
    assert (out1 / "weights.csv").read_text() == (out2 / "weights.csv").read_text()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["seed"] == 99


def test_unknown_field_rejected(tmp_path, capsys):
    config = {"distribution": {"kind": "fsd", "K": 2, "gamma": 1.0}, "bogus": 1}
    code, out = run(tmp_path, "sample-prior", config, name="bad")
    assert code == 2
    err = capsys.readouterr().err
    assert json.loads(err.strip().splitlines()[-1])["error"] == "ConfigError"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "config_error" and not manifest["pass"]


def test_crash_exits_3_with_manifest(tmp_path, capsys, monkeypatch):
    def boom(config, out, seed, replicates):
        raise RuntimeError("sweep produced non-finite values")

    monkeypatch.setitem(cli._COMMANDS, "sample-prior", boom)
    config = {"distribution": {"kind": "fsd", "K": 2, "gamma": 1.0}}
    code, out = run(tmp_path, "sample-prior", config, name="crash")
    assert code == 3
    err = capsys.readouterr().err
    assert "Traceback" in err
    last = json.loads(err.strip().splitlines()[-1])
    assert last == {"error": "RuntimeError", "detail": "sweep produced non-finite values"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "crashed" and not manifest["pass"]
    assert manifest["seed"] == 11 and manifest["wall_time_s"] >= 0
    assert manifest["peak_rss_mb"] > 0


def test_invalid_payload_nonzero_exit(tmp_path, capsys):
    config = {"distribution": {"kind": "fsd", "K": 0, "gamma": 1.0}}
    code, _ = run(tmp_path, "sample-prior", config, name="inv")
    assert code == 2
    err = capsys.readouterr().err
    assert "error" in json.loads(err.strip().splitlines()[-1])


def test_check_conditions_preset_and_failure_exit(tmp_path, capsys):
    good = {"model": {"kind": "gamma_poisson", "gamma": 1.0, "lam": 1.0},
            "n_max": 50, "K_set": [10]}
    code, out = run(tmp_path, "check-conditions", good, name="good")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] and report["bounds"] == "gamma_poisson"
    bad = {"model": {"kind": "beta_bernoulli", "gamma": 1.0, "alpha": 1.0},
           "n_max": 50, "K_set": [10], "constants": {"C1": 0.1}}
    code, out = run(tmp_path, "check-conditions", bad, name="badc")
    assert code == 1
    assert not json.loads((out / "report.json").read_text())["pass"]
    assert json.loads((out / "manifest.json").read_text())["status"] == "check_failed"
    capsys.readouterr()


def test_bounds_table(tmp_path):
    code, out = run(tmp_path, "bounds-table", {"gamma": 1.0, "K_max": 5})
    assert code == 0
    lines = (out / "bounds.csv").read_text().strip().splitlines()
    assert lines[0] == "name,args,value"
    names = {l.split(",")[0] for l in lines[1:]}
    assert names == {"binom_poisson_lower_constant", "tv_binom_poisson",
                     "binom_poisson_lower", "lecam_upper"}


_GP_MODEL = {"kind": "gamma_poisson", "gamma": 1.0, "lam": 1.0}
_SPEC_BP = {"family": "beta", "gamma": 2.0, "discount": 0.6, "extras": {"eta": 0.6}}
_GIBBS = {"model": {"D": 2, "gamma": 1.0, "alpha": 1.0, "K": 3}, "prior_kind": "aifa",
          "sweeps": 4, "burnin": 2, "data_path": "data.csv"}

# the fields of one config per weight kind and per model kind
_KIND_FIELDS = {
    "aifa_numeric": {"K": 5, "spec": _SPEC_BP},
    "aifa_closed_form": {"K": 5, "spec": dict(_SPEC_BP, discount=0.0)},
    "bondesson": {"gamma": 1.0, "alpha": 1.0, "K": 3},
    "beta_stick_breaking": {"gamma": 1.0, "alpha": 1.0, "K": 3},
    "tsb": {"alpha": 1.0, "K": 3},
    "fsd": {"gamma": 1.0, "K": 3},
    "bfry": {"gamma": 1.0, "d": 0.5, "K": 3},
    "beta_bernoulli": {"gamma": 1.0, "alpha": 1.0},
    "gamma_poisson": {"gamma": 1.0, "lam": 1.0},
    "beta_neg_binomial": {"gamma": 1.0, "alpha": 2.0, "r": 1.0},
}


def test_every_kind_builds_an_object_of_that_kind():
    # the kind a config names is the kind that summary.json and report.json write
    assert set(_KIND_FIELDS) == set(cli._WEIGHT_KINDS) | set(cli._MODEL_KINDS)
    for table in (cli._WEIGHT_KINDS, cli._MODEL_KINDS):
        for kind in table:
            built = cli._build(table, {"kind": kind, **_KIND_FIELDS[kind]}, "kind")
            assert built.kind == kind


@pytest.mark.parametrize("command, config, field", [
    ("bounds-table", {"gamma": 1.0, "K_min": 0, "K_max": 5}, "K_min"),
    ("bounds-table", {"gamma": 1.0, "K_max": 0}, "K_max"),
    ("bounds-table", {"gamma": 1.0, "K_max": 3.7}, "K_max"),
    ("bounds-table", {"gamma": 1.0, "K_min": 6, "K_max": 5}, "K_min"),
    ("bounds-table", {"gamma": 800.0, "K_max": 5}, "gamma"),
    ("bounds-table", {"gamma": float("inf"), "K_max": 5}, "gamma"),
    ("bounds-table", {"gamma": float("nan"), "K_max": 5}, "gamma"),
    ("check-conditions", {"model": _GP_MODEL, "n_max": 50, "K_set": [0]}, "K_set"),
    ("check-conditions", {"model": _GP_MODEL, "n_max": 50, "K_set": [2.5]}, "K_set"),
    ("check-conditions", {"model": _GP_MODEL, "n_max": 50, "K_set": []}, "K_set"),
    ("check-conditions", {"model": _GP_MODEL, "n_max": 1, "K_set": [10]}, "n_max"),
    ("check-conditions", {"model": _GP_MODEL, "n_max": 50, "K_set": [10, 10]}, "K_set"),
    # every count field must be a JSON integer (not a bool) at or above its floor
    ("sample-prior", {"distribution": {"kind": "fsd", "K": 2.5, "gamma": 1.0}}, "K"),
    ("sample-prior", {"distribution": {"kind": "fsd", "K": True, "gamma": 1.0}}, "K"),
    ("marginal-sim", {"model": _GP_MODEL, "N": 10, "source": "aifa", "K": 7.5}, "K"),
    ("marginal-sim", {"model": _GP_MODEL, "N": 2.5, "source": "target"}, "N"),
    ("marginal-sim", {"model": _GP_MODEL, "N": 5, "source": "target", "K": 3}, "K"),
    ("eppf-convergence", {"alpha": 1.0, "N": 3.5, "K_set": [4, 16]}, "N"),
    ("eppf-convergence", {"alpha": 1.0, "N": 3, "K_set": [4, 16.5]}, "K_set"),
    ("eppf-convergence", {"alpha": 1.0, "N": 3, "K_set": [5, 5, 10, 20]}, "K_set"),
    ("make-data", {"N": "10", "D": 2, "n_features": 1}, "N"),
    ("make-data", {"N": 10, "D": 2.0, "n_features": 1}, "D"),
    ("make-data", {"N": 10, "D": 2, "n_features": -1}, "n_features"),
    ("compare-ifa", {"spec": _SPEC_BP, "K": 5.5, "draws": 100}, "K"),
    ("compare-ifa", {"spec": _SPEC_BP, "K": 5, "draws": 1e5}, "draws"),
    ("compare-ifa", {"spec": _SPEC_BP, "K": 5, "draws": 4}, "draws"),
    ("gibbs-run", dict(_GIBBS, model=dict(_GIBBS["model"], K=3.5)), "K"),
    ("gibbs-run", dict(_GIBBS, model=dict(_GIBBS["model"], D=2.0)), "D"),
    ("gibbs-run", dict(_GIBBS, sweeps=10.5), "sweeps"),
    ("gibbs-run", dict(_GIBBS, burnin=-1), "burnin"),
    ("gibbs-run", dict(_GIBBS, thin=0), "thin"),
    ("gibbs-run", dict(_GIBBS, heldout_scans=2.5), "heldout_scans"),
    # a kind's fields are its constructor's parameters; numbers are finite
    ("sample-prior", {"distribution": {"kind": "fsd", "K": 2, "gamma": 1.0, "alpha": 5}},
     "alpha"),
    ("marginal-sim", {"model": dict(_GP_MODEL, alpha=1.0), "N": 10, "source": "target"},
     "alpha"),
    ("check-conditions", {"model": _GP_MODEL, "n_max": 50, "K_set": [10],
                          "constants": {"C1": "x"}}, "C1"),
    ("marginal-sim", {"model": dict(_KIND_FIELDS["beta_neg_binomial"], kind="beta_neg_binomial",
                                    r="2"), "N": 10, "source": "target"}, "r must be"),
    ("check-conditions", {"model": dict(_KIND_FIELDS["beta_neg_binomial"],
                                        kind="beta_neg_binomial", r=True),
                          "n_max": 50, "K_set": [10]}, "r must be"),
    ("gibbs-run", dict(_GIBBS, model=dict(_GIBBS["model"], prec_shape=float("inf"))),
     "model.prec_shape"),
    # checks that would otherwise fire only after the run has started
    ("gibbs-run", dict(_GIBBS, model=dict(_GIBBS["model"], D=3)), "D"),
    ("gibbs-run", dict(_GIBBS, prior_kind="bogus"), "prior_kind"),
    ("gibbs-run", dict(_GIBBS, model=dict(_GIBBS["model"], alpha=2.0),
                       prior_kind="bondesson_tfa"), "prior_kind"),
    # the model's prior comes from prior_kind alone
    ("gibbs-run", dict(_GIBBS, model=dict(_GIBBS["model"], prior="aifa")),
     "unknown fields in model: ['prior']"),
    ("eppf-convergence", {"alpha": 1.0, "N": 3, "K_set": [4]}, "K_set"),
    ("gibbs-run", dict(_GIBBS, burnin=4, heldout_path="data.csv"), "sweeps=4, burnin=4"),
    ("sample-prior", [{"distribution": {"kind": "fsd", "K": 2, "gamma": 1.0}}], "JSON object"),
], ids=["K_min=0", "K_max=0", "K_max=3.7", "K_min>K_max", "gamma=800", "gamma=inf", "gamma=nan",
        "K_set=[0]", "K_set=[2.5]", "K_set=[]", "n_max=1", "K_set=[10,10]",
        "prior-K=2.5", "prior-K=true", "marginal-K=7.5", "marginal-N=2.5", "marginal-target-K=3",
        "eppf-N=3.5", "eppf-K_set=[4,16.5]", "eppf-K_set=[5,5,10,20]",
        "data-N='10'", "data-D=2.0", "data-n_features=-1",
        "compare-K=5.5", "compare-draws=1e5", "compare-draws<K", "gibbs-K=3.5", "gibbs-D=2.0", "gibbs-sweeps=10.5",
        "gibbs-burnin=-1", "gibbs-thin=0", "gibbs-heldout_scans=2.5",
        "fsd-alpha", "gamma_poisson-alpha", "constants-C1='x'", "bnb-r='2'", "bnb-r=true", "gibbs-prec_shape=inf",
        "gibbs-D=3-vs-2-dim-data", "gibbs-prior_kind=bogus", "gibbs-tfa-alpha=2",
        "gibbs-model.prior", "eppf-K_set=[4]",
        "gibbs-burnin=sweeps-heldout", "config-is-a-list"])
def test_table_configs_rejected_at_boundary(tmp_path, capsys, monkeypatch, command, config,
                                            field):
    # the _GIBBS paths name a 2 x 2 grid in the working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.csv").write_text("row,dim,value\n0,0,1.5\n0,1,2.0\n1,0,0.5\n1,1,2.0\n")
    code, out = run(tmp_path, command, config, name="range")
    assert code == 2
    detail = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["detail"]
    assert field in detail
    assert json.loads((out / "manifest.json").read_text())["status"] == "config_error"


@pytest.mark.parametrize("seed", [2.7, True, None])
def test_config_seed_must_be_an_integer(tmp_path, capsys, monkeypatch, seed):
    # None: no seed from BNP_SEED, --seed or the config
    monkeypatch.delenv("BNP_SEED", raising=False)
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps({"distribution": {"kind": "fsd", "K": 2, "gamma": 1.0},
                               "seed": seed}))
    assert main(["sample-prior", "--config", str(cfg), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError"
    assert ("no seed" if seed is None else "config seed") in err["detail"]
    assert json.loads((out / "manifest.json").read_text())["status"] == "config_error"
    assert os.listdir(out) == ["manifest.json"]


def test_env_seed_must_be_an_integer(tmp_path, capsys):
    config = {"distribution": {"kind": "fsd", "K": 2, "gamma": 1.0}}
    code, out = run(tmp_path, "sample-prior", config, env={"BNP_SEED": "abc"})
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError" and "BNP_SEED" in err["detail"]
    assert os.listdir(out) == ["manifest.json"]


def test_missing_config_file_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["bounds-table", "--config", str(tmp_path / "absent.json"), "--seed", "1",
                 "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError" and "--config" in err["detail"]
    assert os.listdir(out) == ["manifest.json"]


def test_value_error_while_running_exits_3(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise ValueError("walk failed")

    monkeypatch.setattr(cli, "simulate_allocation", boom)
    code, out = run(tmp_path, "marginal-sim", {"model": _GP_MODEL, "N": 10, "source": "target"})
    assert code == 3
    err = capsys.readouterr().err
    assert "Traceback" in err
    assert json.loads(err.strip().splitlines()[-1]) == {"error": "ValueError",
                                                         "detail": "walk failed"}
    assert json.loads((out / "manifest.json").read_text())["status"] == "crashed"


@pytest.mark.parametrize("replicates", [-5, 0])
def test_replicates_must_be_a_positive_integer(tmp_path, capsys, replicates):
    config = {"distribution": {"kind": "fsd", "K": 2, "gamma": 1.0}}
    code, out = run(tmp_path, "sample-prior", config, replicates=replicates)
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError" and "--replicates" in err["detail"]
    assert not (out / "weights.csv").exists()


def test_eppf_convergence_cli(tmp_path):
    code, out = run(tmp_path, "eppf-convergence",
                    {"alpha": 1.0, "N": 4, "K_set": [4, 16, 64, 256]})
    assert code == 0
    slopes = json.loads((out / "slopes.json").read_text())
    assert all(abs(v["slope"] + 1) <= 0.3 and v["decreasing"] for v in slopes.values())
    lines = (out / "eppf.csv").read_text().strip().splitlines()
    assert lines[0] == "K,composition,p_K,p_target,abs_gap"


def test_eppf_convergence_rejects_bad_alpha(tmp_path, capsys):
    code, out = run(tmp_path, "eppf-convergence",
                    {"alpha": -1, "N": 3, "K_set": [4, 16]}, name="negalpha")
    assert code == 2
    err = capsys.readouterr().err
    assert json.loads(err.strip().splitlines()[-1])["error"] == "ConfigError"
    assert json.loads((out / "manifest.json").read_text())["status"] == "config_error"
    assert not (out / "eppf.csv").exists()


def test_marginal_sim(tmp_path):
    config = {"model": {"kind": "beta_bernoulli", "gamma": 1.0, "alpha": 1.0},
              "N": 10, "source": "aifa", "K": 6}
    code, out = run(tmp_path, "marginal-sim", config, replicates=5)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mean_columns"] <= 6


def test_gibbs_pipeline(tmp_path):
    code, dout = run(tmp_path, "make-data",
                     {"N": 40, "D": 4, "n_features": 2, "noise_prec": 9.0}, name="mk")
    assert code == 0
    y = read_data_csv(str(dout / "data.csv"))
    assert y.shape == (40, 4)
    config = {"model": {"D": 4, "gamma": 1.0, "alpha": 1.0, "K": 6,
                        "prec_shape": 1.0, "prec_rate": 1.0},
              "prior_kind": "aifa", "sweeps": 30, "burnin": 10,
              "data_path": str(dout / "data.csv"),
              "heldout_path": str(dout / "data.csv")}
    code, gout = run(tmp_path, "gibbs-run", config, replicates=2, name="gr")
    assert code == 0
    summary = json.loads((gout / "summary.json").read_text())
    assert len(summary["predictive_log_likelihood"]) == 2
    assert len(summary["degenerate_draws"]) == 2
    chain = (gout / "chain.csv").read_text().strip().splitlines()
    assert chain[0] == "replicate,sweep,stat_name,value"
    single = (gout / "chain_0000.csv").read_text().strip().splitlines()
    assert single[0] == "sweep,stat_name,value"
    state = json.loads((gout / "state_0001.json").read_text())
    assert len(state["tau"]) == 6
    assert state["degenerate_draws"] == summary["degenerate_draws"][1]


def test_non_finite_data_rejected(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("row,dim,value\n0,0,1.5\n0,1,nan\n1,0,0.5\n1,1,2.0\n")
    code, _ = run(tmp_path, "gibbs-run", dict(_GIBBS, data_path=str(data)), name="nan")
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError" and "non-finite" in err["detail"]


@pytest.mark.parametrize("lines, detail", [
    (["0,0,1.5", "0,1,2.0", "1,0,0.5"], "exactly once"),
    (["0,0,1.5", "0,1,2.0", "0,1,3.0", "1,0,0.5", "1,1,2.0"], "exactly once"),
    (["0,0,1.5", "0,1,2.0", "1,0,0.5", "1,1,2.0", "1,1,4.0", "1,0,1.0"], "exactly once"),
    (["0,0,1.5", "0,1,2.0", "-1,0,0.5", "-1,1,2.0"], "non-negative integers"),
    (["0,0,1.5", "0,1,2.0", "0.5,0,0.5", "0.5,1,2.0"], "non-negative integers"),
    (["0,0,1.5", "0,inf,2.0"], "non-finite"),
    pytest.param([], "row,dim,value lines",
                 marks=pytest.mark.filterwarnings("ignore:loadtxt")),
    (["0,0", "0,1"], "row,dim,value lines"),
], ids=["missing", "duplicate", "duplicates-fill-grid", "negative", "fractional", "inf-index",
        "no-rows", "two-columns"])
def test_bad_data_grid_rejected(tmp_path, capsys, lines, detail):
    data = tmp_path / "data.csv"
    data.write_text("\n".join(["row,dim,value", *lines]) + "\n")
    code, out = run(tmp_path, "gibbs-run", dict(_GIBBS, data_path=str(data)), name="grid")
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError" and detail in err["detail"]
    assert json.loads((out / "manifest.json").read_text())["status"] == "config_error"


def test_data_grid_read_in_any_line_order(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("row,dim,value\n1,1,4.0\n0,1,2.0\n1,0,3.0\n0,0,1.0\n")
    np.testing.assert_array_equal(read_data_csv(str(data)), [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("command", ["sample-prior", "compare-ifa"])
def test_unknown_indicator_width_rule_exits_2(tmp_path, capsys, command):
    spec = {"family": "beta", "gamma": 2.0, "discount": 0.6, "extras": {"eta": 0.6}}
    config = ({"distribution": {"kind": "aifa_numeric", "K": 20, "spec": spec, "b": "1/K^2"}}
              if command == "sample-prior"
              else {"spec": spec, "K": 20, "draws": 100, "b_grid": ["1/K^2"]})
    code, out = run(tmp_path, command, config)
    assert code == 2
    assert json.loads((out / "manifest.json").read_text())["status"] == "config_error"
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError" and "1/K^2" in err["detail"]


def test_compare_ifa_cli(tmp_path):
    config = {"spec": {"family": "beta", "gamma": 2.0, "discount": 0.6,
                       "extras": {"eta": 0.6}},
              "K": 20, "draws": 20000, "a_grid": [1.0], "b_grid": ["1/K"]}
    code, out = run(tmp_path, "compare-ifa", config)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert "bfry" in summary and any(k.startswith("aifa") for k in summary)


# (run name, command, config, replicates); gibbs-run reads make-data's output
_GOLDEN_RUNS = [
    ("prior_aifa", "sample-prior",
     {"distribution": {"kind": "aifa_numeric", "K": 5, "spec": _SPEC_BP}}, 2),
    ("prior_stick", "sample-prior",
     {"distribution": {"kind": "beta_stick_breaking", "K": 4, "gamma": 2.0, "alpha": 1.0}}, 2),
    ("marg_gp", "marginal-sim",
     {"model": {"kind": "gamma_poisson", "gamma": 2.0, "lam": 1.0}, "N": 10, "source": "aifa",
      "K": 8}, 2),
    ("marg_bb", "marginal-sim",
     {"model": {"kind": "beta_bernoulli", "gamma": 2.0, "alpha": 1.0}, "N": 10,
      "source": "target"}, 2),
    ("conditions", "check-conditions",
     {"model": _GP_MODEL, "n_max": 50, "K_set": [10, 100]}, 1),
    ("conditions_bb", "check-conditions",
     {"model": {"kind": "beta_bernoulli", "gamma": 1.0, "alpha": 1.0}, "n_max": 50,
      "K_set": [10, 100]}, 1),
    ("conditions_bnb", "check-conditions",
     {"model": {"kind": "beta_neg_binomial", "gamma": 1.0, "alpha": 2.0, "r": 1.0}, "n_max": 50,
      "K_set": [10, 100]}, 1),
    ("bounds", "bounds-table", {"gamma": 1.5, "K_min": 2, "K_max": 6}, 1),
    ("eppf", "eppf-convergence", {"alpha": 1.5, "N": 4, "K_set": [4, 16, 64]}, 1),
    ("data", "make-data", {"N": 12, "D": 3, "n_features": 2}, 1),
    ("gibbs", "gibbs-run",
     {"model": {"D": 3, "gamma": 1.0, "alpha": 1.0, "K": 4, "prec_shape": 1.0, "prec_rate": 1.0},
      "prior_kind": "aifa", "sweeps": 8, "burnin": 4, "data_path": "data.csv",
      "heldout_path": "data.csv"}, 2),
    ("compare", "compare-ifa",
     {"spec": _SPEC_BP, "K": 5, "draws": 200, "a_grid": [1.0], "b_grid": ["1/K", 0.25]}, 1),
]


def _golden_digests(tmp_path):
    """{run name: {file: sha256}} of every output file but manifest.json."""
    digests = {}
    for name, command, config, replicates in _GOLDEN_RUNS:
        if command == "gibbs-run":
            data = str(tmp_path / "out_data_11_1" / "data.csv")
            config = dict(config, data_path=data, heldout_path=data)
        _, out = run(tmp_path, command, config, replicates=replicates, name=name)
        digests[name] = {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
                         for f in sorted(os.listdir(out)) if f != "manifest.json"}
    return digests


# sha256 of each output, pinned when every table was still written row by row:
# the bytes of every subcommand's CSV and JSON files must not move.  The gibbs
# summary.json was re-pinned when held-out scoring became one batch over the
# kept samples, which draws the held-out noise per column across all samples;
# the marginal-sim outputs were re-pinned when allocation counts became one
# sparse draw (a binomial number of firing rows per atom, then which rows).
# The gibbs chain and state files were re-pinned when the factor kernel came
# to read projections from Gram matrices: same random stream, same x, floats
# moved in the last bits.  All six gibbs files were re-pinned again when the
# separate x and w scans became one joint (x, w) block, which draws a new stream,
# once more when psi became one joint Gaussian draw in place of a column scan, and
# again when the sweep's (x, w) block came to draw one (K, N) uniform block, then
# one (K, N) normal block, where it drew both per column.
# Every output of the sampling commands (sample-prior, marginal-sim, make-data,
# gibbs-run, compare-ifa) was re-pinned when derive_rng moved from the Philox to
# the SFC64 bit generator; in the same change the target beta-Bernoulli
# marginal-sim stopped drawing a uniform per birth (every birth has size 1),
# which alone moves marg_bb's allocations.csv.  The check-conditions,
# bounds-table and eppf-convergence outputs draw nothing and did not move.
# The gamma-Poisson and beta-NB check-conditions reports were re-pinned when
# the history sums came to end at each round's sign change (Scheffe's sum):
# inequality 3's x_max went from the truncation point 64 to the largest
# crossing point (25 and 17), its slacks moved by less than 2e-16, and the
# stepper's t + (x - 1) moved inequality 4's in the last bits.  Both were
# re-pinned again when the inequality-4 sums came to end at their crossings
# too: its x_max went from 64 to 2 (gamma-Poisson) and 3 (beta-NB), and its
# slacks moved by at most 2e-14 (beta-NB, K = 100), to within 9e-16 of
# 40-digit mpmath; the beta-NB fresh mass, integrated so that it does not
# cancel, moved inequality 2's slacks by at most 2e-16
_GOLDEN_DIGESTS = {
    "prior_aifa": {
        "summary.json": "8bde42b583d36adb7b64a38ea41970e86d0b50391b5c8b75ae10fab86b7a8461",
        "weights.csv": "b772ad28a27f36cf2d575e6a774f0171279bfbdf4e5246f9f42edf99cc7f6c4e",
    },
    "prior_stick": {
        "summary.json": "25b76fe4f9696cad2e46c629e3f8b264f6804e8a32eddcd789ed6c86c02b4850",
        "weights.csv": "3e7398c8bbc08fd56e1b0fc4c551bd9a2696040805566a8d95e0284e71d367ca",
    },
    "marg_gp": {
        "allocations.csv": "3f7452c7622db966b881223b15c57f77c17850ea69935657092f6f969ab9a4cd",
        "summary.json": "eeebebfaee46ebe186d30d5767e65a92f1311f46338abc2a52e82b3a2b461854",
    },
    "marg_bb": {
        "allocations.csv": "dd8993b0dd99dab6c759ac8f93f314c72794851f27d98c13a8638f4b7d928ecc",
        "summary.json": "d1b28635bb997151cb7c1cb52b0d569d5467ae10c9a5a95f8690e9c344d673f9",
    },
    "conditions": {
        "report.json": "080921c316f4f94ef85ba3bfbcf826bbdf441cb4d20cda25f81803655a37db34",
    },
    "conditions_bb": {
        "report.json": "0d0c77cccf93b18a3607f9694fc03a0697b7064b8fd488483c116a4205e2056a",
    },
    "conditions_bnb": {
        "report.json": "db01ad77e593f55d479caf7b431c8937c3111cebe0242c884526745a24399a2a",
    },
    "bounds": {
        "bounds.csv": "69ec91045a4438818e1e64c9d902fcff5c4a435c391cc5cced0c8484466c5d71",
    },
    "eppf": {
        "eppf.csv": "f600ef43acb3dcdc5451ed94ec7904fbb70ae0750ee298f21eadfcd73fe40872",
        "slopes.json": "6385109bd5f6260dc900b1573582dc620e41cc913fb96419eeff12ae654e5d91",
    },
    "data": {
        "data.csv": "75a41cbb0b2526f18f2ba0465f9e6ce149b7c1f15da2c65ca7c51a91ac0105bd",
        "summary.json": "0ae4de241956977305992a1370846e78be3055053f7601b551e672ec52c56884",
    },
    "gibbs": {
        "chain.csv": "c4b2e81b8e9813d1958d165a35efee448ce236c9c1895d929200ebf7ec210ca9",
        "chain_0000.csv": "297ae366f33b3aabd02a6f113f75795412851c5851998acf9ce237ba4ba8d216",
        "chain_0001.csv": "805c7918002d71e07c380b0f0db7f8e83e3650dbf631c1f3fd5da6c90be30296",
        "state_0000.json": "039b1f1da0303a9e05d9bd6d6f6a247c267bdcf1b83d868ac96bf9259474f281",
        "state_0001.json": "23a77cf3628a77979aebded5533009d00cd3cb94d31ee513218beae64405b242",
        "summary.json": "523bb4d1dfe07cbb091e3a928b6832c760cd3a78e93e1922322c9cd46ba1b68c",
    },
    "compare": {
        "compare.csv": "ed51eb8771a80b57dcb367fc33c05a6443527948f58cbb3f35b9c1955dbe6c56",
        "summary.json": "68f50cf2d709d2c3dfaf8e281951e8532c2f57cd7dbb55b14865eec54a488e5d",
    },
}


def test_outputs_match_golden_digests(tmp_path, capsys):
    assert _golden_digests(tmp_path) == _GOLDEN_DIGESTS
    capsys.readouterr()


def test_compare_ifa_samples_k_above_one_batch(tmp_path):
    # K above the 50k draws of one sampling call still draws one K-vector per call
    config = {"spec": _SPEC_BP, "K": 60_000, "draws": 120_000}
    code, out = run(tmp_path, "compare-ifa", config)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {"aifa(a=1.0,b=1/K)", "bfry"}
    assert all(np.isfinite(v) and v > 0 for v in summary.values())


# Values a mutation may set.  No value here makes a count or size larger than
# in the golden configs, so no mutant can allocate or run without bound.
_MUTANTS = ("x", None, True, 0, -1, 2.5, math.nan, math.inf, [])


def _paths(node, path=()):
    """The path of every dict field and list entry below a JSON value."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


@pytest.fixture(scope="module")
def golden_data(tmp_path_factory):
    config = next(config for name, _, config, _ in _GOLDEN_RUNS if name == "data")
    code, out = run(tmp_path_factory.mktemp("data"), "make-data", config)
    assert code == 0
    return str(out / "data.csv")


# about 740 distinct mutants: the search stops once it has run every one
# (about 6 s on a 2-core box)
@settings(derandomize=True, max_examples=1000, deadline=None, database=None)
@given(data=st.data())
def test_mutated_golden_configs_are_run_or_rejected_by_name(tmp_path_factory, golden_data, data):
    _, command, config, replicates = data.draw(st.sampled_from(_GOLDEN_RUNS), label="run")
    if command == "gibbs-run":
        config = dict(config, data_path=golden_data, heldout_path=golden_data)
    config, paths = copy.deepcopy(config), list(_paths(config))
    op = data.draw(st.sampled_from(["delete", "set", "add"]), label="op")
    if op == "add":
        holders = [()] + [p for p in paths if isinstance(_at(config, p), dict)]
        path = data.draw(st.sampled_from(holders), label="holder") + ("unknown_field",)
        _at(config, path[:-1])["unknown_field"] = 1
    else:
        path = data.draw(st.sampled_from(paths), label="path")
        if op == "delete":
            del _at(config, path[:-1])[path[-1]]
        else:
            _at(config, path[:-1])[path[-1]] = data.draw(st.sampled_from(_MUTANTS), label="value")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run(tmp_path_factory.mktemp("mutant"), command, config, replicates=replicates)
    assert code in (0, 1, 2), err.getvalue()
    if code == 2:
        detail = json.loads(err.getvalue().strip().splitlines()[-1])["detail"]
        names = [key for key in path if isinstance(key, str)]
        assert any(name in detail for name in names[-2:]), (path, detail)  # field or holder
        assert os.listdir(out) == ["manifest.json"]
