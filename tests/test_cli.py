import json
import os
import subprocess
import sys

import numpy as np
import pytest

import crmfinite
from crmfinite import cli
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


def test_cli_import_leaves_out_scipy_stats():
    src = os.path.dirname(os.path.dirname(crmfinite.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, crmfinite.cli; sys.exit('scipy.stats' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0


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
    assert manifest["status"] == "ok"


def test_outputs_byte_identical_across_runs(tmp_path):
    config = {"distribution": {"kind": "bondesson", "K": 6, "gamma": 1.0, "alpha": 1.5}}
    _, out1 = run(tmp_path, "sample-prior", config, replicates=8, name="a")
    _, out2 = run(tmp_path, "sample-prior", config, replicates=8, name="b")
    assert (out1 / "weights.csv").read_bytes() == (out2 / "weights.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


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
], ids=["K_min=0", "K_max=0", "K_max=3.7", "K_min>K_max", "gamma=800", "gamma=inf", "gamma=nan",
        "K_set=[0]", "K_set=[2.5]", "K_set=[]", "n_max=1"])
def test_table_configs_rejected_at_boundary(tmp_path, capsys, command, config, field):
    code, out = run(tmp_path, command, config, name="range")
    assert code == 2
    detail = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["detail"]
    assert field in detail
    assert json.loads((out / "manifest.json").read_text())["status"] == "config_error"


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
    assert json.loads(err.strip().splitlines()[-1])["error"] == "ValueError"
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
    config = {"model": {"D": 2, "gamma": 1.0, "alpha": 1.0, "K": 3},
              "prior_kind": "aifa", "sweeps": 4, "burnin": 2, "data_path": str(data)}
    code, _ = run(tmp_path, "gibbs-run", config, name="nan")
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ConfigError" and "non-finite" in err["detail"]


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
