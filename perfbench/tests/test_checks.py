import json
import math
import os
from collections import Counter

import pytest

import run
import steps
import tracer

ROOT = run.ROOT


def _summary_step(name, mean_total_mass):
    """A step that writes a sample-prior summary and is checked like one."""
    expected = (1.5, 0.7)

    def go(ctx):
        out = ctx.path("out", name)
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "summary.json"), "w") as fh:
            json.dump({"replicates": 1000, "mean_total_mass": mean_total_mass}, fh)
        return 0

    def check(ctx, code):
        with open(ctx.path("out", name, "summary.json")) as fh:
            return steps.check_sample_prior(json.load(fh), expected, 1000, ctx.z_crit)

    return steps.Step(name, go, check, 1)


def test_wrong_summary_fails_its_check_and_raises_failed_frac(tmp_path):
    ctx = steps.Context(str(tmp_path), seed=1, z_crit=5.0)
    good = _summary_step("good", 1.5 + 0.01)
    bad = _summary_step("bad", 1.5 + 1.0)   # about 38 standard errors off
    m = run.measure([good], ctx, seconds=0, trace=0)
    assert m["failures"] == [] and m["attempted"] == run.MIN_ROUNDS
    m = run.measure([good, bad], ctx, seconds=0, trace=0)
    assert m["attempted"] == 2 * run.MIN_ROUNDS
    assert len(m["failures"]) == run.MIN_ROUNDS
    assert all(step == "bad" for _, step, _ in m["failures"])


def test_crash_counts_as_failure(tmp_path):
    def boom(ctx):
        raise RuntimeError("no")

    ctx = steps.Context(str(tmp_path), seed=1)
    m = run.measure([steps.Step("boom", boom, lambda ctx, r: [])], ctx, seconds=0, trace=0)
    assert len(m["failures"]) == m["attempted"] == run.MIN_ROUNDS


def test_every_step_starts_with_cold_bfry_tables(tmp_path):
    from crmfinite import approximations

    seen = []

    def peek(ctx):
        seen.append(len(approximations._BFRY_TABLES))
        approximations._bfry_table(0.002, 0.6)

    step = steps.Step("peek", peek, lambda ctx, r: [])
    run.run_round([step, step], steps.Context(str(tmp_path), seed=1))
    assert seen == [0, 0]


def test_exact_values():
    # K E[theta] of the BP(2, 0, 0.6) AIFA at K = 100, the value quoted for
    # acceptance criterion 11
    mean, var = steps.aifa_moments(steps.BP_SPEC, 100)
    assert 100 * mean == pytest.approx(1.561, abs=5e-4)
    assert var > 0
    gamma, alpha, K = 2.0, 1.0, 200
    assert steps.stick_moments(gamma, alpha, K)[0] == pytest.approx(
        gamma * (1 - (alpha / (1 + alpha)) ** K))


def test_z_gate():
    assert steps.z_failures("x", 1.0, 1.0, 0.01, 5.0) == []
    assert steps.z_failures("x", 1.6, 1.0, 0.01, 5.0) != []
    assert steps.z_failures("x", math.nan, 1.0, 0.01, 5.0) != []
    assert steps.z_failures("x", None, 1.0, 0.01, 5.0) != []


def test_bounds_and_gibbs_checks(tmp_path):
    rows = [("tv_binom_poisson", "K=1", "0.5"), ("lecam_upper", "K=1", "7.0"),
            ("tv_binom_poisson", "K=2", "1.5")]
    assert steps.check_bounds(rows[:2], 1) == []
    assert steps.check_bounds(rows, 2) != []
    assert steps.check_gibbs(str(tmp_path), 10, "aifa") != []  # no outputs at all


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "prior", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_benchmark_json_matches_reported_metrics():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
    layer = tracer.layer_metrics([], Counter())
    names = [*layer, "cli.bytes_written", "trace.overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == names
    assert all(m["unit"] == tracer.unit(m["name"]) for m in spec["per_layer"])


def test_times_at_reference_speed():
    # a step that ran while the loop took twice REF_LOOP_S is scaled down by
    # 2 ** SPEED_EXPONENT; one that ran at reference speed is left as it is
    loop = 2 * run.REF_LOOP_S
    assert run.at_ref_speed(1.0, loop, loop) == pytest.approx(0.5 ** run.SPEED_EXPONENT)
    assert run.at_ref_speed(1.0, run.REF_LOOP_S / 2, 1.5 * run.REF_LOOP_S) == pytest.approx(1.0)
