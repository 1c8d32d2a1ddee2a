import importlib
import pkgutil

import numpy as np

import crmfinite
import tracer
from crmfinite import approximations, marginals
from crmfinite.measures import beta_process
from crmfinite.rng import derive_rng


def _snapshot():
    """Every attribute of every crmfinite module, and of every class they
    define, by identity."""
    snap = {}
    mods = [crmfinite] + [importlib.import_module(f"crmfinite.{i.name}")
                          for i in pkgutil.iter_modules(crmfinite.__path__)]
    for mod in mods:
        for name, value in vars(mod).items():
            snap[(mod.__name__, name)] = value
            if isinstance(value, type) and value.__module__.startswith("crmfinite"):
                for attr, member in vars(value).items():
                    snap[(mod.__name__, name, attr)] = member
    return snap


def test_self_time_on_hand_built_tree():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),   # overlaps a: the union [1, 6] counts once
        ("c", 2.0, 3.0, 1),
        ("d", 8.0, 9.0, 0),
        ("a", 11.0, 12.0, -1),
    ]
    assert tracer.self_times(spans) == [4.0, 2.0, 3.0, 1.0, 1.0, 1.0]
    assert tracer.summarize(spans) == {"root": (1, 4.0), "a": (2, 3.0), "b": (1, 3.0),
                                       "c": (1, 1.0), "d": (1, 1.0)}


def test_patch_and_restore_leaves_crmfinite_identical():
    before = _snapshot()
    original = approximations.sample_weights
    tr = tracer.Tracer()
    assert tr.install(tracer.targets()) == []
    try:
        from crmfinite import analysis, cli
        for holder in (approximations, analysis, cli):
            assert holder.sample_weights is not original
            assert holder.sample_weights.__wrapped__ is original
        assert approximations.AifaConfig.sample is not before[
            ("crmfinite.approximations", "AifaConfig", "sample")]
        changed = {k for k, v in _snapshot().items() if before.get(k) is not v}
        assert ("crmfinite.cli", "main") in changed
    finally:
        tr.restore()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_missing_target_reported_absent():
    tr = tracer.Tracer()
    absent = tr.install([
        tracer.Target("crmfinite.approximations", "no_such_function", "gone.function"),
        tracer.Target("crmfinite.no_such_module", "f", "gone.module"),
        tracer.Target("crmfinite.approximations", "AifaConfig.no_such_method", "gone.method"),
        tracer.Target("crmfinite.marginals", "total_new_atom_rate", "total_new_atom_rate"),
    ])
    try:
        assert absent == ["gone.function", "gone.module", "gone.method"]
        model = marginals.gamma_poisson(2.0, 1.0)
        assert marginals.total_new_atom_rate(model, 3) > 0
        assert [s[0] for s in tr.spans] == ["total_new_atom_rate"]
    finally:
        tr.restore()


def test_wrapped_calls_keep_results_and_count_work():
    cfg = approximations.AifaConfig(beta_process(2.0, 0.0, 0.6), 10)
    dist = approximations.aifa_numeric(cfg)
    plain = approximations.sample_weights(dist, derive_rng(5, 0))
    tr = tracer.Tracer()
    tr.install(tracer.targets())
    try:
        fresh = approximations.aifa_numeric(approximations.AifaConfig(cfg.spec, 10))
        traced = approximations.sample_weights(fresh, derive_rng(5, 0))
        approximations.sample_weights(fresh, derive_rng(5, 1))
    finally:
        tr.restore()
    np.testing.assert_array_equal(plain, traced)
    metrics = tracer.layer_metrics(tr.spans, tr.counters)
    assert metrics["sample_weights.calls"] == 2
    assert metrics["AifaConfig.sample.calls"] == 3  # two calls plus the nested validation
    assert metrics["atoms_drawn"] == 20
    assert metrics["validation_draws"] == 10_000
    assert metrics["useful_draw_frac"] == 20 / 10_020
    assert metrics["aifa_first_sample_s"] > 0
    assert metrics["gauss_legendre.calls"] > 0 and metrics["measures.calls"] > 0
