"""Benchmark of crmfinite: one workload per run, from the repository root.

    python3 perfbench/run.py --workload prior --seed 1 --seconds 30 --trace 0

The run pins itself to one CPU and BLAS to one thread, and runs the
workload's steps in rounds in this one process, one caller, each step after
the previous one returned (a closed loop).  Every round uses the same CLI
seed and starts with cold per-process caches, so every round does the same
work and gives the same outputs.  Rounds continue while another round fits
in ``--seconds`` of step time (at least ``MIN_ROUNDS``).  Before each of the
first ``SETUP_PROBES`` rounds, one fresh process does only the set-up
(interpreter start, ``import crmfinite``, configs, data) and its wall time
is a ``setup_s`` sample.

Times are reported at a reference speed (see ``REF_LOOP_S``).  A step's
time is its median over the rounds, and ``wall_s`` is the sum of the steps'
medians; ``setup_s`` is the median of the set-up probes.  The raw times are
in the table and the record.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics of the traced
rounds plus ``trace.overhead_s``: median traced round time minus median
untraced round time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a table for people.  The full result, with the environment record, goes
to ``.perfbench_work/result-<workload>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("prior", "marginals", "gibbs")
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 3
MIN_ROUNDS = 3
MAX_ROUNDS = 100
# The reference box's two vCPUs each switch between two speeds about 2x
# apart, every second or so and independently of each other: ``speed_loop``
# timed back to back reads either about 10 or about 20 ms, so raw times of
# the same work spread by up to 2x between runs.  A time is therefore
# reported at a reference speed: scaled by (REF_LOOP_S / loop) **
# SPEED_EXPONENT, where loop is the mean of ``speed_loop`` timed just before
# and just after it.  The steps slow down less than the loop when the CPU
# switches state (by about 1.6x where the loop slows 2x), so the exponent
# is below 1; 2/3 gave the smallest ten-run spread of ``wall_s`` on the
# reference box, across the three workloads, of the exponents tried (0.5 to
# 1).  The run and its set-up probes are pinned to one CPU, so that the loop
# times the CPU that did the work.
REF_LOOP_S = 0.02
SPEED_EXPONENT = 2 / 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR",
                   help="only set up into DIR and exit (one set-up probe)")
    return p.parse_args(argv)


def speed_loop():
    """Wall time of a fixed loop of small numpy and math calls, the kind of
    call that crmfinite's steps are made of.  It runs no crmfinite code, so
    no change to crmfinite moves it."""
    import math

    import numpy as np

    x = np.linspace(0.0, 1.0, 64)
    start = time.perf_counter()
    acc = 0.0
    for i in range(3000):
        acc += float(np.exp(-x * (i % 7)).sum()) + math.lgamma(1.0 + i % 13)
    return time.perf_counter() - start


def at_ref_speed(elapsed, loop_before, loop_after):
    return elapsed * (2 * REF_LOOP_S / (loop_before + loop_after)) ** SPEED_EXPONENT


def describe(values):
    """Quartiles and count; the quartiles need two values."""
    values = list(values)
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"q1": q1, "median": med, "q3": q3, "n": len(values)}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup_probe(workload, seed, workdir):
    """Wall time of one fresh process that does nothing but the set-up."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--setup-only", str(workdir)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return elapsed


# ---------------------------------------------------------------------------
# timed rounds
# ---------------------------------------------------------------------------

def _dir_bytes(path):
    if not os.path.isdir(path):
        return 0
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def run_round(step_list, ctx, tr=None):
    """Run every step once.  Returns ({step: seconds}, {step: seconds at
    reference speed}, {step: result or exception}, bytes written).  With a
    tracer, each step is a root span.  Per-process caches are emptied before
    each step, outside its time."""
    import steps  # importable once main() has put the benchmark on sys.path

    times, ref_times, results, written = {}, {}, {}, 0
    loop_before = speed_loop()
    for step in step_list:
        out = ctx.path("out", step.name)
        shutil.rmtree(out, ignore_errors=True)
        steps.clear_caches()
        start = time.perf_counter()
        try:
            if tr is None:
                results[step.name] = step.run(ctx)
            else:
                results[step.name] = tr.call("step." + step.name, step.run, ctx)
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            results[step.name] = exc
        times[step.name] = time.perf_counter() - start
        loop_after = speed_loop()
        ref_times[step.name] = at_ref_speed(times[step.name], loop_before, loop_after)
        loop_before = loop_after
        written += _dir_bytes(out)
    return times, ref_times, results, written


def check_round(step_list, ctx, results):
    """[(step, failure message)] for one round's results."""
    fails = []
    for step in step_list:
        result = results[step.name]
        if isinstance(result, Exception):
            fails.append((step.name, f"crashed: {type(result).__name__}: {result}"))
            continue
        try:
            fails.extend((step.name, msg) for msg in step.check(ctx, result))
        except Exception as exc:  # unreadable output is a failed check
            fails.append((step.name, f"check could not read the output: "
                                     f"{type(exc).__name__}: {exc}"))
    return fails


def measure(step_list, ctx, seconds, trace, probe=None, probes=0):
    """Run rounds for at most ``seconds`` of step time: a round starts only if
    a round of median length still fits (at least ``MIN_ROUNDS`` rounds, 4
    when tracing).  ``probe()`` is called before each of the first ``probes``
    rounds (and after the loop if rounds were fewer), so the set-up probes
    spread over the run like the rounds do."""
    untraced = {s.name: [] for s in step_list}
    untraced_ref = {s.name: [] for s in step_list}
    untraced_walls, traced_walls, layers, spans = [], [], [], []
    attempted, failures, absent = 0, [], []
    min_rounds = 4 if trace else MIN_ROUNDS
    setup_times, round_times = [], []
    rounds = 0
    while rounds < min_rounds or (
            sum(round_times) + statistics.median(round_times) <= seconds
            and rounds < MAX_ROUNDS):
        if len(setup_times) < probes:
            setup_times.append(probe())
        start = time.perf_counter()
        tr = tracer.Tracer() if trace and rounds % 2 == 1 else None
        if tr is not None:
            absent = tr.install(tracer.targets())
        try:
            times, ref_times, results, written = run_round(step_list, ctx, tr)
        finally:
            if tr is not None:
                tr.restore()
        round_times.append(time.perf_counter() - start)
        rounds += 1
        attempted += len(step_list)
        failures.extend((rounds, *f) for f in check_round(step_list, ctx, results))
        if tr is None:
            untraced_walls.append(sum(times.values()))
            for name, t in times.items():
                untraced[name].append(t)
                untraced_ref[name].append(ref_times[name])
        else:
            traced_walls.append(sum(times.values()))
            layer = tracer.layer_metrics(tr.spans, tr.counters)
            layer["cli.bytes_written"] = written
            layers.append(layer)
            spans.append(tr.spans)
    while len(setup_times) < probes:
        setup_times.append(probe())
    return {"rounds": rounds, "attempted": attempted, "failures": failures,
            "setup_times": setup_times,
            "step_times": untraced, "ref_step_times": untraced_ref,
            "untraced_walls": untraced_walls,
            "traced_walls": traced_walls, "layers": layers, "spans": spans,
            "absent": absent}


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _git(*args):
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def pin_cpu():
    """Pin this process, and the processes it starts, to one CPU.  Returns
    the number of CPUs it was allowed before and the CPU kept."""
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    os.sched_setaffinity(0, {cpu})
    return len(allowed), cpu


def environment(seed, nproc, pinned_cpu):
    import numpy
    import scipy

    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info.get('version', '')}".strip()
    except (TypeError, KeyError, AttributeError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = dirty = None
    top = _git("rev-parse", "--show-toplevel")
    if top is not None and Path(top).resolve() == ROOT:  # not a parent repository's
        commit = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_PIN},
        "nproc": nproc,
        "pinned_cpu": pinned_cpu,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "git_dirty": dirty,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def _stat_row(name, unit, values):
    d = describe(values)
    return (f"{name:<36} {unit:<6} {d['median']:>12.6g} {d['q1']:>12.6g} {d['q3']:>12.6g} "
            f"{d['n']:>4}")


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "crmfinite" / "__init__.py").is_file():
        print(f"perfbench: no crmfinite sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc, pinned_cpu = pin_cpu()
    os.environ.update(BLAS_PIN)  # before numpy is imported, here and in the probes
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    if args.setup_only:
        import steps
        steps.setup(args.workload, args.setup_only, args.seed)
        return 0

    work = WORK / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    import steps
    from statistics import NormalDist

    ctx = steps.setup(args.workload, str(work / "main"), args.seed)
    step_list = steps.steps(args.workload)
    tests = sum(s.stat_tests for s in step_list)  # every round repeats round 1's outputs
    ctx.z_crit = NormalDist().inv_cdf(1 - steps.FWER / (2 * tests)) if tests else 0.0
    ctx.expected = steps.expectations(args.workload)
    probe_dirs = iter(work / f"setup{i}" for i in range(SETUP_PROBES))

    def probe():
        """(seconds, seconds at reference speed) of one set-up probe."""
        loop_before = speed_loop()
        elapsed = setup_probe(args.workload, args.seed, next(probe_dirs))
        return elapsed, at_ref_speed(elapsed, loop_before, speed_loop())

    m = measure(step_list, ctx, args.seconds, args.trace, probe=probe,
                probes=0 if args.trace else SETUP_PROBES)
    setup_times = [raw for raw, _ in m["setup_times"]]
    ref_setup_times = [ref for _, ref in m["setup_times"]]

    failed = len(m["failures"])
    step_stats = {name: describe(v) for name, v in m["ref_step_times"].items()}
    table = [f"workload {args.workload}  seed {args.seed}  rounds {m['rounds']}  "
             f"failed_frac {failed / m['attempted']:.4g} ({failed} of {m['attempted']} "
             f"operations)",
             f"{'metric':<36} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'n':>4}"]
    if args.trace:
        names = list(m["layers"][0])
        layer_values = {k: [layer[k] for layer in m["layers"]] for k in names}
        metrics = {k: statistics.median(v) for k, v in layer_values.items()}
        metrics["trace.overhead_s"] = (statistics.median(m["traced_walls"])
                                       - statistics.median(m["untraced_walls"]))
        units = {k: tracer.unit(k) for k in metrics}
        table += [_stat_row(k, units[k], layer_values[k]) for k in names]
        table.append(_stat_row("trace.overhead_s", "s", [metrics["trace.overhead_s"]]))
        if m["absent"]:
            table.append(f"absent trace targets: {', '.join(m['absent'])}")
    else:
        metrics = {
            "wall_s": sum(s["median"] for s in step_stats.values()),
            "setup_s": statistics.median(ref_setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        table.append("times at reference speed:")
        table += [_stat_row(name, "s", v) for name, v in m["ref_step_times"].items()]
        table.append(_stat_row("wall_s (sum of step medians)", "s", [metrics["wall_s"]]))
        table.append(_stat_row("setup_s", "s", ref_setup_times))
        table.append("raw times:")
        table += [_stat_row(name, "s", v) for name, v in m["step_times"].items()]
        table.append(_stat_row("wall_s (sum of step medians)", "s",
                               [sum(statistics.median(v) for v in m["step_times"].values())]))
        table.append(_stat_row("setup_s", "s", setup_times))
        table.append(_stat_row("peak_rss_mb", "MB", [metrics["peak_rss_mb"]]))
    table += [f"FAILED round {r} {step}: {msg}" for r, step, msg in m["failures"][:20]]

    result = {"correct": failed == 0, "attempted": m["attempted"], "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    env = environment(args.seed, nproc, pinned_cpu)
    table.append("environment " + json.dumps(env))
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "rounds": m["rounds"], "environment": env, "z_crit": ctx.z_crit,
              "steps": step_stats, "step_times": m["step_times"],
              "ref_step_times": m["ref_step_times"], "setup_times": setup_times,
              "ref_setup_times": ref_setup_times, "ref_loop_s": REF_LOOP_S,
              "speed_exponent": SPEED_EXPONENT,
              "untraced_round_walls": m["untraced_walls"],
              "traced_round_walls": m["traced_walls"], "absent": m["absent"],
              "failures": m["failures"], **result}
    with open(WORK / f"result-{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(work / "spans.jsonl", "w") as fh:
            for i, round_spans in enumerate(m["spans"]):
                for span in round_spans:
                    fh.write(json.dumps([i, *span]) + "\n")
    shutil.rmtree(work / "main" / "out", ignore_errors=True)
    print("\n".join(table))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
