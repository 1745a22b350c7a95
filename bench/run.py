#!/usr/bin/env python3
"""Benchmark of the yawbench paper experiment, one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it imports the package from
``src/`` and exits with status 2, printing no result, when that is missing.
Inputs are generated from ``--seed``. For ``--seconds`` the benchmark
repeats one unit: a fresh import of the package and the workload's set-up,
timed together, then the timed region.

On a shared host other tenants slow a CPU-bound process by up to 2x, in
spells of seconds to minutes, and a slowdown that lasts a whole run reaches
even its fastest repetition. So between units the benchmark times a fixed
reference (``reference_s``: scalar float math and small matrix products, the
two kinds of work the workloads do), and divides each unit's times by the
mean of the reference times just before and after it. ``setup_s`` and
``wall_s`` are the medians of these ratios, scaled by ``REF_S``: seconds on a
host where the reference takes ``REF_S``. The raw fastest and median times,
the median reference time and the throughputs (a phase's work over its
fastest time, from ``Rep.lap``) are printed too. Every repetition's outputs
pass the output gate in ``workloads.py`` and must hash to one digest.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced units with units traced by ``tracing.py`` (set-up included) and
reports the per-layer metrics, medians over the traced units; the spans of
the first traced unit are written to
``.bench_out/<workload>-seed<seed>.spans.csv.gz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name and unit, and the run manifest. The exit status
is 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

MIN_REPS = 2  # at least two, so the output digest is compared across repetitions

# Duration of reference_s() on an undisturbed host (2-vCPU x86-64 VM, Python
# 3.11, numpy 2.4); only a scale that turns the ratios back into seconds.
REF_S = 0.036
_REF_W = np.random.default_rng(0).standard_normal((64, 64))

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# Throughputs of the layers a workload runs, printed for the workloads that
# run them. They are not in BENCHMARK.json, which needs every metric from
# every workload; at the fixed work of a workload, wall_s carries them.
RATES = {
    "train_env_steps_per_s": ("train_steps", "train", "steps/s"),
    "eval_env_steps_per_s": ("eval_steps", "eval", "steps/s"),
    "cyca_sim_s_per_s": ("cyca_wind_s", "cyca", "wind-s/s"),
}


def reference_s() -> float:
    """Time a fixed mix of scalar float math and 64x64 matrix-vector products."""
    t0 = perf_counter()
    acc, x = 0.0, _REF_W[0]
    for i in range(120000):
        acc += math.sin(i * 1e-3) * 0.5
        if i % 16 == 0:
            x = np.tanh(_REF_W @ x)
    return perf_counter() - t0


def import_yawbench():
    """Import the package afresh, so each set-up pays for its imports."""
    for name in [m for m in sys.modules if m == "yawbench" or m.startswith("yawbench.")]:
        del sys.modules[name]
    return importlib.import_module("yawbench")


def git_rev() -> str | None:
    """Commit of the checkout, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name.strip() == ref:
                return sha
    except OSError:
        pass
    return None


def manifest(wl, seed, seconds, trace, params, inputs, counts) -> dict:
    import numpy as np

    try:
        openblas = np.__config__.CONFIG["Build Dependencies"]["blas"].get("version")
    except (AttributeError, KeyError):
        openblas = None
    return {
        "workload": wl.name,
        "why": wl.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": asdict(params),
        **counts,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas,
        "platform": platform.platform(),
        "git_rev": git_rev(),
        "inputs_sha256": inputs,
    }


def _best_rate(reps, work_key, phase_key):
    rates = [rep.work[work_key] / rep.phase_s[phase_key] for rep in reps if rep.work.get(work_key)]
    return max(rates) if rates else None


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, params=None, out_dir=None) -> dict:
    """Run one workload; returns the result, with the final-line fields and the report."""
    from tracing import LAYER_METRICS, Tracer, layer_metrics
    from workloads import WORKLOADS, digest

    wl = WORKLOADS[workload]
    params = params or wl.full
    out_dir = Path(out_dir or OUT_DIR)
    workdir = out_dir / f"{workload}-seed{seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    checks = []
    digests = []

    def unit(traced: bool):
        """Fresh import, set-up and one timed repetition, with or without the tracer."""
        t0 = perf_counter()
        yb = import_yawbench()
        tracer = Tracer(yb) if traced else None
        try:
            if tracer:
                tracer.install()
            state = wl.setup(yb, seed, params, workdir)
            t1 = perf_counter()
            rep = wl.run(yb, state)
            t2 = perf_counter()
        finally:
            if tracer:
                left = tracer.uninstall()
                checks.append(("tracer_uninstall", f"wrappers left installed: {left}" if left else None))
        wl.check(yb, state, rep)
        checks.extend(rep.checks)
        digests.append(digest(wl.digest_outputs(rep.outputs)))
        return t1 - t0, t2 - t1, rep, state, tracer

    setup_times, walls, hosts, reps = [], [], [], []
    traced_walls, layers, first_tracer = [], [], None
    try:
        deadline = perf_counter() + seconds
        ref_before = reference_s()
        # With tracing, untraced and traced repetitions alternate, so both
        # meet the same host conditions and their ratio is the overhead.
        while perf_counter() < deadline or len(walls) < MIN_REPS or (trace and not layers):
            traced = trace and len(walls) > len(traced_walls)
            setup_s, wall, rep, state, tracer = unit(traced)
            gc.collect()  # drop the previous import's module cycles, so peak RSS does not grow with the count
            ref_after = reference_s()
            host = (ref_before + ref_after) / 2  # the reference's time around this unit
            ref_before = ref_after
            if traced:
                traced_walls.append(wall / host)
                layers.append(layer_metrics(tracer, rep.cyca_usage_pct))
                first_tracer = first_tracer or tracer
            else:
                setup_times.append(setup_s)
                walls.append(wall)
                hosts.append(host)
                if len(walls) == 1:
                    inputs = wl.inputs(state, rep)
                rep.outputs = None  # keep only what the metrics need
                reps.append(rep)
        if first_tracer:
            first_tracer.write_spans(out_dir / f"{workload}-seed{seed}.spans.csv.gz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "setup_s": REF_S * statistics.median(s / h for s, h in zip(setup_times, hosts)),
        "setup_fastest_s": min(setup_times),
        "wall_s": REF_S * statistics.median(w / h for w, h in zip(walls, hosts)),
        "wall_fastest_s": min(walls),
        "wall_median_s": statistics.median(walls),
        "ref_median_s": statistics.median(hosts),
    }
    for name, (work_key, phase_key, _) in RATES.items():
        rate = _best_rate(reps, work_key, phase_key)
        if rate is not None:
            report[name] = rate
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks.append(("digest", None if len(set(digests)) == 1 else f"outputs differ between repetitions: {digests}"))
    failures = [msg for _, msg in checks if msg is not None]
    report["failed_ops_frac"] = len(failures) / len(checks)
    units = {**END_TO_END, "setup_fastest_s": "s", "wall_fastest_s": "s", "wall_median_s": "s", "ref_median_s": "s"}
    units.update({k: v[2] for k, v in RATES.items()})
    units["failed_ops_frac"] = "ratio"
    if trace:
        per_layer = {k: statistics.median(layer[k] for layer in layers) for k in LAYER_METRICS if k in layers[0]}
        per_layer.update({k: int(v) for k, v in per_layer.items() if LAYER_METRICS[k] == "count" and v == int(v)})
        per_layer["trace.overhead_pct"] = 100.0 * (REF_S * statistics.median(traced_walls) / report["wall_s"] - 1.0)
        metrics = {k: {"value": per_layer[k], "unit": LAYER_METRICS[k]} for k in LAYER_METRICS}
    else:
        metrics = {k: {"value": report[k], "unit": unit} for k, unit in END_TO_END.items()}
    counts = {"reps": len(walls), "traced_reps": len(layers)}
    if first_tracer and first_tracer.missing:
        counts["trace_targets_missing"] = first_tracer.missing
    return {
        "correct": not failures,
        "attempted": len(checks),
        "failed": len(failures),
        "failures": failures,
        "metrics": metrics,
        "report": {k: {"value": v, "unit": units[k]} for k, v in report.items()},
        "digest": digests[0],
        "manifest": manifest(wl, seed, seconds, trace, params, inputs, counts),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "yawbench" / "__init__.py").is_file():
        print(f"error: no yawbench sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        print(f"error: workload {args.workload} raised; no result", file=sys.stderr)
        return 1

    print("manifest " + json.dumps(result["manifest"], sort_keys=True))
    for name, m in result["report"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    if args.trace:
        for name, m in result["metrics"].items():
            print(f"{name} = {m['value']!r} {m['unit']}")
    print(f"digest = {result['digest']}")
    for msg in result["failures"]:
        print(f"FAILED {msg}", file=sys.stderr)
    final = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
