"""Call tracing for the traced benchmark run, installed from outside the package.

Each wrapper replaces a function at the name its callers look up at call
time (``yawbench.ppo.policy_forward``, ``yawbench.baseline.yaw_error``,
``YawEnv.step``, ...), so the program runs unchanged apart from the wrapper
call. A span records its name, start, end and the span that was open when it
started. Spans stay in memory in flat arrays and are written out once the run
ends. Because the benchmark runs one caller in one thread, spans nest
strictly, so a span's self time is its duration minus the sum of its
children's durations.
"""

from __future__ import annotations

import gzip
from array import array
from collections import defaultdict
from time import perf_counter

# (module, attribute path inside it, span name). Several attributes may share
# one span name; their calls and times are added up.
TARGETS = (
    ("wind", "generate_synthetic", "wind.generate"),
    ("wind", "load_series", "wind.load_series"),
    ("wind", "save_series", "wind.save_series"),
    ("env", "YawEnv.__init__", "env.init"),
    ("env", "YawEnv.step", "env.step"),
    ("env", "YawEnv.reset", "env.reset"),
    ("env", "CycleTrace.to_csv", "env.trace_csv"),
    ("env", "CycleTrace.from_csv", "env.trace_csv"),
    ("ppo", "train", "ppo.train"),
    ("ppo", "policy_forward", "ppo.policy_forward"),
    ("ppo", "encode_observation", "ppo.encode_observation"),
    ("ppo", "sample_action", "ppo.sample_action"),
    ("ppo", "compute_gae", "ppo.gae"),
    ("ppo", "ppo_update", "ppo.update"),
    ("ppo", "ppo_loss_and_grads", "ppo.loss_and_grads"),
    ("ppo", "Adam.step", "ppo.adam_step"),
    ("ppo", "evaluate", "ppo.evaluate"),
    ("ppo", "save_checkpoint", "ppo.checkpoint"),
    ("ppo", "load_checkpoint", "ppo.checkpoint"),
    ("baseline", "calibrate_threshold", "baseline.calibrate"),
    ("baseline", "run_cyca_s", "baseline.run_cyca_s"),
    ("baseline", "replay_cyca_l", "baseline.replay_cyca_l"),
    ("baseline", "save_nacelle_log", "baseline.nacelle_csv"),
    ("baseline", "load_nacelle_log", "baseline.nacelle_csv"),
    ("metrics", "compute_metrics", "metrics.compute"),
    ("metrics", "align_traces", "metrics.compare"),
    ("metrics", "yaw_consumption_delta", "metrics.compare"),
    ("metrics", "compare", "metrics.compare"),
    ("metrics", "render_metrics_table", "metrics.tables"),
    ("metrics", "metrics_table_csv", "metrics.tables"),
    ("metrics", "render_comparison_table", "metrics.tables"),
    ("metrics", "comparison_table_csv", "metrics.tables"),
)

# Power functions are counted where the other layers resolve them; calls
# inside the power module itself are part of the outer power span.
POWER_FUNCTIONS = ("wrap_angle", "wrap_to_360", "yaw_error", "circular_mean_deg", "power_with_misalignment")
POWER_CALLERS = ("wind", "env", "baseline", "metrics")

# The per-layer metrics of one traced repetition, with their units. This is
# the ``per_layer`` list of BENCHMARK.json.
LAYER_METRICS = {
    "wind.generate_s": "s",
    "wind.load_series_s": "s",
    "wind.save_series_s": "s",
    "env.init_s": "s",
    "env.step_calls": "count",
    "env.step_s": "s",
    "env.reset_calls": "count",
    "env.reset_s": "s",
    "env.trace_csv_s": "s",
    "ppo.rollout_s": "s",
    "ppo.rollout_share": "ratio",
    "ppo.policy_forward_calls": "count",
    "ppo.policy_forward_s": "s",
    "ppo.encode_observation_calls": "count",
    "ppo.encode_observation_s": "s",
    "ppo.sample_action_s": "s",
    "ppo.gae_s": "s",
    "ppo.update_calls": "count",
    "ppo.update_s": "s",
    "ppo.loss_and_grads_calls": "count",
    "ppo.loss_and_grads_s": "s",
    "ppo.adam_step_s": "s",
    "ppo.evaluate_s": "s",
    "ppo.checkpoint_s": "s",
    "baseline.calibrate_s": "s",
    "baseline.run_cyca_s_calls": "count",
    "baseline.run_cyca_s_s": "s",
    "baseline.replay_cyca_l_s": "s",
    "baseline.nacelle_csv_s": "s",
    "baseline.yawing_cycle_pct": "%",
    **{f"power.{fn}_calls": "count" for fn in POWER_FUNCTIONS},
    "power.self_s": "s",
    "metrics.compute_s": "s",
    "metrics.compare_s": "s",
    "metrics.tables_s": "s",
    "trace.overhead_pct": "%",
}

_MARK = "__bench_span__"


class Tracer:
    """Installs span-recording wrappers on one imported ``yawbench`` package."""

    def __init__(self, yb):
        self.yb = yb
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _targets(self):
        for mod, path, span in TARGETS:
            yield mod, path, span
        power = self.yb.power
        for caller in POWER_CALLERS:
            namespace = vars(getattr(self.yb, caller))
            for fn in POWER_FUNCTIONS:
                if namespace.get(fn) is getattr(power, fn):
                    yield caller, fn, f"power.{fn}"

    def _wrap(self, fn, span: str):
        nid = self.name_ids.setdefault(span, len(self.name_ids))
        if nid == len(self.names):
            self.names.append(span)
        stack, name_id, parent, start, end = self._stack, self.name_id, self.parent, self.start, self.end

        def wrapper(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()

        setattr(wrapper, _MARK, span)
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper

    def install(self) -> None:
        for mod, path, span in self._targets():
            owner = getattr(self.yb, mod)
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(f"{mod}.{path}")
                continue
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(original.__func__, span))
            else:
                replacement = self._wrap(original, span)
            setattr(owner, attr, replacement)
            self._installed.append((owner, attr, original))

    def uninstall(self) -> list[str]:
        """Restore every wrapped name; returns the names left wrapped (none when correct)."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()
        return wrapped_names(self.yb)

    def totals(self) -> tuple[dict, dict, dict]:
        """Calls, total (inclusive) seconds and self seconds per span name."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for sid in range(len(self.start)):
            name = self.names[self.name_id[sid]]
            dur = self.end[sid] - self.start[sid]
            calls[name] += 1
            total[name] += dur
            self_s[name] += dur
            p = self.parent[sid]
            if p >= 0:
                self_s[self.names[self.name_id[p]]] -= dur
        return calls, total, self_s

    def write_spans(self, path) -> None:
        """Gzipped CSV, one row per span: id, parent id (-1 for a root), name, start and end seconds."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id,parent,name,start_s,end_s\n")
            for sid in range(len(self.start)):
                name = self.names[self.name_id[sid]]
                f.write(f"{sid},{self.parent[sid]},{name},{self.start[sid] - t0:.9f},{self.end[sid] - t0:.9f}\n")


def wrapped_names(yb) -> list[str]:
    """Every attribute of the package's modules and classes that still holds a wrapper."""
    found = []
    for mod in ("wind", "env", "ppo", "baseline", "metrics", "power"):
        module = getattr(yb, mod)
        for name, value in vars(module).items():
            inner = value.__func__ if isinstance(value, classmethod) else value
            if hasattr(inner, _MARK):
                found.append(f"{mod}.{name}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    inner = member.__func__ if isinstance(member, classmethod) else member
                    if hasattr(inner, _MARK):
                        found.append(f"{mod}.{name}.{attr}")
    return found


def layer_metrics(tracer: Tracer, cyca_usage_pct: list[float]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (set-up plus timed region).

    ``*_s`` metrics are inclusive seconds summed over the calls, except
    ``power.self_s``, which excludes time in child spans. ``trace.overhead_pct``
    needs an untraced run and is filled in by the caller.
    """
    calls, total, self_s = tracer.totals()
    train_s = total["ppo.train"]
    rollout_s = train_s - total["ppo.update"] - total["ppo.gae"] if train_s > 0 else 0.0
    return {
        "wind.generate_s": total["wind.generate"],
        "wind.load_series_s": total["wind.load_series"],
        "wind.save_series_s": total["wind.save_series"],
        "env.init_s": total["env.init"],
        "env.step_calls": calls["env.step"],
        "env.step_s": total["env.step"],
        "env.reset_calls": calls["env.reset"],
        "env.reset_s": total["env.reset"],
        "env.trace_csv_s": total["env.trace_csv"],
        "ppo.rollout_s": rollout_s,
        "ppo.rollout_share": rollout_s / train_s if train_s > 0 else 0.0,
        "ppo.policy_forward_calls": calls["ppo.policy_forward"],
        "ppo.policy_forward_s": total["ppo.policy_forward"],
        "ppo.encode_observation_calls": calls["ppo.encode_observation"],
        "ppo.encode_observation_s": total["ppo.encode_observation"],
        "ppo.sample_action_s": total["ppo.sample_action"],
        "ppo.gae_s": total["ppo.gae"],
        "ppo.update_calls": calls["ppo.update"],
        "ppo.update_s": total["ppo.update"],
        "ppo.loss_and_grads_calls": calls["ppo.loss_and_grads"],
        "ppo.loss_and_grads_s": total["ppo.loss_and_grads"],
        "ppo.adam_step_s": total["ppo.adam_step"],
        "ppo.evaluate_s": total["ppo.evaluate"],
        "ppo.checkpoint_s": total["ppo.checkpoint"],
        "baseline.calibrate_s": total["baseline.calibrate"],
        "baseline.run_cyca_s_calls": calls["baseline.run_cyca_s"],
        "baseline.run_cyca_s_s": total["baseline.run_cyca_s"],
        "baseline.replay_cyca_l_s": total["baseline.replay_cyca_l"],
        "baseline.nacelle_csv_s": total["baseline.nacelle_csv"],
        "baseline.yawing_cycle_pct": sum(cyca_usage_pct) / len(cyca_usage_pct) if cyca_usage_pct else 0.0,
        **{f"power.{fn}_calls": calls[f"power.{fn}"] for fn in POWER_FUNCTIONS},
        "power.self_s": sum(self_s[f"power.{fn}"] for fn in POWER_FUNCTIONS),
        "metrics.compute_s": total["metrics.compute"],
        "metrics.compare_s": total["metrics.compare"],
        "metrics.tables_s": total["metrics.tables"],
    }
