"""The benchmark's workloads, their output gate and their output digest.

A workload has a set-up (inputs generated from the workload seed, objects
built), a timed region, and a check of the timed region's outputs. Every
workload is a closed loop: one caller in one process and one thread, each
call issued after the previous one returned. The library is reached only
through module attributes of the ``yb`` package handed in (``yb.ppo.train``),
so the traced run sees every call.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

# Calibration target of the threshold baseline, in percent of cycles spent
# yawing, as in the paper's set-up.
TARGET_YAW_PCT = 2.0


@dataclass
class Rep:
    """Outputs and counters of one execution of a timed region."""

    outputs: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)  # (operation, failure message or None)
    phase_s: dict = field(default_factory=dict)  # seconds spent in each phase of the timed region
    work: dict = field(default_factory=dict)  # env steps and wind seconds processed
    cyca_usage_pct: list = field(default_factory=list)  # time_yawing_pct of every CYCA-S run
    _lap_start: float = field(default_factory=perf_counter)

    def lap(self, phase: str) -> None:
        """Add the time since the previous lap (or since this Rep was made) to ``phase``."""
        now = perf_counter()
        self.phase_s[phase] = self.phase_s.get(phase, 0.0) + now - self._lap_start
        self._lap_start = now


def digest(obj) -> str:
    """sha256 over a canonical encoding of nested outputs (arrays bit for bit)."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj) -> None:
    if isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj):
            h.update(repr(key).encode())
            _feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (str, int, float, bool)) or obj is None:
        h.update(repr(obj).encode())
    elif hasattr(obj, "to_dict"):  # MetricsReport, Comparison
        _feed(h, obj.to_dict())
    elif hasattr(obj, "parameters"):  # ActorCritic
        _feed(h, list(obj.parameters))
    else:  # CycleTrace, WindSeries, NacelleLog: dataclasses of arrays
        _feed(h, {k: v for k, v in vars(obj).items()})


def series_sha256(series) -> str:
    return digest([series.t, series.phi, series.v])


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _ok(checks, op, cond, msg):
    checks.append((op, None if cond else msg))


def check_trace_cycles(checks, op, trace, count):
    _ok(checks, op, len(trace) == count, f"{op}: trace holds {len(trace)} cycles, expected {count}")


def check_metrics(yb, checks, op, report, trace):
    """All metrics finite; produced energy at most the aligned-power energy of the same wind."""
    vals = report.to_dict()
    _ok(checks, op, all(math.isfinite(float(v)) for v in vals.values()), f"{op}: non-finite metric in {vals}")
    tp = yb.power.TurbineParams()
    ideal = np.array([yb.power.power_ideal(float(v), tp) for v in trace.v])
    p = report.horizon_s / max(report.n_cycles, 1)
    aligned_kwh = float(np.sum(ideal) * p / 3600.0)
    _ok(
        checks,
        op,
        bool(np.all(trace.power_kw <= ideal)) and report.energy_kwh <= aligned_kwh * (1 + 1e-12),
        f"{op}: energy {report.energy_kwh} kWh exceeds aligned-power energy {aligned_kwh} kWh",
    )


def check_calibration(checks, op, grid, thr, usages):
    """The chosen threshold is the grid point whose usage is closest to the target."""
    ok = len(usages) == len(grid) and all(math.isfinite(u) and 0.0 <= u <= 100.0 for u in usages)
    best = min(range(len(grid)), key=lambda i: (abs(usages[i] - TARGET_YAW_PCT), grid[i])) if ok else None
    _ok(checks, op, ok and thr == float(grid[best]), f"{op}: threshold {thr} is not the grid point closest to the target")


def check_roundtrip(checks, op, same):
    _ok(checks, op, same, f"{op}: round trip changed the data")


def check_curve(checks, op, curve, pcfg):
    updates = -(-pcfg.total_steps // pcfg.n_steps)
    finite = all(math.isfinite(float(v)) for rec in curve for v in rec.values())
    steps_ok = [rec["steps"] for rec in curve] == [pcfg.n_steps * (i + 1) for i in range(updates)]
    _ok(checks, op, finite and steps_ok, f"{op}: learning curve malformed ({len(curve)} records)")


# ---------------------------------------------------------------------------
# train_steady


@dataclass(frozen=True)
class TrainParams:
    length_s: int = 21000
    total_steps: int = 2048  # one rollout and one update at the default n_steps
    ppo: dict = field(default_factory=dict)  # PpoConfig overrides; defaults are the paper's
    env: dict = field(default_factory=dict)  # EnvConfig overrides


class TrainSteady:
    name = "train_steady"
    why = (
        "PPO training, about 70% of the paper experiment: runs env and ppo (rollout and update) "
        "and bypasses baseline"
    )
    full = TrainParams()
    toy = TrainParams(
        length_s=3000,
        total_steps=256,
        ppo={"n_steps": 128, "batch_size": 32, "epochs": 2, "hidden": (16, 16)},
        env={"episode_len": 32},
    )

    @staticmethod
    def setup(yb, seed, params, workdir):
        series = yb.wind.generate_synthetic(yb.wind.steady_preset(params.length_s), seed)
        train, _ = yb.wind.split_train_test(series)
        cfg = yb.env.EnvConfig(standardizer=yb.wind.fit_standardizer(train), **params.env)
        return {
            "env": yb.env.YawEnv(train, cfg),
            "pcfg": yb.ppo.PpoConfig(total_steps=params.total_steps, seed=seed, **params.ppo),
            "inputs": {"steady_series": series_sha256(series)},
        }

    @staticmethod
    def run(yb, state) -> Rep:
        rep = Rep()
        ac, curve = yb.ppo.train(state["env"], state["pcfg"])
        rep.lap("train")
        rep.outputs = {"curve": curve, "params": ac}
        rep.work = {"train_steps": curve[-1]["steps"]}
        return rep

    @staticmethod
    def check(yb, state, rep) -> None:
        check_curve(rep.checks, "train", rep.outputs["curve"], state["pcfg"])
        params = rep.outputs["params"].parameters
        _ok(rep.checks, "train", all(np.all(np.isfinite(p)) for p in params), "train: non-finite weights")

    @staticmethod
    def inputs(state, rep):
        return state["inputs"]

    @staticmethod
    def digest_outputs(out):
        return out


# ---------------------------------------------------------------------------
# cyca_replay_variable


@dataclass(frozen=True)
class CycaParams:
    length_s: int = 21000
    # From yaw-heavy (>= 10% of cycles yawing on the variable preset) down to
    # a threshold near or below the 2% target.
    grid: tuple = (300.0, 2500.0, 20000.0)


class CycaReplayVariable:
    name = "cyca_replay_variable"
    why = (
        "threshold baseline only: wind CSV load, threshold calibration, CYCA-S, nacelle log round trip "
        "and CYCA-L replay on variable wind; no PPO"
    )
    full = CycaParams()
    toy = CycaParams(length_s=20000, grid=(1000.0, 10000.0))  # the variable preset needs >= 20000 s

    @staticmethod
    def setup(yb, seed, params, workdir):
        series = yb.wind.generate_synthetic(yb.wind.variable_preset(params.length_s), seed)
        path = Path(workdir) / "wind_variable.csv"
        yb.wind.save_series(series, path)
        return {
            "series": series,
            "wind_csv": path,
            "nacelle_csv": Path(workdir) / "nacelle_cyca_s.csv",
            "grid": params.grid,
            "inputs": {path.name: file_sha256(path)},
        }

    @staticmethod
    def run(yb, state) -> Rep:
        rep = Rep()
        series = yb.wind.load_series(state["wind_csv"])
        train, test = yb.wind.split_train_test(series)
        env_cfg = yb.env.EnvConfig(standardizer=yb.wind.fit_standardizer(train))
        tp = env_cfg.turbine
        rep.lap("load")
        thr, usages = yb.baseline.calibrate_threshold(
            train, yb.baseline.CycaConfig(), tp, float(train.phi[0]), state["grid"], target_pct=TARGET_YAW_PCT
        )
        trace_s, inner = yb.baseline.run_cyca_s(
            test, yb.baseline.CycaConfig(threshold=thr), tp, float(test.phi[0]), return_inner=True
        )
        rep.lap("cyca")
        log = yb.baseline.NacelleLog(inner["t"], inner["theta"])
        yb.baseline.save_nacelle_log(log, state["nacelle_csv"])
        log_back = yb.baseline.load_nacelle_log(state["nacelle_csv"])
        trace_l = yb.baseline.replay_cyca_l(test, log_back, tp)
        rep.lap("replay")
        m_s = yb.metrics.compute_metrics(trace_s, tp, env_cfg)
        m_l = yb.metrics.compute_metrics(trace_l, tp, env_cfg)
        reports = {"CYCA-S": m_s, "CYCA-L": m_l}
        tables = [
            yb.metrics.render_metrics_table(reports, omit_energy={"CYCA-L"}),
            yb.metrics.metrics_table_csv(reports, omit_energy={"CYCA-L"}),
        ]
        rep.lap("metrics")
        rep.outputs = {
            "series": series,
            "threshold": thr,
            "usages": usages,
            "trace_s": trace_s,
            "log": log,
            "log_back": log_back,
            "trace_l": trace_l,
            "reports": reports,
            "tables": tables,
        }
        rep.work = {"cyca_wind_s": len(state["grid"]) * len(train) + len(test), "cycles": len(test) // env_cfg.p_samples}
        rep.cyca_usage_pct = list(usages) + [m_s.time_yawing_pct]
        return rep

    @staticmethod
    def check(yb, state, rep) -> None:
        out, c = rep.outputs, rep.checks
        check_roundtrip(c, "load_series", out["series"].equals(state["series"]))
        check_calibration(c, "calibrate_threshold", state["grid"], out["threshold"], out["usages"])
        cycles = rep.work["cycles"]
        check_trace_cycles(c, "run_cyca_s", out["trace_s"], cycles)
        log, back = out["log"], out["log_back"]
        check_roundtrip(c, "nacelle_log", digest([back.t, back.theta]) == digest([log.t, log.theta]))
        check_trace_cycles(c, "replay_cyca_l", out["trace_l"], cycles)
        # Replaying the simulated controller's own per-second headings must
        # reproduce its cycle trace.
        check_roundtrip(c, "replay_cyca_l", out["trace_l"].equals(out["trace_s"]))
        check_metrics(yb, c, "compute_metrics", out["reports"]["CYCA-S"], out["trace_s"])
        check_metrics(yb, c, "compute_metrics", out["reports"]["CYCA-L"], out["trace_l"])

    @staticmethod
    def inputs(state, rep):
        return state["inputs"]

    @staticmethod
    def digest_outputs(out):
        return {k: v for k, v in out.items() if k != "log_back"}


# ---------------------------------------------------------------------------
# paper_e2e


@dataclass(frozen=True)
class PaperParams:
    length_s: int = 21000
    # A short training budget: one 512-step rollout and update per regime.
    # train_steady times training at the default hyperparameters; here the
    # point is the pipeline around it, kept short so a run holds many repetitions.
    train_steps: int = 512
    grid: tuple = (600.0, 20000.0)
    ppo: dict = field(default_factory=dict)
    env: dict = field(default_factory=dict)


class PaperE2E:
    name = "paper_e2e"
    why = (
        "the whole paper experiment for both wind regimes, incl. generation, checkpoint I/O, greedy "
        "batch-of-one evaluation, CYCA-S, metrics and tables"
    )
    full = PaperParams(ppo={"n_steps": 512})
    toy = PaperParams(
        length_s=20000,
        train_steps=256,
        grid=(10000.0,),
        ppo={"n_steps": 128, "batch_size": 32, "epochs": 2, "hidden": (16, 16)},
        env={"episode_len": 32},
    )

    @staticmethod
    def setup(yb, seed, params, workdir):
        return {"seed": seed, "params": params, "workdir": Path(workdir)}

    @staticmethod
    def run(yb, state) -> Rep:
        seed, params, workdir = state["seed"], state["params"], state["workdir"]
        rep = Rep()
        rep.work = {"train_steps": 0, "eval_steps": 0, "cyca_wind_s": 0}
        reports, comparisons = {}, {}
        for k, (regime, preset) in enumerate((("steady", yb.wind.steady_preset), ("variable", yb.wind.variable_preset))):
            series = yb.wind.generate_synthetic(preset(params.length_s), 2 * seed + k)
            train, test = yb.wind.split_train_test(series)
            cfg = yb.env.EnvConfig(standardizer=yb.wind.fit_standardizer(train), **params.env)
            env_train = yb.env.YawEnv(train, cfg)
            pcfg = yb.ppo.PpoConfig(total_steps=params.train_steps, seed=seed, **params.ppo)
            rep.lap("build")
            ac, curve = yb.ppo.train(env_train, pcfg)
            rep.lap("train")
            rep.work["train_steps"] += curve[-1]["steps"]

            ckpt = workdir / f"ppo_{regime}.json"
            yb.ppo.save_checkpoint(ckpt, ac, cfg, pcfg)
            ac_back, cfg_back, pcfg_back = yb.ppo.load_checkpoint(ckpt)
            rep.lap("checkpoint")

            env_test = yb.env.YawEnv(test, yb.env.eval_env_config(test, cfg_back))
            rep.lap("build")
            trace_p = yb.ppo.evaluate(ac_back, env_test)
            rep.lap("eval")
            rep.work["eval_steps"] += len(trace_p)

            tp = cfg.turbine
            thr, usages = yb.baseline.calibrate_threshold(
                train, yb.baseline.CycaConfig(), tp, float(train.phi[0]), params.grid, target_pct=TARGET_YAW_PCT
            )
            trace_c = yb.baseline.run_cyca_s(
                test, yb.baseline.CycaConfig(threshold=thr), tp, env_test.cycle_direction(0)
            )
            rep.lap("cyca")
            rep.work["cyca_wind_s"] += len(params.grid) * len(train) + len(test)

            a_p, a_c = yb.metrics.align_traces(trace_p, trace_c)
            m_p = yb.metrics.compute_metrics(a_p, tp, cfg)
            m_c = yb.metrics.compute_metrics(a_c, tp, cfg)
            delta_series, delta = yb.metrics.yaw_consumption_delta(a_p, a_c, tp)
            cmp = yb.metrics.compare(m_p, m_c, delta, delta_series)
            reports[f"PPO {regime}"], reports[f"CYCA-S {regime}"] = m_p, m_c
            comparisons[regime] = cmp
            rep.cyca_usage_pct += list(usages) + [yb.metrics.compute_metrics(trace_c, tp, cfg).time_yawing_pct]
            rep.lap("metrics")

            traces_back = []
            for name, tr in (("ppo", trace_p), ("cyca_s", trace_c)):
                path = workdir / f"trace_{name}_{regime}.csv"
                tr.to_csv(path)
                traces_back.append(yb.env.CycleTrace.from_csv(path))
            rep.lap("trace_csv")

            rep.outputs[regime] = {
                "series": series,
                "cfg": (cfg, pcfg),
                "cfg_back": (cfg_back, pcfg_back),
                "curve": curve,
                "params": ac,
                "params_back": ac_back,
                "grid": params.grid,
                "threshold": thr,
                "usages": usages,
                "trace_ppo": trace_p,
                "trace_cyca": trace_c,
                "aligned": (a_p, a_c),
                "traces_back": traces_back,
                "reports": (m_p, m_c),
                "delta": (delta_series, delta),
                "comparison": cmp,
            }
        rep.outputs["tables"] = [
            yb.metrics.render_metrics_table(reports),
            yb.metrics.metrics_table_csv(reports),
            yb.metrics.render_comparison_table(comparisons),
            yb.metrics.comparison_table_csv(comparisons),
        ]
        rep.lap("metrics")
        return rep

    @staticmethod
    def check(yb, state, rep) -> None:
        c = rep.checks
        for regime in ("steady", "variable"):
            out = rep.outputs[regime]
            cfg, pcfg = out["cfg"]
            check_curve(c, "train", out["curve"], pcfg)
            check_roundtrip(c, "checkpoint", digest(out["params_back"]) == digest(out["params"]))
            _ok(c, "checkpoint", out["cfg_back"] == out["cfg"], "checkpoint: configs changed in the round trip")
            n_test = (len(out["series"]) - len(out["series"]) // 2) // cfg.p_samples
            check_trace_cycles(c, "evaluate", out["trace_ppo"], n_test - 1)
            check_calibration(c, "calibrate_threshold", out["grid"], out["threshold"], out["usages"])
            check_trace_cycles(c, "run_cyca_s", out["trace_cyca"], n_test)
            a_p, a_c = out["aligned"]
            _ok(
                c,
                "align_traces",
                len(a_p) == len(a_c) == n_test - 1 and np.array_equal(a_p.cycle, a_c.cycle),
                "align_traces: traces not on one cycle grid",
            )
            m_p, m_c = out["reports"]
            check_metrics(yb, c, "compute_metrics", m_p, a_p)
            check_metrics(yb, c, "compute_metrics", m_c, a_c)
            cmp = out["comparison"]
            delta_series, delta = out["delta"]
            expected = cmp.energy_gain_pct - 100.0 * delta / m_c.energy_kwh
            _ok(
                c,
                "compare",
                math.isclose(cmp.net_energy_gain_pct, expected, rel_tol=1e-9, abs_tol=1e-9)
                and math.isclose(float(np.sum(delta_series)), delta, rel_tol=1e-9, abs_tol=1e-12),
                f"compare: net gain {cmp.net_energy_gain_pct} != gross - 100*delta/E_b = {expected}",
            )
            for tr, back in zip((out["trace_ppo"], out["trace_cyca"]), out["traces_back"]):
                check_roundtrip(c, "trace_csv", back.equals(tr))

    @staticmethod
    def inputs(state, rep):
        return {f"{r}_series": series_sha256(rep.outputs[r]["series"]) for r in ("steady", "variable")}

    @staticmethod
    def digest_outputs(out):
        return {
            regime: {k: v for k, v in out[regime].items() if not k.endswith("_back")} for regime in ("steady", "variable")
        } | {"tables": out["tables"]}


WORKLOADS = {wl.name: wl for wl in (TrainSteady, CycaReplayVariable, PaperE2E)}
