from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from env_reference import concat_traces, run_constant_action
from yawbench import (
    Action,
    CycaConfig,
    CycleTrace,
    EnvConfig,
    MetricsReport,
    Standardizer,
    TurbineParams,
    YawEnv,
    align_traces,
    compare,
    compute_metrics,
    generate_synthetic,
    run_cyca_s,
    steady_preset,
    wrap_angle,
    yaw_consumption_delta,
)
from yawbench.metrics import (
    cycle_deltas,
    comparison_table_csv,
    metrics_table_csv,
    render_comparison_table,
    render_metrics_table,
)


@pytest.fixture
def tp():
    return TurbineParams()


@pytest.fixture
def cfg():
    return EnvConfig(standardizer=Standardizer(8.0))


def five_second_trace(tmp_path, n=20) -> CycleTrace:
    """A trace read from a hand-written CSV whose cycles are 5 s apart, as a log
    from another controller or tool may be."""
    path = tmp_path / "trace_5s.csv"
    rows = "".join(f"{c},{5.0 * c},30.0,8.0,30.0,0.0,1,1,300.0,0.0,0.0\n" for c in range(n))
    path.write_text("cycle,t_s,phi,v,theta,gamma,action_issued,action_applied,power_kw,r1,r2\n" + rows)
    return CycleTrace.from_csv(path)


def trace_from_theta(theta, power=300.0, gamma=2.0):
    n = len(theta)
    return CycleTrace(
        cycle=np.arange(n),
        t_s=np.arange(n) * 10.0,
        phi=np.full(n, 30.0),
        v=np.full(n, 8.0),
        theta=np.asarray(theta, dtype=float),
        gamma=np.full(n, gamma),
        action_issued=np.ones(n, dtype=np.int64),
        action_applied=np.ones(n, dtype=np.int64),
        power_kw=np.full(n, power),
        r1=np.zeros(n),
        r2=np.zeros(n),
    )


class TestComputeMetrics:
    def test_all_stay_trace(self, tp, cfg):
        m = compute_metrics(trace_from_theta(np.full(50, 30.0)), tp, cfg)
        assert m.angle_covered_deg == 0.0
        assert m.yaw_count == 0
        assert m.time_yawing_pct == 0.0
        assert m.yaw_consumption_kwh == 0.0

    def test_disjoint_single_cycle_moves(self, tp, cfg):
        theta = np.full(1000, 10.0)
        bump = 10.0
        for i in range(34):
            bump += 3.0
            theta[20 + 28 * i :] = bump  # 34 isolated one-cycle steps
        m = compute_metrics(trace_from_theta(theta), tp, cfg)
        assert m.yaw_count == 34
        assert m.time_yawing_pct == pytest.approx(3.4, abs=1e-12)

    def test_three_cycle_move(self, tp, cfg):
        theta = np.full(100, 10.0)
        theta[40:] = 13.0
        theta[41:] = 16.0
        theta[42:] = 19.0
        m = compute_metrics(trace_from_theta(theta), tp, cfg)
        assert m.angle_covered_deg == pytest.approx(9.0, abs=1e-12)
        assert m.yaw_count == 1
        assert m.time_yawing_pct == pytest.approx(3.0, abs=1e-12)

    def test_energy_rectangle_rule(self, tp, cfg):
        m = compute_metrics(trace_from_theta(np.full(360, 10.0), power=300.0), tp, cfg)
        assert m.energy_kwh == pytest.approx(300.0 * 360 * 10 / 3600.0, rel=1e-12)

    def test_avg_error_uses_magnitude(self, tp, cfg):
        tr = trace_from_theta(np.full(10, 10.0), gamma=-4.0)
        assert compute_metrics(tr, tp, cfg).avg_yaw_error_deg == 4.0

    def test_empty_trace_rejected(self, tp, cfg):
        with pytest.raises(ValueError):
            compute_metrics(trace_from_theta(np.full(5, 1.0)).slice(0, 0), tp, cfg)

    def test_additivity_at_idle_seam(self, tp, cfg):
        series = generate_synthetic(steady_preset(length_s=4000), seed=30)
        env_cfg = EnvConfig(standardizer=Standardizer(8.0), episode_len=100, j=2)
        trace = run_constant_action(YawEnv(series, env_cfg), Action.STAY, start_cycle=0)
        a, b = trace.slice(0, 40), trace.slice(40, 100)
        whole = compute_metrics(trace, tp, cfg)
        ma, mb = compute_metrics(a, tp, cfg), compute_metrics(b, tp, cfg)
        assert whole.energy_kwh == pytest.approx(ma.energy_kwh + mb.energy_kwh, rel=1e-12)
        assert whole.angle_covered_deg == pytest.approx(
            ma.angle_covered_deg + mb.angle_covered_deg, abs=1e-12
        )
        assert whole.avg_yaw_error_deg == pytest.approx(
            (40 * ma.avg_yaw_error_deg + 60 * mb.avg_yaw_error_deg) / 100, rel=1e-12
        )
        assert whole.yaw_count == ma.yaw_count + mb.yaw_count

    def test_turbine_must_match_env_config(self, cfg):
        # a different turbine gave 0.775 instead of 1.55 kWh for the same rotation
        tr = trace_from_theta(np.concatenate([np.full(50, 10.0), np.full(50, 40.0)]) + np.arange(100) * 3.0)
        other = TurbineParams(yaw_rate_deg_s=0.6)
        with pytest.raises(ValueError, match="differ from the env config"):
            compute_metrics(tr, other, cfg)
        assert compute_metrics(tr, other, replace(cfg, turbine=other)).yaw_consumption_kwh > 0

    def test_trace_on_another_cycle_period_rejected(self, tp, cfg, tmp_path):
        # a 5 s trace priced per 10 s cycle would report twice its energy over twice its horizon
        fast = five_second_trace(tmp_path)
        with pytest.raises(ValueError, match=r"^trace cycles are 5 s apart but the control cycle is 10 s$"):
            compute_metrics(fast, tp, cfg)
        assert compute_metrics(fast.slice(3, 4), tp, cfg).horizon_s == 10.0  # one cycle shows no step
        series = generate_synthetic(steady_preset(length_s=4000), seed=32)
        trace = run_cyca_s(series, CycaConfig(), tp, init_theta=float(series.phi[0]))
        assert compute_metrics(trace, tp, cfg).horizon_s == 4000.0


@given(
    theta=st.lists(st.floats(0.0, 360.0, exclude_max=True), min_size=2, max_size=40),
    rate=st.floats(0.01, 10.0),
    drive=st.floats(0.0, 100.0),
)
def test_drive_energy_keeps_its_operand_order(theta, rate, drive):
    # rotation / yaw rate * drive power / 3600, bit for bit as before it was shared
    tp = TurbineParams(yaw_rate_deg_s=rate, p_yaw_drive_kw=drive)
    cfg = EnvConfig(standardizer=Standardizer(8.0), turbine=tp)
    cand, base = trace_from_theta(theta), trace_from_theta(theta[::-1])
    d_c, d_b = cycle_deltas(cand.theta), cycle_deltas(base.theta)
    assert compute_metrics(cand, tp, cfg).yaw_consumption_kwh == float(np.sum(d_c) / rate * drive / 3600.0)
    delta, _ = yaw_consumption_delta(cand, base, tp)
    assert np.array_equal(delta, (d_c - d_b) / rate * drive / 3600.0)


@given(
    theta_a=st.lists(st.floats(0.0, 360.0, exclude_max=True), min_size=1, max_size=30),
    theta_b=st.lists(st.floats(0.0, 360.0, exclude_max=True), min_size=1, max_size=30),
    power=st.lists(st.floats(0.0, 2000.0), min_size=60, max_size=60),
)
def test_metrics_additive_over_concat(theta_a, theta_b, power):
    # the seam between the two traces is one more rotation, which neither part counts
    tp = TurbineParams()
    cfg = EnvConfig(standardizer=Standardizer(8.0))
    na, nb = len(theta_a), len(theta_b)
    a = trace_from_theta(theta_a, power=np.array(power[:na]))
    b = trace_from_theta(theta_b, power=np.array(power[na : na + nb]))
    b = replace(b, cycle=b.cycle + na, t_s=b.t_s + na * 10.0)  # b follows a on the cycle grid
    whole = compute_metrics(concat_traces([a, b]), tp, cfg)
    ma, mb = compute_metrics(a, tp, cfg), compute_metrics(b, tp, cfg)
    assert whole.n_cycles == ma.n_cycles + mb.n_cycles == na + nb
    assert whole.horizon_s == ma.horizon_s + mb.horizon_s
    assert whole.energy_kwh == pytest.approx(ma.energy_kwh + mb.energy_kwh, rel=1e-12, abs=1e-12)
    seam = abs(wrap_angle(theta_b[0] - theta_a[-1]))
    assert whole.angle_covered_deg == pytest.approx(ma.angle_covered_deg + mb.angle_covered_deg + seam, abs=1e-9)


class TestConsumptionDelta:
    def test_worked_example(self, tp):
        cand = trace_from_theta([10.0, 13.0])
        base = trace_from_theta([10.0, 10.0])
        delta, total = yaw_consumption_delta(cand, base, tp)
        # 3 deg extra travel at 0.3 deg/s is 10 s of an 18 kW drive: 0.05 kWh
        assert total == pytest.approx(0.05, abs=1e-12)
        assert delta[0] == 0.0

    def test_identical_traces_zero(self, tp):
        tr = trace_from_theta([10.0, 13.0, 13.0, 16.0])
        delta, total = yaw_consumption_delta(tr, tr, tp)
        assert np.all(delta == 0.0) and total == 0.0

    def test_sign_credit(self, tp):
        cand = trace_from_theta([10.0, 10.0])
        base = trace_from_theta([10.0, 13.0])
        delta, total = yaw_consumption_delta(cand, base, tp)
        assert total < 0.0

    def test_antisymmetry(self, tp):
        rng = np.random.default_rng(1)
        a = trace_from_theta(np.cumsum(rng.choice([0.0, 3.0, -3.0], size=50)) % 360.0)
        b = trace_from_theta(np.cumsum(rng.choice([0.0, 3.0, -3.0], size=50)) % 360.0)
        d_ab, t_ab = yaw_consumption_delta(a, b, tp)
        d_ba, t_ba = yaw_consumption_delta(b, a, tp)
        assert np.allclose(d_ab, -d_ba, atol=1e-15)
        assert t_ab == pytest.approx(-t_ba, abs=1e-12)

    def test_grid_mismatch_rejected(self, tp):
        a = trace_from_theta(np.full(10, 1.0))
        b = trace_from_theta(np.full(8, 1.0))
        with pytest.raises(ValueError, match="grid"):
            yaw_consumption_delta(a, b, tp)

    def test_time_grid_mismatch_rejected(self, tp):
        a = trace_from_theta(np.full(10, 1.0))
        b = replace(a, t_s=a.t_s / 2.0)
        with pytest.raises(ValueError, match=r"^traces are on different time grids: cycle 1 at t_s 10\.0 and 5\.0$"):
            yaw_consumption_delta(a, b, tp)


def report(err=6.52, energy=1168.5):
    return MetricsReport(
        avg_yaw_error_deg=err,
        energy_kwh=energy,
        angle_covered_deg=50.0,
        yaw_count=10,
        time_yawing_pct=2.0,
        yaw_consumption_kwh=1.0,
        n_cycles=1000,
        horizon_s=10000.0,
    )


class TestCompare:
    def test_identical_reports_zero(self):
        c = compare(report(), report(), 0.0)
        assert c.yaw_error_decrease_pct == 0.0
        assert c.energy_gain_pct == 0.0
        assert c.net_energy_gain_pct == 0.0

    def test_yaw_error_decrease_range(self):
        c = compare(report(err=6.18), report(err=6.52), 0.0)
        assert 5.2 <= c.yaw_error_decrease_pct <= 5.5

    def test_energy_gain_example(self):
        c = compare(report(energy=741.5), report(energy=736.0), 0.0)
        assert c.energy_gain_pct == pytest.approx(0.747, abs=5e-3)

    def test_net_gain_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            e_b = rng.uniform(100, 2000)
            e_c = e_b * rng.uniform(0.95, 1.05)
            delta = rng.uniform(-5, 5)
            c = compare(report(energy=e_c), report(energy=e_b), delta)
            assert c.net_energy_gain_pct == pytest.approx(
                c.energy_gain_pct - 100.0 * delta / e_b, abs=1e-12
            )

    def test_net_never_exceeds_gross_when_candidate_spends_more(self):
        c = compare(report(energy=741.5), report(energy=736.0), 2.0)
        assert c.net_energy_gain_pct <= c.energy_gain_pct

    def test_zero_baseline_energy_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            compare(report(), report(energy=0.0), 0.0)


class TestAlignAndTables:
    def test_align_traces(self):
        a = trace_from_theta(np.full(10, 1.0))
        b = trace_from_theta(np.full(10, 1.0)).slice(1, 9)
        aa, bb = align_traces(a, b)
        assert np.array_equal(aa.cycle, bb.cycle)
        assert aa.cycle[0] == 1 and aa.cycle[-1] == 8

    def test_align_disjoint_rejected(self):
        a = trace_from_theta(np.full(5, 1.0))
        b = trace_from_theta(np.full(10, 1.0)).slice(6, 10)
        with pytest.raises(ValueError):
            align_traces(a, b)

    def test_align_different_time_grids_rejected(self, tp, tmp_path):
        # a 5 s trace read from CSV against the 10 s CYCA-S grid: the cycle numbers
        # overlap, so the two traces were aligned and compared period for period
        series = generate_synthetic(steady_preset(length_s=3000), seed=31)
        fast = five_second_trace(tmp_path)
        slow = run_cyca_s(series, CycaConfig(), tp, init_theta=float(series.phi[0]))
        with pytest.raises(ValueError, match=r"^traces are on different time grids: cycle 1 at t_s 5\.0 and 10\.0$"):
            align_traces(fast, slow)

    @pytest.mark.parametrize("empty_first", [True, False])
    def test_align_empty_trace_rejected(self, empty_first):
        a, b = trace_from_theta(np.full(5, 1.0)), trace_from_theta(np.full(5, 1.0)).slice(0, 0)
        with pytest.raises(ValueError, match="cannot align an empty trace"):  # was IndexError
            align_traces(*((b, a) if empty_first else (a, b)))

    def test_tables_render(self):
        reports = {"rlyca": report(err=6.18, energy=1173.1), "cyca_s": report(), "cyca_l": report(err=6.91)}
        txt = render_metrics_table(reports, omit_energy={"cyca_l"})
        assert "average yaw error (deg)" in txt
        assert "6.18" in txt and "6.52" in txt
        csv_text = metrics_table_csv(reports, omit_energy={"cyca_l"})
        row = [ln for ln in csv_text.splitlines() if ln.startswith("power output")][0]
        assert row.endswith("-")
        comp = {"steady": compare(report(err=6.18, energy=1173.1), report(), 0.958)}
        ct = render_comparison_table(comp)
        assert "net energy gain (%)" in ct
        assert comparison_table_csv(comp).startswith("metric,steady")
