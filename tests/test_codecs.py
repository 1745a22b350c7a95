"""Record layouts written once: the table renderer and the dict codecs.

The shared renderer must reproduce the four renderers it replaced byte for
byte (``table_reference.py``). Every field-derived ``to_dict`` must give the
dict of the hand-listed codec it replaced (``codec_reference.py``). A config's
``from_dict`` must invert it exactly, also through JSON, and a missing or
unknown key must raise instead of falling back to a default; the reports are
written, never read back, so they have no ``from_dict``.
"""

import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import codec_reference as ref
import table_reference
from yawbench.env import EnvConfig
from yawbench.metrics import (
    Comparison,
    MetricsReport,
    comparison_table_csv,
    metrics_table_csv,
    render_comparison_table,
    render_metrics_table,
)
from yawbench.power import ALPHA_MAX, ALPHA_MIN, TurbineParams
from yawbench.ppo import ActorCritic, PpoConfig, load_checkpoint, save_checkpoint
from yawbench.wind import Standardizer

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.one_of(st.integers(1, 10**6), st.floats(1e-9, 1e9))
nonnegative = st.one_of(st.just(0.0), st.floats(0.0, 1e9))


@st.composite
def turbines(draw):
    cut_in, rated, cut_out = sorted(draw(st.lists(st.floats(1e-3, 100.0), min_size=3, max_size=3, unique=True)))
    return TurbineParams(
        rho=draw(positive),
        rotor_diameter=draw(positive),
        alpha=draw(st.floats(ALPHA_MIN, ALPHA_MAX)),
        v_cut_in=cut_in,
        v_rated=rated,
        v_cut_out=cut_out,
        p_rated_kw=draw(positive),
        yaw_rate_deg_s=draw(positive),
        p_yaw_drive_kw=draw(nonnegative),
    )


reports = st.builds(MetricsReport, finite, finite, finite, st.integers(), finite, finite, st.integers(), finite)
comparisons = st.builds(
    Comparison, finite, finite, finite, finite, st.one_of(st.none(), st.lists(finite).map(np.array))
)


@st.composite
def env_configs(draw):
    return EnvConfig(
        standardizer=Standardizer(draw(st.floats(1e-9, 1e9))),
        turbine=draw(turbines()),
        k=draw(st.integers(1, 50)),
        j=draw(st.integers(1, 20)),
        w=draw(nonnegative),
        episode_len=draw(st.integers(1, 10**6)),
    )


@st.composite
def ppo_configs(draw):
    batch = draw(st.integers(1, 64))
    n_steps = batch * draw(st.integers(1, 8))
    return PpoConfig(
        learning_rate=draw(st.floats(1e-9, 1.0)),
        n_steps=n_steps,
        batch_size=batch,
        epochs=draw(st.integers(1, 20)),
        discount=draw(st.floats(0.0, 1.0, exclude_min=True)),
        gae_lambda=draw(st.floats(0.0, 1.0)),
        total_steps=n_steps * draw(st.integers(1, 10)),
        clip_eps=draw(st.floats(1e-9, 1.0)),
        value_coef=draw(nonnegative),
        entropy_coef=draw(nonnegative),
        seed=draw(st.integers(0, 2**63)),
        hidden=tuple(draw(st.lists(st.integers(1, 16), min_size=1, max_size=3))),
        init_offset_deg=draw(st.floats(0.0, 180.0)),
    )


CONFIGS = {
    "TurbineParams": (turbines(), ref.turbine_to_dict),
    "EnvConfig": (env_configs(), ref.env_to_dict),
    "PpoConfig": (ppo_configs(), ref.ppo_to_dict),
}
REPORTS = {
    "MetricsReport": (reports, ref.report_to_dict),
    "Comparison": (comparisons, ref.comparison_to_dict),
}


@pytest.mark.parametrize("name", REPORTS)
@given(data=st.data())
def test_report_to_dict_matches_hand_listed_codec(name, data):
    strategy, hand_listed = REPORTS[name]
    x = data.draw(strategy)
    d = x.to_dict()
    assert d == hand_listed(x) and list(d) == list(hand_listed(x))


@pytest.mark.parametrize("name", CONFIGS)
@given(data=st.data())
def test_dict_round_trip(name, data):
    strategy, hand_listed = CONFIGS[name]
    x = data.draw(strategy)
    d = x.to_dict()
    assert d == hand_listed(x) and list(d) == list(hand_listed(x))
    assert type(x).from_dict(d) == x
    assert type(x).from_dict(json.loads(json.dumps(d))) == x


DEFAULTS = {
    "TurbineParams": TurbineParams(),
    "EnvConfig": EnvConfig(standardizer=Standardizer(8.0)),
    "PpoConfig": PpoConfig(),
}


@pytest.mark.parametrize("name, key", [(n, k) for n, x in DEFAULTS.items() for k in x.to_dict()])
def test_missing_key_raises_naming_it(name, key):
    d = DEFAULTS[name].to_dict()
    del d[key]  # was filled from the default for most fields
    with pytest.raises(KeyError, match=repr(key)):
        type(DEFAULTS[name]).from_dict(d)


@pytest.mark.parametrize("name", DEFAULTS)
def test_unknown_key_raises_naming_it(name):
    d = DEFAULTS[name].to_dict() | {"bogus": 1}
    with pytest.raises(TypeError, match="'bogus'"):
        type(DEFAULTS[name]).from_dict(d)


def _checkpoint(path, env_cfg, ppo_cfg):
    ac = ActorCritic.create(env_cfg.j, ppo_cfg.hidden, np.random.default_rng(0))
    save_checkpoint(path, ac, env_cfg, ppo_cfg)
    return ac


@given(env_cfg=env_configs(), ppo_cfg=ppo_configs())
def test_checkpoint_bytes_match_hand_listed_codec(env_cfg, ppo_cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ck.json"
        ac = _checkpoint(path, env_cfg, ppo_cfg)
        assert path.read_text() == ref.checkpoint_text(ac, env_cfg, ppo_cfg)
        _, env_back, ppo_back = load_checkpoint(path)
    assert env_back == env_cfg and ppo_back == ppo_cfg


_ENV = EnvConfig(standardizer=Standardizer(8.2), j=2)
_PPO = PpoConfig(n_steps=8, batch_size=4, total_steps=8, hidden=(3,))
SECTION_KEYS = (
    [("ppo", key) for key in ref.ppo_to_dict(_PPO)]
    + [("env", key) for key in ref.env_to_dict(_ENV)]
    + [("env.turbine", key) for key in ref.turbine_to_dict(_ENV.turbine)]
)


@pytest.mark.parametrize("section, key", SECTION_KEYS)
def test_checkpoint_missing_config_key_names_file_and_key(tmp_path, section, key):
    path = tmp_path / "ck.json"
    _checkpoint(path, _ENV, _PPO)
    payload = json.loads(path.read_text())
    owner = payload
    for part in section.split("."):
        owner = owner[part]
    del owner[key]  # learning_rate, k, alpha, ... loaded back as their defaults
    path.write_text(json.dumps(payload))
    top = section.split(".")[0]
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {top}: missing key '{key}'$"):
        load_checkpoint(path)


label = st.one_of(st.text(max_size=24), st.sampled_from(["CYCA-L", "a ", " ", "", "PPO steady" * 4]))
labels = st.lists(label, min_size=1, max_size=5, unique=True)
any_float = st.one_of(st.floats(), st.sampled_from([-0.0, -1e300, 1e300, -123.456, 0.005, 0.015]))
any_reports = st.builds(
    MetricsReport, any_float, any_float, any_float, st.integers(), any_float, any_float, st.integers(), any_float
)
any_comparisons = st.builds(Comparison, any_float, any_float, any_float, any_float)


_REPORT = MetricsReport(6.18, 1173.1, 420.0, 12, 2.0, 0.95, 1050, 10500.0)
_COMPARISON = Comparison(5.5, 0.4, 0.31, 0.02)


def _csv_matches_reference(render, reference, columns, *args):
    """The CSV form equals the reference's, unless a label would break its
    fields; then it raises naming the first such label."""
    bad = [lb for lb in columns if set(lb) & set(',"\r\n')]
    if bad:
        with pytest.raises(ValueError, match=rf"^CSV table label {re.escape(repr(bad[0]))} holds a comma"):
            render(columns, *args)
    else:
        assert render(columns, *args) == reference(columns, *args)


@given(data=st.data())
def test_metrics_tables_match_reference(data):
    names = data.draw(labels)
    reps = {lb: data.draw(any_reports) for lb in names}
    omit = data.draw(st.sets(st.sampled_from([*names, "absent"])))
    assert render_metrics_table(reps) == table_reference.render_metrics_table(reps)
    _csv_matches_reference(metrics_table_csv, table_reference.metrics_table_csv, reps)
    assert render_metrics_table(reps, omit) == table_reference.render_metrics_table(reps, omit)
    _csv_matches_reference(metrics_table_csv, table_reference.metrics_table_csv, reps, omit)


@given(data=st.data())
def test_comparison_tables_match_reference(data):
    comps = {lb: data.draw(any_comparisons) for lb in data.draw(labels)}
    assert render_comparison_table(comps) == table_reference.render_comparison_table(comps)
    _csv_matches_reference(comparison_table_csv, table_reference.comparison_table_csv, comps)


@pytest.mark.parametrize("bad", ["PPO, lr 3e-4", 'say "hi"', "two\nlines", "a\rb"])
def test_csv_table_label_that_would_break_its_fields_rejected(bad):
    # "PPO, lr 3e-4" wrote the header metric,PPO, lr 3e-4,CYCA-S: 4 fields over 3-field rows
    reps = {bad: _REPORT, "CYCA-S": _REPORT}
    with pytest.raises(ValueError, match=rf"^CSV table label {re.escape(repr(bad))} holds a comma, quote or line break$"):
        metrics_table_csv(reps)
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        comparison_table_csv({bad: _COMPARISON})
    # the aligned text tables take any label
    assert bad in render_metrics_table(reps) and bad in render_comparison_table({bad: _COMPARISON})


def test_csv_table_without_columns_is_header_only():
    # the former renderer wrote "metric," and "<title>," here: an empty column
    assert metrics_table_csv({}).splitlines()[0] == "metric"
    assert comparison_table_csv({}).splitlines()[1] == "average yaw error decrease (%)"
