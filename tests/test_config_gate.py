"""`TrainConfig.validate` is the one gate of config values: every config it
accepts trains, logs finite metrics and evaluates, so no code behind it
re-checks a value."""

import json
import math
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unigrpo.config import TrainConfig
from unigrpo.errors import ConfigError
from unigrpo.metrics import read_metrics
from unigrpo.trainer import evaluate_run, pretrain_all, train

EXAMPLES = 300
TIME_BOUND_S = 5.0
EVAL_COLUMNS = ("eval_reward", "text_accuracy", "velocity_drift")

# model sizes fixed, so one pretraining serves every drawn config
BASE = TrainConfig(
    total_updates=3, eval_every=0, checkpoint_every=0, eval_samples=2,
    text_embed_dim=6, text_hidden=6, flow_cond_dim=6, flow_hidden=6,
    pretrain_text_n=64, pretrain_text_epochs=1, pretrain_flow_n=64, pretrain_flow_epochs=1,
    pretrain_batch=64,
)


@st.composite
def _configs(draw):
    """The sampling, window, regularizer and guidance keys, each drawn over
    its admissible range (the window's relative to the drawn
    train_timesteps, and at least one step wide when the flow trains), then
    at most one of them moved to a value at or just across a bound validate
    sets."""
    n = draw(st.integers(1, 6))
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo, n - 1))
    span = hi - lo + 1
    train_flow = draw(st.booleans())
    values = {
        "group_size": draw(st.integers(2, 4)),
        "prompts_per_batch": draw(st.integers(1, 3)),
        "train_timesteps": n,
        "eval_timesteps": draw(st.integers(1, 6)),
        "timestep_shift": draw(st.floats(1.0, 5.0)),
        "sde_window_lo": lo,
        "sde_window_hi": hi,
        "sde_window_size": draw(st.integers(int(train_flow), span)),
        "sigma_level": draw(st.just(0.0) | st.floats(0.0, 1.5)),
        "reg_mode": draw(st.sampled_from(["none", "latent-kl", "velocity-mse"])),
        "train_text": draw(st.booleans()),
        "train_flow": train_flow,
        "train_cfg": draw(st.booleans()),
        "temperature": draw(st.floats(0.05, 3.0)),
        "eval_cfg_scale": draw(st.floats(-1.0, 3.0)),
        "ppo_epochs": draw(st.integers(1, 3)),
    }
    edges = [("timestep_shift", 1.0 - 1e-9), ("timestep_shift", 0.0), ("sde_window_lo", -1),
             ("sde_window_hi", n), ("sde_window_hi", lo - 1), ("sde_window_size", -1),
             ("sde_window_size", 0), ("sde_window_size", span + 1), ("sigma_level", -1e-9),
             ("temperature", 0.0), ("ppo_epochs", 0)]
    moved = draw(st.none() | st.sampled_from(edges))
    if moved:
        values[moved[0]] = moved[1]
    return values


@pytest.fixture(scope="module")
def gate_pretrain(tmp_path_factory):
    out = tmp_path_factory.mktemp("gate-pre")
    pretrain_all(BASE, out)
    return out


def test_every_accepted_config_trains_and_evaluates(gate_pretrain, tmp_path):
    accepted = []

    @settings(max_examples=EXAMPLES, derandomize=True, database=None, deadline=None)
    @given(values=_configs())
    def check(values):
        cfg = replace(BASE, pretrain_dir=str(gate_pretrain), **values)
        try:
            cfg.validate()
        except ConfigError:
            return
        run = tmp_path / f"run{len(accepted)}"
        accepted.append(values)
        train(cfg, run)
        rows = read_metrics(run / "metrics.csv")
        assert [r["update"] for r in rows] == [0, 1, 2, 3]
        for r in rows:
            assert all(math.isfinite(v) for v in r.values() if v is not None), r
            assert r["nonfinite_samples"] == 0, r
        with open(run / "groups.jsonl") as fh:
            assert not any(json.loads(line)["skipped"] for line in fh)
        assert evaluate_run(run) == {key: rows[-1][key] for key in EVAL_COLUMNS}

    tic = time.perf_counter()
    check()
    elapsed = time.perf_counter() - tic
    # a gate that refuses (nearly) everything shows nothing
    assert len(accepted) >= EXAMPLES // 10, len(accepted)
    assert elapsed < TIME_BOUND_S, f"{len(accepted)} runs took {elapsed:.2f} s"
