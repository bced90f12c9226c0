"""`TrainConfig.validate` is the one gate of config values: every config it
accepts trains, logs finite metrics and evaluates, so no code behind it
re-checks a value.  For every accepted config the update invariants hold:
first-epoch importance ratios are exactly 1, and a skipped update leaves no
trace in the parameters or the optimizer states.  The accepted configs are
drawn constructively, so every draw is one; each refusal edge moves the keys
of its own accepted draws across a bound, and validate must refuse it."""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unigrpo import trainer as trainer_mod
from unigrpo.checkpoint import load_params
from unigrpo.config import MIN_WINDOW_STD, TrainConfig
from unigrpo.errors import ConfigError, NumericError
from unigrpo.flow_policy import step_table, timestep_schedule
from unigrpo.metrics import read_metrics
from unigrpo.nn import AdamState, adam_step
from unigrpo.task import PROMPT_TOKENS
from unigrpo.trainer import (
    collect_rollouts,
    evaluate_run,
    make_runtime,
    pretrain_all,
    rollout_words,
    train,
    unified_update,
)

TIME_BOUND_S = 5.0
EVAL_COLUMNS = ("eval_reward", "text_accuracy", "velocity_drift")
# draws per test: every draw of _accepted is a config validate accepts, so
# each is a training run, and each refusal edge gets its own draws
TRAIN_EXAMPLES = 80
INVARIANT_EXAMPLES = 120
EDGE_EXAMPLES = 20

# model sizes fixed, so one pretraining serves every drawn config
BASE = TrainConfig(
    total_updates=3, eval_every=0, checkpoint_every=0, eval_samples=2,
    text_embed_dim=6, text_hidden=6, flow_cond_dim=6, flow_hidden=6,
    pretrain_text_n=64, pretrain_text_epochs=1, pretrain_flow_n=64, pretrain_flow_epochs=1,
    pretrain_batch=64,
)


def _least_sigma(values) -> float:
    """The least sigma_level validate accepts with the window of `values`,
    up to rounding: the one that keeps each window step's transition std at
    MIN_WINDOW_STD."""
    steps = step_table(timestep_schedule(values["train_timesteps"], values["timestep_shift"]), 1.0)
    return MIN_WINDOW_STD / steps.std[values["sde_window_lo"]:values["sde_window_hi"] + 1].min()


@st.composite
def _accepted(draw):
    """The sampling, window, regularizer and guidance keys, each drawn over
    the range validate accepts given the others, bounds included: the window
    inside the drawn train_timesteps, at least one policy trained, a window
    at least one step wide when the flow trains, and with a window a
    sigma_level from the least validate accepts (without one, any)."""
    n = draw(st.integers(1, 6))
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo, n - 1))
    train_text, train_flow = draw(st.sampled_from([(True, False), (False, True), (True, True)]))
    size = draw(st.integers(int(train_flow), hi - lo + 1))
    values = {
        "group_size": draw(st.integers(2, 4)),
        "prompts_per_batch": draw(st.integers(1, 3)),
        "train_timesteps": n,
        "eval_timesteps": draw(st.integers(1, 6)),
        "timestep_shift": draw(st.just(1.0) | st.floats(1.0, 5.0)),
        "sde_window_lo": lo,
        "sde_window_hi": hi,
        "sde_window_size": size,
        "reg_mode": draw(st.sampled_from(["none", "latent-kl", "velocity-mse"])),
        "train_text": train_text,
        "train_flow": train_flow,
        "train_cfg": draw(st.booleans()),
        "temperature": draw(st.floats(0.05, 3.0)),
        "eval_cfg_scale": draw(st.floats(-1.0, 3.0)),
        "ppo_epochs": draw(st.integers(1, 3)),
    }
    least = _least_sigma(values) * (1 + 1e-12)
    values["sigma_level"] = draw(st.just(least) | st.floats(least, 1.5) if size
                                 else st.floats(-1.0, 1.5))
    return values


# each refusal edge: the keys it moves in a drawn accepted config, and what
# validate's refusal says
EDGES = {
    "shift-below-1": (lambda v: {"timestep_shift": 1.0 - 1e-9}, "timestep_shift"),
    "shift-0": (lambda v: {"timestep_shift": 0.0}, "timestep_shift"),
    "window-lo-negative": (lambda v: {"sde_window_lo": -1}, "SDE window"),
    "window-hi-past-schedule": (lambda v: {"sde_window_hi": v["train_timesteps"]}, "SDE window"),
    "window-hi-below-lo": (lambda v: {"sde_window_hi": v["sde_window_lo"] - 1}, "SDE window"),
    "window-size-negative": (lambda v: {"sde_window_size": -1}, "sde_window_size"),
    "window-size-past-span": (
        lambda v: {"sde_window_size": v["sde_window_hi"] - v["sde_window_lo"] + 2},
        "sde_window_size"),
    "window-size-0-flow-trains": (lambda v: {"sde_window_size": 0, "train_flow": True},
                                  "train_flow needs"),
    "sigma-negative-with-window": (
        lambda v: {"sde_window_size": max(v["sde_window_size"], 1), "sigma_level": -1e-9},
        "sigma_level"),
    "sigma-0-with-window": (
        lambda v: {"sde_window_size": max(v["sde_window_size"], 1), "sigma_level": 0.0},
        "sigma_level"),
    "sigma-below-least": (
        lambda v: {"sde_window_size": max(v["sde_window_size"], 1),
                   "sigma_level": _least_sigma(v) * (1 - 1e-9)},
        "sigma_level"),
    "no-policy-trains": (lambda v: {"train_text": False, "train_flow": False},
                         "both false"),
    "temperature-0": (lambda v: {"temperature": 0.0}, "temperature"),
    "ppo-epochs-0": (lambda v: {"ppo_epochs": 0}, "ppo_epochs"),
}


@pytest.mark.parametrize("edge", EDGES)
def test_every_refusal_edge_is_refused(edge):
    move, says = EDGES[edge]

    @settings(max_examples=EDGE_EXAMPLES, derandomize=True, database=None, deadline=None)
    @given(values=_accepted())
    def check(values):
        with pytest.raises(ConfigError, match=says):
            replace(BASE, **{**values, **move(values)}).validate()

    check()


@pytest.fixture(scope="module")
def gate_pretrain(tmp_path_factory):
    out = tmp_path_factory.mktemp("gate-pre")
    pretrain_all(BASE, out)
    return out


def test_every_accepted_config_trains_and_evaluates(gate_pretrain, tmp_path):
    accepted = []

    @settings(max_examples=TRAIN_EXAMPLES, derandomize=True, database=None, deadline=None)
    @given(values=_accepted())
    def check(values):
        cfg = replace(BASE, pretrain_dir=str(gate_pretrain), **values).validate()
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
    # validate refused none of the draws (it would have raised), so every
    # one of them trained
    assert len(accepted) == TRAIN_EXAMPLES, len(accepted)
    assert elapsed < TIME_BOUND_S, f"{len(accepted)} runs took {elapsed:.2f} s"


def _update_inputs(cfg, pre):
    """The runtime, the pretrained policies in `pre` and the groups of update 1
    they sample (from `rollout_words` and `collect_rollouts`)."""
    rt = make_runtime(cfg)
    text, flow = (load_params(pre / name) for name in ("text.ckpt", "flow.ckpt"))
    draws = rollout_words(cfg, cfg.seed, range(1, 2), cfg.prompts_per_batch)[0]
    greedy = None if cfg.train_text else rt.text_policy.greedy_trace(text, PROMPT_TOKENS)
    return rt, text, flow, collect_rollouts(rt, draws.prompts, text, flow, draws, greedy)


def _spy_surrogates(rt, stale=False, fail_at=None):
    """Wrap each policy's surrogate_loss: record the LossStats of each policy's
    calls, None for a call that raised.  `stale` plants a bug: the first call
    on a batch first runs at a parameter vector one Adam step away, so the
    batch's old log-probs or means come from it.  `fail_at` (policy name,
    call index) raises a NumericError at that call."""
    calls = {"text": [], "flow": []}
    for name, policy in (("text", rt.text_policy), ("flow", rt.flow_policy)):
        def spy(params, batch, clip_eps, name=name, policy=policy):
            honest = type(policy).surrogate_loss
            calls[name].append(None)
            if (name, len(calls[name]) - 1) == fail_at:
                raise NumericError("injected")
            if stale and len(calls[name]) == 1:
                moved = adam_step(params, np.ones(params.layout.size),
                                  AdamState.for_params(params, lr=1e-3))
                honest(policy, moved, batch, clip_eps)
            out = honest(policy, params, batch, clip_eps)
            calls[name][-1] = out[2]
            return out

        policy.surrogate_loss = spy
    return calls


def _first_ratios_are_one(rt, text, flow, groups, stale=False):
    """Whether each trained policy's first surrogate_loss call in one
    `unified_update` from fresh Adam states returns every ratio exactly 1.0,
    and the parameters and Adam states the update leaves."""
    adams = [AdamState.for_params(p, lr) for p, lr in ((text, rt.cfg.lr_text),
                                                        (flow, rt.cfg.lr_flow))]
    calls = _spy_surrogates(rt, stale=stale)
    new_text, new_flow, _ = unified_update(rt, groups, text, flow, text, flow, *adams)
    trained = [name for name in ("text", "flow") if getattr(rt.cfg, f"train_{name}")]
    ok = all(calls[name] and calls[name][0] is not None
             and (calls[name][0].ratio == 1.0).all()
             for name in trained)
    return ok, (new_text, new_flow, *adams)


def _skip_leaves_no_trace(rt, entry, groups, monkeypatch, in_place=False):
    """Whether a NumericError injected at the last PPO epoch's last surrogate
    returns both parameter vectors and both Adam states (m, v, step)
    bit-identical to entry, and whether an Adam step ran before it (without
    one, a write before the skip check has nothing to show).  `in_place`
    plants a bug: each Adam step writes the parameter vector in place."""
    text, flow, adam_text, adam_flow = entry
    vecs = [p.vec.copy() for p in (text, flow)]
    states = [(a.m.copy(), a.v.copy(), a.step) for a in (adam_text, adam_flow)]
    last = "flow" if rt.cfg.train_flow else "text"
    _spy_surrogates(rt, fail_at=(last, rt.cfg.ppo_epochs - 1))
    steps = []

    def counted_step(params, grads, state):
        new = adam_step(params, grads, state)
        steps.append(state)
        if in_place:
            params.vec[:] = new.vec
            return params
        return new

    with monkeypatch.context() as mp:
        mp.setattr(trainer_mod, "adam_step", counted_step)
        new_text, new_flow, stats = unified_update(rt, groups, text, flow, text, flow,
                                                   adam_text, adam_flow)
    same = stats.skipped and all(
        p.vec.tobytes() == v.tobytes() for p, v in zip((new_text, new_flow), vecs))
    same = same and all(a.m.tobytes() == m.tobytes() and a.v.tobytes() == v.tobytes()
                        and a.step == step
                        for a, (m, v, step) in zip((adam_text, adam_flow), states))
    return same, bool(steps)


def test_update_invariants_hold_for_every_accepted_config(gate_pretrain, monkeypatch):
    # each negative control plants a bug that its property must catch on the
    # same config, so neither property passes by checking nothing
    seen = {"configs": 0, "ratios": 0, "skips": 0}

    @settings(max_examples=INVARIANT_EXAMPLES, derandomize=True, database=None, deadline=None)
    @given(values=_accepted())
    def check(values):
        cfg = replace(BASE, **values).validate()
        seen["configs"] += 1
        rt, text, flow, groups = _update_inputs(cfg, gate_pretrain)
        if all(g.degenerate for g in groups):
            return  # the update takes no step
        ok, entry = _first_ratios_are_one(rt, text, flow, groups)
        assert ok, values
        seen["ratios"] += 1
        assert not _first_ratios_are_one(rt, text, flow, groups, stale=True)[0], values
        # from the update's exit state, so the Adam moments are not zero
        same, stepped = _skip_leaves_no_trace(rt, entry, groups, monkeypatch)
        assert same, values
        # an Adam step precedes the failure injected at the last epoch's last
        # policy when an epoch comes before the last or text steps before flow
        assert stepped == (cfg.ppo_epochs > 1 or (cfg.train_text and cfg.train_flow)), values
        if stepped:
            seen["skips"] += 1
            assert not _skip_leaves_no_trace(rt, entry, groups, monkeypatch, in_place=True)[0], \
                values

    tic = time.perf_counter()
    check()
    elapsed = time.perf_counter() - tic
    # validate refused none of the draws (it would have raised); each control
    # showed on every config where it can, and on no fewer than the 68 and 59
    # configs of a strategy that also drew refused ones
    assert seen["configs"] == INVARIANT_EXAMPLES, seen
    assert seen["ratios"] >= 68 and seen["skips"] >= 59, seen
    assert elapsed < TIME_BOUND_S, f"{seen} took {elapsed:.2f} s"
