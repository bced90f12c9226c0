"""Config parsing, validation, and the CLI surface with its exit codes."""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import unigrpo
from unigrpo.checkpoint import load_blocks, save_blocks, save_params
from unigrpo.cli import main
from unigrpo.config import (MIN_WINDOW_STD, RETIRED_KEYS, TrainConfig, dump_config,
                            load_config, parse_config_text)
from unigrpo.errors import ConfigError
from unigrpo.flow_policy import TIMESTEP_SHIFT, step_table, timestep_schedule
from unigrpo.metrics import read_metrics
from unigrpo.rng import stream
from unigrpo.task import CANONICAL_TRACES
from unigrpo.text_policy import TextPolicy
from unigrpo.trainer import make_runtime
from unigrpo.verify import with_blocks

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
FLOAT_KEYS = [f.name for f in fields(TrainConfig)
              if isinstance(getattr(TrainConfig(), f.name), float)]
PRETRAIN_LINES = ["pretrain_text_n = 0", "pretrain_flow_n = 0", "pretrain_flow_n = -5"]
# model sizes and pretraining epochs: a negative size crashed pretraining with
# a numpy error, and a zero one (flow_cond_dim = 0 hides the reasoning from the
# generator) or negative epoch count ran silently
MODEL_SIZE_LINES = [
    "text_hidden = -1", "flow_hidden = -2", "text_embed_dim = 0", "flow_cond_dim = 0",
    "pretrain_text_epochs = -1", "pretrain_flow_epochs = 0",
]
# run-control and sampling keys whose out-of-range values once ran silently or
# crashed later with a message that did not name the key
RUN_CONTROL_LINES = [
    "max_trace_len = 2", "max_trace_len = 0", "eval_timesteps = 0", "train_timesteps = 0",
    "total_updates = -2", "eval_every = -1", "checkpoint_every = -5", "ablate_seeds = 0",
]
# the task's geometry and label-noise rate, keys until they became task.py
# constants, at the values they always had
TASK_KEYS = {"tau_r": 0.5, "radius_near": 0.5, "radius_far": 1.5, "tau_tight": 0.1,
             "tau_wide": 0.25, "p_noise": 0.25}
# the warm starts' learning rates and condition-dropout rate and the schedule
# shift, keys until they became trainer.py and flow_policy.py constants, at
# the values they always had, each with the command that read it
WARM_START_KEYS = [("pretrain_text_lr", 3e-3, "pretrain"), ("pretrain_flow_lr", 3e-3, "pretrain"),
                   ("p_uncond", 0.1, "pretrain"), ("timestep_shift", 3.0, "train")]
# the text update's KL weight, the training guidance scale and the text warm
# start's batch, keys until the KL term went and the other two became
# trainer.py constants, at the values they always had
FIXED_KEYS = [("beta_txt", 0.0, "train"), ("train_cfg_scale", 2.0, "train"),
              ("pretrain_batch", 128, "pretrain")]
# deleted keys, an old value of each and a command that refuses a config setting it
REMOVED_KEYS = [
    # the flow loss weight: with a separate Adam state per policy it only
    # rescaled Adam's epsilon, and 0 is train_flow = false
    ("lambda_flow", 1.0, "train"),
    # the degenerate-group threshold is a fixed numerical guard, not a recipe knob
    ("adv_eps", 1e-8, "train"),
    # ablate runs total_updates; the knob whose 0 meant that is gone
    ("ablate_updates", 0, "ablate"),
    # the task is fixed: its geometry and label noise are task.py constants
    *((key, value, "train") for key, value in TASK_KEYS.items()),
    # the warm starts and the schedule are fixed: trainer.PRETRAIN_LR,
    # PRETRAIN_P_UNCOND and flow_policy.TIMESTEP_SHIFT
    *WARM_START_KEYS,
    # the text update is the clipped surrogate alone, rollouts guide at
    # trainer.TRAIN_CFG_SCALE and text pretraining batches PRETRAIN_TEXT_BATCH
    *FIXED_KEYS,
]
# removed keys that only pretraining read (a run reads its pretraining through
# its checkpoints), and ablate_updates: a manifest may hold them at any value
PRETRAIN_ONLY_KEYS = {"p_noise", "pretrain_text_lr", "pretrain_flow_lr", "p_uncond",
                      "pretrain_batch", "ablate_updates"}


class TestConfigParsing:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config_text("")
        assert cfg == TrainConfig()

    def test_values_comments_and_types(self):
        cfg = parse_config_text(
            """
            # a comment
            seed = 7
            beta_img = 0.5   # inline comment
            train_cfg = true
            reg_mode = latent-kl
            """
        )
        assert cfg.seed == 7
        assert cfg.beta_img == 0.5
        assert cfg.train_cfg is True
        assert cfg.reg_mode == "latent-kl"

    def test_unknown_key_names_the_key(self):
        with pytest.raises(ConfigError, match="grop_size"):
            parse_config_text("grop_size = 8")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config_text("seed = banana")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just some words")

    def test_round_trip_through_dump(self):
        cfg = TrainConfig(seed=3, reg_mode="none", train_cfg=True)
        assert parse_config_text(dump_config(cfg)) == cfg

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed = 11\n")
        cfg, text = load_config(path)
        assert cfg.seed == 11
        assert text == "seed = 11\n"

    def test_desk_config_names_every_key_once_at_its_default(self):
        # the benchmark builds both its workloads from this file, so a deleted
        # key left in it would stop every benchmark run at set-up
        cfg, text = load_config(Path(__file__).resolve().parents[1] / "configs/desk.cfg")
        assert cfg == TrainConfig()
        bodies = (line.split("#", 1)[0] for line in text.splitlines())
        keys = [body.split("=", 1)[0].strip() for body in bodies if body.strip()]
        assert sorted(keys) == sorted(f.name for f in fields(TrainConfig))


def test_retired_keys_are_the_removed_keys_a_run_computes_with():
    # each at the value it always had; the rest were read by pretraining
    # alone, or by nothing
    removed = {key: value for key, value, _ in REMOVED_KEYS}
    assert {key: removed[key] for key in RETIRED_KEYS} == RETIRED_KEYS
    assert removed.keys() - RETIRED_KEYS.keys() == PRETRAIN_ONLY_KEYS


class TestValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"group_size": 1},
            {"ppo_epochs": 0},
            {"beta_img": -1.0},
            {"temperature": 0.0},
            {"reg_mode": "bogus"},
            {"reward_mode": "bogus"},
            {"sde_window_hi": 99},
            {"sde_window_size": 99},
            {"sigma_level": 0.0},
            {"max_trace_len": 0},
            {"prompts_per_batch": 0},
            {"eval_samples": 0},
            {"seed": -1},
            {"train_text": False, "train_flow": False},
        ],
    )
    def test_invalid_configs_rejected(self, kw):
        with pytest.raises(ConfigError):
            TrainConfig(**kw).validate()

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_nonfinite_float_rejected(self, key):
        for value in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError, match=key):
                parse_config_text(f"{key} = {value}")

    @pytest.mark.parametrize(
        "kw",
        [
            {"lr_text": 0.0},
            {"lr_text": -1e-3},
            {"lr_flow": 0.0},
            {"lr_flow": -3e-3},
        ],
    )
    def test_out_of_range_values_rejected(self, kw):
        with pytest.raises(ConfigError, match=next(iter(kw))):
            TrainConfig(**kw).validate()

    @pytest.mark.parametrize("line", PRETRAIN_LINES + MODEL_SIZE_LINES)
    def test_pretrain_and_model_size_values_rejected(self, line):
        # an empty dataset has nothing to fit
        with pytest.raises(ConfigError, match=line.split()[0]):
            parse_config_text(line)

    @pytest.mark.parametrize("line", RUN_CONTROL_LINES)
    def test_run_control_values_rejected(self, line):
        with pytest.raises(ConfigError, match=line.split()[0]):
            parse_config_text(line)

    @pytest.mark.parametrize("line", ["max_trace_len = 3", "eval_timesteps = 1",
                                      "total_updates = 0", "eval_every = 0",
                                      "checkpoint_every = 0", "ablate_seeds = 1"])
    def test_run_control_bounds_accepted(self, line):
        parse_config_text(line)

    def test_default_window_starts(self):
        assert TrainConfig().window_starts == [0, 1, 2, 3]

    def test_window_size_zero_allows_zero_sigma(self):
        cfg = TrainConfig(sde_window_size=0, sigma_level=0.0, train_flow=False)
        cfg.validate()

    @pytest.mark.parametrize("sigma_level", [-0.5, -1e-300])
    def test_negative_sigma_rejected_without_a_window(self, sigma_level):
        # no window reads the noise level, but a run record must not carry
        # one no run could train with
        cfg = TrainConfig(sde_window_size=0, sigma_level=sigma_level, train_flow=False)
        with pytest.raises(ConfigError, match="sigma_level must be >= 0"):
            cfg.validate()

    # the last three windows have their smallest std at their last step, not
    # at their first
    @pytest.mark.parametrize("n, lo, hi", [(1, 0, 0), (10, 0, 5), (6, 2, 5), (10, 6, 9),
                                           (10, 7, 9), (10, 9, 9)])
    def test_sigma_level_floor(self, n, lo, hi):
        # the floor is on the smallest transition std over the window's steps
        # lo..hi: just below it, and far below (at sigma_level 8.4e-78 every
        # recovered eps read 0), validate refuses sigma_level; at it, the eps
        # prepare_batch recovers from a rollout's states is the drawn eps to
        # 1e-8 of the draws' RMS, for states up to about 10 in size
        unit = step_table(timestep_schedule(n, TIMESTEP_SHIFT), 1.0).std[lo:hi + 1].min()
        window = dict(train_timesteps=n, sde_window_lo=lo, sde_window_hi=hi,
                      sde_window_size=hi - lo + 1, train_text=False)
        for sigma_level in (MIN_WINDOW_STD / unit * (1 - 1e-9), 8.4e-78):
            with pytest.raises(ConfigError, match=f"sigma_level = {sigma_level}"):
                TrainConfig(**window, sigma_level=sigma_level).validate()
        rt = make_runtime(TrainConfig(**window, sigma_level=MIN_WINDOW_STD / unit * (1 + 1e-12)))
        flow, rng = rt.flow_policy, stream(0, "floor")
        params = flow.init_params(rng)
        params = with_blocks(params, {"W2": rng.normal(0.0, 0.2, size=params["W2"].shape)})
        B, W = 1000, hi - lo + 1
        eps = rng.standard_normal((B, W, 2))
        batch = flow.hybrid_rollout(params, CANONICAL_TRACES[rng.integers(0, 432, B)],
                                    rt.steps_train, 3.0 * rng.standard_normal((B, 2)), [lo] * B,
                                    W, eps)
        assert rt.steps_train.std[lo:hi + 1].min() >= MIN_WINDOW_STD
        recovered = flow.prepare_batch(batch, np.arange(B), np.ones(B), "none", 0.0, params).eps
        assert np.abs(batch.states).max() > 8.0
        err = np.abs(recovered.reshape(B, W, 2) - eps).max()
        assert err <= 1e-8 * np.sqrt(np.mean(eps**2)), err

    @pytest.mark.parametrize("sigma_level", [0.0, 0.8])
    def test_window_size_zero_rejected_when_flow_trains(self, sigma_level):
        # with no window the flow surrogate has no stochastic step to score
        cfg = TrainConfig(sde_window_size=0, sigma_level=sigma_level)
        with pytest.raises(ConfigError, match="sde_window_size"):
            cfg.validate()


TINY_CONFIG = """
seed = 0
total_updates = 4
eval_every = 2
checkpoint_every = 2
group_size = 4
prompts_per_batch = 2
train_timesteps = 8
eval_timesteps = 10
sde_window_hi = 4
text_hidden = 24
flow_hidden = 32
eval_samples = 4
pretrain_text_n = 256
pretrain_text_epochs = 3
pretrain_flow_n = 512
pretrain_flow_epochs = 6
"""


def _without(text: str, key: str) -> str:
    """Config text with any line setting `key` removed."""
    return "".join(row + "\n" for row in text.splitlines() if row.split(" = ")[0] != key)


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("cli")
    cfg_path = ws / "tiny.cfg"
    cfg_path.write_text(TINY_CONFIG + f"pretrain_dir = {ws / 'pre'}\n")
    rc = main(["pretrain", "--config", str(cfg_path), "--out", str(ws / "pre")])
    assert rc == 0
    return ws, cfg_path


EVAL_COLUMNS = ("eval_reward", "text_accuracy", "velocity_drift")
RUN_FILES = {"run_manifest.json", "metrics.csv", "timings.csv", "groups.jsonl", "state.ckpt",
             "ref_flow.ckpt"}
# the summary `train` printed for each finished seeded run, by run directory
_SEEDED_SUMMARIES: dict[Path, dict] = {}


def _printed_summary(capsys) -> dict:
    out = capsys.readouterr().out
    return json.loads(out[out.index("{"):])


def _seeded_args(ws, cfg_path, train_text: str = "true") -> list[str]:
    """`train` options of a run at a seed and an eval_samples other than the
    workspace config's and the defaults', without its --out."""
    cfg = ws / f"seeded_text_{train_text}.cfg"
    text = _without(_without(cfg_path.read_text(), "eval_samples"), "train_text")
    cfg.write_text(text + f"eval_samples = 6\ntrain_text = {train_text}\n")
    return ["train", "--config", str(cfg), "--seed", "5"]


def _seeded_run(ws, cfg_path, capsys, train_text: str = "true") -> Path:
    """A finished run of `_seeded_args`."""
    run = ws / f"seeded_run_text_{train_text}"
    if run not in _SEEDED_SUMMARIES:
        assert main([*_seeded_args(ws, cfg_path, train_text), "--out", str(run)]) == 0
        _SEEDED_SUMMARIES[run] = _printed_summary(capsys)
    return run


def _seeded_run_copy(cli_workspace, tmp_path, capsys) -> Path:
    """A copy of the workspace's seeded run, for a test to damage."""
    ws, cfg_path = cli_workspace
    run = tmp_path / "run"
    shutil.copytree(_seeded_run(ws, cfg_path, capsys), run)
    return run


class TestCli:
    def test_pretrain_then_train(self, cli_workspace, capsys):
        ws, cfg_path = cli_workspace
        rc = main(["train", "--config", str(cfg_path), "--out", str(ws / "run")])
        assert rc == 0
        summary = _printed_summary(capsys)
        assert "final_eval" in summary
        assert {p.name for p in (ws / "run").iterdir()} == RUN_FILES

    @pytest.mark.parametrize("train_text", ["true", "false"])
    def test_eval_prints_the_runs_own_final_row(self, cli_workspace, capsys, train_text):
        # eval takes its config from the run's manifest, so a run trained at
        # another seed and eval_samples prints the row it logged, bit for bit
        ws, cfg_path = cli_workspace
        run = _seeded_run(ws, cfg_path, capsys, train_text)
        assert main(["eval", "--run", str(run)]) == 0
        printed = json.loads(capsys.readouterr().out)
        last = read_metrics(run / "metrics.csv")[-1]
        assert printed == {key: last[key] for key in EVAL_COLUMNS}
        assert printed["eval_reward"] == _SEEDED_SUMMARIES[run]["final_eval"]

    def test_eval_without_its_reference_exits_3(self, cli_workspace, tmp_path, capsys):
        # no fallback to the evaluated flow, which would read drift 0.0
        run = _seeded_run_copy(cli_workspace, tmp_path, capsys)
        (run / "ref_flow.ckpt").unlink()
        assert main(["eval", "--run", str(run)]) == 3
        assert "ref_flow.ckpt" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["missing", "garbled", "no config", "config a list",
                                        "key missing", "refused value", "wrong type"])
    def test_eval_without_a_usable_manifest_exits_3(self, cli_workspace, tmp_path, capsys,
                                                    damage):
        run = _seeded_run_copy(cli_workspace, tmp_path, capsys)
        manifest = run / "run_manifest.json"
        data = json.loads(manifest.read_text())
        config = data["config_resolved"]
        if damage == "missing":
            manifest.unlink()
        elif damage == "garbled":
            manifest.write_text(manifest.read_text()[:40])
        else:
            if damage == "no config":
                del data["config_resolved"]
            elif damage == "config a list":
                data["config_resolved"] = list(config.values())
            elif damage == "key missing":
                del config["flow_hidden"]
            elif damage == "refused value":
                config["group_size"] = 1
            else:
                config["seed"] = "5"
            manifest.write_text(json.dumps(data))
        assert main(["eval", "--run", str(run)]) == 3
        assert "run_manifest.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [(key, value) for key, value, _ in REMOVED_KEYS]
        + [(key, value * 2 + 1) for key, value, _ in REMOVED_KEYS if key in PRETRAIN_ONLY_KEYS],
        ids=[key for key, _, _ in REMOVED_KEYS]
        + [f"{key}-other" for key, _, _ in REMOVED_KEYS if key in PRETRAIN_ONLY_KEYS])
    def test_eval_ignores_keys_the_config_no_longer_has(self, cli_workspace, tmp_path, capsys,
                                                        key, value):
        # a run from before a key was deleted still evaluates and resumes
        # when the key held the value now fixed, and at any value when only
        # pretraining read it
        ws, cfg_path = cli_workspace
        run = _seeded_run_copy(cli_workspace, tmp_path, capsys)
        manifest = run / "run_manifest.json"
        data = json.loads(manifest.read_text())
        data["config_resolved"][key] = value
        manifest.write_text(json.dumps(data))
        assert main(["eval", "--run", str(run)]) == 0
        last = read_metrics(run / "metrics.csv")[-1]
        assert json.loads(capsys.readouterr().out) == {key: last[key] for key in EVAL_COLUMNS}
        assert main([*_seeded_args(ws, cfg_path), "--out", str(run), "--resume"]) == 0
        assert _printed_summary(capsys) == {**_SEEDED_SUMMARIES[ws / "seeded_run_text_true"],
                                            "out_dir": str(run)}

    @pytest.mark.parametrize("key", RETIRED_KEYS)
    def test_a_retired_key_at_another_value_is_refused(self, cli_workspace, tmp_path, capsys,
                                                       key):
        # a run trained under another schedule, reward or objective than the
        # one now fixed: eval would score it under the fixed one, and a resume
        # would continue it under another objective than it started with
        ws, cfg_path = cli_workspace
        run = _seeded_run_copy(cli_workspace, tmp_path, capsys)
        manifest = run / "run_manifest.json"
        data = json.loads(manifest.read_text())
        value = RETIRED_KEYS[key] + 0.5
        data["config_resolved"][key] = value
        manifest.write_text(json.dumps(data))
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        assert main(["eval", "--run", str(run)]) == 3
        assert f"checkpoint error: {manifest}: {key} = {value!r}" in capsys.readouterr().err
        assert main([*_seeded_args(ws, cfg_path), "--out", str(run), "--resume"]) == 2
        assert f"config error: {key} = {value!r}" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    @pytest.mark.parametrize("option", [["--config", "tiny.cfg"], ["--seed", "5"],
                                        ["--out", "run"]], ids=["config", "seed", "out"])
    def test_eval_takes_no_config_seed_or_out(self, capsys, option):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--run", "run", *option])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize("name, params", [
        ("text", make_runtime(TrainConfig(text_hidden=40)).text_policy.init_params(
            np.random.default_rng(0))),
        ("flow", make_runtime(TrainConfig(flow_hidden=16)).flow_policy.init_params(
            np.random.default_rng(0))),
        ("ref_flow", make_runtime(TrainConfig(flow_hidden=16)).flow_policy.init_params(
            np.random.default_rng(0))),
    ], ids=["text", "flow", "ref_flow"])
    def test_eval_of_another_architecture_exits_3(self, cli_workspace, tmp_path, capsys,
                                                  name, params):
        # a checkpoint whose sizes differ from the run's config is a bad
        # checkpoint, not a numpy error or an evaluation of the wrong net:
        # the policies are state.ckpt's blocks, the reference its own file
        run = _seeded_run_copy(cli_workspace, tmp_path, capsys)
        if name == "ref_flow":
            save_params(run / f"{name}.ckpt", params)
        else:
            blocks = load_blocks(run / "state.ckpt")
            blocks.update({f"{name}.{k}": v for k, v in params.items()})
            save_blocks(run / "state.ckpt", blocks)
        assert main(["eval", "--run", str(run)]) == 3
        err = capsys.readouterr().err
        if name == "ref_flow":
            assert f"{name} checkpoint does not match" in err
        else:
            assert "state.ckpt: shape mismatch for block" in err and f"'{name}." in err

    @pytest.mark.parametrize("damage", ["missing flow.W0", "misshapen text.b1", "truncated",
                                        "unread block"])
    @pytest.mark.parametrize("command", ["eval", "resume"])
    def test_damaged_state_exits_3(self, cli_workspace, tmp_path, capsys, damage, command):
        # eval --run and --resume read the policies through one loader over
        # state.ckpt: a damaged block, or one the loader would not read, is a
        # checkpoint error naming the file, and a refused resume leaves the
        # run directory as it was
        ws, cfg_path = cli_workspace
        run = _seeded_run_copy(cli_workspace, tmp_path, capsys)
        path = run / "state.ckpt"
        blocks = load_blocks(path)
        if damage == "missing flow.W0":
            del blocks["flow.W0"]
            save_blocks(path, blocks)
        elif damage == "misshapen text.b1":
            blocks["text.b1"] = blocks["text.b1"][:-1]
            save_blocks(path, blocks)
        elif damage == "truncated":
            path.write_bytes(path.read_bytes()[:-100])
        else:  # a block named '': empty name, 0-d, payload 0.0
            path.write_bytes(path.read_bytes() + bytes(16))
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        args = ["eval", "--run", str(run)] if command == "eval" else \
            [*_seeded_args(ws, cfg_path), "--out", str(run), "--resume"]
        assert main(args) == 3
        named = {"missing flow.W0": "missing parameter block 'flow.W0'",
                 "misshapen text.b1": "shape mismatch for block 'text.b1'",
                 "truncated": "truncated or corrupt checkpoint after block 'adam_flow.",
                 "unread block": "unknown parameter block ''"}[damage]
        assert f"checkpoint error: {path}: {named}" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("not_a_key = 1\n")
        rc = main(["train", "--config", str(bad), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert "not_a_key" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, command", REMOVED_KEYS,
                             ids=[key for key, _, _ in REMOVED_KEYS])
    def test_removed_key_exits_2(self, tmp_path, capsys, key, value, command):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CONFIG + f"{key} = {value}\n")
        mode = ["--mode", "reg-sweep"] if command == "ablate" else []
        rc = main([command, "--config", str(bad), *mode, "--out", str(tmp_path / "r")])
        assert rc == 2
        assert f"unknown config key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("key", ["p_noise", *(key for key, _, _ in WARM_START_KEYS),
                                     *(key for key, _, _ in FIXED_KEYS)])
    @pytest.mark.parametrize("command", ["pretrain", "train", "ablate"])
    def test_every_config_command_refuses_a_removed_key(self, tmp_path, capsys, command, key):
        # p_noise, the learning rates, p_uncond and pretrain_batch were read by
        # pretraining alone, timestep_shift by every sampler, beta_txt and
        # train_cfg_scale by training: each command refuses each of them
        value = next(value for name, value, _ in REMOVED_KEYS if name == key)
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CONFIG + f"{key} = {value}\n")
        mode = ["--mode", "reg-sweep"] if command == "ablate" else []
        rc = main([command, "--config", str(bad), *mode, "--out", str(tmp_path / "r")])
        assert rc == 2
        assert f"unknown config key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    # the third and fourth put the window's transition std below
    # config.MIN_WINDOW_STD; the second has no window, so only the sign rule
    # refuses it
    @pytest.mark.parametrize("line", ["lr_flow = nan",
                                      "sigma_level = -0.5\nsde_window_size = 0\ntrain_flow = false",
                                      "sigma_level = 8.4e-78", "sigma_level = 9.9e-7"]
                             + PRETRAIN_LINES + MODEL_SIZE_LINES)
    def test_out_of_range_value_exits_2(self, tmp_path, capsys, line):
        # the key's own TINY_CONFIG line goes, so no duplicate-key error stands in
        bad = tmp_path / "bad.cfg"
        bad.write_text(_without(TINY_CONFIG, line.split()[0]) + line + "\n")
        rc = main(["train", "--config", str(bad), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert line.split()[0] in capsys.readouterr().err

    @pytest.mark.parametrize("line", RUN_CONTROL_LINES)
    def test_run_control_value_exits_2(self, tmp_path, capsys, line):
        key = line.split()[0]
        bad = tmp_path / "bad.cfg"
        bad.write_text(_without(TINY_CONFIG, key) + line + "\n")
        rc = main(["train", "--config", str(bad), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert f"config error: {key}" in capsys.readouterr().err

    def test_config_that_trains_no_policy_exits_2(self, tmp_path, capsys):
        # such a run would sample, score and evaluate every update and never
        # take a step
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CONFIG + "train_text = false\ntrain_flow = false\n")
        rc = main(["train", "--config", str(bad), "--out", str(tmp_path / "r")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error: train_text and train_flow are both false" in err
        assert not (tmp_path / "r").exists()

    def test_negative_seed_in_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(_without(TINY_CONFIG, "seed") + "seed = -3\n")
        rc = main(["train", "--config", str(bad), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert "config error: seed must be >= 0" in capsys.readouterr().err

    def test_negative_seed_option_exits_2(self, tmp_path, capsys):
        # the --seed override is checked like a config value, before numpy
        # sees it
        rc = main(["pretrain", "--seed", "-1", "--out", str(tmp_path / "pre")])
        assert rc == 2
        assert "config error: seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "pre").exists()

    def test_shortest_trace_context_runs(self, tmp_path, capsys):
        # max_trace_len = 3 holds a canonical trace's context: pretraining and
        # an update run end to end
        cfg = tmp_path / "c.cfg"
        cfg.write_text(TINY_CONFIG.replace("total_updates = 4", "total_updates = 1")
                       + f"max_trace_len = 3\npretrain_dir = {tmp_path / 'pre'}\n")
        assert main(["pretrain", "--config", str(cfg), "--out", str(tmp_path / "pre")]) == 0
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        capsys.readouterr()

    def test_missing_pretrain_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(TINY_CONFIG + f"pretrain_dir = {tmp_path / 'absent'}\n")
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")])
        assert rc == 3

    def test_resume_flag(self, cli_workspace, capsys):
        ws, cfg_path = cli_workspace
        rc = main(["train", "--config", str(cfg_path), "--out", str(ws / "resumable")])
        assert rc == 0
        rc = main(["train", "--config", str(cfg_path), "--out", str(ws / "resumable"), "--resume"])
        assert rc == 0

    def test_resume_keeps_the_runs_references(self, tmp_path, capsys):
        # the pretraining directory is replaced while a run is stopped: the
        # resume continues from the run's state against the flow reference
        # the run started from, as the uninterrupted run does
        pre, cfg, short = tmp_path / "pre", tmp_path / "c.cfg", tmp_path / "short.cfg"
        cfg.write_text(TINY_CONFIG + f"pretrain_dir = {pre}\n")
        short.write_text(cfg.read_text().replace("total_updates = 4", "total_updates = 2"))
        assert main(["pretrain", "--config", str(cfg), "--out", str(pre)]) == 0
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "full")]) == 0
        assert main(["train", "--config", str(short), "--out", str(tmp_path / "cut")]) == 0
        assert main(["pretrain", "--config", str(cfg), "--seed", "1", "--out", str(pre)]) == 0
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "cut"),
                     "--resume"]) == 0
        capsys.readouterr()
        for name in ("metrics.csv", "state.ckpt", "ref_flow.ckpt"):
            assert (tmp_path / "full" / name).read_bytes() == \
                (tmp_path / "cut" / name).read_bytes(), name

    def test_resume_without_its_reference_copy_exits_3(self, cli_workspace, capsys):
        ws, cfg_path = cli_workspace
        short = ws / "two_updates.cfg"
        short.write_text(cfg_path.read_text().replace("total_updates = 4", "total_updates = 2"))
        out = ws / "without_ref_flow.ckpt"
        assert main(["train", "--config", str(short), "--out", str(out)]) == 0
        (out / "ref_flow.ckpt").unlink()
        capsys.readouterr()
        rc = main(["train", "--config", str(cfg_path), "--out", str(out), "--resume"])
        assert rc == 3
        assert str(out / "ref_flow.ckpt") in capsys.readouterr().err
        assert not (out / "ref_flow.ckpt").exists()

    def test_resume_without_a_text_reference_equals_uninterrupted(self, cli_workspace, capsys):
        # the text update has no KL term, so a run keeps no text reference: a
        # run directory without ref_text.ckpt resumes byte-identically
        ws, cfg_path = cli_workspace
        short = ws / "two_updates.cfg"
        short.write_text(cfg_path.read_text().replace("total_updates = 4", "total_updates = 2"))
        full, cut = ws / "no_ref_text_full", ws / "no_ref_text_cut"
        assert main(["train", "--config", str(cfg_path), "--out", str(full)]) == 0
        assert main(["train", "--config", str(short), "--out", str(cut)]) == 0
        (cut / "ref_text.ckpt").unlink(missing_ok=True)
        assert main(["train", "--config", str(cfg_path), "--out", str(cut), "--resume"]) == 0
        capsys.readouterr()
        for name in ("metrics.csv", "groups.jsonl", "state.ckpt"):
            assert (full / name).read_bytes() == (cut / name).read_bytes(), name
        assert not (cut / "ref_text.ckpt").exists()

    def test_resume_from_nonfinite_optimizer_state_exits_3(self, cli_workspace, capsys):
        # a NaN Adam moment in state.ckpt must not resume into silently skipped updates
        ws, cfg_path = cli_workspace
        short = ws / "two_updates.cfg"
        short.write_text(cfg_path.read_text().replace("total_updates = 4", "total_updates = 2"))
        out = ws / "nan_moment"
        assert main(["train", "--config", str(short), "--out", str(out)]) == 0
        blocks = load_blocks(out / "state.ckpt")
        blocks["adam_flow.m.W1"][0, 0] = np.nan
        save_blocks(out / "state.ckpt", blocks)
        capsys.readouterr()
        rc = main(["train", "--config", str(cfg_path), "--out", str(out), "--resume"])
        assert rc == 3
        assert "adam_flow.m.W1" in capsys.readouterr().err

    @pytest.mark.parametrize("block, damage", [
        ("meta.update", "drop"), ("adam_flow.m.b0", "shorten"), ("adam_text.step", "widen"),
        *[(block, value) for block in ("meta.update", "adam_text.step")
          for value in ("-1", "2.5", "nan")],
    ])
    def test_resume_from_incomplete_state_exits_3(self, cli_workspace, capsys, block, damage):
        # a state.ckpt that lacks a block, holds one in the wrong shape, or
        # holds a counter that is not a non-negative integer is a bad
        # checkpoint, not a crash, a config error or a rewind to another update
        ws, cfg_path = cli_workspace
        short = ws / "two_updates.cfg"
        short.write_text(cfg_path.read_text().replace("total_updates = 4", "total_updates = 2"))
        out = ws / f"state_{block}_{damage}"
        assert main(["train", "--config", str(short), "--out", str(out)]) == 0
        blocks = load_blocks(out / "state.ckpt")
        if damage == "drop":
            del blocks[block]
        elif damage == "widen":
            blocks[block] = np.stack([blocks[block]] * 2)
        elif damage == "shorten":
            blocks[block] = blocks[block][:-1]
        else:
            blocks[block] = np.float64(damage)
        save_blocks(out / "state.ckpt", blocks)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        rc = main(["train", "--config", str(cfg_path), "--out", str(out), "--resume"])
        assert rc == 3
        err = capsys.readouterr().err
        assert block in err and "state.ckpt" in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("updates", [2, 4])
    @pytest.mark.parametrize("damage", ["missing", "header", "row dropped", "row garbled",
                                        "groups.jsonl row garbled", "timings.csv row garbled"])
    def test_resume_with_damaged_metrics_exits_3(self, cli_workspace, capsys, damage, updates):
        # a run file the resumed run cannot continue makes a bad run
        # directory, refused before any file of it is touched, whether the
        # resume has updates left to run or not
        ws, cfg_path = cli_workspace
        short = ws / "two_updates.cfg"
        short.write_text(cfg_path.read_text().replace("total_updates = 4", "total_updates = 2"))
        more = ws / f"{updates}_updates.cfg"
        more.write_text(cfg_path.read_text().replace("total_updates = 4",
                                                     f"total_updates = {updates}"))
        out = ws / f"metrics_{damage.replace(' ', '_')}_{updates}"
        assert main(["train", "--config", str(short), "--out", str(out)]) == 0
        name = {"groups.jsonl row garbled": "groups.jsonl",
                "timings.csv row garbled": "timings.csv"}.get(damage, "metrics.csv")
        damaged = out / name
        lines = damaged.read_text().splitlines(keepends=True)
        if damage == "missing":
            damaged.unlink()
        elif damage == "header":
            damaged.write_text("".join(["update,eval\n"] + lines[1:]))
        elif damage == "row dropped":
            damaged.write_text("".join(lines[:2] + lines[3:]))
        else:
            damaged.write_text("".join(lines[:2] + ["x" + lines[2]] + lines[3:]))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        rc = main(["train", "--config", str(more), "--out", str(out), "--resume"])
        assert rc == 3
        assert name in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_resume_below_the_saved_update_exits_2(self, cli_workspace, capsys):
        # fewer total updates than the run has done would train nothing and
        # misreport the run: refused before any file is written, while a
        # resume at or past the saved update runs
        ws, cfg_path = cli_workspace
        out = ws / "resume_below"
        configs = {}
        for updates in (1, 2):
            configs[updates] = ws / f"resume_below_{updates}.cfg"
            configs[updates].write_text(cfg_path.read_text().replace(
                "total_updates = 4", f"total_updates = {updates}"))
        assert main(["train", "--config", str(configs[2]), "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        rc = main(["train", "--config", str(configs[1]), "--out", str(out), "--resume"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "total_updates = 1" in err and "update 2" in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        for cfg in (configs[2], cfg_path):
            capsys.readouterr()
            assert main(["train", "--config", str(cfg), "--out", str(out), "--resume"]) == 0
        assert _printed_summary(capsys)["updates"] == 4

    @pytest.mark.parametrize("changes, key, values", [
        ({"group_size": "8", "total_updates": "4", "--seed": "5"}, "seed", ("5", "0")),
        ({"group_size": "8"}, "group_size", ("8", "4")),
        ({"reward_mode": "binary"}, "reward_mode", ("binary", "smooth")),
        ({"pretrain_dir": "pre_copy"}, "pretrain_dir", ("pre_copy", "pre")),
    ], ids=["seed-group-updates", "group_size", "reward_mode", "pretrain_dir"])
    def test_resume_with_another_config_exits_2(self, cli_workspace, capsys, changes, key,
                                                values):
        # a resume continues the run it finds: a config that would train
        # another trajectory is refused, naming the first key that differs,
        # before any file of the run is written
        ws, cfg_path = cli_workspace
        if not (ws / "pre_copy").exists():
            shutil.copytree(ws / "pre", ws / "pre_copy")
        short = ws / "two_updates.cfg"
        short.write_text(cfg_path.read_text().replace("total_updates = 4", "total_updates = 2"))
        out = ws / f"other_config_{key}"
        assert main(["train", "--config", str(short), "--out", str(out)]) == 0
        text = short.read_text()
        for name, value in changes.items():
            if not name.startswith("--"):
                value = str(ws / value) if name == "pretrain_dir" else value
                text = _without(text, name) + f"{name} = {value}\n"
        other = ws / f"other_{key}.cfg"
        other.write_text(text)
        seed = ["--seed", changes["--seed"]] if "--seed" in changes else []
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        rc = main(["train", "--config", str(other), "--out", str(out), "--resume", *seed])
        assert rc == 2
        err = capsys.readouterr().err
        new, old = (str(ws / v) if key == "pretrain_dir" else v for v in values)
        assert f"config error: {key} = {new} differs from the run's {key} = {old}" in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_resume_may_change_what_is_logged_and_saved(self, cli_workspace, capsys):
        ws, cfg_path = cli_workspace
        short = ws / "two_updates.cfg"
        short.write_text(cfg_path.read_text().replace("total_updates = 4", "total_updates = 2"))
        out = ws / "free_keys"
        assert main(["train", "--config", str(short), "--out", str(out)]) == 0
        text = cfg_path.read_text()
        for name, value in (("eval_every", "1"), ("checkpoint_every", "3"),
                            ("ablate_seeds", "2")):
            text = _without(text, name) + f"{name} = {value}\n"
        free = ws / "free_keys.cfg"
        free.write_text(text)
        capsys.readouterr()
        assert main(["train", "--config", str(free), "--out", str(out), "--resume"]) == 0
        assert _printed_summary(capsys)["updates"] == 4

    @pytest.mark.parametrize("damage", ["missing", "garbled", "no config"])
    def test_resume_without_a_readable_manifest_exits_3(self, cli_workspace, capsys, damage):
        ws, cfg_path = cli_workspace
        short = ws / "two_updates.cfg"
        short.write_text(cfg_path.read_text().replace("total_updates = 4", "total_updates = 2"))
        out = ws / f"manifest_{damage.replace(' ', '_')}"
        assert main(["train", "--config", str(short), "--out", str(out)]) == 0
        manifest = out / "run_manifest.json"
        if damage == "missing":
            manifest.unlink()
        elif damage == "garbled":
            manifest.write_text(manifest.read_text()[:40])
        else:
            manifest.write_text(json.dumps({"seed": 0}))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        rc = main(["train", "--config", str(cfg_path), "--out", str(out), "--resume"])
        assert rc == 3
        assert "run_manifest.json" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_cli_pins_unset_blas_threads_to_one(self, cli_workspace):
        ws, cfg_path = cli_workspace
        env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
        env["MKL_NUM_THREADS"] = "3"
        env["PYTHONPATH"] = str(Path(unigrpo.__file__).resolve().parents[1])
        out = ws / "threads"
        subprocess.run(
            [sys.executable, "-m", "unigrpo.cli", "train", "--config", str(cfg_path),
             "--out", str(out)], env=env, check=True, capture_output=True, timeout=300,
        )
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["thread_env"] == {
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "3",
        }

    def test_verify_negative_control_exits_4(self, capsys, monkeypatch):
        # a text surrogate whose W0 gradient is off by 0.3 fails its own oracle
        # and no other
        honest = TextPolicy.surrogate_loss

        def skewed(self, params, batch, clip_eps):
            j, grads, stats = honest(self, params, batch, clip_eps)
            lo, hi, _ = params.layout.spans["W0"]
            grads[lo:hi] += 0.3
            return j, grads, stats

        monkeypatch.setattr(TextPolicy, "surrogate_loss", skewed)
        rc = main(["verify"])
        assert rc == 4
        failed = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("FAIL")]
        assert len(failed) == 1, failed
        assert failed[0].startswith("FAIL grad/text-surrogate:") and failed[0].endswith(" W0")

    def test_ablate_unknown_mode_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--mode", "bogus", "--out", "/tmp/x"])
        assert exc.value.code == 2
        assert "component-sweep" in capsys.readouterr().err

    def test_seed_override(self, cli_workspace, capsys):
        ws, cfg_path = cli_workspace
        pre2 = ws / "pre-seed5"
        rc = main(["pretrain", "--config", str(cfg_path), "--seed", "5", "--out", str(pre2)])
        assert rc == 0
        assert (pre2 / "text.ckpt").read_bytes() != (ws / "pre" / "text.ckpt").read_bytes()
