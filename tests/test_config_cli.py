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
from unigrpo.config import TrainConfig, dump_config, load_config, parse_config_text
from unigrpo.errors import ConfigError
from unigrpo.flow_policy import FlowPolicy

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
FLOAT_KEYS = [f.name for f in fields(TrainConfig)
              if isinstance(getattr(TrainConfig(), f.name), float)]
GEOMETRY_AND_PRETRAIN_LINES = [
    "pretrain_text_lr = 0", "pretrain_text_lr = -3e-3", "pretrain_flow_lr = 0",
    "pretrain_flow_lr = -3e-3", "pretrain_text_n = 0", "pretrain_flow_n = 0",
    "pretrain_flow_n = -5", "tau_tight = -0.1", "tau_wide = -1e-9", "radius_near = 0",
    "radius_near = -0.5", "radius_near = 1.5", "radius_near = 2.0", "radius_far = 0.5",
    "radius_far = 0.1",
]
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
    "total_updates = -2", "eval_every = -1", "checkpoint_every = -5", "ablate_updates = -1",
    "ablate_seeds = 0", "adv_eps = -1e-8", "adv_eps = 0",
]


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


class TestValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"group_size": 1},
            {"ppo_epochs": 0},
            {"beta_img": -1.0},
            {"temperature": 0.0},
            {"timestep_shift": 0.5},
            {"reg_mode": "bogus"},
            {"reward_mode": "bogus"},
            {"sde_window_hi": 99},
            {"sde_window_size": 99},
            {"sigma_level": 0.0},
            {"max_trace_len": 0},
            {"prompts_per_batch": 0},
            {"eval_samples": 0},
            {"pretrain_batch": 0},
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
            {"tau_r": 0.0},
            {"tau_r": -0.5},
            {"lr_text": 0.0},
            {"lr_text": -1e-3},
            {"lr_flow": 0.0},
            {"lr_flow": -3e-3},
            {"p_uncond": -0.1},
            {"p_uncond": 2.0},
            {"p_noise": -0.1},
            {"p_noise": 1.5},
        ],
    )
    def test_out_of_range_values_rejected(self, kw):
        with pytest.raises(ConfigError, match=next(iter(kw))):
            TrainConfig(**kw).validate()

    @pytest.mark.parametrize("kw", [{"p_uncond": 0.0}, {"p_uncond": 1.0}, {"p_noise": 0.0},
                                    {"p_noise": 1.0}])
    def test_probability_bounds_accepted(self, kw):
        TrainConfig(**kw).validate()

    @pytest.mark.parametrize("line", GEOMETRY_AND_PRETRAIN_LINES + MODEL_SIZE_LINES)
    def test_geometry_and_pretrain_values_rejected(self, line):
        # a negative learning rate would ascend the pretraining losses, an
        # empty dataset has nothing to fit, and a non-positive or inverted
        # radius pair would mirror or swap the targets
        with pytest.raises(ConfigError, match=line.split()[0]):
            parse_config_text(line)

    @pytest.mark.parametrize("line", ["tau_tight = 0", "tau_wide = 0", "radius_near = 1e-9",
                                      "radius_near = 1.4999", "radius_far = 0.5001"])
    def test_geometry_bounds_accepted(self, line):
        parse_config_text(line)

    @pytest.mark.parametrize("line", RUN_CONTROL_LINES)
    def test_run_control_values_rejected(self, line):
        with pytest.raises(ConfigError, match=line.split()[0]):
            parse_config_text(line)

    @pytest.mark.parametrize("line", ["max_trace_len = 3", "eval_timesteps = 1",
                                      "total_updates = 0", "eval_every = 0",
                                      "checkpoint_every = 0", "ablate_updates = 0",
                                      "ablate_seeds = 1", "adv_eps = 1e-300"])
    def test_run_control_bounds_accepted(self, line):
        parse_config_text(line)

    def test_default_window_starts(self):
        assert TrainConfig().window_starts == [0, 1, 2, 3]

    def test_window_size_zero_allows_zero_sigma(self):
        cfg = TrainConfig(sde_window_size=0, sigma_level=0.0, train_flow=False)
        cfg.validate()

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


def _trained_run(ws, cfg_path, capsys) -> None:
    """Train the workspace's run directory once, for the commands that read it."""
    if not (ws / "run/text.ckpt").exists():
        assert main(["train", "--config", str(cfg_path), "--out", str(ws / "run")]) == 0
        capsys.readouterr()


class TestCli:
    def test_pretrain_then_train(self, cli_workspace, capsys):
        ws, cfg_path = cli_workspace
        rc = main(["train", "--config", str(cfg_path), "--out", str(ws / "run")])
        assert rc == 0
        out = capsys.readouterr().out
        summary = json.loads(out[out.index("{"):])
        assert "final_eval" in summary
        assert (ws / "run/metrics.csv").exists()
        assert (ws / "run/run_manifest.json").exists()

    def test_eval_command(self, cli_workspace, capsys):
        ws, cfg_path = cli_workspace
        _trained_run(ws, cfg_path, capsys)
        rc = main(["eval", "--config", str(cfg_path), "--run", str(ws / "run")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "eval_reward" in out

    @pytest.mark.parametrize("line, which", [("max_trace_len = 5", "text"),
                                             ("text_hidden = 40", "text"),
                                             ("flow_hidden = 16", "flow")])
    def test_eval_of_another_architecture_exits_3(self, cli_workspace, tmp_path, capsys,
                                                  line, which):
        # a config whose sizes differ from the run's checkpoints is a bad
        # checkpoint, not a numpy error or an evaluation of the wrong net
        ws, cfg_path = cli_workspace
        _trained_run(ws, cfg_path, capsys)
        other = tmp_path / "other.cfg"
        other.write_text(_without(cfg_path.read_text(), line.split()[0]) + line + "\n")
        rc = main(["eval", "--config", str(other), "--run", str(ws / "run")])
        assert rc == 3
        assert f"{which} checkpoint does not match" in capsys.readouterr().err

    def test_eval_of_another_reference_architecture_exits_3(self, cli_workspace, tmp_path,
                                                            capsys):
        ws, cfg_path = cli_workspace
        _trained_run(ws, cfg_path, capsys)
        run = tmp_path / "run"
        shutil.copytree(ws / "run", run)
        save_params(run / "ref_flow.ckpt",
                    FlowPolicy(hidden=16).init_params(np.random.default_rng(0)))
        rc = main(["eval", "--config", str(cfg_path), "--run", str(run)])
        assert rc == 3
        assert "ref_flow checkpoint does not match" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("not_a_key = 1\n")
        rc = main(["train", "--config", str(bad), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert "not_a_key" in capsys.readouterr().err

    def test_removed_lambda_flow_key_exits_2(self, tmp_path, capsys):
        # the flow loss weight is gone: with a separate Adam state per policy
        # it only rescaled Adam's epsilon, and 0 is train_flow = false
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CONFIG + "lambda_flow = 1.0\n")
        rc = main(["train", "--config", str(bad), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert "unknown config key 'lambda_flow'" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["tau_r = 0", "lr_flow = nan", "p_uncond = 2"]
                             + GEOMETRY_AND_PRETRAIN_LINES + MODEL_SIZE_LINES)
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
        # resume continues against the references the run started from, as
        # the uninterrupted run does
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
        for name in ("metrics.csv", "state.ckpt", "text.ckpt", "flow.ckpt", "ref_text.ckpt",
                     "ref_flow.ckpt"):
            assert (tmp_path / "full" / name).read_bytes() == \
                (tmp_path / "cut" / name).read_bytes(), name

    @pytest.mark.parametrize("name", ["ref_text.ckpt", "ref_flow.ckpt"])
    def test_resume_without_its_reference_copy_exits_3(self, cli_workspace, capsys, name):
        ws, cfg_path = cli_workspace
        short = ws / "two_updates.cfg"
        short.write_text(cfg_path.read_text().replace("total_updates = 4", "total_updates = 2"))
        out = ws / f"without_{name}"
        assert main(["train", "--config", str(short), "--out", str(out)]) == 0
        (out / name).unlink()
        capsys.readouterr()
        rc = main(["train", "--config", str(cfg_path), "--out", str(out), "--resume"])
        assert rc == 3
        assert str(out / name) in capsys.readouterr().err
        assert not (out / name).exists()

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
            assert main(["train", "--config", str(cfg), "--out", str(out), "--resume"]) == 0
        assert json.loads((out / "summary.json").read_text())["updates"] == 4

    @pytest.mark.parametrize("changes, key, values", [
        ({"group_size": "8", "total_updates": "4", "--seed": "5"}, "seed", ("5", "0")),
        ({"group_size": "8"}, "group_size", ("8", "4")),
        ({"reward_mode": "binary", "tau_r": "0.25"}, "tau_r", ("0.25", "0.5")),
        ({"pretrain_dir": "pre_copy"}, "pretrain_dir", ("pre_copy", "pre")),
    ], ids=["seed-group-updates", "group_size", "tau_r", "pretrain_dir"])
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
                            ("ablate_seeds", "2"), ("ablate_updates", "7")):
            text = _without(text, name) + f"{name} = {value}\n"
        free = ws / "free_keys.cfg"
        free.write_text(text)
        assert main(["train", "--config", str(free), "--out", str(out), "--resume"]) == 0
        assert json.loads((out / "summary.json").read_text())["updates"] == 4

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

    def test_verify_negative_control_exits_4(self, capsys):
        rc = main(["verify", "--self-test-corrupt"])
        assert rc == 4
        assert "FAIL" in capsys.readouterr().out

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
