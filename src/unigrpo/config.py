"""Run configuration: a flat key = value file with strict key checking."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .flow_policy import TIMESTEP_SHIFT, step_table, timestep_schedule
from .task import TRACE_LEN

# The smallest transition std sigma_level * sqrt(t * dt) a step of a non-empty
# SDE window may have.  A window step stores x' = mu + std * eps, and
# FlowPolicy.prepare_batch recovers eps = (x' - mu) / std, off by up to
# |x'| * 2**-53 / std from the rounding of x': at this floor about 1e-10 * |x'|.
# Far below it the noise is lost in the states: at sigma_level 8.4e-78 every
# recovered eps reads 0, so every flow ratio is exactly 1 and the flow trains
# on no signal.
MIN_WINDOW_STD = 1e-6

# Removed keys that changed what `train` or `eval` computes, each at the value
# now fixed.  A run manifest may hold one only at that value.  Keys read only
# by pretraining are left out: a run reads its pretraining through its
# checkpoints.
RETIRED_KEYS = {"lambda_flow": 1.0, "adv_eps": 1e-8, "tau_r": 0.5, "radius_near": 0.5,
                "radius_far": 1.5, "tau_tight": 0.1, "tau_wide": 0.25, "timestep_shift": 3.0,
                "beta_txt": 0.0, "train_cfg_scale": 2.0}


@dataclass
class TrainConfig:
    # run control
    seed: int = 0
    total_updates: int = 300
    eval_every: int = 20
    checkpoint_every: int = 100
    pretrain_dir: str = "pretrain"

    # group sampling and unified objective
    group_size: int = 8
    prompts_per_batch: int = 4
    clip_eps: float = 1e-4
    ppo_epochs: int = 2
    temperature: float = 1.0
    lr_text: float = 1e-3
    lr_flow: float = 3e-3
    train_text: bool = True
    train_flow: bool = True

    # flow sampling
    train_timesteps: int = 10
    eval_timesteps: int = 20
    sde_window_lo: int = 0
    sde_window_hi: int = 5
    sde_window_size: int = 3
    sigma_level: float = 0.8

    # drift regularization
    reg_mode: str = "velocity-mse"  # none | latent-kl | velocity-mse
    beta_img: float = 0.01
    mse_weight: float = 5e-3

    # guidance
    train_cfg: bool = False
    eval_cfg_scale: float = 1.0

    # reward
    reward_mode: str = "smooth"  # smooth | binary

    # pretraining
    pretrain_text_n: int = 1024
    pretrain_text_epochs: int = 8
    pretrain_flow_n: int = 4096
    pretrain_flow_epochs: int = 40

    # model sizes
    text_embed_dim: int = 12
    text_hidden: int = 48
    flow_cond_dim: int = 8
    flow_hidden: int = 64
    max_trace_len: int = 4

    # evaluation
    eval_samples: int = 8

    # ablation harness
    ablate_seeds: int = 3

    def validate(self) -> "TrainConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.group_size < 2:
            raise ConfigError("group_size must be >= 2")
        for name in ("prompts_per_batch", "eval_samples", "ppo_epochs", "pretrain_text_n",
                     "pretrain_flow_n", "train_timesteps", "eval_timesteps", "ablate_seeds",
                     "text_embed_dim", "text_hidden", "flow_cond_dim", "flow_hidden",
                     "pretrain_text_epochs", "pretrain_flow_epochs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("seed", "total_updates", "eval_every", "checkpoint_every"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        # a canonical trace may be one token longer than the context holds
        if self.max_trace_len < TRACE_LEN - 1:
            raise ConfigError(f"max_trace_len must be >= {TRACE_LEN - 1}: a canonical trace "
                              f"has {TRACE_LEN} tokens")
        for name in ("temperature", "clip_eps", "lr_text", "lr_flow"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.reg_mode not in ("none", "latent-kl", "velocity-mse"):
            raise ConfigError(f"unknown reg_mode '{self.reg_mode}'")
        if self.beta_img < 0 or self.mse_weight < 0:
            raise ConfigError("regularizer weights must be >= 0")
        if self.reward_mode not in ("smooth", "binary"):
            raise ConfigError(f"unknown reward_mode '{self.reward_mode}'")
        if not (0 <= self.sde_window_lo <= self.sde_window_hi < self.train_timesteps):
            raise ConfigError("SDE window must satisfy 0 <= lo <= hi < train_timesteps")
        span = self.sde_window_hi - self.sde_window_lo + 1
        if not (0 <= self.sde_window_size <= span):
            raise ConfigError("sde_window_size must fit inside [sde_window_lo, sde_window_hi]")
        if self.sigma_level < 0:
            raise ConfigError(f"sigma_level must be >= 0, got {self.sigma_level}")
        if self.sde_window_size > 0:
            steps = step_table(timestep_schedule(self.train_timesteps, TIMESTEP_SHIFT),
                               self.sigma_level)
            std = steps.std[self.sde_window_lo:self.sde_window_hi + 1].min()
            if std < MIN_WINDOW_STD:
                raise ConfigError(f"sigma_level = {self.sigma_level} gives a window transition "
                                  f"std of {std:.3g}, below {MIN_WINDOW_STD:g}: the window "
                                  f"noise would be lost in the states")
        if not (self.train_text or self.train_flow):
            raise ConfigError("train_text and train_flow are both false: a run must train "
                              "at least one policy")
        if self.sde_window_size == 0 and self.train_flow:
            raise ConfigError("train_flow needs sde_window_size >= 1: the flow surrogate "
                              "has no stochastic steps without a window")
        return self

    @property
    def window_starts(self) -> list[int]:
        """Admissible SDE window starts: the window must stay inside
        [sde_window_lo, sde_window_hi] (indices, inclusive)."""
        if self.sde_window_size == 0:
            return [self.sde_window_lo]
        last = self.sde_window_hi - self.sde_window_size + 1
        return list(range(self.sde_window_lo, last + 1))


# each key's value type, read off its default
_KEY_TYPES = {f.name: type(f.default) for f in fields(TrainConfig)}
_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _coerce(name: str, raw: str, target_type):
    raw = raw.strip()
    try:
        if target_type is bool:
            return _BOOL[raw.lower()]
        if target_type is int:
            return int(raw)
        if target_type is float:
            return float(raw)
        return raw
    except (KeyError, ValueError):
        raise ConfigError(f"cannot parse value '{raw}' for key '{name}'") from None


def parse_config_text(text: str) -> TrainConfig:
    """Parse `key = value` lines; '#' starts a comment; unknown keys are errors."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got '{line.strip()}'")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _KEY_TYPES:
            raise ConfigError(f"unknown config key '{key}' (line {lineno})")
        if key in values:
            raise ConfigError(f"duplicate config key '{key}' (line {lineno})")
        values[key] = _coerce(key, raw, _KEY_TYPES[key])
    return TrainConfig(**values).validate()


def load_config(path) -> tuple[TrainConfig, str]:
    """Returns (config, verbatim file text)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text), text


def config_to_dict(cfg: TrainConfig) -> dict:
    return {f.name: getattr(cfg, f.name) for f in fields(TrainConfig)}


def check_retired(values: dict) -> None:
    """ConfigError naming the first key of RETIRED_KEYS that `values` holds at
    another value than the one now fixed."""
    for key, fixed in RETIRED_KEYS.items():
        if key in values and values[key] != fixed:
            raise ConfigError(f"{key} = {values[key]!r} is no longer a key: every run now "
                              f"computes with {key} = {fixed}")


def config_from_dict(values: dict) -> TrainConfig:
    """The config `config_to_dict` gave `values`; a removed key is ignored, and
    one of RETIRED_KEYS is refused unless it holds its fixed value."""
    check_retired(values)
    for key, want in _KEY_TYPES.items():
        if type(values.get(key)) is not want:
            raise ConfigError(f"{key} = {values.get(key)!r} is missing or not a {want.__name__}")
    return TrainConfig(**{key: values[key] for key in _KEY_TYPES}).validate()


def dump_config(cfg: TrainConfig) -> str:
    lines = [f"{name} = {value}" for name, value in config_to_dict(cfg).items()]
    return "\n".join(lines) + "\n"
