"""Paired-configuration studies sharing seeds, with machine-parseable verdicts.

Three modes:
  component-sweep  joint training vs freezing either expert
  reg-sweep        drift regularizer off / on-latents / on-velocities
  cfg-on-vs-off    guidance-free training vs guided training, same evaluation
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import TrainConfig
from .errors import ConfigError
from .metrics import read_metrics
from .trainer import pretrain_all, train

MODES = ("component-sweep", "reg-sweep", "cfg-on-vs-off")

# acceptance thresholds for the directional claims
IMPROVEMENT_MIN = 0.05
COMPONENT_SLACK = 0.01
DRIFT_RATIO_MIN = 5.0
REG_REWARD_SLACK = 0.03
CFG_REWARD_SLACK = 0.03


def _arms(mode: str, cfg: TrainConfig) -> list[tuple[str, TrainConfig]]:
    if mode == "component-sweep":
        return [
            ("unified", replace(cfg)),
            ("flow-only", replace(cfg, train_text=False)),
            ("text-only", replace(cfg, train_flow=False)),
        ]
    if mode == "reg-sweep":
        return [
            ("reg-none", replace(cfg, reg_mode="none")),
            ("reg-latent-kl", replace(cfg, reg_mode="latent-kl")),
            ("reg-velocity-mse", replace(cfg, reg_mode="velocity-mse")),
        ]
    if mode == "cfg-on-vs-off":
        return [
            ("cfg-free", replace(cfg, train_cfg=False)),
            ("cfg-on", replace(cfg, train_cfg=True)),
        ]
    raise ConfigError(f"unknown ablation mode '{mode}' (choose from {', '.join(MODES)})")


def _curves(run_dir) -> tuple[list[tuple[int, float]], list[tuple[int, float]]]:
    """The eval-reward and drift curves of one run, (update, value) at each
    update that evaluated, from one read of its metrics.csv."""
    rows = read_metrics(Path(run_dir) / "metrics.csv")
    return tuple([(r["update"], r[key]) for r in rows if r[key] is not None]
                 for key in ("eval_reward", "velocity_drift"))


def _rollout_evals_per_step(run_dir, n_steps: int) -> float:
    """Mean velocity evaluations per denoising step across logged rollouts:
    a groups.jsonl record's `velocity_evals` is what each of its group's
    group_size rollouts took, so the mean over records is that over rollouts."""
    with open(Path(run_dir) / "groups.jsonl") as fh:
        counts = [json.loads(line)["velocity_evals"] for line in fh]
    return float(np.mean(counts) / n_steps)


def ablate(cfg: TrainConfig, mode: str, out_dir) -> dict:
    """Run the paired configurations of one mode and emit comparison files."""
    arms = [(name, arm_cfg.validate()) for name, arm_cfg in _arms(mode, cfg)]  # before any run
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n_seeds = cfg.ablate_seeds if mode == "component-sweep" else 1

    runs: dict[str, list[dict]] = {name: [] for name, _ in arms}
    for s in range(n_seeds):
        seed = cfg.seed + s
        pre_dir = out / f"seed{seed}" / "pretrain"
        if not (pre_dir / "pretrain_report.json").exists():  # written after both checkpoints
            pretrain_all(replace(cfg, seed=seed), pre_dir)
        for name, arm_cfg in arms:
            run_dir = out / f"seed{seed}" / name
            summary = train(replace(arm_cfg, seed=seed, pretrain_dir=str(pre_dir)), run_dir)
            summary["run_dir"] = str(run_dir)
            summary["eval_curve"], summary["drift_curve"] = _curves(run_dir)
            summary["rollout_evals_per_step"] = _rollout_evals_per_step(run_dir,
                                                                        cfg.train_timesteps)
            runs[name].append(summary)

    report = {"mode": mode, "seeds": n_seeds, "updates": cfg.total_updates, "runs": runs}
    report["verdicts"] = _verdicts(mode, runs)
    _write_comparison_csv(out, runs)
    verdict_lines = [
        f"VERDICT {mode} {name} {status} ({detail})"
        for name, status, detail in report["verdicts"]
    ]
    (out / "verdicts.txt").write_text("\n".join(verdict_lines) + "\n")
    (out / "report.json").write_text(json.dumps(report, indent=2))
    return report


def _verdicts(mode: str, runs) -> list[tuple[str, str, str]]:
    verdicts = []
    if mode == "component-sweep":
        unified = runs["unified"]
        delta = float(np.mean([r["final_eval"] - r["baseline_eval"] for r in unified]))
        verdicts.append((
            "improvement",
            "PASS" if delta >= IMPROVEMENT_MIN else "FAIL",
            f"mean_delta={delta:.4f} threshold={IMPROVEMENT_MIN}",
        ))
        u_final = float(np.mean([r["final_eval"] for r in unified]))
        for other in ("flow-only", "text-only"):
            o_final = float(np.mean([r["final_eval"] for r in runs[other]]))
            ok = u_final >= o_final - COMPONENT_SLACK
            verdicts.append((
                f"unified-vs-{other}",
                "PASS" if ok else "FAIL",
                f"unified={u_final:.4f} {other}={o_final:.4f} slack={COMPONENT_SLACK}",
            ))
    elif mode == "reg-sweep":
        none_run = runs["reg-none"][0]
        mse_run = runs["reg-velocity-mse"][0]
        d_none = none_run["drift_curve"][-1][1]
        d_mse = mse_run["drift_curve"][-1][1]
        ratio = d_none / max(d_mse, 1e-12)
        verdicts.append((
            "drift-ratio",
            "PASS" if ratio >= DRIFT_RATIO_MIN else "FAIL",
            f"none={d_none:.5f} velocity-mse={d_mse:.5f} ratio={ratio:.2f} "
            f"threshold={DRIFT_RATIO_MIN}",
        ))
        peak_none = max(v for _, v in none_run["eval_curve"])
        gap = peak_none - mse_run["final_eval"]
        verdicts.append((
            "reward-retained",
            "PASS" if gap <= REG_REWARD_SLACK else "FAIL",
            f"none_peak={peak_none:.4f} mse_final={mse_run['final_eval']:.4f} "
            f"gap={gap:.4f} slack={REG_REWARD_SLACK}",
        ))
    elif mode == "cfg-on-vs-off":
        free = runs["cfg-free"][0]
        on = runs["cfg-on"][0]
        gap = on["final_eval"] - free["final_eval"]
        # soft criterion: directional claim at a different scale
        verdicts.append((
            "reward-gap",
            "PASS" if gap <= CFG_REWARD_SLACK else "WARN",
            f"cfg_free={free['final_eval']:.4f} cfg_on={on['final_eval']:.4f} "
            f"gap={gap:.4f} slack={CFG_REWARD_SLACK}",
        ))
        e_free = free["rollout_evals_per_step"]
        e_on = on["rollout_evals_per_step"]
        verdicts.append((
            "eval-budget",
            "PASS" if (e_free == 1.0 and e_on == 2.0) else "FAIL",
            f"evals_per_step cfg_free={e_free} cfg_on={e_on}",
        ))
    return verdicts


def _write_comparison_csv(out: Path, runs) -> None:
    """Plot-ready table: update index x per-run eval-reward/drift columns.

    Multi-seed arms emit one column per seed (suffix @seedN)."""
    columns: dict[str, dict[int, float]] = {}
    for name, summaries in runs.items():
        for i, summary in enumerate(summaries):
            suffix = f"@s{i}" if len(summaries) > 1 else ""
            columns[f"{name}{suffix}_eval"] = dict(summary["eval_curve"])
            columns[f"{name}{suffix}_drift"] = dict(summary["drift_curve"])
    updates = sorted({u for col in columns.values() for u in col})
    lines = ["update," + ",".join(columns)]
    for u in updates:
        cells = [str(u)]
        for col in columns.values():
            cells.append(repr(col[u]) if u in col else "")
        lines.append(",".join(cells))
    (out / "comparison.csv").write_text("\n".join(lines) + "\n")
