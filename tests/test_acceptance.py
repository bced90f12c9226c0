"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (see `pytest -rA` or run with -s).
Criterion 9 is soft by design: a reward-gap miss prints WARN without
failing, while its evaluation-budget half remains a hard assertion.
"""

import shutil
import time
from dataclasses import replace

import numpy as np
import pytest
from prompt_draws import prompt_id

from unigrpo import checkpoint, verify
from unigrpo.ablate import ablate
from unigrpo.config import TrainConfig
from unigrpo.trainer import (
    collect_rollouts,
    group_advantages,
    make_runtime,
    pretrain_all,
    rollout_words,
    train,
)

pytestmark = pytest.mark.acceptance


@pytest.fixture(scope="session")
def seed0_pretrain(tmp_path_factory):
    """Seed 0's pretraining at TrainConfig() defaults, which criteria 7, 8 and
    9 all start from."""
    out = tmp_path_factory.mktemp("seed0-pretrain")
    pretrain_all(TrainConfig(), out)
    return out


def _with_seed0_pretrain(out_dir, seed0_pretrain):
    """`out_dir` for an `ablate` run, holding the shared seed-0 pretraining
    where `ablate` looks for it (it skips a pretraining it finds)."""
    shutil.copytree(seed0_pretrain, out_dir / "seed0" / "pretrain")
    return out_dir


def _report(criterion: int, passed: bool, detail: str, warn: bool = False):
    status = "WARN" if warn else ("PASS" if passed else "FAIL")
    print(f"ACCEPTANCE {criterion} {status} - {detail}")
    return passed


def test_criterion_1_gradient_oracles():
    tic = time.perf_counter()
    results = verify.gradient_oracles()
    elapsed = time.perf_counter() - tic
    worst = max(r.value for r in results)
    ok = all(r.passed for r in results) and elapsed < 60.0
    assert _report(
        1, ok,
        f"6 finite-difference oracles, max rel err {worst:.2e} (tol 1e-4), {elapsed:.1f}s",
    )


def test_criterion_2_advantage_formula():
    spot = group_advantages(np.array([1.0, 2.0, 3.0]))
    spot_err = float(np.max(np.abs(spot - [-1.224744871391589, 0.0, 1.224744871391589])))
    res = verify.advantage_oracle()
    ok = spot_err < 1e-9 and res.passed
    assert _report(
        2, ok,
        f"spot err {spot_err:.2e} (tol 1e-9); property err {res.value:.2e} (tol 1e-10)",
    )


def test_criterion_3_rationorm_centering():
    res = verify.rationorm_oracle(n_draws=100_000, n_configs=10)
    assert _report(3, res.passed, f"max |z| {res.value:.2f} over 10 configs (tol 3.0)")


def test_criterion_4_gaussian_kl_identity():
    res = verify.latent_kl_oracle(n_draws=100_000, n_configs=10)
    assert _report(4, res.passed, f"max |z| {res.value:.2f} over 10 configs (tol 3.0)")


def test_criterion_5_sde_construction():
    tic = time.perf_counter()
    bit = verify.sde_bitwise_oracle()
    marg = verify.sde_marginal_oracle(n_traj=10_000)
    elapsed = time.perf_counter() - tic
    ok = bit.passed and marg.passed and elapsed < 120.0
    assert _report(
        5, ok,
        f"zero-noise bitwise match: {bit.passed}; marginal max |z| {marg.value:.2f} "
        f"(tol 3.0); {elapsed:.1f}s",
    )


def test_criterion_6_cfg_free_rollout_contract(tmp_path):
    cfg = replace(
        TrainConfig(),
        pretrain_text_n=256, pretrain_text_epochs=3,
        pretrain_flow_n=512, pretrain_flow_epochs=6,
        text_hidden=24, flow_hidden=32,
    )
    pre = tmp_path / "pre"
    pretrain_all(cfg, pre)
    rt = make_runtime(cfg)
    text = checkpoint.load_params(pre / "text.ckpt")
    flow = checkpoint.load_params(pre / "flow.ckpt")
    prompt = prompt_id(1, "near", "tight")

    draws = rollout_words(cfg, 0, range(1, 2), 1)[0]
    plain = collect_rollouts(rt, [prompt], text, flow, draws)[0]
    rt_cfg = make_runtime(replace(cfg, train_cfg=True))
    guided = collect_rollouts(rt_cfg, [prompt], text, flow, draws)[0]

    n = cfg.train_timesteps
    ok = plain.batch.flow.evals_per_row == n and guided.batch.flow.evals_per_row == 2 * n
    assert _report(
        6, ok,
        f"training rollouts: {plain.batch.flow.evals_per_row}/{n} evals per trajectory; "
        f"guided ablation: {guided.batch.flow.evals_per_row}/{2 * n}",
    )


def test_criterion_7_end_to_end_improvement(tmp_path, seed0_pretrain):
    out = _with_seed0_pretrain(tmp_path / "comp", seed0_pretrain)
    tic = time.perf_counter()
    report = ablate(TrainConfig(), "component-sweep", out)
    elapsed = time.perf_counter() - tic
    verdicts = {name: (status, detail) for name, status, detail in report["verdicts"]}
    ok = (
        verdicts["improvement"][0] == "PASS"
        and verdicts["unified-vs-flow-only"][0] == "PASS"
        and verdicts["unified-vs-text-only"][0] == "PASS"
        and elapsed < 1800.0
    )
    assert _report(
        7, ok,
        f"{verdicts['improvement'][1]}; {verdicts['unified-vs-flow-only'][1]}; "
        f"{verdicts['unified-vs-text-only'][1]}; {elapsed:.0f}s",
    )


def test_criterion_8_regularization_ablation(tmp_path, seed0_pretrain):
    out = _with_seed0_pretrain(tmp_path / "reg", seed0_pretrain)
    tic = time.perf_counter()
    report = ablate(TrainConfig(), "reg-sweep", out)
    elapsed = time.perf_counter() - tic
    verdicts = {name: (status, detail) for name, status, detail in report["verdicts"]}
    ok = (
        verdicts["drift-ratio"][0] == "PASS"
        and verdicts["reward-retained"][0] == "PASS"
        and elapsed < 2700.0
    )
    assert _report(
        8, ok,
        f"{verdicts['drift-ratio'][1]}; {verdicts['reward-retained'][1]}; {elapsed:.0f}s",
    )


def test_criterion_9_cfg_ablation(tmp_path, seed0_pretrain):
    out = _with_seed0_pretrain(tmp_path / "cfg", seed0_pretrain)
    report = ablate(TrainConfig(), "cfg-on-vs-off", out)
    verdicts = {name: (status, detail) for name, status, detail in report["verdicts"]}
    budget_ok = verdicts["eval-budget"][0] == "PASS"
    gap_ok = verdicts["reward-gap"][0] == "PASS"
    # the reward-gap half is soft: a miss is a WARN, not a failure
    _report(9, gap_ok, f"{verdicts['reward-gap'][1]}; {verdicts['eval-budget'][1]}",
            warn=not gap_ok)
    assert budget_ok, verdicts["eval-budget"][1]


def test_criterion_10_determinism_and_persistence(tmp_path):
    cfg = replace(
        TrainConfig(),
        total_updates=10, eval_every=5, checkpoint_every=5,
        pretrain_text_n=256, pretrain_text_epochs=3,
        pretrain_flow_n=512, pretrain_flow_epochs=6,
        text_hidden=24, flow_hidden=32,
        pretrain_dir=str(tmp_path / "pre"),
    )
    pretrain_all(cfg, tmp_path / "pre")

    train(cfg, tmp_path / "a")
    train(cfg, tmp_path / "b")
    rerun_identical = (
        (tmp_path / "a/metrics.csv").read_bytes() == (tmp_path / "b/metrics.csv").read_bytes()
    )

    params = checkpoint.load_params(tmp_path / "a/text.ckpt")
    checkpoint.save_params(tmp_path / "text2.ckpt", params)
    ckpt_exact = (
        (tmp_path / "a/text.ckpt").read_bytes() == (tmp_path / "text2.ckpt").read_bytes()
    )

    train(replace(cfg, total_updates=5), tmp_path / "resumed")
    train(cfg, tmp_path / "resumed", resume=True)
    resume_identical = (
        (tmp_path / "a/metrics.csv").read_bytes()
        == (tmp_path / "resumed/metrics.csv").read_bytes()
        and (tmp_path / "a/state.ckpt").read_bytes()
        == (tmp_path / "resumed/state.ckpt").read_bytes()
    )

    ok = rerun_identical and ckpt_exact and resume_identical
    assert _report(
        10, ok,
        f"re-run bit-identical: {rerun_identical}; checkpoint round-trip exact: "
        f"{ckpt_exact}; resume equals uninterrupted: {resume_identical}",
    )
