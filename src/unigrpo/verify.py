"""Self-contained oracle battery: every analytic and Monte-Carlo check that
gates a release, runnable from the CLI and reused by the acceptance tests.

Each oracle returns its measured value, the tolerance it was held to, and a
pass flag; the battery is deterministic (fixed derivation seeds).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .flow_policy import (
    FlowPolicy,
    cfg_velocity,
    drift_coefficients,
    ratio_norm,
    latent_kl,
    sde_step_values,
    timestep_schedule,
    transition_logprob,
)
from .nn import finite_diff_check
from .rng import stream
from .task import CANONICAL_TRACES, PROMPT_TOKENS, TaskGeometry
from .text_policy import TextPolicy, softmax_np
from .trainer import group_advantages

SEED = 20_240_501


@dataclass
class OracleResult:
    name: str
    value: float
    tolerance: float
    passed: bool
    detail: str = ""
    seconds: float = 0.0


@dataclass
class OracleReport:
    results: list[OracleResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        out = []
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            out.append(
                f"{status} {r.name}: value={r.value:.3e} tol={r.tolerance:.3e} "
                f"({r.seconds:.2f}s){' ' + r.detail if r.detail else ''}"
            )
        return out


def _timed(fn):
    tic = time.perf_counter()
    res = fn()
    res.seconds = time.perf_counter() - tic
    return res


# ---- gradient oracles ----


def _nontrivial_flow_params(flow: FlowPolicy, seed: int):
    p = flow.init_params(stream(seed, "vf-init"))
    rng = stream(seed, "vf-head")
    return p.with_blocks({
        "W2": rng.normal(0, 0.2, size=p["W2"].shape),
        "b2": rng.normal(0, 0.1, size=p["b2"].shape),
    })


def _corrupt(loss_fn, block: str):
    def wrapped(p):
        v, grads = loss_fn(p)
        lo, hi, _ = p.layout.spans[block]
        grads[lo:hi] += 0.3
        return v, grads

    return wrapped


def gradient_oracles(corrupt_gradient: bool = False) -> list[OracleResult]:
    """Central finite differences vs analytic gradients for every trainable
    objective, with frozen rollout noise."""
    text, flow = TextPolicy(), FlowPolicy()
    prompt = 200  # quadrant 2, far, wide; synonyms (1, 0, 2)
    results = []

    # text surrogate
    tparams = text.init_params(stream(SEED, "t-init"))
    seqs = text.sample_trace(tparams, np.tile(PROMPT_TOKENS[prompt], (3, 1)), 1.0,
                             np.stack([stream(SEED, "t", i).random(text.max_len)
                                       for i in range(3)]))
    adv = np.array([1.0, -0.4, 0.3])
    tref = text.init_params(stream(SEED + 1, "t-init"))
    tmoved = tparams.with_blocks({"W2": tparams["W2"] + 0.01})
    tbatch = text.prepare_batch(seqs, adv, 1.0, 0.05, tref)
    text.surrogate_loss(tparams, tbatch, 0.2)  # the old log-probs are those at tparams

    def text_loss(p):
        j, grads, _ = text.surrogate_loss(p, tbatch, 0.2)
        return j, grads

    fn = _corrupt(text_loss, "W0") if corrupt_gradient else text_loss
    rep = finite_diff_check(fn, tmoved, probes=100, tol=1e-4, rng=stream(SEED, "fd-t"))
    results.append(OracleResult(
        "grad/text-surrogate", rep.max_rel_err, 1e-4, rep.passed,
        detail=",".join(rep.failing_blocks),
    ))

    # text pretraining cross-entropy
    rows, targets, _, _ = text.token_rows(np.hstack([PROMPT_TOKENS[[prompt]],
                                                    CANONICAL_TRACES[[prompt]]]))

    def ce_loss(p):
        return text.ce_loss(p, rows, targets)

    rep = finite_diff_check(ce_loss, tparams, probes=100, tol=1e-4, rng=stream(SEED, "fd-ce"))
    results.append(OracleResult("grad/text-pretrain", rep.max_rel_err, 1e-4, rep.passed))

    # flow surrogate under each regularizer
    fparams = _nontrivial_flow_params(flow, SEED)
    fref = _nontrivial_flow_params(flow, SEED + 7)
    times, _ = timestep_schedule(10, 3.0)
    trace = CANONICAL_TRACES[prompt]
    rngs = [stream(SEED, "f", i) for i in range(3)]
    x1 = np.stack([rng.standard_normal(2) for rng in rngs])
    batch = flow.hybrid_rollout(
        fparams, np.tile(trace, (3, 1)), times, x1,
        [int(stream(SEED, "w", i).integers(0, 4)) for i in range(3)], 3, 0.8,
        np.stack([rng.standard_normal((3, 2)) for rng in rngs]),
    )
    fmoved = fparams.with_blocks({"b2": fparams["b2"] + 0.01})
    for reg_mode, weight in (("none", 0.0), ("latent-kl", 0.02), ("velocity-mse", 0.5)):
        fbatch = flow.prepare_batch(batch, adv, reg_mode, weight, fref)
        flow.surrogate_loss(fparams, fbatch, 0.2)  # the old means are those at fparams

        def flow_loss(p, fbatch=fbatch):
            j, grads, _ = flow.surrogate_loss(p, fbatch, 0.2)
            return j, grads

        rep = finite_diff_check(
            flow_loss, fmoved, probes=100, tol=1e-4, rng=stream(SEED, f"fd-f-{reg_mode}")
        )
        results.append(OracleResult(
            f"grad/flow-surrogate-{reg_mode}", rep.max_rel_err, 1e-4, rep.passed,
            detail=",".join(rep.failing_blocks),
        ))

    # flow-matching pretraining loss with frozen draws
    rng = stream(SEED, "fm")
    x0 = rng.normal(size=(6, 2))
    t = 1.0 - rng.random(6)
    x1 = rng.standard_normal((6, 2))
    pool = flow.pool_weights(np.tile(trace, (6, 1)))
    pool[0] = 0.0  # row 0's condition dropped

    def fm_loss(p):
        return flow.fm_loss_frozen(p, x0, pool, t, x1)

    rep = finite_diff_check(fm_loss, fparams, probes=100, tol=1e-4, rng=stream(SEED, "fd-fm"))
    results.append(OracleResult("grad/flow-pretrain", rep.max_rel_err, 1e-4, rep.passed))
    return results


# ---- advantage oracle ----


def advantage_oracle() -> OracleResult:
    spot = group_advantages(np.array([1.0, 2.0, 3.0]))
    expected = np.array([-np.sqrt(1.5), 0.0, np.sqrt(1.5)])
    if float(np.max(np.abs(spot - expected))) > 1e-9:
        return OracleResult("advantages/formula", np.inf, 1e-10, False,
                            detail="hand-computed spot values missed at 1e-9")

    rng = stream(SEED, "adv")
    worst = 0.0
    for _ in range(1000):
        g = int(rng.integers(2, 17))
        r = rng.normal(size=g) * rng.uniform(0.1, 5.0)
        a = group_advantages(r)
        if np.any(a):
            worst = max(worst, abs(a.mean()), abs(a.std() - 1.0))
            scale, shiftv = float(rng.uniform(0.5, 3.0)), float(rng.normal())
            worst = max(worst, float(np.max(np.abs(group_advantages(scale * r + shiftv) - a))))
            if int(np.argmax(a)) != int(np.argmax(r)):
                worst = max(worst, 1.0)
    return OracleResult("advantages/formula", worst, 1e-10, worst < 1e-10,
                        detail="mean-0/std-1 and affine invariance, 1000 groups")


# ---- ratio normalization centering ----


def rationorm_oracle(n_draws: int = 100_000, n_configs: int = 10) -> OracleResult:
    if ratio_norm(0.0, np.zeros(2), 0.7, 0.05) != 1.0:
        return OracleResult("rationorm/centering", np.inf, 3.0, False,
                            detail="identity at theta=theta_old violated")
    rng = stream(SEED, "rn")
    worst_z = 0.0
    for _ in range(n_configs):
        sigma_t = float(rng.uniform(0.2, 1.2))
        dt = float(rng.uniform(0.01, 0.2))
        dmu = rng.normal(scale=0.3, size=2)
        s = sigma_t * np.sqrt(dt)
        mu_old = rng.normal(size=2)
        mu_new = mu_old - dmu
        x = mu_old + s * rng.standard_normal((n_draws, 2))
        log_r = (np.sum((x - mu_old) ** 2, 1) - np.sum((x - mu_new) ** 2, 1)) / (2 * s * s)
        bracket = log_r + np.sum(dmu**2) / (2 * sigma_t**2 * dt)
        se = bracket.std(ddof=1) / np.sqrt(n_draws)
        worst_z = max(worst_z, abs(bracket.mean()) / se)
    return OracleResult("rationorm/centering", worst_z, 3.0, worst_z < 3.0,
                        detail=f"max |z| over {n_configs} configs")


# ---- Gaussian KL identity ----


def latent_kl_oracle(n_draws: int = 100_000, n_configs: int = 10) -> OracleResult:
    spot = latent_kl(np.array([np.sqrt(0.02), 0.0]), np.zeros(2), 1.0, 0.04)
    if abs(spot - 0.25) > 1e-12:
        return OracleResult("latent-kl/identity", spot, 3.0, False, detail="spot value wrong")
    rng = stream(SEED, "kl")
    worst_z = 0.0
    for _ in range(n_configs):
        sigma_t = float(rng.uniform(0.2, 1.2))
        dt = float(rng.uniform(0.01, 0.2))
        mu_t = rng.normal(size=2)
        mu_r = mu_t + rng.normal(scale=0.2, size=2)
        s = sigma_t * np.sqrt(dt)
        x = mu_t + s * rng.standard_normal((n_draws, 2))
        log_ratio = (np.sum((x - mu_r) ** 2, 1) - np.sum((x - mu_t) ** 2, 1)) / (2 * s * s)
        se = log_ratio.std(ddof=1) / np.sqrt(n_draws)
        z = abs(log_ratio.mean() - latent_kl(mu_t, mu_r, sigma_t, dt)) / se
        worst_z = max(worst_z, z)
    return OracleResult("latent-kl/identity", worst_z, 3.0, worst_z < 3.0,
                        detail=f"max |z| over {n_configs} configs")


# ---- SDE construction ----


def sde_bitwise_oracle() -> OracleResult:
    """Zero noise level must reproduce the deterministic sampler bit for bit."""
    flow = FlowPolicy()
    params = _nontrivial_flow_params(flow, SEED + 3)
    trace = CANONICAL_TRACES[[243]]  # quadrant 3, near, wide
    times, _ = timestep_schedule(10, 3.0)
    n = len(times) - 1
    rng = stream(SEED, "bit")
    x1 = rng.standard_normal((1, 2))
    sde = flow.hybrid_rollout(params, trace, times, x1, [0], n, 0.0,
                              rng.standard_normal((1, n, 2)))
    ode = flow.ode_rollout_batch(params, trace, times, x1)
    same = bool(np.array_equal(sde.states[-1], ode.states[-1]))
    return OracleResult("sde/zero-noise-bitwise", 0.0 if same else 1.0, 0.0, same)


def sde_marginal_oracle(n_traj: int = 10_000, n_steps: int = 100) -> OracleResult:
    """In the linear-Gaussian regime (closed-form optimal velocity) the
    noise-injected sampler's terminal mean and covariance must match the
    deterministic sampler's within 3-sigma Monte-Carlo bands."""
    mu0 = np.array([0.5, -0.3])
    tau = 0.4
    sigma_level = 0.8
    times, _ = timestep_schedule(n_steps, 1.0)

    def v_star(x, t):
        rho2 = (1 - t) ** 2 * tau**2 + t**2
        alpha = (t - (1 - t) * tau**2) / rho2
        return alpha * (x - (1 - t) * mu0) - mu0

    rng = stream(SEED, "marginal")
    x_ode = rng.standard_normal((n_traj, 2))
    x_sde = rng.standard_normal((n_traj, 2))
    for k in range(n_steps):
        t = float(times[k])
        dt = float(times[k] - times[k + 1])
        x_ode = x_ode - v_star(x_ode, t) * dt
        sigma_t = sigma_level * np.sqrt(t)
        eps = rng.standard_normal((n_traj, 2))
        _, _, x_sde = sde_step_values(x_sde, v_star(x_sde, t), t, dt, sigma_t, eps)

    worst_z = 0.0
    for i in range(2):
        se = np.sqrt(x_ode[:, i].var() / n_traj) + np.sqrt(x_sde[:, i].var() / n_traj)
        worst_z = max(worst_z, abs(x_ode[:, i].mean() - x_sde[:, i].mean()) / (se + 1e-300))
    c_ode = np.cov(x_ode.T)
    c_sde = np.cov(x_sde.T)
    for i in range(2):
        for jj in range(i, 2):
            se = (np.sqrt((c_ode[i, i] * c_ode[jj, jj] + c_ode[i, jj] ** 2) / n_traj)
                  + np.sqrt((c_sde[i, i] * c_sde[jj, jj] + c_sde[i, jj] ** 2) / n_traj))
            worst_z = max(worst_z, abs(c_ode[i, jj] - c_sde[i, jj]) / (se + 1e-300))
    return OracleResult(
        "sde/marginal-match", worst_z, 3.0, worst_z < 3.0,
        detail=f"{n_traj} trajectories, {n_steps} uniform steps",
    )


# ---- rollout evaluation counting ----


def rollout_budget_oracle() -> OracleResult:
    flow = FlowPolicy()
    params = _nontrivial_flow_params(flow, SEED + 4)
    trace = CANONICAL_TRACES[[54]]  # quadrant 1, far, tight
    times, _ = timestep_schedule(10, 3.0)
    plain, guided = (
        flow.hybrid_rollout(params, trace, times, rng.standard_normal((1, 2)), [1], 3, 0.8,
                            rng.standard_normal((1, 3, 2)), cfg_scale)
        for rng, cfg_scale in ((stream(SEED, "cnt"), 1.0), (stream(SEED, "cnt"), 2.0))
    )
    ok = plain.velocity_evals == 10 and guided.velocity_evals == 20
    return OracleResult(
        "rollouts/velocity-eval-budget",
        float(plain.velocity_evals + guided.velocity_evals), 30.0, ok,
        detail=f"plain={plain.velocity_evals} guided={guided.velocity_evals}",
    )


# ---- analytic spot values ----


def spot_value_oracle() -> OracleResult:
    checks = []
    times, _ = timestep_schedule(2, 3.0)
    checks.append(abs(times[1] - 0.75))
    checks.append(abs(transition_logprob(np.zeros(1), 1.0, np.zeros(1)) + 0.9189385332046727))
    checks.append(abs(transition_logprob(np.zeros(1), 1.0, np.ones(1)) + 1.4189385332046727))
    dmu = np.array([np.sqrt(0.08), 0.0])
    checks.append(abs(ratio_norm(-0.5, dmu, 1.0, 0.04) - np.exp(0.1)))
    checks.append(float(np.max(np.abs(
        cfg_velocity(np.array([1.0, 2.0]), np.zeros(2), 2.0) - np.array([2.0, 4.0])
    ))))
    # regularizer ordering: exact ratio when drift difference is c1 * velocity difference
    t0, dt, st = 0.6, 0.05, 0.7
    x = np.array([0.3, -0.6])
    v1, v2 = np.array([0.4, 0.2]), np.array([-0.1, 0.5])
    c1, c2 = drift_coefficients(t0, st)
    mu1 = x - (c1 * v1 + c2 * x) * dt
    mu2 = x - (c1 * v2 + c2 * x) * dt
    expected = c1**2 * dt / (2 * st**2) * float(np.sum((v1 - v2) ** 2))
    checks.append(abs(latent_kl(mu1, mu2, st, dt) - expected))
    # softmax normalization at extreme logits, through the text loss heads' function
    logits = stream(SEED, "sm").uniform(-50, 50, size=(50, 34))
    ls, p = softmax_np(logits)
    checks.append(float(np.max(np.abs(p.sum(axis=1) - 1.0))))
    checks.append(0.0 if np.all(np.isfinite(ls)) else 1.0)
    worst = max(checks)
    return OracleResult("analytic/spot-values", worst, 1e-10, worst < 1e-10)


# ---- reward headroom (Gaussian integral) ----


def reward_headroom_oracle(n: int = 200_000) -> OracleResult:
    geom = TaskGeometry()
    rng = stream(SEED, "head")
    worst = 0.0
    for tau in (geom.tau_tight, geom.tau_wide):
        z = tau * rng.standard_normal((n, 2))
        mc = float(np.mean(np.exp(-np.sum(z**2, 1) / (2 * geom.tau_r**2))))
        closed = geom.tau_r**2 / (geom.tau_r**2 + tau**2)
        worst = max(worst, abs(mc - closed))
    return OracleResult("reward/headroom-gaussian-integral", worst, 0.01, worst < 0.01)


def run_all(corrupt_gradient: bool = False) -> OracleReport:
    report = OracleReport()
    for res in gradient_oracles(corrupt_gradient):
        report.results.append(res)
    for fn in (
        advantage_oracle,
        rationorm_oracle,
        latent_kl_oracle,
        sde_bitwise_oracle,
        sde_marginal_oracle,
        rollout_budget_oracle,
        spot_value_oracle,
        reward_headroom_oracle,
    ):
        report.results.append(_timed(fn))
    return report
