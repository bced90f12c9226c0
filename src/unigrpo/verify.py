"""Self-contained oracle battery: every analytic and Monte-Carlo check that
gates a release, runnable from the CLI and reused by the acceptance tests.

Every oracle calls the code that trains: the losses and their gradients,
the samplers, `prepare_batch`, `StepTable.transition_mean`,
`group_advantages` and `task.score`.  What this module adds is only the
closed forms they are held to and the finite-difference stencil.

Each oracle returns its measured value, the tolerance it was held to, and a
pass flag; the battery is deterministic (fixed derivation seeds).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .config import TrainConfig
from .flow_policy import FlowPolicy, cfg_velocity, step_table, timestep_schedule
from .nn import ParamSet
from .rng import stream
from .task import CANONICAL_TRACES, PROMPT_DRAWS, PROMPT_TOKENS, TAU_R, score, targets
from .text_policy import softmax_np
from .trainer import group_advantages, make_runtime

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


@dataclass
class FdProbe:
    block: str
    index: int
    analytic: float
    numeric: float
    rel_err: float


@dataclass
class FdReport:
    probes: list[FdProbe]
    tol: float
    aborted: bool = False
    reason: str = ""

    @property
    def max_rel_err(self) -> float:
        return max((p.rel_err for p in self.probes), default=0.0)

    @property
    def failing_blocks(self) -> list[str]:
        return sorted({p.block for p in self.probes if p.rel_err > self.tol})

    @property
    def passed(self) -> bool:
        return not self.aborted and not self.failing_blocks


def finite_diff_check(
    loss_fn,
    params: ParamSet,
    rng: np.random.Generator,
    probes: int = 100,
    tol: float = 1e-4,
) -> FdReport:
    """Compare loss_fn's analytic gradient to the fourth-order central
    difference [8(f(x+h) - f(x-h)) - (f(x+2h) - f(x-2h))] / 12h, h = 1e-3,
    at flat indices drawn from `rng`, block by size, then index within the
    block.  Its truncation error is O(h^4), so h can be large enough that
    roundoff in f stays far below the tolerance even for gradients near 1e-8.

    loss_fn maps ParamSet -> (scalar, gradient vector in its layout) and
    must be deterministic; two evaluations at identical params are
    required to agree exactly or the check aborts.
    """
    h = 1e-3
    v1, grads = loss_fn(params)
    v2, _ = loss_fn(params)
    if v1 != v2:
        return FdReport(
            probes=[], tol=tol, aborted=True,
            reason=f"loss_fn not deterministic: {v1!r} != {v2!r}",
        )

    names = params.names()
    sizes = np.array([params[n].size for n in names], dtype=np.float64)
    weights = sizes / sizes.sum()
    results: list[FdProbe] = []
    for _ in range(probes):
        block = names[rng.choice(len(names), p=weights)]
        flat = int(rng.integers(params[block].size))
        index = params.layout.spans[block][0] + flat
        base = params.vec[index]

        def loss_at(delta):
            vec = params.vec.copy()
            vec[index] = base + delta
            return loss_fn(params.with_vector(vec))[0]

        near, far = loss_at(h) - loss_at(-h), loss_at(2 * h) - loss_at(-2 * h)
        numeric = (8.0 * near - far) / (12.0 * h)
        analytic = float(grads[index])
        denom = max(abs(analytic), abs(numeric), 1e-8)
        results.append(
            FdProbe(block, flat, analytic, float(numeric), abs(analytic - numeric) / denom)
        )
    return FdReport(probes=results, tol=tol)


def _nontrivial_flow_params(flow: FlowPolicy, seed: int):
    p = flow.init_params(stream(seed, "vf-init"))
    rng = stream(seed, "vf-head")
    return p.with_blocks({
        "W2": rng.normal(0, 0.2, size=p["W2"].shape),
        "b2": rng.normal(0, 0.1, size=p["b2"].shape),
    })


def gradient_oracles() -> list[OracleResult]:
    """Central finite differences vs analytic gradients for every trainable
    objective, with frozen rollout noise, at the config's default sizes and
    training schedule."""
    rt = make_runtime(TrainConfig())
    text, flow = rt.text_policy, rt.flow_policy
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

    rep = finite_diff_check(text_loss, tmoved, probes=100, tol=1e-4, rng=stream(SEED, "fd-t"))
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
    steps = rt.steps_train
    trace = CANONICAL_TRACES[prompt]
    rngs = [stream(SEED, "f", i) for i in range(3)]
    x1 = np.stack([rng.standard_normal(2) for rng in rngs])
    batch = flow.hybrid_rollout(
        fparams, np.tile(trace, (3, 1)), steps, x1,
        [int(stream(SEED, "w", i).integers(0, 4)) for i in range(3)], 3,
        np.stack([rng.standard_normal((3, 2)) for rng in rngs]),
    )
    fmoved = fparams.with_blocks({"b2": fparams["b2"] + 0.01})
    for reg_mode, weight in (("none", 0.0), ("latent-kl", 0.02), ("velocity-mse", 0.5)):
        fbatch = flow.prepare_batch(batch, np.arange(3), adv, reg_mode, weight, fref)
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


# ---- the flow surrogate's ratio and latent KL ----


def _window_batch(tag: str, reg_mode: str, ref_seed: int):
    """The flow policy at TrainConfig's sizes, its SEED parameters, their
    rollout of 4096 rows of prompt 200's canonical trace along the training
    steps, each row stochastic for 3 steps from a start in 0..3 as
    TrainConfig's window draws them, and that rollout prepared with unit
    advantages under `reg_mode` at weight 1 against the parameters of
    `ref_seed`."""
    n, rng = 4096, stream(SEED, tag)
    rt = make_runtime(TrainConfig())
    flow = rt.flow_policy
    params = _nontrivial_flow_params(flow, SEED)
    batch = flow.hybrid_rollout(params, np.tile(CANONICAL_TRACES[200], (n, 1)), rt.steps_train,
                                rng.standard_normal((n, 2)), rng.integers(0, 4, n), 3,
                                rng.standard_normal((n, 3, 2)))
    prepared = flow.prepare_batch(batch, np.arange(n), np.ones(n), reg_mode, 1.0,
                                  _nontrivial_flow_params(flow, ref_seed))
    return flow, params, batch, prepared


def _means(flow: FlowPolicy, params: ParamSet, prepared) -> np.ndarray:
    """The transition means of the prepared rows at `params`, at which the
    last surrogate_loss call on them ran."""
    v, _ = flow.velocity_np(params, prepared.inputs, prepared.cfg_scale)
    return prepared.steps.transition_mean(prepared.ks, prepared.xs, v)


def _log_normal(x: np.ndarray, mu: np.ndarray, s: np.ndarray) -> np.ndarray:
    """log N(x | mu, s^2 I) over the last axis of the 2-D points x."""
    return -np.log(2.0 * np.pi * s * s) - np.sum((x - mu) ** 2, axis=-1) / (2.0 * s * s)


def rationorm_oracle() -> OracleResult:
    """The ratios the flow surrogate clips, on a rollout at the training
    steps.  At the sampling parameters every log ratio is exactly 0.  At
    moved parameters each row's is the standardized Gaussian log ratio
    s (log N(x' | mu) - log N(x' | mu_old) + |mu - mu_old|^2 / 2s^2), and
    their Monte-Carlo mean is 0."""
    name = "rationorm/centering"
    flow, params, batch, prepared = _window_batch("rn", "none", SEED)
    rng = stream(SEED, "rn-move")
    moved = params.with_blocks({"W2": params["W2"] + rng.normal(0, 0.05, params["W2"].shape),
                                "b2": params["b2"] + rng.normal(0, 0.05, params["b2"].shape)})
    _, _, first = flow.surrogate_loss(params, prepared, 0.2)
    if np.any(np.log(first.ratio) != 0.0):
        return OracleResult(name, np.inf, 3.0, False, detail="a first-epoch log ratio is not 0")
    _, _, stats = flow.surrogate_loss(moved, prepared, 0.2)
    log_r = np.log(stats.ratio)
    mu, mu_old = _means(flow, moved, prepared), prepared.mu_old
    x_next = batch.states[prepared.ks + 1, prepared.rows]
    s = prepared.steps.std[prepared.ks]
    want = s * (_log_normal(x_next, mu, s) - _log_normal(x_next, mu_old, s)
                + np.sum((mu - mu_old) ** 2, axis=1) / (2.0 * s * s))
    err = float(np.max(np.abs(log_r - want)))
    detail = f"{len(log_r)} rows, worst row err {err:.1e} (tol 1e-12)"
    if not err <= 1e-12:
        return OracleResult(name, err, 1e-12, False, detail=detail)
    z = abs(log_r.mean()) / (log_r.std(ddof=1) / np.sqrt(len(log_r)))
    return OracleResult(name, z, 3.0, z < 3.0, detail=detail)


def latent_kl_oracle() -> OracleResult:
    """The flow surrogate's latent-kl penalty at weight 1, on a rollout at the
    training steps, against the Monte-Carlo KL between each row's transitions
    N(mu_theta, s^2) and N(mu_ref, s^2), summed with the row weights."""
    draws = 4
    flow, params, _, prepared = _window_batch("kl", "latent-kl", SEED + 7)
    _, _, stats = flow.surrogate_loss(params, prepared, 0.2)
    mu = _means(flow, params, prepared)
    mu_ref = prepared.steps.transition_mean(prepared.ks, prepared.xs, prepared.v_ref)
    s = prepared.steps.std[prepared.ks][:, None]
    x = mu[:, None] + s[..., None] * stream(SEED, "kl-draws").standard_normal((len(s), draws, 2))
    log_ratio = _log_normal(x, mu[:, None], s) - _log_normal(x, mu_ref[:, None], s)
    w = prepared.weight
    mc = float(w @ log_ratio.mean(axis=1))
    se = np.sqrt(w**2 @ log_ratio.var(axis=1, ddof=1) / draws)
    z = abs(mc - stats.reg_value) / se
    return OracleResult("latent-kl/identity", z, 3.0, z < 3.0,
                        detail=f"{len(s)} rows x {draws} draws, KL {stats.reg_value:.4f}")


# ---- SDE construction ----


def sde_bitwise_oracle() -> OracleResult:
    """Zero noise level must reproduce the deterministic sampler bit for bit."""
    flow = make_runtime(TrainConfig()).flow_policy
    params = _nontrivial_flow_params(flow, SEED + 3)
    trace = CANONICAL_TRACES[[243]]  # quadrant 3, near, wide
    steps = step_table(timestep_schedule(10, 3.0), 0.0)
    n = len(steps.dts)
    rng = stream(SEED, "bit")
    x1 = rng.standard_normal((1, 2))
    sde = flow.hybrid_rollout(params, trace, steps, x1, [0], n, rng.standard_normal((1, n, 2)))
    ode = flow.ode_rollout_batch(params, trace, steps, x1)
    same = bool(np.array_equal(sde.states[-1], ode.states[-1]))
    return OracleResult("sde/zero-noise-bitwise", 0.0 if same else 1.0, 0.0, same)


def sde_marginal_oracle() -> OracleResult:
    """In the linear-Gaussian regime (closed-form optimal velocity) the
    noise-injected steps, each the StepTable's transition mean plus s times
    the noise, must match the Euler sampler's terminal mean and covariance
    within 3-sigma Monte-Carlo bands."""
    n_traj, n_steps = 10_000, 100
    mu0 = np.array([0.5, -0.3])
    tau = 0.4
    steps = step_table(timestep_schedule(n_steps, 1.0), 0.8)

    def v_star(x, t):
        rho2 = (1 - t) ** 2 * tau**2 + t**2
        alpha = (t - (1 - t) * tau**2) / rho2
        return alpha * (x - (1 - t) * mu0) - mu0

    rng = stream(SEED, "marginal")
    x_ode = rng.standard_normal((n_traj, 2))
    x_sde = rng.standard_normal((n_traj, 2))
    for k, (t, dt) in enumerate(zip(steps.times, steps.dts)):
        x_ode = x_ode - v_star(x_ode, t) * dt
        eps = rng.standard_normal((n_traj, 2))
        x_sde = steps.transition_mean(k, x_sde, v_star(x_sde, t)) + steps.std[k] * eps

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
    rt = make_runtime(TrainConfig())
    flow, steps = rt.flow_policy, rt.steps_train
    params = _nontrivial_flow_params(flow, SEED + 4)
    trace = CANONICAL_TRACES[[54]]  # quadrant 1, far, tight
    plain, guided = (
        flow.hybrid_rollout(params, trace, steps, rng.standard_normal((1, 2)), [1], 3,
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
    times = timestep_schedule(2, 3.0)
    checks.append(abs(times[1] - 0.75))
    checks.append(float(np.max(np.abs(
        cfg_velocity(np.array([1.0, 2.0]), np.zeros(2), 2.0) - np.array([2.0, 4.0])
    ))))
    # softmax normalization at extreme logits, through the text loss heads' function
    logits = stream(SEED, "sm").uniform(-50, 50, size=(50, 34))
    ls, p = softmax_np(logits)
    checks.append(float(np.max(np.abs(p.sum(axis=1) - 1.0))))
    checks.append(0.0 if np.all(np.isfinite(ls)) else 1.0)
    worst = max(checks)
    return OracleResult("analytic/spot-values", worst, 1e-10, worst < 1e-10)


# ---- reward headroom (Gaussian integral) ----


def reward_headroom_oracle() -> OracleResult:
    """task.score's mean smooth reward over draws from a prompt's target
    N(mu, tau^2 I) against its closed form TAU_R^2 / (TAU_R^2 + tau^2), at a
    tight and a wide prompt."""
    n = 200_000
    rng = stream(SEED, "head")
    worst = 0.0
    for prompt in (54, 200):  # quadrant 1, far, tight; quadrant 2, far, wide
        mu, tau = targets(PROMPT_DRAWS[[prompt], :3])
        rewards, _ = score(mu + tau[0] * rng.standard_normal((n, 2)), np.full(n, prompt),
                           "smooth")
        closed = TAU_R**2 / (TAU_R**2 + tau[0] ** 2)
        worst = max(worst, abs(float(rewards.mean()) - closed))
    return OracleResult("reward/headroom-gaussian-integral", worst, 0.01, worst < 0.01)


def run_all() -> OracleReport:
    report = OracleReport(gradient_oracles())
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
