"""Conditional flow-matching generator with its RL machinery.

Time convention: t=1 is pure noise, t=0 is data, the path is
x_t = (1-t) x_0 + t x_1 with velocity target x_1 - x_0, and a denoising
step moves x_{t - dt} = x_t - drift * dt.  Under this convention the
zero-noise limit of the stochastic step is exactly the Euler integrator,
and the noise-injected step preserves the deterministic sampler's
marginals when the velocity field is exact.

The generator is conditioned only on reasoning tokens (mean-pooled
through a learned embedding table), never on the raw prompt, so the
quality of the text policy causally matters for reward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Var
from .errors import ConfigError, NumericError
from .nn import GradSet, AdamState, ParamSet, adam_step, init_mlp_blocks, mlp_forward_np, mlp_var
from .task import VOCAB_SIZE

DIM = 2  # sample space


def time_features(t) -> np.ndarray:
    """(n, 7) fixed sinusoidal features of the flow time."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    cols = [t]
    for f in (1.0, 2.0, 4.0):
        cols.append(np.sin(np.pi * f * t))
        cols.append(np.cos(np.pi * f * t))
    return np.stack(cols, axis=1)


N_TIME_FEATS = 7


def timestep_schedule(n_steps: int, shift: float) -> tuple[np.ndarray, np.ndarray]:
    """Times t_0=1 > ... > t_n=0 on the shifted grid, plus per-step dt.

    The uniform grid u is mapped by t = shift*u / (1 + (shift-1)*u), which
    concentrates steps near the data end for shift > 1 and is the identity
    for shift = 1.
    """
    if n_steps < 1:
        raise ConfigError("n_steps must be >= 1")
    if shift < 1.0:
        raise ConfigError("timestep shift must be >= 1")
    u = 1.0 - np.arange(n_steps + 1) / n_steps
    times = shift * u / (1.0 + (shift - 1.0) * u)
    times[0], times[-1] = 1.0, 0.0
    return times, times[:-1] - times[1:]


# ---- per-step transition math ----


def drift_coefficients(t: float, sigma_t: float) -> tuple[float, float]:
    """Coefficients (c1, c2) of the noise-corrected drift c1*v + c2*x."""
    if t <= 0.0:
        raise NumericError("stochastic step requested at t=0 (singular drift)")
    half = sigma_t**2 / (2.0 * t)
    return 1.0 + half * (1.0 - t), half


def sde_step_values(x, v, t, dt, sigma_t, eps):
    """(mu, s, x_next) for one noise-injected step given the velocity value."""
    c1, c2 = drift_coefficients(t, sigma_t)
    mu = x - (c1 * v + c2 * x) * dt
    s = sigma_t * np.sqrt(dt)
    return mu, s, mu + s * eps


def transition_logprob(mu: np.ndarray, s: float, x_next: np.ndarray):
    """Isotropic Gaussian log-density of x_next under N(mu, s^2 I), taken over
    the last axis: a float for one point, an array for a batch of rows."""
    if s <= 0.0:
        raise NumericError("transition std must be positive")
    mu = np.asarray(mu, dtype=np.float64)
    d = mu.shape[-1]
    return (-0.5 * d * np.log(2.0 * np.pi * s * s)
            - np.sum((np.asarray(x_next) - mu) ** 2, axis=-1) / (2.0 * s * s))


def ratio_norm(log_r: float, dmu: np.ndarray, sigma_t: float, dt: float) -> float:
    """Standardized importance ratio: the log ratio is shifted by its Gaussian
    expectation and scaled by the transition std so clipping bounds act
    symmetrically across timesteps."""
    scale = sigma_t * np.sqrt(dt)
    if scale <= 0.0:
        raise NumericError("ratio normalization needs sigma_t * sqrt(dt) > 0")
    correction = float(np.sum(np.asarray(dmu) ** 2)) / (2.0 * sigma_t**2 * dt)
    return float(np.exp(scale * (log_r + correction)))


def latent_kl(mu_theta: np.ndarray, mu_ref: np.ndarray, sigma_t: float, dt: float) -> float:
    """Exact KL between equal-variance Gaussian transitions."""
    var = sigma_t**2 * dt
    if var <= 0.0:
        raise NumericError("latent KL needs positive transition variance")
    return float(np.sum((np.asarray(mu_theta) - np.asarray(mu_ref)) ** 2) / (2.0 * var))


def velocity_mse(v_theta: np.ndarray, v_ref: np.ndarray) -> float:
    """Unweighted squared distance between velocity predictions; deliberately
    carries no noise-level dependence."""
    return float(np.sum((np.asarray(v_theta) - np.asarray(v_ref)) ** 2))


def cfg_velocity(v_cond: np.ndarray, v_uncond: np.ndarray, w: float) -> np.ndarray:
    return np.asarray(v_uncond) + w * (np.asarray(v_cond) - np.asarray(v_uncond))


def evals_per_step(cfg_scale: float) -> int:
    """Velocity-net evaluations per sample per denoising step; a guidance
    scale of exactly 1 needs only the conditional branch."""
    return 1 if cfg_scale == 1.0 else 2


# ---- trajectory records ----


@dataclass
class FlowStep:
    t: float
    dt: float
    x: np.ndarray          # pre-step latent
    x_next: np.ndarray
    v: np.ndarray
    mu: np.ndarray
    s: float               # transition std; 0 for deterministic steps
    sigma_t: float
    logp: float | None     # sampling-time log-prob of x_next, None if s == 0
    sde: bool


@dataclass
class FlowTrajectory:
    cond_tokens: tuple[int, ...]
    window: tuple[int, ...]
    steps: list[FlowStep]
    x0: np.ndarray
    velocity_evals: int
    cfg_scale: float = 1.0

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(s.t for s in self.steps)


@dataclass
class FlowBatch:
    """One lockstep rollout: its trajectories in row order and their total
    velocity-net evaluations."""

    trajs: list[FlowTrajectory]
    velocity_evals: int


@dataclass
class FlowLossStats:
    surrogate: float
    mean_ratio: float
    max_ratio: float
    clip_fraction: float
    reg_value: float
    step_count: int


class FlowPolicy:
    def __init__(self, vocab_size: int = VOCAB_SIZE, cond_dim: int = 8, hidden: int = 64):
        self.vocab = vocab_size
        self.cond_dim = cond_dim
        self.arch = (DIM + N_TIME_FEATS + cond_dim, hidden, hidden, DIM)

    def init_params(self, rng: np.random.Generator) -> ParamSet:
        blocks = {"cemb": rng.normal(0.0, 0.3, size=(self.vocab, self.cond_dim))}
        blocks.update(init_mlp_blocks(rng, self.arch, final_zero=True))
        return ParamSet(blocks)

    # ---- conditioning ----

    def pool_weights(self, token_seqs) -> np.ndarray:
        """(len(token_seqs), vocab) mean-pooling weights: row i holds each
        token's share of sequence i; an empty sequence gets a zero row."""
        n = len(token_seqs)
        lens = np.array([len(seq) for seq in token_seqs], dtype=np.int64)
        tokens = np.fromiter((tok for seq in token_seqs for tok in seq), np.int64, int(lens.sum()))
        cells = np.repeat(np.arange(n) * self.vocab, lens) + tokens
        shares = np.repeat(1.0 / np.maximum(lens, 1), lens)
        return np.bincount(cells, weights=shares, minlength=n * self.vocab).reshape(n, self.vocab)

    def cond_np(self, params: ParamSet, token_seqs) -> np.ndarray:
        """(len(token_seqs), cond_dim) mean-pooled token embeddings."""
        return self.pool_weights(token_seqs) @ params["cemb"]

    def cond_var(self, tape: Tape, params: ParamSet, token_seqs) -> Var:
        """cond_np on the tape, differentiable w.r.t. the embedding table."""
        return tape.cmatmul(self.pool_weights(token_seqs), tape.param(params, "cemb"))

    # ---- velocity net ----

    def velocity_np(self, params: ParamSet, x: np.ndarray, t, cond: np.ndarray,
                    cfg_scale: float = 1.0) -> np.ndarray:
        """Velocity at (x, t) given one pooled condition per row; a guidance
        scale other than 1 combines it with the unconditional (zero-condition)
        branch."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        cond = np.atleast_2d(cond)
        feats = time_features(np.broadcast_to(np.asarray(t, dtype=np.float64), (x.shape[0],)))
        v = mlp_forward_np(params, np.concatenate([x, feats, cond], axis=1), self.arch, "tanh")
        if cfg_scale == 1.0:
            return v
        null = np.zeros_like(cond)
        v_un = mlp_forward_np(params, np.concatenate([x, feats, null], axis=1), self.arch, "tanh")
        return cfg_velocity(v, v_un, cfg_scale)

    def velocity_var(self, tape: Tape, params: ParamSet, x: np.ndarray, t, cond: Var,
                     cfg_scale: float = 1.0) -> Var:
        """velocity_np on the tape, differentiable w.r.t. the net and `cond`."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        feats = time_features(np.broadcast_to(np.asarray(t, dtype=np.float64), (x.shape[0],)))
        xt = tape.leaf(np.concatenate([x, feats], axis=1))
        v = mlp_var(tape, params, tape.concat([xt, cond], axis=1), self.arch, "tanh")
        if cfg_scale == 1.0:
            return v
        null = tape.leaf(np.zeros(cond.shape))
        v_un = mlp_var(tape, params, tape.concat([xt, null], axis=1), self.arch, "tanh")
        return v_un + tape.cmul(v - v_un, cfg_scale)

    # ---- rollouts ----

    def hybrid_rollout(self, params: ParamSet, cond_seqs, times: np.ndarray, window_starts,
                       window_size: int, sigma_level: float, rngs,
                       cfg_scale: float = 1.0) -> FlowBatch:
        """Lockstep denoising of one trajectory per row from fresh noise, with
        one velocity_np call per step for all rows.  Row i conditions on
        cond_seqs[i] and draws its start point, then one noise vector per
        windowed step, from rngs[i].  Steps inside its window [window_starts[i],
        window_starts[i] + window_size) are stochastic and recorded with
        transition statistics; all others are plain Euler steps."""
        n = len(times) - 1
        for start in window_starts:
            if window_size < 0 or start < 0 or start + window_size > n:
                raise ConfigError(
                    f"SDE window [{start}, {start + window_size}) out of range for {n} steps"
                )
        starts = np.asarray(window_starts, dtype=np.int64)
        cond = self.cond_np(params, cond_seqs)
        x = np.stack([rng.standard_normal(DIM) for rng in rngs])
        steps: list[list[FlowStep]] = [[] for _ in rngs]
        for k in range(n):
            t = float(times[k])
            dt = float(times[k] - times[k + 1])
            v = self.velocity_np(params, x, t, cond, cfg_scale)
            x_next = x - v * dt
            mu = x_next.copy()
            sde = (starts <= k) & (k < starts + window_size)
            rows = np.flatnonzero(sde)
            s, sigma_t, logp = 0.0, 0.0, [None] * len(x)
            if rows.size:
                sigma_t = sigma_level * np.sqrt(t)
                eps = np.stack([rngs[i].standard_normal(DIM) for i in rows])
                mu[rows], s, x_next[rows] = sde_step_values(x[rows], v[rows], t, dt, sigma_t, eps)
                if s > 0.0:
                    for i, lp in zip(rows, transition_logprob(mu[rows], s, x_next[rows])):
                        logp[i] = float(lp)
            for i, row_steps in enumerate(steps):
                w = bool(sde[i])
                stats = (float(s), sigma_t) if w else (0.0, 0.0)
                row_steps.append(FlowStep(t, dt, x[i], x_next[i], v[i], mu[i], *stats, logp[i], w))
            x = x_next
        nev = n * evals_per_step(cfg_scale)
        return FlowBatch([
            FlowTrajectory(tuple(seq), tuple(range(start, start + window_size)), row_steps,
                           x[i], nev, cfg_scale)
            for i, (seq, start, row_steps) in enumerate(zip(cond_seqs, window_starts, steps))
        ], nev * len(steps))

    def ode_rollout_batch(self, params: ParamSet, cond_seqs, times: np.ndarray, x1: np.ndarray,
                          cfg_scale: float = 1.0):
        """Deterministic Euler sampling of every row of x1 at once; row i
        conditions on cond_seqs[i].

        Returns (x0 batch, visited states [(x, t), ...], velocity eval count).
        A guidance scale of exactly 1 collapses to the conditional branch and
        costs a single evaluation per step.
        """
        cond = self.cond_np(params, cond_seqs)
        x = np.atleast_2d(np.asarray(x1, dtype=np.float64)).copy()
        states: list[tuple[np.ndarray, float]] = []
        for k in range(len(times) - 1):
            t = float(times[k])
            dt = float(times[k] - times[k + 1])
            states.append((x.copy(), t))
            x = x - self.velocity_np(params, x, t, cond, cfg_scale) * dt
        nev = x.shape[0] * (len(times) - 1) * evals_per_step(cfg_scale)
        return x, states, nev

    # ---- flow-matching pretraining ----

    def fm_loss_frozen(
        self, params: ParamSet, x0: np.ndarray, cond_seqs, t: np.ndarray,
        x1: np.ndarray, keep: np.ndarray,
    ) -> tuple[float, GradSet]:
        """Rectified-flow regression with all randomness supplied by the caller:
        regress v(x_t, t, cond) onto x_1 - x_0 along the linear path.  `keep`
        zeroes the condition for unconditional-dropout rows."""
        xt = (1.0 - t)[:, None] * x0 + t[:, None] * x1
        target = x1 - x0
        tape = Tape()
        cond = self.cond_var(tape, params, cond_seqs)
        cond = tape.cmul(cond, keep[:, None])
        v = self.velocity_var(tape, params, xt, t, cond)
        diff = v - target
        loss = tape.sum(tape.sum_rows(tape.square(diff)) * (1.0 / len(x0)))
        tape.output = loss
        gs = GradSet(params)
        gs.add_(tape.param_grads(1.0))
        return float(loss.value), gs

    def fm_pretrain_loss(
        self, params: ParamSet, batch, rng: np.random.Generator, p_uncond: float = 0.0,
    ) -> tuple[float, GradSet]:
        """Draws (t, x_1, dropout) and evaluates the rectified-flow loss."""
        if not batch:
            raise ValueError("empty pretraining batch")
        x0 = np.stack([p.x0 for p in batch])
        cond_seqs = [p.cond_tokens for p in batch]
        t = 1.0 - rng.random(len(batch))  # Uniform(0, 1]
        x1 = rng.standard_normal((len(batch), DIM))
        keep = (rng.random(len(batch)) >= p_uncond).astype(np.float64)
        return self.fm_loss_frozen(params, x0, cond_seqs, t, x1, keep)

    def pretrain(
        self,
        params: ParamSet,
        pairs,
        epochs: int,
        lr: float,
        batch_size: int,
        p_uncond: float,
        rng: np.random.Generator,
    ):
        """Flow-matching pretraining plus a quadrant-accuracy report from
        deterministic sampling."""
        state = AdamState.for_params(params, lr=lr)
        epoch_losses = []
        n = len(pairs)
        for _ in range(epochs):
            order = rng.permutation(n)
            total, count = 0.0, 0
            for lo in range(0, n, batch_size):
                batch = [pairs[i] for i in order[lo : lo + batch_size]]
                loss, gs = self.fm_pretrain_loss(params, batch, rng, p_uncond)
                params = adam_step(params, gs, state)
                total += loss * len(batch)
                count += len(batch)
            epoch_losses.append(total / count)
        report = {"epoch_losses": epoch_losses}
        report.update(self.quadrant_accuracy(params, rng))
        return params, report

    def quadrant_accuracy(self, params: ParamSet, rng, n_per_cond: int = 200,
                          n_steps: int = 20, shift: float = 3.0) -> dict:
        """Fraction of deterministic samples landing in the conditioned quadrant."""
        from .task import all_tuples, canonical_trace, make_prompt, _QUAD_DIR

        times, _ = timestep_schedule(n_steps, shift)
        per_cond = {}
        for q, b, s in all_tuples():
            trace = canonical_trace(make_prompt(q, b, s))
            x1 = rng.standard_normal((n_per_cond, DIM))
            x0, _, _ = self.ode_rollout_batch(params, [trace] * n_per_cond, times, x1)
            d = _QUAD_DIR[q]
            ok = (np.sign(x0[:, 0]) == np.sign(d[0])) & (np.sign(x0[:, 1]) == np.sign(d[1]))
            per_cond[f"{q}-{b}-{s}"] = float(ok.mean())
        vals = list(per_cond.values())
        return {
            "quadrant_accuracy_mean": float(np.mean(vals)),
            "quadrant_accuracy_min": float(np.min(vals)),
            "quadrant_accuracy": per_cond,
        }

    # ---- GRPO surrogate ----

    def surrogate_loss(
        self,
        params: ParamSet,
        trajs: list[FlowTrajectory],
        advantages: np.ndarray,
        clip_eps: float,
        reg_mode: str,
        reg_weight: float,
        ref_params: ParamSet,
    ) -> tuple[float, GradSet, FlowLossStats]:
        """Clipped objective over each trajectory's stochastic window with
        standardized ratios, minus the configured drift regularizer evaluated
        at the stored states against the frozen reference.  Each trajectory
        weighs 1/len(trajs), so one call over several groups equals the mean
        of per-group calls."""
        G = len(trajs)
        assert len(advantages) == G
        base = trajs[0].times
        cfg_scale = trajs[0].cfg_scale
        for tr in trajs[1:]:
            if tr.times != base:
                raise ConfigError("trajectories in one batch must share a schedule")
            if tr.cfg_scale != cfg_scale:
                raise ConfigError("trajectories in one batch must share a guidance scale")
        if reg_mode not in ("none", "latent-kl", "velocity-mse"):
            raise ConfigError(f"unknown regularizer mode '{reg_mode}'")

        steps, adv_rows, w_rows, row_cond, origin = [], [], [], [], []
        for i, tr in enumerate(trajs):
            for k in tr.window:
                st = tr.steps[k]
                if st.s <= 0.0 or st.logp is None:
                    raise ConfigError(
                        f"windowed step {k} of trajectory {i} has no stochastic statistics"
                    )
                steps.append(st)
                adv_rows.append(advantages[i])
                w_rows.append(1.0 / (G * len(tr.window)))
                row_cond.append(tr.cond_tokens)
                origin.append((i, k))
        if not steps:
            raise ConfigError("no stochastic steps recorded in this batch")

        xs = np.stack([st.x for st in steps])
        ts = np.array([st.t for st in steps])
        dts = np.array([st.dt for st in steps])
        sig = np.array([st.sigma_t for st in steps])
        s_arr = np.array([st.s for st in steps])
        xn = np.stack([st.x_next for st in steps])
        mu_old = np.stack([st.mu for st in steps])
        logp_old = np.array([st.logp for st in steps])
        adv_rows = np.array(adv_rows)
        w_rows = np.array(w_rows)

        tape = Tape()
        v = self.velocity_var(tape, params, xs, ts, self.cond_var(tape, params, row_cond),
                              cfg_scale)
        coef = np.array([drift_coefficients(t, s) for t, s in zip(ts, sig)])
        c1, c2 = coef[:, :1], coef[:, 1:]
        f = tape.cmul(v, c1) + tape.leaf(c2 * xs)
        mu = tape.cadd(tape.cmul(f, -dts[:, None]), xs)

        inv_2s2 = 1.0 / (2.0 * s_arr**2)
        log_norm = -0.5 * DIM * np.log(2.0 * np.pi * s_arr**2)
        delta = tape.cadd(tape.cmul(mu, -1.0), xn)
        logp = tape.cadd(tape.cmul(tape.sum_rows(tape.square(delta)), -inv_2s2), log_norm)
        log_r = tape.cadd(logp, -logp_old)

        dmu = tape.cadd(tape.cmul(mu, -1.0), mu_old)
        corr = tape.cmul(tape.sum_rows(tape.square(dmu)), 1.0 / (2.0 * sig**2 * dts))
        log_rt = tape.cmul(log_r + corr, sig * np.sqrt(dts))
        rt = tape.exp(log_rt)

        bad = np.flatnonzero(~(np.isfinite(log_rt.value) & np.isfinite(rt.value)))
        if bad.size:
            ti, k = origin[bad[0]]
            raise NumericError(f"non-finite flow ratio at trajectory {ti}, step {k}")

        unclipped = rt * adv_rows
        clipped = tape.clip(rt, 1.0 - clip_eps, 1.0 + clip_eps) * adv_rows
        per_step = tape.minimum(unclipped, clipped)
        j = tape.sum(per_step * w_rows)

        reg_value = 0.0
        if reg_mode != "none":
            # frozen-reference velocities at the stored states, constant in theta
            v_ref = self.velocity_np(ref_params, xs, ts, self.cond_np(ref_params, row_cond),
                                     cfg_scale)
            if reg_mode == "velocity-mse":
                reg_rows = tape.sum_rows(tape.square(tape.cadd(v, -v_ref)))
            else:
                mu_ref = xs - (c1 * v_ref + c2 * xs) * dts[:, None]
                reg_rows = tape.cmul(
                    tape.sum_rows(tape.square(tape.cadd(mu, -mu_ref))),
                    1.0 / (2.0 * sig**2 * dts),
                )
            reg_value = float(reg_rows.value @ w_rows)
            j = j - tape.sum(reg_rows * (reg_weight * w_rows))
        tape.output = j

        gs = GradSet(params)
        gs.add_(tape.param_grads(1.0))
        stats = FlowLossStats(
            surrogate=float(j.value),
            mean_ratio=float(rt.value.mean()),
            max_ratio=float(rt.value.max()),
            clip_fraction=float(np.mean(np.abs(rt.value - 1.0) > clip_eps)),
            reg_value=reg_value,
            step_count=len(xs),
        )
        return float(j.value), gs, stats
