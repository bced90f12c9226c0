"""Flow generator: schedules, transitions, ratio normalization, rollouts, losses."""

import numpy as np
import pytest
from prompt_draws import prompt_id
from reference_ops import reference_branches, reference_velocity, trace_tokens

import unigrpo.flow_policy as flow_policy_mod
from unigrpo.errors import ConfigError, NumericError
from unigrpo.flow_policy import (
    DIM,
    N_TIME_FEATS,
    FlowPolicy,
    cfg_velocity,
    drift_coefficients,
    latent_kl,
    ratio_norm,
    sde_step_values,
    time_features,
    timestep_schedule,
    transition_logprob,
)
from unigrpo.nn import AdamState, adam_step, finite_diff_check
from unigrpo.rng import stream
from unigrpo.task import CANONICAL_TRACES, EOS, PAD, TaskGeometry, make_pretrain_data

POLICY = FlowPolicy()
GEOM = TaskGeometry()
TRACE = tuple(CANONICAL_TRACES[prompt_id(1, "near", "tight")])
# trace rows: a canonical trace, one filled without EOS, EOS alone, two tokens
ROWS = np.array([TRACE, (3, 3, 5, 7), (EOS, PAD, PAD, PAD), (7, EOS, PAD, PAD)])


def _tile(n):
    """n rows of the canonical trace TRACE."""
    return np.tile(TRACE, (n, 1))


def _prepared(batch, adv, reg_mode, reg_weight, ref_params, old_params):
    """A prepared batch whose old means a first surrogate call at
    `old_params`, the sampling parameters, took."""
    prepared = POLICY.prepare_batch(batch, adv, reg_mode, reg_weight, ref_params)
    POLICY.surrogate_loss(old_params, prepared, 0.0)
    return prepared


def _surrogate(params, batch, adv, clip_eps, reg_mode, reg_weight, ref_params, old_params=None):
    """One surrogate evaluation through a freshly prepared batch sampled at
    `old_params`, `params` when not given."""
    if old_params is None:
        prepared = POLICY.prepare_batch(batch, adv, reg_mode, reg_weight, ref_params)
    else:
        prepared = _prepared(batch, adv, reg_mode, reg_weight, ref_params, old_params)
    return POLICY.surrogate_loss(params, prepared, clip_eps)


def _cond(params, traces):
    """(len(traces), cond_dim) mean-pooled token embeddings, as the samplers pool them."""
    return POLICY.pool_weights(traces) @ params["cemb"]


def _params(seed=0):
    return POLICY.init_params(stream(seed, "init-flow"))


def _cond_branch(params, x, t, cond, cfg_scale):
    """The conditional-branch velocity a sampler stepping at cfg_scale keeps:
    the plain forward, or under guidance the conditional half of the stacked
    forward of both branches."""
    if cfg_scale == 1.0:
        return reference_velocity(POLICY, params, x, t, cond)
    return reference_branches(POLICY, params, x, t, cond)[0]


def _rollout(params, times, start, size, sigma, rng, cfg_scale=1.0):
    """One row through the batched sampler; its start point is the stream's
    first draw and its window noise the next."""
    x1 = rng.standard_normal((1, DIM))
    return POLICY.hybrid_rollout(
        params, _tile(1), times, x1, [start], size, sigma, rng.standard_normal((1, size, DIM)),
        cfg_scale,
    )


class TestSchedule:
    def test_shift_one_is_uniform(self):
        times, dts = timestep_schedule(4, 1.0)
        np.testing.assert_allclose(times, [1.0, 0.75, 0.5, 0.25, 0.0])
        np.testing.assert_allclose(dts, 0.25)

    def test_shift_three_midpoint(self):
        times, _ = timestep_schedule(2, 3.0)
        assert times[1] == pytest.approx(0.75)

    def test_endpoints_for_any_shift(self):
        for shift in (1.0, 2.0, 3.0, 7.5):
            times, dts = timestep_schedule(9, shift)
            assert times[0] == 1.0 and times[-1] == 0.0
            assert np.all(np.diff(times) < 0)
            assert np.all(dts > 0)


class TestTransitionLogprob:
    def test_standard_normal_at_zero(self):
        assert transition_logprob(np.zeros(1), 1.0, np.zeros(1)) == pytest.approx(
            -0.9189385332046727, abs=1e-10
        )

    def test_one_sigma_out(self):
        assert transition_logprob(np.zeros(1), 1.0, np.ones(1)) == pytest.approx(
            -1.4189385332046727, abs=1e-10
        )

    def test_symmetric(self):
        mu = np.array([0.3, -0.2])
        assert transition_logprob(mu, 0.5, mu + 0.1) == pytest.approx(
            transition_logprob(mu, 0.5, mu - 0.1)
        )

    def test_nonpositive_std_rejected(self):
        with pytest.raises(NumericError):
            transition_logprob(np.zeros(2), 0.0, np.zeros(2))


class TestRatioNorm:
    def test_on_policy_identity(self):
        assert ratio_norm(0.0, np.zeros(2), 0.7, 0.05) == 1.0

    def test_spot_value(self):
        # sigma=1, dt=0.04, log r=-0.5, ||dmu||^2=0.08:
        # correction = 1.0, bracket = 0.5, scale = 0.2 -> exp(0.1)
        dmu = np.array([np.sqrt(0.08), 0.0])
        assert ratio_norm(-0.5, dmu, 1.0, 0.04) == pytest.approx(np.exp(0.1), abs=1e-12)

    def test_centering_against_gaussian_identity(self):
        # E_old[log r] = -||dmu||^2 / (2 sigma^2 dt) for equal-variance Gaussians
        rng = stream(0, "center")
        sigma_t, dt = 0.8, 0.05
        s = sigma_t * np.sqrt(dt)
        mu_old = np.array([0.1, -0.2])
        mu_new = np.array([0.15, -0.12])
        dmu = mu_old - mu_new
        n = 100_000
        x = mu_old + s * rng.standard_normal((n, 2))
        log_r = (np.sum((x - mu_old) ** 2, 1) - np.sum((x - mu_new) ** 2, 1)) / (2 * s * s)
        bracket = log_r + np.sum(dmu**2) / (2 * sigma_t**2 * dt)
        se = bracket.std(ddof=1) / np.sqrt(n)
        assert abs(bracket.mean()) < 3 * se

    def test_zero_scale_rejected(self):
        with pytest.raises(NumericError):
            ratio_norm(0.0, np.zeros(2), 0.0, 0.04)


class TestRegularizers:
    def test_latent_kl_spot(self):
        # ||dmu||^2 = 0.02, sigma^2 dt = 0.04 -> 0.25
        dmu = np.array([np.sqrt(0.02), 0.0])
        assert latent_kl(dmu, np.zeros(2), 1.0, 0.04) == pytest.approx(0.25, abs=1e-12)

    def test_latent_kl_zero_at_equal_means(self):
        mu = np.array([0.4, 0.6])
        assert latent_kl(mu, mu, 0.5, 0.1) == 0.0

    def test_latent_kl_matches_monte_carlo(self):
        rng = stream(1, "kl")
        sigma_t, dt = 0.6, 0.08
        s = sigma_t * np.sqrt(dt)
        mu_t = np.array([0.2, -0.1])
        mu_r = np.array([0.05, 0.12])
        n = 100_000
        x = mu_t + s * rng.standard_normal((n, 2))
        log_ratio = (np.sum((x - mu_r) ** 2, 1) - np.sum((x - mu_t) ** 2, 1)) / (2 * s * s)
        se = log_ratio.std(ddof=1) / np.sqrt(n)
        kl = latent_kl(mu_t, mu_r, sigma_t, dt)
        assert abs(log_ratio.mean() - kl) < 3 * se

    def test_regularizer_ordering_exact_ratio(self):
        # When the drift difference is the velocity difference times c1(t),
        # latent KL = c1^2 dt / (2 sigma_t^2) * velocity MSE, exactly.
        t, dt, sigma_t = 0.6, 0.05, 0.7
        x = np.array([0.3, -0.6])
        v1 = np.array([0.4, 0.2])
        v2 = np.array([-0.1, 0.5])
        c1, c2 = drift_coefficients(t, sigma_t)
        mu1 = x - (c1 * v1 + c2 * x) * dt
        mu2 = x - (c1 * v2 + c2 * x) * dt
        kl = latent_kl(mu1, mu2, sigma_t, dt)
        mse = float(np.sum((v1 - v2) ** 2))
        assert kl == pytest.approx(c1**2 * dt / (2 * sigma_t**2) * mse, rel=1e-12)


class TestCfgVelocity:
    def test_scale_one_is_conditional(self):
        v_c, v_u = np.array([1.0, 2.0]), np.array([0.3, 0.4])
        np.testing.assert_array_equal(cfg_velocity(v_c, v_u, 1.0), v_c)

    def test_scale_zero_is_unconditional(self):
        v_c, v_u = np.array([1.0, 2.0]), np.array([0.3, 0.4])
        np.testing.assert_array_equal(cfg_velocity(v_c, v_u, 0.0), v_u)

    def test_extrapolation(self):
        np.testing.assert_allclose(
            cfg_velocity(np.array([1.0, 2.0]), np.zeros(2), 2.0), [2.0, 4.0]
        )


class TestVelocityNet:
    def test_zero_final_layer_gives_zero_velocity(self):
        params = _params()
        v = reference_velocity(POLICY, params, np.array([0.7, -0.3]), 0.5,
                               np.ones(POLICY.cond_dim))
        np.testing.assert_array_equal(v, np.zeros((1, DIM)))

    def test_deterministic(self):
        params = _params(1)
        params = params.with_blocks({"W2": _params(2)["W2"]})
        x, cond = np.array([0.1, 0.2]), np.ones(POLICY.cond_dim)
        v1 = reference_velocity(POLICY, params, x, 0.3, cond)
        v2 = reference_velocity(POLICY, params, x, 0.3, cond)
        np.testing.assert_array_equal(v1, v2)

    def test_guidance_combines_branches(self):
        # the unconditional branch is the conditional one at a zero
        # condition, both rows of one stacked forward
        params = _nontrivial_params(21)
        x = stream(21, "x").standard_normal((3, DIM))
        cond = _cond(params, _tile(3))
        v_c, v_u = reference_branches(POLICY, params, x, 0.4, cond)
        stacked = reference_velocity(POLICY, params, np.concatenate([x, x]), 0.4,
                                     np.concatenate([cond, np.zeros_like(cond)]))
        np.testing.assert_array_equal(np.concatenate([v_c, v_u]), stacked)
        np.testing.assert_array_equal(
            reference_velocity(POLICY, params, x, 0.4, cond, cfg_scale=2.0),
            cfg_velocity(v_c, v_u, 2.0),
        )


class TestPooling:
    # the fixed rows, then random ones of widths 1 to 7 with PAD and EOS
    # drawn often: PADs sampled before an EOS, rows filled without one
    CASES = [ROWS] + [stream(22, "rows").integers(0, 5, size=(40, w)) for w in range(1, 8)]

    @pytest.mark.parametrize("traces", CASES)
    def test_mean_of_embedding_rows(self, traces):
        # and the pooling weights, bit for bit: each row's shares summed in
        # token order, one row at a time
        params = _params(22)
        cond = _cond(params, traces)
        weights = np.zeros((len(traces), POLICY.vocab))
        for i, (row, trace) in enumerate(zip(cond, traces)):
            tokens = trace_tokens(trace)
            expected = params["cemb"][tokens].mean(axis=0)
            np.testing.assert_allclose(row, expected, rtol=0, atol=1e-15)
            for tok in tokens:
                weights[i, tok] += 1.0 / len(tokens)
        assert POLICY.pool_weights(traces).tobytes() == weights.tobytes()


class TestSdeStep:
    TIMES, _ = timestep_schedule(10, 3.0)

    def test_zero_noise_is_euler(self):
        params = _params(3)
        params = params.with_blocks({"W2": _params(4)["W2"]})
        cond = _cond(params, _tile(1))
        n = len(self.TIMES) - 1
        batch = _rollout(params, self.TIMES, 0, n, 0.0, stream(0, "sde"))
        assert batch.starts[0] == 0 and batch.mu.shape[1] == n
        for k in range(n):
            t, dt = float(self.TIMES[k]), float(self.TIMES[k] - self.TIMES[k + 1])
            v = reference_velocity(POLICY, params, batch.states[k], t, cond)
            np.testing.assert_array_equal(batch.states[k + 1], batch.states[k] - v * dt)
            np.testing.assert_array_equal(batch.mu[:, k], batch.states[k + 1])
        # no transition density exists at zero noise
        with pytest.raises(ConfigError, match="sigma_level 0"):
            _surrogate(params, batch, np.zeros(1), 0.2, "none", 0.0, params)

    def test_zero_drift_pure_noise(self):
        mu, s, x_next = sde_step_values(
            np.zeros(2), np.zeros(2), 0.5, 0.1, 0.8, np.array([1.0, -1.0])
        )
        np.testing.assert_array_equal(mu, np.zeros(2))
        np.testing.assert_allclose(x_next, s * np.array([1.0, -1.0]))

    def test_stored_stats_reproduce_logp(self):
        params = _params(5)
        params = params.with_blocks({"W2": _params(6)["W2"]})
        batch = _rollout(params, self.TIMES, 1, 3, 0.8, stream(1, "sde"))
        cond = _cond(params, _tile(1))
        for j in range(3):
            k = 1 + j
            t, dt = float(self.TIMES[k]), float(self.TIMES[k] - self.TIMES[k + 1])
            x = batch.states[k]
            v = reference_velocity(POLICY, params, x, t, cond)
            mu, s, _ = sde_step_values(x, v, t, dt, 0.8 * np.sqrt(t), np.zeros(DIM))
            np.testing.assert_array_equal(mu, batch.mu[:, j])
            assert transition_logprob(batch.mu[0, j], s, batch.states[k + 1, 0]) == pytest.approx(
                transition_logprob(mu[0], s, batch.states[k + 1, 0]), abs=1e-12
            )

    def test_t_zero_rejected(self):
        with pytest.raises((ConfigError, NumericError)):
            sde_step_values(np.zeros(2), np.zeros(2), 0.0, 0.1, 0.5, np.zeros(2))


def _nontrivial_params(seed=7):
    """Random params with a non-zero head so velocities are informative."""
    p = _params(seed)
    rng = stream(seed, "head")
    return p.with_blocks({
        "W2": rng.normal(0, 0.2, size=p["W2"].shape),
        "b2": rng.normal(0, 0.1, size=p["b2"].shape),
    })


class TestHybridRollout:
    TIMES, _ = timestep_schedule(10, 3.0)

    def test_window_size_zero_is_deterministic(self):
        params = _nontrivial_params()
        a = _rollout(params, self.TIMES, 0, 0, 0.8, stream(2, "r"))
        b = _rollout(params, self.TIMES, 0, 0, 0.8, stream(2, "r"))
        np.testing.assert_array_equal(a.states[-1], b.states[-1])
        assert a.mu.shape == (1, 0, DIM)

    def test_sigma_zero_full_window_matches_ode_bitwise(self):
        params = _nontrivial_params(8)
        n = len(self.TIMES) - 1
        sde = _rollout(params, self.TIMES, 0, n, 0.0, stream(3, "r"))
        x1 = stream(3, "r").standard_normal((1, DIM))
        ode = POLICY.ode_rollout_batch(params, _tile(1), self.TIMES, x1)
        np.testing.assert_array_equal(sde.states[-1], ode.states[-1])

    def test_velocity_eval_counts(self):
        params = _nontrivial_params(9)
        traj = _rollout(params, self.TIMES, 1, 3, 0.8, stream(4, "r"))
        assert traj.velocity_evals == 10
        traj_cfg = _rollout(params, self.TIMES, 1, 3, 0.8, stream(4, "r"), cfg_scale=2.0)
        assert traj_cfg.velocity_evals == 20
        # the batch total sums its members, whatever their windows
        rngs = [stream(4, "r", i) for i in range(3)]
        x1 = np.stack([rng.standard_normal(DIM) for rng in rngs])
        batch = POLICY.hybrid_rollout(
            params, ROWS[:3], self.TIMES, x1, [0, 2, 7], 3, 0.8,
            np.stack([rng.standard_normal((3, DIM)) for rng in rngs]), cfg_scale=2.0,
        )
        assert batch.evals_per_row == 20
        assert batch.velocity_evals == 60

    def test_window_shape(self):
        params = _nontrivial_params(10)
        batch = _rollout(params, self.TIMES, 2, 3, 0.8, stream(5, "r"))
        assert batch.starts.tolist() == [2] and batch.mu.shape == (1, 3, DIM)
        cond = _cond(params, _tile(1))
        euler = []
        for k in range(10):
            t, dt = float(self.TIMES[k]), float(self.TIMES[k] - self.TIMES[k + 1])
            v = reference_velocity(POLICY, params, batch.states[k], t, cond)
            euler.append(np.array_equal(batch.states[k + 1], batch.states[k] - v * dt))
            if k in (2, 3, 4):
                mu, s, _ = sde_step_values(batch.states[k, 0], v[0], t, dt, 0.8 * np.sqrt(t),
                                           np.zeros(DIM))
                logp = transition_logprob(batch.mu[0, k - 2], s, batch.states[k + 1, 0])
                assert s > 0 and np.isfinite(logp)
                assert logp == pytest.approx(
                    transition_logprob(mu, s, batch.states[k + 1, 0]), abs=1e-12
                )
        assert euler == [k not in (2, 3, 4) for k in range(10)]
        assert all(a > b for a, b in zip(batch.times, batch.times[1:]))

    def test_matches_per_row_reference_loop(self):
        # three rows whose windows open at the first step, mid-way and at the
        # last possible step, against one row at a time with the same streams:
        # the batch takes each row's window noise as one (size, DIM) draw, the
        # reference loop one DIM draw per step
        params = _nontrivial_params(12)
        seqs, starts, size, sigma = ROWS[:3], [0, 2, 7], 3, 0.8
        rngs = [stream(12, "ref", i) for i in range(3)]
        x1 = np.stack([rng.standard_normal(DIM) for rng in rngs])
        eps = np.stack([rng.standard_normal((size, DIM)) for rng in rngs])
        batch = POLICY.hybrid_rollout(params, seqs, self.TIMES, x1, starts, size, sigma, eps)
        for i, (seq, start) in enumerate(zip(seqs, starts)):
            rng = stream(12, "ref", i)
            x = rng.standard_normal(DIM)
            cond = _cond(params, seq[None])
            np.testing.assert_allclose(batch.states[0, i], x, rtol=0, atol=1e-12)
            for k in range(len(self.TIMES) - 1):
                t, dt = float(self.TIMES[k]), float(self.TIMES[k] - self.TIMES[k + 1])
                v = reference_velocity(POLICY, params, x, t, cond)[0]
                if start <= k < start + size:
                    mu, s, x = sde_step_values(x, v, t, dt, sigma * np.sqrt(t),
                                               rng.standard_normal(DIM))
                    np.testing.assert_allclose(batch.mu[i, k - start], mu, rtol=0, atol=1e-12)
                    logp = transition_logprob(batch.mu[i, k - start], s, batch.states[k + 1, i])
                    assert abs(logp - transition_logprob(mu, s, x)) <= 1e-12
                else:
                    x = x - v * dt
                np.testing.assert_allclose(batch.states[k + 1, i], x, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("cfg_scale", [1.0, 2.0])
    def test_keeps_conditional_branch_velocities(self, cfg_scale):
        # velocities[k] is the conditional branch at states[k], bit for bit,
        # whatever the guidance scale the sampler steps with (under guidance
        # the half of the stacked forward); take keeps each row's velocities
        # with its states
        params = _nontrivial_params(13)
        seqs, starts = ROWS[:3], [0, 2, 7]
        x1 = stream(13, "x1").standard_normal((3, DIM))
        eps = stream(13, "eps").standard_normal((3, 3, DIM))
        cond = _cond(params, seqs)
        for batch in (
            POLICY.hybrid_rollout(params, seqs, self.TIMES, x1, starts, 3, 0.8, eps, cfg_scale),
            POLICY.ode_rollout_batch(params, seqs, self.TIMES, x1, cfg_scale),
        ):
            assert batch.velocities.shape == (10, 3, DIM)
            for k in range(10):
                v = _cond_branch(params, batch.states[k], self.TIMES[k], cond, cfg_scale)
                np.testing.assert_array_equal(batch.velocities[k], v)
            parts = batch.take(np.array([1, 2, 0]))
            np.testing.assert_array_equal(parts.velocities, batch.velocities[:, [1, 2, 0]])
            np.testing.assert_array_equal(parts.states, batch.states[:, [1, 2, 0]])

    def test_keeps_pooling_weights_of_the_traces(self):
        # pool[i] is row i's pooling weights, bit for bit, and take keeps
        # them with their rows
        params = _nontrivial_params(16)
        seqs = ROWS[[0, 1, 2, 3, 0]]
        x1 = stream(16, "x1").standard_normal((5, DIM))
        eps = stream(16, "eps").standard_normal((5, 2, DIM))
        for batch in (
            POLICY.hybrid_rollout(params, seqs, self.TIMES, x1, [0, 1, 2, 3, 8], 2, 0.8, eps),
            POLICY.ode_rollout_batch(params, seqs, self.TIMES, x1, 2.0),
        ):
            assert batch.pool.tobytes() == POLICY.pool_weights(seqs).tobytes()
            parts = batch.take(np.array([3, 4, 0, 1, 2]))
            assert parts.pool.tobytes() == POLICY.pool_weights(seqs[[3, 4, 0, 1, 2]]).tobytes()
            np.testing.assert_array_equal(parts.states, batch.states[:, [3, 4, 0, 1, 2]])

    def test_window_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            POLICY.hybrid_rollout(_params(), _tile(2), self.TIMES, np.zeros((2, DIM)),
                                  [0, 9], 3, 0.8, np.zeros((2, 3, DIM)))

    def test_ode_guidance_scale_controls_eval_count(self):
        params = _nontrivial_params(11)
        x1 = stream(6, "x1").standard_normal((5, 2))
        n_plain = POLICY.ode_rollout_batch(params, _tile(5), self.TIMES, x1).velocity_evals
        n_guided = POLICY.ode_rollout_batch(
            params, _tile(5), self.TIMES, x1, cfg_scale=1.5
        ).velocity_evals
        assert n_plain == 5 * 10
        assert n_guided == 2 * 5 * 10



def _step_loop_reference(params, seqs, times, x1, starts, size, sigma, eps, cfg_scale):
    """The lockstep sampler as it ran before it built the velocity-net inputs
    once per pass: one reference_velocity call per step over every row, then
    the noise-injected step row by row inside each window."""
    n, B = len(times) - 1, len(seqs)
    cond = _cond(params, seqs)
    states, velocities = [np.asarray(x1, dtype=np.float64)], []
    mu = np.zeros((B, size, DIM))
    for k in range(n):
        t, dt = float(times[k]), float(times[k] - times[k + 1])
        x = states[-1]
        velocities.append(_cond_branch(params, x, t, cond, cfg_scale))
        v = reference_velocity(POLICY, params, x, t, cond, cfg_scale)
        nxt = x - v * dt
        for i in range(B):
            j = k - starts[i]
            if 0 <= j < size:
                mu[i, j], _, nxt[i] = sde_step_values(x[i], v[i], t, dt, sigma * np.sqrt(t),
                                                      eps[i, j])
        states.append(nxt)
    return np.stack(states), np.stack(velocities), mu


class TestVelocityInputs:
    """The samplers build the velocity net's input rows once per pass: the
    time features of the whole schedule in one call, the condition columns
    once, and each step writes only its states and its feature row."""

    TIMES, _ = timestep_schedule(10, 3.0)

    @pytest.mark.parametrize("windowed", [False, True])
    @pytest.mark.parametrize("cfg_scale", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("B", [1, 32, 128])
    def test_rollouts_match_per_step_reference_bit_for_bit(self, B, cfg_scale, windowed):
        params = _nontrivial_params(40)
        rng = stream(40, "inputs", B)
        seqs = np.tile(ROWS, (B // 4, 1)) if B > 1 else _tile(1)
        x1 = rng.standard_normal((B, DIM))
        if windowed:
            starts, size, sigma = rng.integers(0, 8, size=B), 3, 0.8
            eps = rng.standard_normal((B, size, DIM))
            batch = POLICY.hybrid_rollout(params, seqs, self.TIMES, x1, starts, size, sigma, eps,
                                          cfg_scale)
        else:
            starts, size, sigma, eps = np.zeros(B, dtype=np.int64), 0, 0.0, np.zeros((B, 0, DIM))
            batch = POLICY.ode_rollout_batch(params, seqs, self.TIMES, x1, cfg_scale)
        states, velocities, mu = _step_loop_reference(params, seqs, self.TIMES, x1, starts, size,
                                                      sigma, eps, cfg_scale)
        np.testing.assert_array_equal(batch.states, states)
        np.testing.assert_array_equal(batch.velocities, velocities)
        np.testing.assert_array_equal(batch.mu, mu)

    @pytest.mark.parametrize("cfg_scale", [1.0, 2.0])
    @pytest.mark.parametrize("case", ["nonfinite-x1", "whole-schedule", "sigma-zero"])
    def test_window_edge_cases_match_reference_bit_for_bit(self, case, cfg_scale):
        # the step-major window against the row-by-row loop: rows starting at
        # +-inf and NaN (every step computes every row's transition mean, and
        # only the rows inside may take it), one window over every step, and
        # zero noise
        params = _nontrivial_params(44)
        n, B = len(self.TIMES) - 1, 12
        rng = stream(44, f"edge-{case}")
        seqs = np.tile(ROWS, (B // 4, 1))
        x1 = rng.standard_normal((B, DIM))
        size, sigma = 3, 0.8
        if case == "nonfinite-x1":
            x1[[1, 4, 6, 9]] = [[np.inf, 0.3], [-0.2, -np.inf], [np.nan, 1.0], [np.inf, np.nan]]
        elif case == "whole-schedule":
            size = n
        else:
            sigma = 0.0
        starts = rng.integers(0, n - size + 1, size=B)
        eps = rng.standard_normal((B, size, DIM))
        with np.errstate(invalid="ignore", over="ignore"):
            batch = POLICY.hybrid_rollout(params, seqs, self.TIMES, x1, starts, size, sigma, eps,
                                          cfg_scale)
            states, velocities, mu = _step_loop_reference(params, seqs, self.TIMES, x1, starts,
                                                          size, sigma, eps, cfg_scale)
        assert np.isfinite(states).all() == (case != "nonfinite-x1")
        assert np.array_equal(batch.states, states, equal_nan=True)
        assert np.array_equal(batch.velocities, velocities, equal_nan=True)
        assert np.array_equal(batch.mu, mu, equal_nan=True)

    @pytest.mark.parametrize("cfg_scale", [2.0, 3.0])
    @pytest.mark.parametrize("B", [*range(1, 10), 15])
    def test_guided_row_counts_match_stacked_reference_bit_for_bit(self, B, cfg_scale):
        # one forward over both branches' stacked rows, at row counts whose
        # branches BLAS may round differently from separate calls
        params = _nontrivial_params(45)
        rng = stream(45, "guided", B)
        seqs = ROWS[np.arange(B) % len(ROWS)]
        x1 = rng.standard_normal((B, DIM))
        starts, eps = rng.integers(0, 8, size=B), rng.standard_normal((B, 3, DIM))
        for batch, (size, sigma) in (
            (POLICY.hybrid_rollout(params, seqs, self.TIMES, x1, starts, 3, 0.8, eps, cfg_scale),
             (3, 0.8)),
            (POLICY.ode_rollout_batch(params, seqs, self.TIMES, x1, cfg_scale), (0, 0.0)),
        ):
            states, velocities, mu = _step_loop_reference(
                params, seqs, self.TIMES, x1, starts, size, sigma, eps[:, :size], cfg_scale)
            np.testing.assert_array_equal(batch.states, states)
            np.testing.assert_array_equal(batch.velocities, velocities)
            np.testing.assert_array_equal(batch.mu, mu)

    def test_feature_table_matches_per_step_features(self):
        # every schedule the parser accepts up to 100 steps: n_steps >= 1 and
        # any finite shift >= 1, here a grid plus random shifts; the per-step
        # features are taken as the samplers took them, over t broadcast to
        # every row
        shifts = [1.0, 1.5, 3.0, 7.0, 1.0 + stream(41, "shift").exponential(3.0)]
        for n in range(1, 101):
            for shift in shifts:
                times, _ = timestep_schedule(n, shift)
                table = time_features(times[:-1])
                assert table.shape == (n, N_TIME_FEATS)
                for rows in (1, 32, 128):
                    per_step = np.stack([time_features(np.broadcast_to(t, (rows,)))
                                         for t in times[:-1]])
                    same = np.array_equal(per_step, np.broadcast_to(table[:, None], per_step.shape))
                    assert same, (n, shift, rows)

    def test_velocity_rows_match_reference(self):
        # velocity_np takes the rows as they are and leaves them unchanged;
        # cond_out receives the conditional branch under guidance too
        params = _nontrivial_params(42)
        x = stream(42, "x").standard_normal((5, DIM))
        cond = _cond(params, ROWS[[0, 1, 2, 3, 0]])
        rows = np.concatenate([x, time_features(np.full(5, 0.3)), cond], axis=1)
        before = rows.copy()
        for cfg_scale in (1.0, 2.0, 3.0):
            cond_out = np.empty((5, DIM))
            v = POLICY.velocity_np(params, rows, cfg_scale, cond_out)
            np.testing.assert_array_equal(
                v, reference_velocity(POLICY, params, x, 0.3, cond, cfg_scale))
            np.testing.assert_array_equal(cond_out, _cond_branch(params, x, 0.3, cond, cfg_scale))
            np.testing.assert_array_equal(rows, before)

    @pytest.mark.parametrize("cfg_scale", [1.0, 2.0])
    def test_one_feature_table_per_pass(self, cfg_scale, monkeypatch):
        # one time_features call per denoising pass and per prepared batch;
        # one velocity_np call per step, over all B rows
        params = _nontrivial_params(43)
        feature_calls, velocity_rows = [], []
        real_features, real_velocity = flow_policy_mod.time_features, FlowPolicy.velocity_np

        def features(t):
            feature_calls.append(np.size(t))
            return real_features(t)

        def velocity(self, params, rows, *args, **kwargs):
            velocity_rows.append(len(rows))
            return real_velocity(self, params, rows, *args, **kwargs)

        monkeypatch.setattr(flow_policy_mod, "time_features", features)
        monkeypatch.setattr(FlowPolicy, "velocity_np", velocity)
        B, n = 6, len(self.TIMES) - 1
        x1 = stream(43, "x1").standard_normal((B, DIM))
        eps = stream(43, "eps").standard_normal((B, 3, DIM))
        batch = POLICY.hybrid_rollout(params, _tile(B), self.TIMES, x1, [0, 1, 2, 3, 4, 7], 3,
                                      0.8, eps, cfg_scale)
        assert feature_calls == [n] and velocity_rows == [B] * n
        del feature_calls[:], velocity_rows[:]
        POLICY.ode_rollout_batch(params, _tile(B), self.TIMES, x1, cfg_scale)
        assert feature_calls == [n] and velocity_rows == [B] * n
        for reg_mode, n_ref in (("none", 0), ("latent-kl", 1), ("velocity-mse", 1)):
            del feature_calls[:], velocity_rows[:]
            POLICY.prepare_batch(batch, np.ones(B), reg_mode, 1.0, params)
            assert feature_calls == [B * 3] and velocity_rows == [B * 3] * n_ref


class TestPretraining:
    def test_perfect_predictor_zero_loss(self):
        # degenerate data: x0 == x1 forces target 0; the zero-initialized head
        # already predicts 0 everywhere
        params = _params(11)
        x0 = np.array([[0.3, -0.4]])
        t = np.array([0.5])
        pool = POLICY.pool_weights(_tile(1))
        loss, _ = POLICY.fm_loss_frozen(params, x0, pool, t, x0.copy())
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        params = _nontrivial_params(12)
        rng = stream(6, "fm")
        x0s = []
        for _ in range(6):
            x0s.append(rng.normal(size=2))
        x0 = np.stack(x0s)
        t = 1.0 - rng.random(6)
        x1 = rng.standard_normal((6, 2))
        pool = POLICY.pool_weights(_tile(6))
        pool[0] = 0.0  # row 0's condition dropped

        def loss(p):
            return POLICY.fm_loss_frozen(p, x0, pool, t, x1)

        report = finite_diff_check(loss, params, probes=100, tol=1e-4, rng=stream(7, "fd"))
        assert report.passed, (report.max_rel_err, report.failing_blocks)

    def test_columns_match_per_batch_pooling_bit_for_bit(self):
        # reference: each batch's x0 stacked and pooling weights built from
        # its own rows, with the same draws in the same order
        _, (conds, x0) = make_pretrain_data(36, 1, 300, GEOM)
        params, report = POLICY.pretrain(
            _params(37), conds, x0, epochs=2, lr=3e-3, batch_size=64, p_uncond=0.2,
            rng=stream(38, "sh"),
        )
        ref, rng = _params(37), stream(38, "sh")
        state = AdamState.for_params(ref, lr=3e-3)
        losses = []
        for _ in range(2):
            order = rng.permutation(len(conds))
            total = 0.0
            for lo in range(0, len(conds), 64):
                batch = order[lo : lo + 64]
                t = 1.0 - rng.random(len(batch))
                x1 = rng.standard_normal((len(batch), DIM))
                keep = (rng.random(len(batch)) >= 0.2).astype(np.float64)
                loss, gs = POLICY.fm_loss_frozen(
                    ref, np.stack([x0[i] for i in batch]),
                    POLICY.pool_weights(np.stack([conds[i] for i in batch])) * keep[:, None],
                    t, x1,
                )
                ref = adam_step(ref, gs, state)
                total += loss * len(batch)
            losses.append(total / len(conds))
        assert params.vec.tobytes() == ref.vec.tobytes()
        assert report["epoch_losses"] == losses

    def test_pretraining_learns_the_task(self):
        _, (conds, x0) = make_pretrain_data(30, 1, 4096, GEOM)
        params, report = POLICY.pretrain(
            _params(31), conds, x0, epochs=40, lr=3e-3, batch_size=256,
            p_uncond=0.1, rng=stream(32, "sh"),
        )
        losses = report["epoch_losses"]
        assert losses[-1] < losses[0]
        assert report["quadrant_accuracy_min"] >= 0.9

    def test_learns_analytic_velocity_on_single_gaussian(self):
        # single Gaussian target: the optimal velocity field is affine and
        # known in closed form under the linear path
        mu0 = np.array([0.5, -0.3])
        tau = 0.4
        rng = stream(33, "gauss")
        x0 = np.array([mu0 + tau * rng.standard_normal(2) for _ in range(4096)])
        params, _ = POLICY.pretrain(
            _params(34), _tile(len(x0)), x0, epochs=40, lr=3e-3, batch_size=256,
            p_uncond=0.0, rng=stream(35, "sh"),
        )

        def v_star(x, t):
            rho2 = (1 - t) ** 2 * tau**2 + t**2
            alpha = (t - (1 - t) * tau**2) / rho2
            return alpha * (x - (1 - t) * mu0) - mu0

        cond = _cond(params, _tile(1))
        errs = []
        for _ in range(500):
            t = float(1.0 - rng.random())
            rho = np.sqrt((1 - t) ** 2 * tau**2 + t**2)
            x = (1 - t) * mu0 + rho * rng.standard_normal(2)
            v = reference_velocity(POLICY, params, x, t, cond)[0]
            errs.append(np.sum((v - v_star(x, t)) ** 2))
        assert np.mean(errs) < 0.05


def _rollout_group(params, g=4, seed=0, sigma=0.8, cfg_scale=1.0):
    times, _ = timestep_schedule(10, 3.0)
    rngs = [stream(seed, "roll", i) for i in range(g)]
    starts = [int(rng.integers(0, 4)) for rng in rngs]
    x1 = np.stack([rng.standard_normal(DIM) for rng in rngs])
    eps = np.stack([rng.standard_normal((3, DIM)) for rng in rngs])
    return POLICY.hybrid_rollout(
        params, _tile(g), times, x1, starts, 3, sigma, eps, cfg_scale=cfg_scale
    )


class TestFlowSurrogate:
    def test_on_policy_identity(self):
        params = _nontrivial_params(13)
        batch = _rollout_group(params)
        adv = np.array([1.0, -0.5, 0.25, -0.75])
        j, _, stats = _surrogate(
            params, batch, adv, clip_eps=1e-4, reg_mode="none", reg_weight=0.0,
            ref_params=params,
        )
        assert j == pytest.approx(adv.mean(), abs=1e-12)
        assert stats.clip_fraction == 0.0

    @pytest.mark.parametrize("cfg_scale", [1.0, 2.0])
    @pytest.mark.parametrize("reg_mode,weight", [
        ("none", 0.0), ("latent-kl", 0.02), ("velocity-mse", 0.5),
    ])
    def test_first_epoch_ratios_are_one(self, cfg_scale, reg_mode, weight):
        # scored at the sampling parameters, every window step's ratio is
        # exactly 1; a clip range of 0 counts every one that is not
        params = _nontrivial_params(21)
        batch = _rollout_group(params, g=16, seed=6, cfg_scale=cfg_scale)
        _, _, stats = _surrogate(
            params, batch, np.ones(16), 0.0, reg_mode, weight, _nontrivial_params(22),
        )
        assert stats.clip_fraction == 0.0
        assert stats.max_ratio == 1.0

    def test_velocity_mse_zero_at_reference(self):
        params = _nontrivial_params(14)
        batch = _rollout_group(params, seed=1)
        adv = np.zeros(4)
        j, _, stats = _surrogate(
            params, batch, adv, 1e-4, "velocity-mse", 0.5, ref_params=params,
        )
        assert stats.reg_value == pytest.approx(0.0, abs=1e-12)
        assert j == pytest.approx(0.0, abs=1e-12)

    def test_matches_independent_scalar_recomputation(self):
        # second route: rebuild the objective from the stored statistics with
        # the standalone scalar helpers
        params = _nontrivial_params(15)
        moved = params.with_blocks({"b2": params["b2"] + 0.02})
        batch = _rollout_group(params, seed=2)
        adv = np.array([0.8, -0.4, 0.1, -0.5])
        eps = 0.05
        j, _, _ = _surrogate(moved, batch, adv, eps, "none", 0.0, params, old_params=params)

        B, W = batch.mu.shape[:2]
        total = 0.0
        for i in range(B):
            acc = 0.0
            cond = batch.pool[i:i + 1] @ moved["cemb"]
            for w in range(W):
                k = batch.starts[i] + w
                t, dt = float(batch.times[k]), float(batch.times[k] - batch.times[k + 1])
                sigma_t = batch.sigma_level * np.sqrt(t)
                x, x_next = batch.states[k, i], batch.states[k + 1, i]
                v = reference_velocity(POLICY, moved, x, t, cond)[0]
                c1, c2 = drift_coefficients(t, sigma_t)
                mu = x - (c1 * v + c2 * x) * dt
                s = sigma_t * np.sqrt(dt)
                log_r = (transition_logprob(mu, s, x_next)
                         - transition_logprob(batch.mu[i, w], s, x_next))
                rt = ratio_norm(log_r, batch.mu[i, w] - mu, sigma_t, dt)
                acc += min(rt * adv[i], np.clip(rt, 1 - eps, 1 + eps) * adv[i])
            total += acc / W
        assert j == pytest.approx(total / B, rel=1e-10)

    @pytest.mark.parametrize("reg_mode,weight", [
        ("none", 0.0), ("latent-kl", 0.02), ("velocity-mse", 0.5),
    ])
    def test_gradient_matches_finite_differences(self, reg_mode, weight):
        params = _nontrivial_params(16)
        ref = _nontrivial_params(17)
        batch = _rollout_group(params, g=3, seed=3)
        adv = np.array([1.0, -0.3, 0.6])
        moved = params.with_blocks({"b2": params["b2"] + 0.01})
        prepared = _prepared(batch, adv, reg_mode, weight, ref, params)

        def loss(p):
            j, gs, _ = POLICY.surrogate_loss(p, prepared, 0.2)
            return j, gs

        report = finite_diff_check(loss, moved, probes=100, tol=1e-4, rng=stream(8, "fd"))
        assert report.passed, (report.max_rel_err, report.failing_blocks)

    def test_cfg_trained_group_gradient(self):
        params = _nontrivial_params(18)
        batch = _rollout_group(params, g=2, seed=4, cfg_scale=2.0)
        adv = np.array([0.5, -0.5])
        moved = params.with_blocks({"b2": params["b2"] + 0.01})
        prepared = _prepared(batch, adv, "velocity-mse", 0.1, params, params)

        def loss(p):
            j, gs, _ = POLICY.surrogate_loss(p, prepared, 0.2)
            return j, gs

        report = finite_diff_check(loss, moved, probes=60, tol=1e-4, rng=stream(9, "fd"))
        assert report.passed, (report.max_rel_err, report.failing_blocks)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_ratio_names_step(self):
        # the rollout's non-finite mean is refused before any arithmetic on
        # it, so numpy warns of no invalid value first
        params = _nontrivial_params(20)
        batch = _rollout_group(params, g=2, seed=5)
        batch.mu[1, 0] = np.inf
        with pytest.raises(NumericError, match=f"trajectory 1, step {batch.starts[1]}"):
            _surrogate(params, batch, np.zeros(2), 0.2, "none", 0.0, params)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_nonfinite_next_state_names_step(self, value):
        params = _nontrivial_params(20)
        batch = _rollout_group(params, g=2, seed=5)
        k = batch.starts[0] + 2
        batch.states[k + 1, 0, 1] = value
        with pytest.raises(NumericError, match=f"trajectory 0, step {k}"):
            _surrogate(params, batch, np.zeros(2), 0.2, "velocity-mse", 0.5, params)
