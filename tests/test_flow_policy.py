"""Flow generator: schedules, transitions, ratio normalization, rollouts, losses."""

from dataclasses import fields, replace

import numpy as np
import pytest
from prompt_draws import prompt_id
from reference_ops import (latent_kl, ratio_norm, reference_branches, reference_velocity,
                           sde_step_values, trace_tokens, transition_logprob)

import unigrpo.flow_policy as flow_policy_mod
from unigrpo.config import TrainConfig
from unigrpo.errors import NumericError
from unigrpo.flow_policy import (
    DIM,
    N_TIME_FEATS,
    FlowPolicy,
    cfg_velocity,
    drift_coefficients,
    step_table,
    time_features,
    timestep_schedule,
)
from unigrpo.nn import AdamState, adam_step, mlp_forward_np
from unigrpo.rng import stream
from unigrpo.task import CANONICAL_TRACES, EOS, PAD, make_pretrain_data
from unigrpo.trainer import make_runtime
from unigrpo.verify import finite_diff_check

POLICY = make_runtime(TrainConfig()).flow_policy  # at the config's default sizes
TRACE = tuple(CANONICAL_TRACES[prompt_id(1, "near", "tight")])
# trace rows: a canonical trace, one filled without EOS, EOS alone, two tokens
ROWS = np.array([TRACE, (3, 3, 5, 7), (EOS, PAD, PAD, PAD), (7, EOS, PAD, PAD)])


def _tile(n):
    """n rows of the canonical trace TRACE."""
    return np.tile(TRACE, (n, 1))


def _prepared(batch, adv, reg_mode, reg_weight, ref_params, old_params):
    """A prepared batch whose old means a first surrogate call at
    `old_params`, the sampling parameters, took."""
    prepared = POLICY.prepare_batch(batch, np.arange(len(adv)), adv, reg_mode, reg_weight,
                                    ref_params)
    POLICY.surrogate_loss(old_params, prepared, 0.0)
    return prepared


def _surrogate(params, batch, adv, clip_eps, reg_mode, reg_weight, ref_params, old_params=None):
    """One surrogate evaluation through a freshly prepared batch sampled at
    `old_params`, `params` when not given."""
    if old_params is None:
        prepared = POLICY.prepare_batch(batch, np.arange(len(adv)), adv, reg_mode, reg_weight,
                                        ref_params)
    else:
        prepared = _prepared(batch, adv, reg_mode, reg_weight, ref_params, old_params)
    return POLICY.surrogate_loss(params, prepared, clip_eps)


def _cond(params, traces):
    """(len(traces), cond_dim) mean-pooled token embeddings, as the samplers pool them."""
    return POLICY.pool_weights(traces) @ params["cemb"]


def _params(seed=0):
    return POLICY.init_params(stream(seed, "init-flow"))


def _rollout(params, times, start, size, sigma, rng, cfg_scale=1.0):
    """One row through the batched sampler; its start point is the stream's
    first draw and its window noise the next."""
    x1 = rng.standard_normal((1, DIM))
    return POLICY.hybrid_rollout(
        params, _tile(1), step_table(times, sigma), x1, [start], size,
        rng.standard_normal((1, size, DIM)), cfg_scale,
    )


class TestSchedule:
    def test_shift_one_is_uniform(self):
        times = timestep_schedule(4, 1.0)
        np.testing.assert_allclose(times, [1.0, 0.75, 0.5, 0.25, 0.0])
        np.testing.assert_allclose(times[:-1] - times[1:], 0.25)

    def test_shift_three_midpoint(self):
        times = timestep_schedule(2, 3.0)
        assert times[1] == pytest.approx(0.75)

    def test_endpoints_for_any_shift(self):
        for shift in (1.0, 2.0, 3.0, 7.5):
            times = timestep_schedule(9, shift)
            assert times[0] == 1.0 and times[-1] == 0.0
            assert np.all(np.diff(times) < 0)
            assert np.all(times[:-1] - times[1:] > 0)


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


class TestRatioNorm:
    def test_on_policy_identity(self):
        assert ratio_norm(0.0, np.zeros(2), 0.7, 0.05) == 1.0

    def test_spot_value(self):
        # sigma=1, dt=0.04, log r=-0.5, ||dmu||^2=0.08:
        # correction = 1.0, bracket = 0.5, scale = 0.2 -> exp(0.1)
        dmu = np.array([np.sqrt(0.08), 0.0])
        assert ratio_norm(-0.5, dmu, 1.0, 0.04) == pytest.approx(np.exp(0.1), abs=1e-12)


class TestRegularizers:
    def test_latent_kl_spot(self):
        # ||dmu||^2 = 0.02, sigma^2 dt = 0.04 -> 0.25
        dmu = np.array([np.sqrt(0.02), 0.0])
        assert latent_kl(dmu, np.zeros(2), 1.0, 0.04) == pytest.approx(0.25, abs=1e-12)

    def test_latent_kl_zero_at_equal_means(self):
        mu = np.array([0.4, 0.6])
        assert latent_kl(mu, mu, 0.5, 0.1) == 0.0

    @pytest.mark.parametrize("cfg_scale", [1.0, 2.0])
    def test_latent_kl_penalty_is_the_kl_of_the_step_means(self, cfg_scale):
        # the transitions at theta and at the reference share their variance,
        # so the kappa-weighted velocity penalty the surrogate subtracts at
        # weight 1 is the row-weighted latent_kl of their scalar step means
        params, ref = _nontrivial_params(23), _nontrivial_params(24)
        batch = _rollout_group(params, g=4, seed=7, cfg_scale=cfg_scale)
        _, _, stats = _surrogate(params, batch, np.ones(4), 0.2, "latent-kl", 1.0, ref)
        (B, W), times = batch.mu.shape[:2], batch.steps.times
        total = 0.0
        for i in range(B):
            for w in range(W):
                k = batch.starts[i] + w
                t, dt = float(times[k]), float(times[k] - times[k + 1])
                sigma_t, x = batch.steps.sigma_level * np.sqrt(t), batch.states[k, i]
                mu, mu_ref = (
                    sde_step_values(x, reference_velocity(POLICY, p, x, t, _cond(p, _tile(1)),
                                                          cfg_scale)[0], t, dt, sigma_t, 0.0)[0]
                    for p in (params, ref))
                total += latent_kl(mu, mu_ref, sigma_t, dt) / (B * W)
        assert stats.reg_value > 0.0
        assert stats.reg_value == pytest.approx(total, rel=1e-10)


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
        # condition, each branch its own forward
        params = _nontrivial_params(21)
        x = stream(21, "x").standard_normal((3, DIM))
        cond = _cond(params, _tile(3))
        v_c, v_u = reference_branches(POLICY, params, x, 0.4, cond)
        feats = time_features(np.full(3, 0.4))
        for v, c in ((v_c, cond), (v_u, np.zeros_like(cond))):
            np.testing.assert_array_equal(
                v, mlp_forward_np(params, np.concatenate([x, feats, c], axis=1), POLICY.arch))
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
    TIMES = timestep_schedule(10, 3.0)

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


def _nontrivial_params(seed=7):
    """Random params with a non-zero head so velocities are informative."""
    p = _params(seed)
    rng = stream(seed, "head")
    return p.with_blocks({
        "W2": rng.normal(0, 0.2, size=p["W2"].shape),
        "b2": rng.normal(0, 0.1, size=p["b2"].shape),
    })


class TestHybridRollout:
    TIMES = timestep_schedule(10, 3.0)
    STEPS, ODE = step_table(TIMES, 0.8), step_table(TIMES)

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
        ode = POLICY.ode_rollout_batch(params, _tile(1), self.ODE, x1)
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
            params, ROWS[:3], self.STEPS, x1, [0, 2, 7], 3,
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
        assert all(a > b for a, b in zip(batch.steps.times, batch.steps.times[1:]))

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
        batch = POLICY.hybrid_rollout(params, seqs, step_table(self.TIMES, sigma), x1, starts,
                                      size, eps)
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
    def test_keeps_drift_from_the_reference(self, cfg_scale):
        # with a reference, drift[k] is each row's squared distance at
        # states[k] between the conditional branch and the reference's
        # velocity, bit for bit, whatever the guidance scale the sampler
        # steps with; the reference slice leaves the samples as they are,
        # and a pass without a reference keeps none
        params, ref = _nontrivial_params(13), _nontrivial_params(14)
        seqs, starts = ROWS[:3], [0, 2, 7]
        x1 = stream(13, "x1").standard_normal((3, DIM))
        eps = stream(13, "eps").standard_normal((3, 3, DIM))
        cond, cond_ref = _cond(params, seqs), _cond(ref, seqs)
        plain = POLICY.ode_rollout_batch(params, seqs, self.ODE, x1, cfg_scale)
        batch = POLICY.ode_rollout_batch(params, seqs, self.ODE, x1, cfg_scale, ref)
        np.testing.assert_array_equal(batch.states, plain.states)
        assert batch.drift.shape == (10, 3)
        for k in range(10):
            x, t = batch.states[k], self.TIMES[k]
            diff = (reference_velocity(POLICY, params, x, t, cond)
                    - reference_velocity(POLICY, ref, x, t, cond_ref))
            np.testing.assert_array_equal(batch.drift[k], np.sum(diff * diff, axis=1))
        hybrid = POLICY.hybrid_rollout(params, seqs, self.STEPS, x1, starts, 3, eps,
                                       cfg_scale)
        assert plain.drift is None and hybrid.drift is None

    def test_keeps_pooling_weights_of_the_traces(self):
        # pool[i] is row i's pooling weights, bit for bit, and a batch
        # prepared over some of the rows gathers each one's with its states
        params = _nontrivial_params(16)
        seqs = ROWS[[0, 1, 2, 3, 0]]
        x1 = stream(16, "x1").standard_normal((5, DIM))
        eps = stream(16, "eps").standard_normal((5, 2, DIM))
        hybrid = POLICY.hybrid_rollout(params, seqs, self.STEPS, x1, [0, 1, 2, 3, 8], 2, eps)
        for batch in (hybrid, POLICY.ode_rollout_batch(params, seqs, self.ODE, x1, 2.0)):
            assert batch.pool.tobytes() == POLICY.pool_weights(seqs).tobytes()
        traj = np.array([3, 4, 0])
        prepared = POLICY.prepare_batch(hybrid, traj, np.ones(3), "none", 0.0, params)
        rows = np.repeat(traj, 2)
        np.testing.assert_array_equal(prepared.rows, rows)
        assert prepared.pool.tobytes() == POLICY.pool_weights(seqs[rows]).tobytes()
        np.testing.assert_array_equal(prepared.xs, hybrid.states[prepared.ks, rows])

    @pytest.mark.parametrize("cfg_scale", [1.0, 2.0])
    @pytest.mark.parametrize("reg_mode", ["none", "latent-kl", "velocity-mse"])
    def test_prepared_rows_equal_those_of_a_row_copy(self, reg_mode, cfg_scale):
        # preparing trajectories `traj` of a batch in place gathers the same
        # elements a copy of just those rows holds, so every prepared array
        # is bit for bit the copy's; only the trajectory each row names
        # differs, a row of the batch rather than of the copy
        params, ref = _nontrivial_params(17), _nontrivial_params(18)
        seqs = ROWS[[0, 1, 2, 3, 0, 1]]
        x1 = stream(17, "x1").standard_normal((6, DIM))
        eps = stream(17, "eps").standard_normal((6, 3, DIM))
        batch = POLICY.hybrid_rollout(params, seqs, self.STEPS, x1, [0, 4, 2, 7, 1, 3], 3, eps,
                                      cfg_scale)
        traj, adv = np.array([4, 1, 5]), np.array([0.5, -1.0, 1.5])
        copy = replace(batch, pool=batch.pool[traj], states=batch.states[:, traj],
                       starts=batch.starts[traj], mu=batch.mu[traj])
        got = POLICY.prepare_batch(batch, traj, adv, reg_mode, 0.3, ref)
        want = POLICY.prepare_batch(copy, np.arange(3), adv, reg_mode, 0.3, ref)
        np.testing.assert_array_equal(got.rows, traj[want.rows])
        if reg_mode == "none":  # slice 0's condition is left to each surrogate_loss
            got.inputs[0, :, DIM + N_TIME_FEATS:] = want.inputs[0, :, DIM + N_TIME_FEATS:] = 0.0
        for f in fields(got):
            if f.name != "rows":
                a, b = getattr(got, f.name), getattr(want, f.name)
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), f.name

    def test_ode_guidance_scale_controls_eval_count(self):
        params = _nontrivial_params(11)
        x1 = stream(6, "x1").standard_normal((5, 2))
        n_plain = POLICY.ode_rollout_batch(params, _tile(5), self.ODE, x1).velocity_evals
        n_guided = POLICY.ode_rollout_batch(
            params, _tile(5), self.ODE, x1, cfg_scale=1.5
        ).velocity_evals
        assert n_plain == 5 * 10
        assert n_guided == 2 * 5 * 10



def _step_loop_reference(params, seqs, times, x1, starts, size, sigma, eps, cfg_scale,
                         ref=None):
    """The lockstep sampler as it ran before it built the velocity-net inputs
    once per pass: one reference_velocity call per step over every row, each
    guidance branch its own call, then the noise-injected step row by row
    inside each window; with a reference `ref`, each step's squared distance
    between the conditional branch and the reference's velocity too."""
    n, B = len(times) - 1, len(seqs)
    cond = _cond(params, seqs)
    states, drift = [np.asarray(x1, dtype=np.float64)], []
    mu = np.zeros((B, size, DIM))
    for k in range(n):
        t, dt = float(times[k]), float(times[k] - times[k + 1])
        x = states[-1]
        if ref is not None:
            diff = (reference_velocity(POLICY, params, x, t, cond)
                    - reference_velocity(POLICY, ref, x, t, _cond(ref, seqs)))
            drift.append(np.sum(diff * diff, axis=1))
        v = reference_velocity(POLICY, params, x, t, cond, cfg_scale)
        nxt = x - v * dt
        for i in range(B):
            j = k - starts[i]
            if 0 <= j < size:
                mu[i, j], _, nxt[i] = sde_step_values(x[i], v[i], t, dt, sigma * np.sqrt(t),
                                                      eps[i, j])
        states.append(nxt)
    return np.stack(states), mu, (np.stack(drift) if ref is not None else None)


class TestVelocityInputs:
    """The samplers build the velocity net's input rows once per pass: the
    time features of the whole schedule in one call, the condition columns
    once, and each step writes only its states and its feature row."""

    TIMES = timestep_schedule(10, 3.0)
    STEPS, ODE = step_table(TIMES, 0.8), step_table(TIMES)

    @pytest.mark.parametrize("windowed", [False, True])
    @pytest.mark.parametrize("cfg_scale", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("B", [1, 32, 128])
    def test_rollouts_match_per_step_reference_bit_for_bit(self, B, cfg_scale, windowed):
        # the deterministic pass runs with a frozen reference, whose drift
        # is checked too
        params, ref = _nontrivial_params(40), None
        rng = stream(40, "inputs", B)
        seqs = np.tile(ROWS, (B // 4, 1)) if B > 1 else _tile(1)
        x1 = rng.standard_normal((B, DIM))
        if windowed:
            starts, size, sigma = rng.integers(0, 8, size=B), 3, 0.8
            eps = rng.standard_normal((B, size, DIM))
            batch = POLICY.hybrid_rollout(params, seqs, step_table(self.TIMES, sigma), x1,
                                          starts, size, eps, cfg_scale)
        else:
            starts, size, sigma, eps = np.zeros(B, dtype=np.int64), 0, 0.0, np.zeros((B, 0, DIM))
            ref = _nontrivial_params(46)
            batch = POLICY.ode_rollout_batch(params, seqs, self.ODE, x1, cfg_scale, ref)
        states, mu, drift = _step_loop_reference(params, seqs, self.TIMES, x1, starts, size,
                                                 sigma, eps, cfg_scale, ref)
        np.testing.assert_array_equal(batch.states, states)
        np.testing.assert_array_equal(batch.mu, mu)
        assert (batch.drift is None) == windowed
        if not windowed:
            np.testing.assert_array_equal(batch.drift, drift)

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
            batch = POLICY.hybrid_rollout(params, seqs, step_table(self.TIMES, sigma), x1,
                                          starts, size, eps, cfg_scale)
            states, mu, _ = _step_loop_reference(params, seqs, self.TIMES, x1, starts, size,
                                                 sigma, eps, cfg_scale)
        assert np.isfinite(states).all() == (case != "nonfinite-x1")
        assert np.array_equal(batch.states, states, equal_nan=True)
        assert np.array_equal(batch.mu, mu, equal_nan=True)

    @pytest.mark.parametrize("cfg_scale", [2.0, 3.0])
    @pytest.mark.parametrize("B", [*range(1, 10), 15, 45])
    def test_guided_row_counts_match_separate_branches_bit_for_bit(self, B, cfg_scale):
        # each branch, and the reference, a slice of one forward, at row
        # counts where rows stacked into one gemm would round differently
        # from separate calls
        params, ref = _nontrivial_params(45), _nontrivial_params(47)
        rng = stream(45, "guided", B)
        seqs = ROWS[np.arange(B) % len(ROWS)]
        x1 = rng.standard_normal((B, DIM))
        starts, eps = rng.integers(0, 8, size=B), rng.standard_normal((B, 3, DIM))
        for batch, (size, sigma, r) in (
            (POLICY.hybrid_rollout(params, seqs, self.STEPS, x1, starts, 3, eps, cfg_scale),
             (3, 0.8, None)),
            (POLICY.ode_rollout_batch(params, seqs, self.ODE, x1, cfg_scale, ref),
             (0, 0.0, ref)),
        ):
            states, mu, drift = _step_loop_reference(
                params, seqs, self.TIMES, x1, starts, size, sigma, eps[:, :size], cfg_scale, r)
            np.testing.assert_array_equal(batch.states, states)
            np.testing.assert_array_equal(batch.mu, mu)
            if r is not None:
                np.testing.assert_array_equal(batch.drift, drift)

    def test_feature_table_matches_per_step_features(self):
        # every schedule the parser accepts up to 100 steps: n_steps >= 1 and
        # any finite shift >= 1, here a grid plus random shifts; the per-step
        # features are taken as the samplers took them, over t broadcast to
        # every row.  Each schedule runs from 1 down to 0, strictly, so every
        # step time is positive: drift_coefficients divides by it
        shifts = [1.0, 1.5, 3.0, 7.0, 1.0 + stream(41, "shift").exponential(3.0)]
        for n in range(1, 101):
            for shift in shifts:
                times = timestep_schedule(n, shift)
                assert times[0] == 1.0 and times[-1] == 0.0, (n, shift)
                assert np.all(np.diff(times) < 0) and np.all(times[:-1] > 0), (n, shift)
                table = time_features(times[:-1])
                assert table.shape == (n, N_TIME_FEATS)
                for rows in (1, 32, 128):
                    per_step = np.stack([time_features(np.broadcast_to(t, (rows,)))
                                         for t in times[:-1]])
                    same = np.array_equal(per_step, np.broadcast_to(table[:, None], per_step.shape))
                    assert same, (n, shift, rows)

    def test_velocity_rows_match_reference(self):
        # field_inputs lays out one slice per field, the unconditional
        # branch's condition zeroed; velocity_np takes the rows as they are
        # and leaves them unchanged, and its output holds the conditional
        # branch, under guidance the unconditional one as a second slice
        params = _nontrivial_params(42)
        x = stream(42, "x").standard_normal((5, DIM))
        traces = ROWS[[0, 1, 2, 3, 0]]
        cond = _cond(params, traces)
        for cfg_scale in (1.0, 2.0, 3.0):
            net, rows = POLICY.field_inputs(params, POLICY.pool_weights(traces), cfg_scale)
            rows[..., :DIM + N_TIME_FEATS] = np.concatenate(
                [x, time_features(np.full(5, 0.3))], axis=1)
            before = rows.copy()
            for blocks in (net, params):
                v, out = POLICY.velocity_np(blocks, rows, cfg_scale)
                np.testing.assert_array_equal(
                    v, reference_velocity(POLICY, params, x, 0.3, cond, cfg_scale))
                if cfg_scale == 1.0:
                    assert rows.shape == (5, POLICY.arch[0])
                    np.testing.assert_array_equal(out, v)
                else:
                    assert rows.shape == (2, 5, POLICY.arch[0])
                    np.testing.assert_array_equal(
                        out, np.stack(reference_branches(POLICY, params, x, 0.3, cond)))
                np.testing.assert_array_equal(rows, before)

    @pytest.mark.parametrize("cfg_scale", [2.0, 3.0])
    @pytest.mark.parametrize("n", [15, 45])
    def test_guided_velocity_equals_separate_branch_calls(self, n, cfg_scale):
        # at row counts that are not multiples of 4, where one gemm over
        # both branches' rows rounds them differently from separate calls
        params = _nontrivial_params(48)
        rng = stream(48, "rows", n)
        x = rng.standard_normal((n, DIM))
        traces = ROWS[np.arange(n) % len(ROWS)]
        feats = time_features(rng.random(n))
        _, rows = POLICY.field_inputs(params, POLICY.pool_weights(traces), cfg_scale)
        rows[..., :DIM + N_TIME_FEATS] = np.concatenate([x, feats], axis=1)
        cond = _cond(params, traces)
        v_c, v_u = (mlp_forward_np(params, np.concatenate([x, feats, c], axis=1), POLICY.arch)
                    for c in (cond, np.zeros_like(cond)))
        v, _ = POLICY.velocity_np(params, rows, cfg_scale)
        assert v.tobytes() == cfg_velocity(v_c, v_u, cfg_scale).tobytes()

    @pytest.mark.parametrize("cfg_scale", [1.0, 2.0])
    def test_passes_read_the_step_table(self, cfg_scale, monkeypatch):
        # no time_features or drift_coefficients call per pass or per
        # prepared batch, only the step table's rows; one velocity_np call
        # per step, over all B rows: one (B, arch[0]) array, or under
        # guidance and with a reference one slice per field; a prepared
        # batch's reference call runs on its own input, a slice per branch
        params = _nontrivial_params(43)
        steps = self.STEPS
        calls, velocity_rows = [], []
        real_velocity = FlowPolicy.velocity_np
        for name in ("time_features", "drift_coefficients"):
            real = getattr(flow_policy_mod, name)
            monkeypatch.setattr(flow_policy_mod, name,
                                lambda *a, name=name, real=real: calls.append(name) or real(*a))

        def velocity(self, params, rows, *args, **kwargs):
            velocity_rows.append(rows.shape[:-1])
            return real_velocity(self, params, rows, *args, **kwargs)

        monkeypatch.setattr(FlowPolicy, "velocity_np", velocity)
        B, n = 6, len(self.TIMES) - 1
        branches = () if cfg_scale == 1.0 else (2,)
        x1 = stream(43, "x1").standard_normal((B, DIM))
        eps = stream(43, "eps").standard_normal((B, 3, DIM))
        batch = POLICY.hybrid_rollout(params, _tile(B), steps, x1, [0, 1, 2, 3, 4, 7], 3, eps,
                                      cfg_scale)
        assert calls == [] and velocity_rows == [(*branches, B)] * n
        del velocity_rows[:]
        POLICY.ode_rollout_batch(params, _tile(B), steps, x1, cfg_scale)
        assert calls == [] and velocity_rows == [(*branches, B)] * n
        del velocity_rows[:]
        POLICY.ode_rollout_batch(params, _tile(B), steps, x1, cfg_scale, _params(44))
        assert calls == [] and velocity_rows == [(len(branches) + 2, B)] * n
        for reg_mode, n_ref in (("none", 0), ("latent-kl", 1), ("velocity-mse", 1)):
            del velocity_rows[:]
            POLICY.prepare_batch(batch, np.arange(B), np.ones(B), reg_mode, 1.0, params)
            assert calls == [] and velocity_rows == [(len(branches) + 1, B * 3)] * n_ref


class TestStepTable:
    @pytest.mark.parametrize("n", [1, 2, 10, 20, 37])
    @pytest.mark.parametrize("shift", [1.0, 3.0, 7.5])
    @pytest.mark.parametrize("sigma_level", [0.0, 0.8, 1.3])
    def test_rows_equal_per_step_values(self, n, shift, sigma_level):
        # row k holds what time_features and drift_coefficients give at
        # step k's own time, bit for bit
        times = timestep_schedule(n, shift)
        steps = step_table(times, sigma_level)
        assert steps.times is times and steps.sigma_level == sigma_level
        assert steps.feats.shape == (n, N_TIME_FEATS)
        for k in range(n):
            t, dt = times[k], times[k] - times[k + 1]
            sig = sigma_level * np.sqrt(t)
            c1, c2 = drift_coefficients(t, sig)
            assert steps.feats[k].tobytes() == time_features(t)[0].tobytes()
            assert [steps.dts[k], steps.sig[k], steps.c1[k], steps.c2[k], steps.std[k]] == \
                [dt, sig, c1, c2, sig * np.sqrt(dt)]

    @pytest.mark.parametrize("sigma_level", [0.0, 0.8])
    def test_transition_mean_is_the_scalar_step_mean(self, sigma_level):
        # at one step for every row or at one step per row, each row's mean
        # is the scalar step's at its own step's time, bit for bit
        times = timestep_schedule(10, 3.0)
        steps = step_table(times, sigma_level)
        rng = stream(25, "mean")
        ks = rng.integers(0, 10, 12)
        x, v = rng.standard_normal((12, DIM)), rng.standard_normal((12, DIM))
        per_row = steps.transition_mean(ks, x, v)
        assert per_row.shape == (12, DIM)
        for i, k in enumerate(ks):
            t, dt = times[k], times[k] - times[k + 1]
            mu, _, _ = sde_step_values(x[i], v[i], t, dt, sigma_level * np.sqrt(t), 0.0)
            assert per_row[i].tobytes() == mu.tobytes()
            assert steps.transition_mean(k, x[i:i + 1], v[i:i + 1])[0].tobytes() == mu.tobytes()


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
        _, (conds, x0) = make_pretrain_data(36, 1, 300)
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
        _, (conds, x0) = make_pretrain_data(30, 1, 4096)
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
    times = timestep_schedule(10, 3.0)
    rngs = [stream(seed, "roll", i) for i in range(g)]
    starts = [int(rng.integers(0, 4)) for rng in rngs]
    x1 = np.stack([rng.standard_normal(DIM) for rng in rngs])
    eps = np.stack([rng.standard_normal((3, DIM)) for rng in rngs])
    return POLICY.hybrid_rollout(
        params, _tile(g), step_table(times, sigma), x1, starts, 3, eps, cfg_scale=cfg_scale
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
        assert (stats.ratio == 1.0).all()

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
                times = batch.steps.times
                t, dt = float(times[k]), float(times[k] - times[k + 1])
                sigma_t = batch.steps.sigma_level * np.sqrt(t)
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

    @pytest.mark.parametrize("reg_mode,weight", [
        ("none", 0.0), ("latent-kl", 0.02), ("velocity-mse", 0.5),
    ])
    def test_guided_gradient_matches_finite_differences(self, reg_mode, weight):
        # a batch prepared at guidance scale 2: both branches are slices of
        # one MLP node, and the reference ran on the same input buffer
        params = _nontrivial_params(16)
        ref = _nontrivial_params(17)
        batch = _rollout_group(params, g=3, seed=3, cfg_scale=2.0)
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
