"""Flow generator: schedules, transitions, ratio normalization, rollouts, losses."""

import numpy as np
import pytest

from unigrpo.errors import ConfigError, NumericError
from unigrpo.flow_policy import (
    DIM,
    FlowPolicy,
    cfg_velocity,
    drift_coefficients,
    latent_kl,
    ratio_norm,
    sde_step_values,
    timestep_schedule,
    transition_logprob,
    velocity_mse,
)
from unigrpo.nn import finite_diff_check
from unigrpo.rng import stream
from unigrpo.task import TaskGeometry, canonical_trace, make_prompt, make_pretrain_data

POLICY = FlowPolicy()
GEOM = TaskGeometry()
TRACE = canonical_trace(make_prompt(1, "near", "tight"))


def _params(seed=0):
    return POLICY.init_params(stream(seed, "init-flow"))


def _rollout(params, times, start, size, sigma, rng, cfg_scale=1.0):
    """One trajectory through the batched sampler."""
    return POLICY.hybrid_rollout(
        params, [TRACE], times, [start], size, sigma, [rng], cfg_scale
    ).trajs[0]


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

    def test_velocity_mse_values(self):
        assert velocity_mse(np.ones(2), np.ones(2)) == 0.0
        assert velocity_mse(np.array([0.3, -0.4]), np.zeros(2)) == pytest.approx(0.25)

    def test_velocity_mse_ignores_noise_scale(self):
        v1, v2 = np.array([0.5, 0.1]), np.array([0.2, 0.3])
        assert velocity_mse(v1, v2) == velocity_mse(v1, v2)  # no sigma argument at all

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
        mse = velocity_mse(v1, v2)
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
        v = POLICY.velocity_np(params, np.array([0.7, -0.3]), 0.5, np.ones(POLICY.cond_dim))
        np.testing.assert_array_equal(v, np.zeros((1, DIM)))

    def test_deterministic(self):
        params = _params(1)
        params = params.with_blocks({"W2": _params(2)["W2"]})
        x, cond = np.array([0.1, 0.2]), np.ones(POLICY.cond_dim)
        v1 = POLICY.velocity_np(params, x, 0.3, cond)
        v2 = POLICY.velocity_np(params, x, 0.3, cond)
        np.testing.assert_array_equal(v1, v2)

    def test_guidance_combines_branches(self):
        params = _nontrivial_params(21)
        x = stream(21, "x").standard_normal((3, DIM))
        cond = POLICY.cond_np(params, [TRACE] * 3)
        v_c = POLICY.velocity_np(params, x, 0.4, cond)
        v_u = POLICY.velocity_np(params, x, 0.4, np.zeros((3, POLICY.cond_dim)))
        np.testing.assert_array_equal(
            POLICY.velocity_np(params, x, 0.4, cond, cfg_scale=2.0), cfg_velocity(v_c, v_u, 2.0)
        )


class TestPooling:
    def test_mean_of_embedding_rows(self):
        params = _params(22)
        seqs = [TRACE, (3, 3, 5), ()]
        cond = POLICY.cond_np(params, seqs)
        for row, seq in zip(cond, seqs):
            expected = params["cemb"][list(seq)].mean(axis=0) if seq else np.zeros(POLICY.cond_dim)
            np.testing.assert_allclose(row, expected, rtol=0, atol=1e-15)


class TestSdeStep:
    TIMES, _ = timestep_schedule(10, 3.0)

    def test_zero_noise_is_euler(self):
        params = _params(3)
        params = params.with_blocks({"W2": _params(4)["W2"]})
        cond = POLICY.cond_np(params, [TRACE])
        n = len(self.TIMES) - 1
        traj = _rollout(params, self.TIMES, 0, n, 0.0, stream(0, "sde"))
        for k in traj.window:
            step = traj.steps[k]
            v = POLICY.velocity_np(params, step.x, step.t, cond)[0]
            np.testing.assert_array_equal(step.x_next, step.x - v * step.dt)
            np.testing.assert_array_equal(step.mu, step.x_next)
            assert step.sde and step.s == 0.0 and step.logp is None

    def test_zero_drift_pure_noise(self):
        mu, s, x_next = sde_step_values(
            np.zeros(2), np.zeros(2), 0.5, 0.1, 0.8, np.array([1.0, -1.0])
        )
        np.testing.assert_array_equal(mu, np.zeros(2))
        np.testing.assert_allclose(x_next, s * np.array([1.0, -1.0]))

    def test_stored_stats_reproduce_logp(self):
        params = _params(5)
        params = params.with_blocks({"W2": _params(6)["W2"]})
        traj = _rollout(params, self.TIMES, 1, 3, 0.8, stream(1, "sde"))
        for k in traj.window:
            step = traj.steps[k]
            mu, s, _ = sde_step_values(step.x, step.v, step.t, step.dt, step.sigma_t, np.zeros(DIM))
            np.testing.assert_array_equal(mu, step.mu)
            assert s == step.s
            assert step.logp == pytest.approx(
                transition_logprob(step.mu, step.s, step.x_next), abs=1e-12
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
        np.testing.assert_array_equal(a.x0, b.x0)
        assert all(not s.sde for s in a.steps)

    def test_sigma_zero_full_window_matches_ode_bitwise(self):
        params = _nontrivial_params(8)
        n = len(self.TIMES) - 1
        traj = _rollout(params, self.TIMES, 0, n, 0.0, stream(3, "r"))
        x1 = stream(3, "r").standard_normal(DIM)
        x0, _, _ = POLICY.ode_rollout_batch(params, [TRACE], self.TIMES, x1[None, :])
        np.testing.assert_array_equal(traj.x0, x0[0])

    def test_velocity_eval_counts(self):
        params = _nontrivial_params(9)
        traj = _rollout(params, self.TIMES, 1, 3, 0.8, stream(4, "r"))
        assert traj.velocity_evals == 10
        traj_cfg = _rollout(params, self.TIMES, 1, 3, 0.8, stream(4, "r"), cfg_scale=2.0)
        assert traj_cfg.velocity_evals == 20
        # the batch total sums its members, whatever their windows
        batch = POLICY.hybrid_rollout(
            params, [TRACE, (3, 3, 5), ()], self.TIMES, [0, 2, 7], 3, 0.8,
            [stream(4, "r", i) for i in range(3)], cfg_scale=2.0,
        )
        assert [tr.velocity_evals for tr in batch.trajs] == [20, 20, 20]
        assert batch.velocity_evals == 60

    def test_window_shape(self):
        params = _nontrivial_params(10)
        traj = _rollout(params, self.TIMES, 2, 3, 0.8, stream(5, "r"))
        assert traj.window == (2, 3, 4)
        flags = [s.sde for s in traj.steps]
        assert flags == [k in (2, 3, 4) for k in range(10)]
        for k in traj.window:
            st = traj.steps[k]
            assert st.s > 0 and st.logp is not None
            assert st.logp == pytest.approx(
                transition_logprob(st.mu, st.s, st.x_next), abs=1e-12
            )
        times = [s.t for s in traj.steps]
        assert all(a > b for a, b in zip(times, times[1:]))

    def test_window_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            POLICY.hybrid_rollout(_params(), [TRACE, TRACE], self.TIMES, [0, 9], 3, 0.8,
                                  [stream(0, "r"), stream(1, "r")])

    def test_ode_guidance_scale_controls_eval_count(self):
        params = _nontrivial_params(11)
        x1 = stream(6, "x1").standard_normal((5, 2))
        _, _, n_plain = POLICY.ode_rollout_batch(params, [TRACE] * 5, self.TIMES, x1)
        _, _, n_guided = POLICY.ode_rollout_batch(
            params, [TRACE] * 5, self.TIMES, x1, cfg_scale=1.5
        )
        assert n_plain == 5 * 10
        assert n_guided == 2 * 5 * 10


class TestPretraining:
    def test_perfect_predictor_zero_loss(self):
        # degenerate data: x0 == x1 forces target 0; the zero-initialized head
        # already predicts 0 everywhere
        params = _params(11)
        x0 = np.array([[0.3, -0.4]])
        t = np.array([0.5])
        loss, _ = POLICY.fm_loss_frozen(params, x0, [TRACE], t, x0.copy(), np.ones(1))
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        from unigrpo.task import FlowPair

        params = _nontrivial_params(12)
        rng = stream(6, "fm")
        pairs, x0s = [], []
        for _ in range(6):
            x0s.append(rng.normal(size=2))
        x0 = np.stack(x0s)
        t = 1.0 - rng.random(6)
        x1 = rng.standard_normal((6, 2))
        keep = np.ones(6)
        keep[0] = 0.0

        def loss(p):
            return POLICY.fm_loss_frozen(p, x0, [TRACE] * 6, t, x1, keep)

        report = finite_diff_check(loss, params, probes=100, tol=1e-4, rng=stream(7, "fd"))
        assert report.passed, (report.max_rel_err, report.failing_blocks)

    def test_pretraining_learns_the_task(self):
        _, flow = make_pretrain_data(stream(30, "pt"), 1, 4096, GEOM)
        params, report = POLICY.pretrain(
            _params(31), flow, epochs=40, lr=3e-3, batch_size=256,
            p_uncond=0.1, rng=stream(32, "sh"),
        )
        losses = report["epoch_losses"]
        assert losses[-1] < losses[0]
        assert report["quadrant_accuracy_min"] >= 0.9

    def test_learns_analytic_velocity_on_single_gaussian(self):
        # single Gaussian target: the optimal velocity field is affine and
        # known in closed form under the linear path
        from unigrpo.task import FlowPair

        mu0 = np.array([0.5, -0.3])
        tau = 0.4
        rng = stream(33, "gauss")
        pairs = [FlowPair(TRACE, mu0 + tau * rng.standard_normal(2)) for _ in range(4096)]
        params, _ = POLICY.pretrain(
            _params(34), pairs, epochs=40, lr=3e-3, batch_size=256,
            p_uncond=0.0, rng=stream(35, "sh"),
        )

        def v_star(x, t):
            rho2 = (1 - t) ** 2 * tau**2 + t**2
            alpha = (t - (1 - t) * tau**2) / rho2
            return alpha * (x - (1 - t) * mu0) - mu0

        cond = POLICY.cond_np(params, [TRACE])
        errs = []
        for _ in range(500):
            t = float(1.0 - rng.random())
            rho = np.sqrt((1 - t) ** 2 * tau**2 + t**2)
            x = (1 - t) * mu0 + rho * rng.standard_normal(2)
            v = POLICY.velocity_np(params, x, t, cond)[0]
            errs.append(np.sum((v - v_star(x, t)) ** 2))
        assert np.mean(errs) < 0.05


def _rollout_group(params, g=4, seed=0, sigma=0.8, cfg_scale=1.0):
    times, _ = timestep_schedule(10, 3.0)
    rngs = [stream(seed, "roll", i) for i in range(g)]
    starts = [int(rng.integers(0, 4)) for rng in rngs]
    return POLICY.hybrid_rollout(
        params, [TRACE] * g, times, starts, 3, sigma, rngs, cfg_scale=cfg_scale
    ).trajs


class TestFlowSurrogate:
    def test_on_policy_identity(self):
        params = _nontrivial_params(13)
        trajs = _rollout_group(params)
        adv = np.array([1.0, -0.5, 0.25, -0.75])
        j, _, stats = POLICY.surrogate_loss(
            params, trajs, adv, clip_eps=1e-4, reg_mode="none", reg_weight=0.0,
            ref_params=params,
        )
        assert j == pytest.approx(adv.mean(), abs=1e-12)
        assert stats.clip_fraction == 0.0

    def test_velocity_mse_zero_at_reference(self):
        params = _nontrivial_params(14)
        trajs = _rollout_group(params, seed=1)
        adv = np.zeros(4)
        j, _, stats = POLICY.surrogate_loss(
            params, trajs, adv, 1e-4, "velocity-mse", 0.5, ref_params=params,
        )
        assert stats.reg_value == pytest.approx(0.0, abs=1e-12)
        assert j == pytest.approx(0.0, abs=1e-12)

    def test_matches_independent_scalar_recomputation(self):
        # second route: rebuild the objective from the stored statistics with
        # the standalone scalar helpers
        params = _nontrivial_params(15)
        moved = params.with_blocks({"b2": params["b2"] + 0.02})
        trajs = _rollout_group(params, seed=2)
        adv = np.array([0.8, -0.4, 0.1, -0.5])
        eps = 0.05
        j, _, _ = POLICY.surrogate_loss(moved, trajs, adv, eps, "none", 0.0, params)

        total = 0.0
        for i, tr in enumerate(trajs):
            acc = 0.0
            for k in tr.window:
                st = tr.steps[k]
                cond = POLICY.cond_np(moved, [tr.cond_tokens])
                v = POLICY.velocity_np(moved, st.x, st.t, cond)[0]
                c1, c2 = drift_coefficients(st.t, st.sigma_t)
                mu = st.x - (c1 * v + c2 * st.x) * st.dt
                log_r = transition_logprob(mu, st.s, st.x_next) - st.logp
                rt = ratio_norm(log_r, st.mu - mu, st.sigma_t, st.dt)
                acc += min(rt * adv[i], np.clip(rt, 1 - eps, 1 + eps) * adv[i])
            total += acc / len(tr.window)
        assert j == pytest.approx(total / len(trajs), rel=1e-10)

    @pytest.mark.parametrize("reg_mode,weight", [
        ("none", 0.0), ("latent-kl", 0.02), ("velocity-mse", 0.5),
    ])
    def test_gradient_matches_finite_differences(self, reg_mode, weight):
        params = _nontrivial_params(16)
        ref = _nontrivial_params(17)
        trajs = _rollout_group(params, g=3, seed=3)
        adv = np.array([1.0, -0.3, 0.6])
        moved = params.with_blocks({"b2": params["b2"] + 0.01})

        def loss(p):
            j, gs, _ = POLICY.surrogate_loss(p, trajs, adv, 0.2, reg_mode, weight, ref)
            return j, gs

        report = finite_diff_check(loss, moved, probes=100, tol=1e-4, rng=stream(8, "fd"))
        assert report.passed, (report.max_rel_err, report.failing_blocks)

    def test_cfg_trained_group_gradient(self):
        params = _nontrivial_params(18)
        trajs = _rollout_group(params, g=2, seed=4, cfg_scale=2.0)
        adv = np.array([0.5, -0.5])
        moved = params.with_blocks({"b2": params["b2"] + 0.01})

        def loss(p):
            j, gs, _ = POLICY.surrogate_loss(p, trajs, adv, 0.2, "velocity-mse", 0.1, params)
            return j, gs

        report = finite_diff_check(loss, moved, probes=60, tol=1e-4, rng=stream(9, "fd"))
        assert report.passed, (report.max_rel_err, report.failing_blocks)

    def test_schedule_mismatch_rejected(self):
        params = _nontrivial_params(19)
        times_a, _ = timestep_schedule(10, 3.0)
        times_b, _ = timestep_schedule(10, 2.0)
        a = _rollout(params, times_a, 0, 3, 0.8, stream(10, "r"))
        b = _rollout(params, times_b, 0, 3, 0.8, stream(11, "r"))
        with pytest.raises(ConfigError, match="schedule"):
            POLICY.surrogate_loss(params, [a, b], np.zeros(2), 0.2, "none", 0.0, params)

    def test_nonfinite_ratio_names_step(self):
        params = _nontrivial_params(20)
        trajs = _rollout_group(params, g=2, seed=5)
        trajs[1].steps[trajs[1].window[0]].logp = np.inf
        with pytest.raises(NumericError, match="trajectory 1"):
            POLICY.surrogate_loss(params, trajs, np.zeros(2), 0.2, "none", 0.0, params)
