"""Text policy: log-probs, lockstep decoding, clipped surrogate, pretraining."""

import numpy as np
import pytest

from unigrpo.errors import NumericError
from unigrpo.nn import finite_diff_check
from unigrpo.rng import stream
from unigrpo.task import EOS, TaskGeometry, canonical_trace, make_prompt, make_pretrain_data
from unigrpo.text_policy import ReasoningTrace, TextPolicy, _log_softmax_np

POLICY = TextPolicy()
PROMPT = make_prompt(1, "near", "tight")


def _params(seed=0):
    return POLICY.init_params(stream(seed, "init-text"))


def _sample(params, temperature=1.0, seed=0, tag="s"):
    return POLICY.sample_trace(
        params, [PROMPT.tokens], temperature, POLICY.max_len, [stream(seed, tag)]
    )[0]


def _softmax_logprobs(params, trace_tokens):
    """Per-position log pi(y_k | prompt, y_<k) from an explicit softmax of
    logits_np, independent of the decoder."""
    rows = POLICY.context_rows(PROMPT.tokens, list(trace_tokens))
    z = POLICY.logits_np(params, rows)
    probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    return np.log(probs[np.arange(len(trace_tokens)), list(trace_tokens)])


class TestTokenLogprobs:
    def test_zero_head_is_uniform(self):
        params = _params()
        nw = f"W{len(POLICY.arch) - 2}"
        nb = f"b{len(POLICY.arch) - 2}"
        params = params.with_blocks({
            nw: np.zeros_like(params[nw]), nb: np.zeros_like(params[nb]),
        })
        tr = _sample(params)
        np.testing.assert_allclose(tr.logprobs, -np.log(POLICY.vocab), atol=1e-12)

    def test_probs_normalize(self):
        params = _params(1)
        rows = POLICY.context_rows(PROMPT.tokens, list(canonical_trace(PROMPT)))
        logits = POLICY.logits_np(params, rows)
        p = np.exp(_log_softmax_np(logits))
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_matches_slow_recomputation(self):
        # independent route: explicit softmax over logits, no shared code
        params = _params(2)
        tr = _sample(params, seed=2)
        trace, lp = tr.tokens, tr.logprobs
        for k, tok in enumerate(trace):
            rows = POLICY.context_rows(PROMPT.tokens, list(trace))[k : k + 1]
            z = POLICY.logits_np(params, rows)[0]
            probs = np.exp(z) / np.exp(z).sum()
            assert lp[k] == pytest.approx(np.log(probs[tok]), abs=1e-12)

    def test_out_of_vocab_rejected(self):
        params = _params()
        tr = ReasoningTrace(PROMPT.tokens, (999,), np.zeros(1))
        with pytest.raises(ValueError, match="vocabulary"):
            POLICY.surrogate_loss(params, [tr], np.ones(1), 0.2, 0.0, params)


class TestSampling:
    def test_tiny_temperature_is_greedy(self):
        params = _params(3)
        greedy = POLICY.greedy_trace(params, [PROMPT.tokens])[0]
        tr = _sample(params, 1e-6)
        assert tr.tokens == greedy.tokens

    def test_stored_logprobs_self_consistent(self):
        params = _params(4)
        tr = _sample(params, seed=1)
        lp = _softmax_logprobs(params, tr.tokens)
        np.testing.assert_allclose(tr.logprobs, lp, atol=1e-12)

    def test_stops_at_eos_or_max_len(self):
        params = _params(5)
        traces = POLICY.sample_trace(params, [PROMPT.tokens] * 20, 1.0, POLICY.max_len,
                                     [stream(i, "s2") for i in range(20)])
        for tr in traces:
            assert len(tr) <= POLICY.max_len
            if EOS in tr.tokens:
                assert tr.tokens.index(EOS) == len(tr) - 1

    def test_temperature_must_be_positive(self):
        with pytest.raises(ValueError):
            POLICY.sample_trace(_params(), [PROMPT.tokens], 0.0, 4, [stream(0, "s")])


def _group(params, g=4, seed=0, temperature=1.0):
    return POLICY.sample_trace(params, [PROMPT.tokens] * g, temperature, POLICY.max_len,
                               [stream(seed, "g", i) for i in range(g)])


class TestSurrogate:
    def test_on_policy_identity(self):
        params = _params(6)
        traces = _group(params)
        adv = np.array([0.5, -0.2, 1.0, -1.3])
        j, _, stats = POLICY.surrogate_loss(
            params, traces, adv, clip_eps=0.2, beta_txt=0.0, ref_params=params,
        )
        assert j == pytest.approx(adv.mean(), abs=1e-10)
        assert stats.clip_fraction == 0.0
        assert abs(stats.mean_ratio - 1.0) < 1e-10

    def test_single_token_clip_positive_advantage(self):
        # force r = 1.3 by shifting the stored old logprob
        params = _params(7)
        lp = _softmax_logprobs(params, (EOS,))
        tr = ReasoningTrace(PROMPT.tokens, (EOS,), np.array([lp[0] - np.log(1.3)]))
        j, _, _ = POLICY.surrogate_loss(params, [tr], np.array([2.0]), 0.2, 0.0, params)
        assert j == pytest.approx(min(1.3 * 2.0, 1.2 * 2.0), abs=1e-9)

    def test_single_token_clip_negative_advantage(self):
        params = _params(8)
        lp = _softmax_logprobs(params, (EOS,))
        tr = ReasoningTrace(PROMPT.tokens, (EOS,), np.array([lp[0] - np.log(0.7)]))
        j, _, _ = POLICY.surrogate_loss(params, [tr], np.array([-1.0]), 0.2, 0.0, params)
        assert j == pytest.approx(min(-0.7, -0.8), abs=1e-9)

    def test_clipping_bound(self):
        params = _params(9)
        traces = _group(params, g=6, seed=3)
        adv = np.array([2.0, -2.0, 1.0, -1.0, 0.5, -0.5])
        eps = 0.2
        old = [ReasoningTrace(t.prompt_tokens, t.tokens, t.logprobs + 0.5) for t in traces]  # big ratios
        j, _, stats = POLICY.surrogate_loss(params, old, adv, eps, 0.0, params)
        assert abs(j) <= (1 + eps) * np.max(np.abs(adv)) + 1e-12
        assert 0.0 <= stats.clip_fraction <= 1.0

    def test_kl_nonnegative_and_zero_iff_equal(self):
        params = _params(10)
        other = _params(11)
        traces = _group(params)
        adv = np.zeros(4)
        _, _, stats_same = POLICY.surrogate_loss(params, traces, adv, 0.2, 0.1, params)
        _, _, stats_diff = POLICY.surrogate_loss(params, traces, adv, 0.2, 0.1, other)
        assert abs(stats_same.mean_kl) < 1e-10
        assert stats_diff.mean_kl > 0.0

    def test_nan_ratio_aborts_with_position(self):
        params = _params(12)
        tr = ReasoningTrace(PROMPT.tokens, (EOS,), np.array([-np.inf]))
        with pytest.raises(NumericError, match="trace 0, position 0"):
            POLICY.surrogate_loss(params, [tr], np.array([1.0]), 0.2, 0.0, params)

    @pytest.mark.parametrize("temperature", [0.7, 1.0, 1.3])
    def test_first_epoch_ratios_are_one_at_any_temperature(self, temperature):
        # the surrogate must score at the temperature the traces were drawn
        # at; a clip range of 1e-12 counts every token with |ratio - 1| > 1e-12
        params = _params(15)
        traces = _group(params, g=6, seed=7, temperature=temperature)
        _, _, stats = POLICY.surrogate_loss(
            params, traces, np.ones(6), 1e-12, 0.0, params, temperature
        )
        assert stats.clip_fraction == 0.0
        assert abs(stats.max_ratio - 1.0) <= 1e-12

    def test_gradient_matches_finite_differences(self):
        params = _params(13)
        ref = _params(14)
        # move params off theta_old so the ratios are nontrivial
        moved = params.with_blocks({"W2": params["W2"] + 0.01})
        adv = np.array([1.0, -0.5, 0.25])
        for temperature in (1.0, 0.7):
            traces = _group(params, g=3, seed=5, temperature=temperature)

            def loss(p):
                j, gs, _ = POLICY.surrogate_loss(p, traces, adv, 0.2, 0.05, ref, temperature)
                return j, gs

            report = finite_diff_check(loss, moved, probes=100, tol=1e-4, rng=stream(0, "fd"))
            assert report.passed, (temperature, report.max_rel_err, report.failing_blocks)


class TestPretrain:
    GEOM = TaskGeometry()

    def test_clean_data_high_accuracy_and_monotone(self):
        text, _ = make_pretrain_data(stream(20, "pt"), 1024, 1, self.GEOM, p_noise=0.0)
        params, report = POLICY.pretrain(
            _params(21), text, epochs=14, lr=3e-3, batch_size=128, rng=stream(22, "sh")
        )
        assert report["greedy_accuracy"] >= 0.95
        assert report["loss_monotone"]

    def test_noisy_data_leaves_headroom(self):
        # symmetric 25% label noise cannot flip a converged argmax, so the
        # headroom comes from the fixed desk-scale epoch budget
        text, _ = make_pretrain_data(stream(23, "pt"), 1024, 1, self.GEOM, p_noise=0.25)
        params, report = POLICY.pretrain(
            _params(24), text, epochs=8, lr=3e-3, batch_size=128, rng=stream(25, "sh")
        )
        assert 0.5 <= report["greedy_accuracy"] <= 0.98
