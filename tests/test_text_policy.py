"""Text policy: log-probs, lockstep decoding, clipped surrogate, pretraining."""

from dataclasses import replace

import numpy as np
import pytest
from prompt_draws import prompt_id, random_prompts
from reference_ops import OpTape, trace_tokens

from unigrpo import task
from unigrpo.config import TrainConfig
from unigrpo.errors import NumericError
from unigrpo.nn import AdamState, adam_step, mlp_var
from unigrpo.rng import stream
from unigrpo.task import CANONICAL_TRACES, EOS, PAD, PROMPT_TOKENS, make_pretrain_data
from unigrpo.text_policy import softmax_np
from unigrpo.trainer import make_runtime
from unigrpo.verify import finite_diff_check


def text_policy(**sizes):
    """The text policy of the default config with `sizes` changed."""
    return make_runtime(TrainConfig(**sizes)).text_policy


POLICY = text_policy()
PROMPT = prompt_id(1, "near", "tight")


def _trace_tokens(seq, policy=POLICY):
    """The trace tokens of one text row."""
    return trace_tokens(seq[policy.prompt_len:])


def _text_row(trace_tokens, prompt_tokens=PROMPT_TOKENS[PROMPT], policy=POLICY):
    """(1, ctx) text row [prompt | trace | PAD]."""
    row = np.full((1, policy.ctx), PAD, dtype=np.int64)
    row[0, : policy.prompt_len] = prompt_tokens
    row[0, policy.prompt_len : policy.prompt_len + len(trace_tokens)] = trace_tokens
    return row


def _log_softmax(z):
    return softmax_np(z)[0]


def _context_rows(prompt_tokens, trace_tokens, policy=POLICY):
    """(len(trace), ctx) token-id rows, one position at a time: row k sees
    prompt + trace[:k]."""
    rows = np.full((len(trace_tokens), policy.ctx), PAD, dtype=np.int64)
    rows[:, : policy.prompt_len] = prompt_tokens
    for k in range(len(trace_tokens)):
        rows[k, policy.prompt_len : policy.prompt_len + k] = trace_tokens[:k]
    return rows


def _batch(seqs, adv, temperature, beta_txt, ref_params, old_params, old_logp=None):
    """A prepared batch whose old log-probs are `old_logp` when given, else
    those a first surrogate call at `old_params` takes."""
    batch = POLICY.prepare_batch(seqs, adv, temperature, beta_txt, ref_params)
    if old_logp is not None:
        return replace(batch, old_logp=old_logp)
    POLICY.surrogate_loss(old_params, batch, 0.0)
    return batch


def _surrogate(params, seqs, adv, clip_eps, beta_txt, ref_params, temperature=1.0,
               old_logp=None):
    """One surrogate evaluation through a freshly prepared batch whose old
    policy is `params`, unless `old_logp` gives the old log-probs."""
    batch = _batch(seqs, adv, temperature, beta_txt, ref_params, params, old_logp)
    return POLICY.surrogate_loss(params, batch, clip_eps)


def _params(seed=0):
    return POLICY.init_params(stream(seed, "init-text"))


def _sample(params, temperature=1.0, seed=0, tag="s"):
    """(1, ctx) text row of one sampled trace of PROMPT."""
    return POLICY.sample_trace(
        params, PROMPT_TOKENS[[PROMPT]], temperature,
        stream(seed, tag).random((1, POLICY.max_len)),
    )


def _old_logp(params, seqs, temperature=1.0):
    """The old log-probs the first surrogate call takes at `params`."""
    return _batch(seqs, np.ones(len(seqs)), temperature, 0.0, params, params).old_logp


def _softmax_logprobs(params, trace_tokens):
    """Per-position log pi(y_k | prompt, y_<k) from an explicit softmax of
    logits_np, independent of the decoder."""
    rows = _context_rows(PROMPT_TOKENS[PROMPT], list(trace_tokens))
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
        np.testing.assert_allclose(_old_logp(params, _sample(params)), -np.log(POLICY.vocab),
                                   atol=1e-12)

    def test_probs_normalize(self):
        params = _params(1)
        rows = _context_rows(PROMPT_TOKENS[PROMPT], list(CANONICAL_TRACES[PROMPT]))
        logits = POLICY.logits_np(params, rows)
        p = np.exp(_log_softmax(logits))
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_matches_slow_recomputation(self):
        # independent route: explicit softmax over logits, no shared code
        params = _params(2)
        seqs = _sample(params, seed=2)
        trace, lp = _trace_tokens(seqs[0]), _old_logp(params, seqs)
        for k, tok in enumerate(trace):
            rows = _context_rows(PROMPT_TOKENS[PROMPT], list(trace))[k : k + 1]
            z = POLICY.logits_np(params, rows)[0]
            probs = np.exp(z) / np.exp(z).sum()
            assert lp[k] == pytest.approx(np.log(probs[tok]), abs=1e-12)


class TestTokenRows:
    @pytest.mark.parametrize("max_len,width", [
        (3, 3), (3, 4), (4, 4), (4, 5), (6, 4), (6, 6), (6, 7),
    ])
    def test_matches_per_row_loop(self, max_len, width):
        # text rows with traces `width` wide, at most max_len + 1 (the last
        # token of a full-width trace is then only a target): EOS at every
        # position, PADs sampled before an EOS, rows filled without EOS, one
        # ending in a sampled PAD; canonical pretraining traces are 4 wide
        policy = text_policy(max_trace_len=max_len)
        rng = stream(30, "rows", width)
        seqs = np.full((12, policy.prompt_len + width), PAD, dtype=np.int64)
        seqs[:, : policy.prompt_len] = PROMPT_TOKENS[random_prompts(30, "p", 12)]
        traces = seqs[:, policy.prompt_len:]
        traces[:] = rng.integers(2, POLICY.vocab, size=traces.shape)
        ends = iter(range(12))
        for i in range(12):
            if i % 4 == 1:
                traces[i, 0] = PAD
            if i % 3 != 2:
                n = 1 + next(ends) % width
                traces[i, n - 1], traces[i, n:] = EOS, PAD
        traces[2, -1] = PAD
        rows, targets, owner, position = policy.token_rows(seqs)
        tokens = [_trace_tokens(seq, policy) for seq in seqs]
        assert {len(t) for t in tokens} == set(range(1, width + 1))
        assert any(t[0] == PAD and t[-1] == EOS for t in tokens)
        ref = np.concatenate([_context_rows(seq[: policy.prompt_len], t, policy)
                              for seq, t in zip(seqs, tokens)])
        assert rows.dtype == np.int64 and rows.tobytes() == ref.tobytes()
        assert targets.tolist() == [tok for t in tokens for tok in t]
        assert owner.tolist() == [i for i, t in enumerate(tokens) for _ in t]
        assert position.tolist() == [k for t in tokens for k in range(len(t))]


class TestSampling:
    def test_tiny_temperature_is_greedy(self):
        params = _params(3)
        greedy = POLICY.greedy_trace(params, PROMPT_TOKENS[[PROMPT]])
        assert _sample(params, 1e-6).tobytes() == greedy.tobytes()

    def test_stored_logprobs_self_consistent(self):
        params = _params(4)
        seqs = _sample(params, seed=1)
        lp = _softmax_logprobs(params, _trace_tokens(seqs[0]))
        np.testing.assert_allclose(_old_logp(params, seqs), lp, atol=1e-12)

    def test_stops_at_eos_or_max_len(self):
        params = _params(5)
        seqs = POLICY.sample_trace(
            params, np.tile(PROMPT_TOKENS[PROMPT], (20, 1)), 1.0,
            np.stack([stream(i, "s2").random(POLICY.max_len) for i in range(20)]),
        )
        assert seqs.shape == (20, POLICY.ctx) and seqs.dtype == np.int64
        for seq in seqs:
            tr = _trace_tokens(seq)
            assert len(tr) <= POLICY.max_len
            if EOS in tr:
                assert tr.index(EOS) == len(tr) - 1
            # PAD fills the row after the trace
            assert not seq[POLICY.prompt_len + len(tr):].any()

    @pytest.mark.parametrize("temperature", [0.05, 3.0])
    @pytest.mark.parametrize("u", [0.0, 1.0 - 2.0**-53], ids=["u0", "u1"])
    def test_extreme_uniforms_emit_tokens_in_vocabulary(self, temperature, u):
        # inverse CDF at both ends of [0, 1): the CDF ends at exactly 1 > u,
        # so no draw counts past the last token
        prompts = PROMPT_TOKENS[random_prompts(9, "p", 32)]
        for seed in (0, 9):
            rows = POLICY.sample_trace(_params(seed), prompts, temperature,
                                       np.full((len(prompts), POLICY.max_len), u))
            _, targets, _, _ = POLICY.token_rows(rows)
            assert targets.min() >= 0 and targets.max() < POLICY.vocab, (seed, targets.max())

    def test_nonfinite_probabilities_rejected(self):
        # 1 / T overflows at a positive but subnormal temperature
        with pytest.raises(NumericError, match="row 0"), np.errstate(invalid="ignore"):
            POLICY.sample_trace(_params(), PROMPT_TOKENS[[PROMPT]], 1e-320,
                                stream(0, "s").random((1, 4)))

    @pytest.mark.parametrize("temperature", [0.7, 1.0, 1.3])
    def test_matches_per_row_choice_loop(self, temperature):
        # the decoder before inverse-CDF sampling: lockstep logits, then one
        # Generator.choice per live row per token from that row's stream
        params = _params(8)
        prompts = PROMPT_TOKENS[random_prompts(8, "p", 48)]
        rngs = [stream(8, "row", i) for i in range(48)]
        tokens, logps = [[] for _ in prompts], [[] for _ in prompts]
        rows = np.full((len(prompts), POLICY.ctx), PAD, dtype=np.int64)
        rows[:, : POLICY.prompt_len] = prompts
        live = np.arange(len(prompts))
        for k in range(POLICY.max_len):
            logp = _log_softmax(POLICY.logits_np(params, rows[live]) * (1.0 / temperature))
            chosen = []
            for i, lp in zip(live, logp):
                p = np.exp(lp)
                p /= p.sum()
                chosen.append(rngs[i].choice(POLICY.vocab, p=p))
            for j, (i, tok) in enumerate(zip(live, chosen)):
                tokens[i].append(int(tok))
                logps[i].append(float(logp[j, tok]))
                rows[i, POLICY.prompt_len + k] = tok
            live = live[np.asarray(chosen) != EOS]
            if not live.size:
                break

        u = np.stack([stream(8, "row", i).random(POLICY.max_len) for i in range(48)])
        seqs = POLICY.sample_trace(params, np.array(prompts), temperature, u)
        assert seqs.tobytes() == rows.tobytes()
        assert [_trace_tokens(seq) for seq in seqs] == tokens
        # the old log-probs are those of the distributions the tokens were drawn from
        np.testing.assert_array_equal(_old_logp(params, seqs, temperature),
                                      np.concatenate(logps))
        assert len({tuple(t) for t in tokens}) > 10

    def test_uniform_on_a_cdf_step_takes_the_next_token(self):
        # Generator.choice is cdf.searchsorted(u, side="right"): a uniform equal
        # to a cumulative probability picks the token after it
        params = _params(9)
        nw, nb = f"W{len(POLICY.arch) - 2}", f"b{len(POLICY.arch) - 2}"
        params = params.with_blocks({nw: np.zeros_like(params[nw]),
                                     nb: np.zeros_like(params[nb])})
        p = np.exp(_log_softmax(np.zeros(POLICY.vocab)))
        p /= p.sum()
        cdf = p.cumsum()
        cdf /= cdf[-1]
        ks = [0, 5, POLICY.vocab - 2]
        u = np.repeat(cdf[ks][:, None], POLICY.max_len, axis=1)
        seqs = POLICY.sample_trace(params, np.tile(PROMPT_TOKENS[PROMPT], (3, 1)), 1.0, u)
        assert seqs[:, POLICY.prompt_len].tolist() == [k + 1 for k in ks]


def _group(params, g=4, seed=0, temperature=1.0):
    return POLICY.sample_trace(
        params, np.tile(PROMPT_TOKENS[PROMPT], (g, 1)), temperature,
        np.stack([stream(seed, "g", i).random(POLICY.max_len) for i in range(g)]),
    )


class TestSurrogate:
    def test_on_policy_identity(self):
        params = _params(6)
        traces = _group(params)
        adv = np.array([0.5, -0.2, 1.0, -1.3])
        j, _, stats = _surrogate(
            params, traces, adv, clip_eps=0.2, beta_txt=0.0, ref_params=params,
        )
        assert j == pytest.approx(adv.mean(), abs=1e-10)
        assert stats.clip_fraction == 0.0
        assert (stats.ratio == 1.0).all()

    def test_single_token_clip_positive_advantage(self):
        # force r = 1.3 by shifting the stored old logprob
        params = _params(7)
        lp = _softmax_logprobs(params, (EOS,))
        j, _, _ = _surrogate(params, _text_row([EOS]), np.array([2.0]), 0.2, 0.0, params,
                             old_logp=np.array([lp[0] - np.log(1.3)]))
        assert j == pytest.approx(min(1.3 * 2.0, 1.2 * 2.0), abs=1e-9)

    def test_single_token_clip_negative_advantage(self):
        params = _params(8)
        lp = _softmax_logprobs(params, (EOS,))
        j, _, _ = _surrogate(params, _text_row([EOS]), np.array([-1.0]), 0.2, 0.0, params,
                             old_logp=np.array([lp[0] - np.log(0.7)]))
        assert j == pytest.approx(min(-0.7, -0.8), abs=1e-9)

    def test_clipping_bound(self):
        params = _params(9)
        seqs = _group(params, g=6, seed=3)
        adv = np.array([2.0, -2.0, 1.0, -1.0, 0.5, -0.5])
        eps = 0.2
        old = _old_logp(params, seqs) + 0.5  # big ratios
        j, _, stats = _surrogate(params, seqs, adv, eps, 0.0, params, old_logp=old)
        assert abs(j) <= (1 + eps) * np.max(np.abs(adv)) + 1e-12
        assert 0.0 <= stats.clip_fraction <= 1.0

    def test_kl_nonnegative_and_zero_iff_equal(self):
        params = _params(10)
        other = _params(11)
        traces = _group(params)
        # with zero advantages the objective is -beta_txt * KL
        adv = np.zeros(4)
        j_same, _, _ = _surrogate(params, traces, adv, 0.2, 0.1, params)
        j_diff, _, _ = _surrogate(params, traces, adv, 0.2, 0.1, other)
        assert j_same == 0.0
        assert j_diff < 0.0

    def test_nan_ratio_aborts_with_position(self):
        params = _params(12)
        with pytest.raises(NumericError, match="trace 0, position 0"):
            _surrogate(params, _text_row([EOS]), np.array([1.0]), 0.2, 0.0, params,
                       old_logp=np.array([-np.inf]))

    @pytest.mark.parametrize("temperature", [0.7, 1.0, 1.3])
    def test_first_epoch_ratios_are_one_at_any_temperature(self, temperature):
        # the surrogate must score at the temperature the traces were drawn
        # at, with the sampler's forward; a clip range of 0 counts every token
        # whose ratio is not exactly 1
        params = _params(15)
        traces = _group(params, g=6, seed=7, temperature=temperature)
        _, _, stats = _surrogate(
            params, traces, np.ones(6), 0.0, 0.0, params, temperature
        )
        assert stats.clip_fraction == 0.0
        assert (stats.ratio == 1.0).all()

    def test_first_epoch_ratios_are_exactly_one_on_tiny_batches(self):
        # a lockstep decode of 2-4 rows makes head calls of 1-3 live rows,
        # which BLAS may round differently from the same rows inside a larger
        # call; the old log-probs come from the surrogate's own rows instead
        policy, bad = text_policy(max_trace_len=6), []
        for seed in range(40):
            n = 2 + seed % 3
            params = policy.init_params(stream(seed, "init-text"))
            prompts = PROMPT_TOKENS[random_prompts(seed, "p", n)]
            seqs = policy.sample_trace(params, prompts, 1.3, stream(seed, "u").random((n, 6)))
            batch = policy.prepare_batch(seqs, np.ones(n), 1.3, 0.0, params)
            _, _, stats = policy.surrogate_loss(params, batch, 0.2)
            if not (stats.ratio == 1.0).all():
                bad.append(seed)
        assert bad == []

    def test_gradient_matches_finite_differences(self):
        params = _params(13)
        ref = _params(14)
        # move params off theta_old so the ratios are nontrivial
        moved = params.with_blocks({"W2": params["W2"] + 0.01})
        adv = np.array([1.0, -0.5, 0.25])
        for temperature in (1.0, 0.7):
            traces = _group(params, g=3, seed=5, temperature=temperature)
            batch = _batch(traces, adv, temperature, 0.05, ref, params)

            def loss(p):
                j, gs, _ = POLICY.surrogate_loss(p, batch, 0.2)
                return j, gs

            # the group shares its prompt row, so the check covers the scatter
            # of the picks back onto shared contexts
            assert len(batch.rows) < len(batch.targets)
            report = finite_diff_check(loss, moved, probes=100, tol=1e-4, rng=stream(0, "fd"))
            assert report.passed, (temperature, report.max_rel_err, report.failing_blocks)


def _per_row_surrogate(policy, params, seqs, old_logp, adv, clip_eps, beta_txt, ref_params,
                       temperature):
    """The surrogate as one op chain over every (trace, position) row, each
    context scored as often as it is read: the formula without deduplication."""
    rows, targets, owner, _ = policy.token_rows(seqs)
    n = len(targets)
    w_rows = 1.0 / (len(seqs) * np.bincount(owner)[owner])
    adv_rows = adv[owner]
    inv_t = 1.0 / temperature

    tape = OpTape()
    emb = tape.gather_rows(tape.param(params, "wte"), rows.reshape(-1))
    flat = tape.reshape(emb, (n, policy.ctx * policy.embed))
    wpe = tape.reshape(tape.param(params, "wpe"), (policy.ctx * policy.embed,))
    x = tape.bias_add(flat, wpe)
    logits = tape.cmul(mlp_var(tape, params, x, policy.arch, "silu"), inv_t)
    ls = tape.log_softmax(logits)
    ratio = tape.exp(tape.cadd(tape.select_cols(ls, targets), -old_logp))
    unclipped = tape.cmul(ratio, adv_rows)
    clipped = tape.cmul(tape.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps), adv_rows)
    j = tape.sum(tape.cmul(tape.minimum(unclipped, clipped), w_rows))
    if beta_txt != 0.0:
        ref_ls = _log_softmax(policy.logits_np(ref_params, rows) * inv_t)
        kl_rows = tape.sum_rows(tape.mul(tape.softmax(logits), tape.cadd(ls, -ref_ls)))
        j = tape.sub(j, tape.sum(tape.cmul(kl_rows, beta_txt * w_rows)))
    tape.output = j
    return float(j.value), tape.param_grads(1.0)


def _dedup_seqs(policy, params, kind, temperature):
    """Twelve text rows: one sampled trace repeated ("identical"), the
    canonical traces of twelve prompts, which hold no PAD and so share no
    context ("distinct"), or sampled traces of three groups of four."""
    n = 12
    if kind == "distinct":
        seqs = np.full((n, policy.ctx), PAD, dtype=np.int64)
        seqs[:, : policy.prompt_len] = PROMPT_TOKENS[: 7 * n : 7]
        seqs[:, policy.prompt_len : policy.prompt_len + 4] = CANONICAL_TRACES[: 7 * n : 7]
        return seqs
    u = stream(40, kind).random((n, policy.max_len))
    if kind == "identical":
        return policy.sample_trace(params, np.tile(PROMPT_TOKENS[:1], (n, 1)), temperature,
                                   np.tile(u[:1], (n, 1)))
    return policy.sample_trace(params, np.repeat(PROMPT_TOKENS[:3], 4, axis=0), temperature, u)


class TestDeduplicatedSurrogate:
    @pytest.mark.parametrize("max_len", [4, 10])
    @pytest.mark.parametrize("kind", ["identical", "distinct", "groups"])
    @pytest.mark.parametrize("beta_txt", [0.0, 0.05])
    @pytest.mark.parametrize("temperature", [0.7, 1.0, 1.3])
    def test_matches_per_row_formula(self, temperature, beta_txt, kind, max_len):
        # the net runs once per distinct context; the per-row chain scores
        # every row, so the two agree to rounding (sums run in another order)
        policy = text_policy(max_trace_len=max_len)
        params = policy.init_params(stream(41, "init-text", max_len))
        ref = policy.init_params(stream(42, "init-text", max_len))
        seqs = _dedup_seqs(policy, params, kind, temperature)
        adv = stream(43, "adv").normal(size=len(seqs))
        batch = policy.prepare_batch(seqs, adv, temperature, beta_txt, ref)
        n = len(batch.targets)
        distinct = {"identical": n // len(seqs), "distinct": n}
        assert len(batch.rows) == distinct.get(kind, len(batch.rows))
        assert len(batch.rows) < n or kind == "distinct"
        # first epoch: every ratio is exactly 1
        _, _, stats = policy.surrogate_loss(params, batch, 0.0)
        assert (stats.ratio == 1.0).all() and stats.clip_fraction == 0.0
        moved = params.with_blocks({"W2": params["W2"] + 0.01, "wte": params["wte"] - 0.02})
        for theta in (params, moved):
            j, grads, _ = policy.surrogate_loss(theta, batch, 0.2)
            ref_j, ref_grads = _per_row_surrogate(policy, theta, seqs, batch.old_logp, adv, 0.2,
                                                  beta_txt, ref, temperature)
            assert abs(j - ref_j) <= 1e-12 * abs(ref_j)
            assert np.abs(grads - ref_grads).max() <= 1e-12 * np.abs(ref_grads).max()


class TestPretrain:
    def test_clean_data_high_accuracy_and_monotone(self, monkeypatch):
        monkeypatch.setattr(task, "P_NOISE", 0.0)
        seqs, _ = make_pretrain_data(20, 1024, 1)
        params, report = POLICY.pretrain(
            _params(21), seqs, epochs=14, lr=3e-3, batch_size=128, rng=stream(22, "sh")
        )
        assert report["greedy_accuracy"] >= 0.95
        assert report["loss_monotone"]

    @pytest.mark.parametrize("short", [False, True])
    def test_row_columns_match_per_batch_rows_bit_for_bit(self, short):
        # reference: each batch's context rows and targets rebuilt from its
        # own traces; with `short`, one trace ends early, so the traces own
        # different numbers of rows
        seqs, _ = make_pretrain_data(26, 200, 1)
        if short:
            seqs[3, POLICY.prompt_len + 2 :] = (EOS, PAD)
        traces = [_trace_tokens(seq) for seq in seqs]
        params, report = POLICY.pretrain(
            _params(27), seqs, epochs=2, lr=3e-3, batch_size=32, rng=stream(28, "sh")
        )
        ref, rng = _params(27), stream(28, "sh")
        state = AdamState.for_params(ref, lr=3e-3)
        losses = []
        for _ in range(2):
            order = rng.permutation(len(traces))
            total, count = 0.0, 0
            for lo in range(0, len(traces), 32):
                batch = order[lo : lo + 32]
                rows = np.concatenate([_context_rows(seqs[i, : POLICY.prompt_len], traces[i])
                                       for i in batch])
                targets = np.array([tok for i in batch for tok in traces[i]])
                loss, gs = POLICY.ce_loss(ref, rows, targets)
                ref = adam_step(ref, gs, state)
                total += loss * len(targets)
                count += len(targets)
            losses.append(total / count)
        assert params.vec.tobytes() == ref.vec.tobytes()
        assert report["epoch_losses"] == losses
        assert [len(t) for t in traces].count(3) == short

    def test_noisy_data_leaves_headroom(self):
        # symmetric 25% label noise cannot flip a converged argmax, so the
        # headroom comes from the fixed desk-scale epoch budget
        seqs, _ = make_pretrain_data(23, 1024, 1)
        params, report = POLICY.pretrain(
            _params(24), seqs, epochs=8, lr=3e-3, batch_size=128, rng=stream(25, "sh")
        )
        assert 0.5 <= report["greedy_accuracy"] <= 0.98
