"""Autoregressive reasoning policy over the task vocabulary.

A context-window MLP: every slot of [prompt | generated prefix] gets a
token embedding plus a position embedding, the concatenation feeds a
two-hidden-layer net, and the head produces next-token logits.  The same
machinery backs supervised pretraining, rollout sampling, and the
clipped-surrogate group update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Var
from .errors import NumericError
from .nn import GradSet, AdamState, ParamSet, adam_step, init_mlp_blocks, mlp_forward_np, mlp_var
from .task import EOS, PAD, PROMPT_LEN, TRACE_LEN, VOCAB_SIZE, canonical_trace


@dataclass(frozen=True)
class ReasoningTrace:
    """Token sequence decoded from a prompt, with its sampling-time log-probs."""

    prompt_tokens: tuple[int, ...]
    tokens: tuple[int, ...]
    logprobs: np.ndarray

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class TextLossStats:
    surrogate: float
    mean_ratio: float
    max_ratio: float
    clip_fraction: float
    mean_kl: float
    token_count: int


def _log_softmax_np(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


class TextPolicy:
    def __init__(
        self,
        vocab_size: int = VOCAB_SIZE,
        prompt_len: int = PROMPT_LEN,
        max_trace_len: int = TRACE_LEN,
        embed_dim: int = 12,
        hidden: int = 48,
    ):
        self.vocab = vocab_size
        self.prompt_len = prompt_len
        self.max_len = max_trace_len
        self.embed = embed_dim
        self.ctx = prompt_len + max_trace_len
        self.arch = (self.ctx * embed_dim, hidden, hidden, vocab_size)

    # ---- parameters ----

    def init_params(self, rng: np.random.Generator) -> ParamSet:
        blocks = {
            "wte": rng.normal(0.0, 0.3, size=(self.vocab, self.embed)),
            "wpe": rng.normal(0.0, 0.3, size=(self.ctx, self.embed)),
        }
        blocks.update(init_mlp_blocks(rng, self.arch))
        return ParamSet(blocks)

    # ---- context construction ----

    def context_rows(self, prompt_tokens, trace_tokens) -> np.ndarray:
        """(len(trace), ctx) token-id rows; row k sees prompt + trace[:k]."""
        n = len(trace_tokens)
        rows = np.full((n, self.ctx), PAD, dtype=np.int64)
        rows[:, : self.prompt_len] = prompt_tokens
        for k in range(n):
            rows[k, self.prompt_len : self.prompt_len + k] = trace_tokens[:k]
        return rows

    def _embed_np(self, params: ParamSet, ctx_rows: np.ndarray) -> np.ndarray:
        n = ctx_rows.shape[0]
        flat = params["wte"][ctx_rows.reshape(-1)].reshape(n, self.ctx * self.embed)
        return flat + params["wpe"].reshape(-1)

    def logits_np(self, params: ParamSet, ctx_rows: np.ndarray) -> np.ndarray:
        return mlp_forward_np(params, self._embed_np(params, ctx_rows), self.arch, "silu")

    def _logits_var(self, tape: Tape, params: ParamSet, ctx_rows: np.ndarray) -> Var:
        n = ctx_rows.shape[0]
        wte = tape.param(params, "wte")
        gathered = tape.gather_rows(wte, ctx_rows.reshape(-1))
        flat = tape.reshape(gathered, (n, self.ctx * self.embed))
        wpe = tape.reshape(tape.param(params, "wpe"), (self.ctx * self.embed,))
        x = tape.bias_add(flat, wpe)
        return mlp_var(tape, params, x, self.arch, "silu")

    # ---- sampling ----

    def sample_trace(self, params: ParamSet, prompts, temperature: float, max_len: int,
                     rngs=None) -> list[ReasoningTrace]:
        """Lockstep decode of one trace per prompt: each position scores every
        row that has not yet emitted EOS in one logits_np call.  Row i draws
        each token from softmax(logits / T) with one choice from rngs[i];
        without generators every row takes the argmax, ties to the lowest
        token id.  Each trace stores the log-probs of its chosen tokens at T."""
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        n = len(prompts)
        rows = np.full((n, self.ctx), PAD, dtype=np.int64)
        rows[:, : self.prompt_len] = prompts
        tokens: list[list[int]] = [[] for _ in range(n)]
        logps: list[list[float]] = [[] for _ in range(n)]
        live = np.arange(n)
        for k in range(max_len):
            logits = self.logits_np(params, rows[live])
            logp = _log_softmax_np(logits * (1.0 / temperature))
            if rngs is None:
                chosen = np.argmax(logits, axis=1)
            else:
                chosen = []
                for i, lp in zip(live, logp):
                    p = np.exp(lp)
                    p /= p.sum()
                    chosen.append(rngs[i].choice(self.vocab, p=p))
            for j, (i, tok) in enumerate(zip(live, chosen)):
                tokens[i].append(int(tok))
                logps[i].append(float(logp[j, tok]))
                rows[i, self.prompt_len + k] = tok
            live = live[np.asarray(chosen) != EOS]
            if not live.size:
                break
        return [ReasoningTrace(tuple(p), tuple(t), np.array(lp))
                for p, t, lp in zip(prompts, tokens, logps)]

    def greedy_trace(self, params: ParamSet, prompts, max_len: int | None = None):
        """Deterministic lockstep decode of one trace per prompt (sample_trace
        without generators, log-probs at T = 1)."""
        return self.sample_trace(params, prompts, 1.0, max_len or self.max_len)

    # ---- GRPO surrogate ----

    def surrogate_loss(
        self,
        params: ParamSet,
        traces: list[ReasoningTrace],
        advantages: np.ndarray,
        clip_eps: float,
        beta_txt: float,
        ref_params: ParamSet,
        temperature: float = 1.0,
    ) -> tuple[float, GradSet, TextLossStats]:
        """Clipped importance-weighted objective, averaged per token within a
        trace and across traces, minus the exact per-token KL to the reference
        head.  Both policies are scored at the sampling temperature, so the
        ratio is taken against the distribution the traces were drawn from.
        Each trace weighs 1/len(traces), so one call over several groups
        equals the mean of per-group calls.  Returns the ascent gradient."""
        G = len(traces)
        assert len(advantages) == G
        inv_t = 1.0 / temperature
        rows_list, targets, old_lp, adv_rows, w_rows, origin = [], [], [], [], [], []
        for i, tr in enumerate(traces):
            rows_list.append(self.context_rows(tr.prompt_tokens, list(tr.tokens)))
            targets.extend(tr.tokens)
            old_lp.extend(tr.logprobs)
            adv_rows.extend([advantages[i]] * len(tr))
            w_rows.extend([1.0 / (G * len(tr))] * len(tr))
            origin.extend((i, k) for k in range(len(tr)))
        rows = np.concatenate(rows_list, axis=0)
        targets = np.array(targets)
        bad = np.flatnonzero((targets < 0) | (targets >= self.vocab))
        if bad.size:
            ti, pos = origin[bad[0]]
            raise ValueError(f"token out of vocabulary at trace {ti}, position {pos}")
        old_lp = np.array(old_lp)
        adv_rows = np.array(adv_rows)
        w_rows = np.array(w_rows)

        tape = Tape()
        logits = tape.cmul(self._logits_var(tape, params, rows), inv_t)
        ls = tape.log_softmax(logits)
        logp = tape.select_cols(ls, targets)
        ratio = tape.exp(logp - old_lp)

        bad = np.flatnonzero(~np.isfinite(ratio.value))
        if bad.size:
            ti, pos = origin[bad[0]]
            raise NumericError(f"non-finite importance ratio at trace {ti}, position {pos}")

        unclipped = ratio * adv_rows
        clipped = tape.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps) * adv_rows
        per_tok = tape.minimum(unclipped, clipped)
        j = tape.sum(per_tok * w_rows)

        # exact KL(pi_theta || pi_ref) over the vocabulary, token level
        ref_ls = _log_softmax_np(self.logits_np(ref_params, rows) * inv_t)
        kl_np = float(np.sum(np.exp(ls.value) * (ls.value - ref_ls), axis=1) @ w_rows)
        if beta_txt != 0.0:
            kl_rows = tape.sum_rows(tape.softmax(logits) * (ls - ref_ls))
            j = j - tape.sum(kl_rows * (beta_txt * w_rows))
        tape.output = j

        gs = GradSet(params)
        gs.add_(tape.param_grads(1.0))
        stats = TextLossStats(
            surrogate=float(j.value),
            mean_ratio=float(ratio.value.mean()),
            max_ratio=float(ratio.value.max()),
            clip_fraction=float(np.mean(np.abs(ratio.value - 1.0) > clip_eps)),
            mean_kl=kl_np,
            token_count=len(targets),
        )
        return float(j.value), gs, stats

    # ---- supervised pretraining ----

    def ce_loss(self, params: ParamSet, rows: np.ndarray, targets: np.ndarray):
        """Mean cross-entropy over positions, with gradient."""
        tape = Tape()
        logits = self._logits_var(tape, params, rows)
        logp = tape.select_cols(tape.log_softmax(logits), targets)
        loss = tape.sum(logp * (-1.0 / len(targets)))
        tape.output = loss
        gs = GradSet(params)
        gs.add_(tape.param_grads(1.0))
        return float(loss.value), gs

    def pretrain(
        self,
        params: ParamSet,
        pairs,
        epochs: int,
        lr: float,
        batch_size: int,
        rng: np.random.Generator,
    ):
        """Cross-entropy training on (prompt, trace) pairs; reports epoch losses
        and greedy tuple accuracy over the full prompt grid."""
        from .task import all_prompts

        rows_all, tgt_all, starts, lengths = [], [], [], []
        offset = 0
        for pair in pairs:
            r = self.context_rows(pair.prompt_tokens, list(pair.trace_tokens))
            starts.append(offset)
            lengths.append(len(pair.trace_tokens))
            offset += len(pair.trace_tokens)
            rows_all.append(r)
            tgt_all.extend(pair.trace_tokens)
        rows_all = np.concatenate(rows_all, axis=0)
        tgt_all = np.array(tgt_all)

        state = AdamState.for_params(params, lr=lr)
        epoch_losses: list[float] = []
        n_pairs = len(pairs)
        for _ in range(epochs):
            order = rng.permutation(n_pairs)
            total, count = 0.0, 0
            for lo in range(0, n_pairs, batch_size):
                sel = order[lo : lo + batch_size]
                idx = np.concatenate([
                    np.arange(starts[i], starts[i] + lengths[i]) for i in sel
                ])
                loss, gs = self.ce_loss(params, rows_all[idx], tgt_all[idx])
                params = adam_step(params, gs, state)
                total += loss * len(idx)
                count += len(idx)
            epoch_losses.append(total / count)

        prompts = list(all_prompts())
        greedy = self.greedy_trace(params, [p.tokens for p in prompts])
        acc = float(np.mean([g.tokens == canonical_trace(p) for g, p in zip(greedy, prompts)]))
        monotone = all(b <= a + 1e-9 for a, b in zip(epoch_losses, epoch_losses[1:]))
        report = {
            "epoch_losses": epoch_losses,
            "greedy_accuracy": acc,
            "loss_monotone": monotone,
        }
        return params, report
