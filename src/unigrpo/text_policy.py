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
from .nn import (LossStats, ParamSet, clipped_objective, fit, init_mlp_blocks, mlp_forward_np,
                 mlp_var)
from .task import (EOS, PAD, PROMPT_LEN, PROMPT_TOKENS, VOCAB_SIZE, canonical_accuracy,
                   trace_lengths)


@dataclass
class TextUpdateBatch:
    """Everything a text surrogate needs besides theta, built once per update:
    n scored rows, one per (trace, position), trace by trace, over the u
    distinct contexts they read (group members share their prompt row and
    often a prefix), each context scored once."""

    rows: np.ndarray       # (u, ctx) distinct context token ids, in sorted order
    cells: np.ndarray      # (u * ctx * embed,) embedding-table cell of each input entry
    inverse: np.ndarray    # (n,) distinct context of each scored row
    targets: np.ndarray    # (n,) token scored at each row
    owner: np.ndarray      # (n,) trace of each row
    position: np.ndarray   # (n,) position of each row in its trace
    old_logp: np.ndarray | None  # (n,) log-probs at the sampling parameters, once known
    adv: np.ndarray        # (n,) advantage of each row's trace
    weight: np.ndarray     # (n,) 1 / (traces * trace length)
    inv_t: float


def log_softmax_np(z: np.ndarray) -> np.ndarray:
    """Row log-softmax of a 2-D array, stable under large logits."""
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _pick_vjp(logp: np.ndarray, rows: np.ndarray, targets: np.ndarray,
              g_pick: np.ndarray) -> np.ndarray:
    """Logits gradient through the log-softmax rows `logp` and their entries
    picked at (`rows`, `targets`), given the picks' gradient (one per pick or
    one for all, summed per entry in pick order)."""
    g_pick = np.broadcast_to(g_pick, targets.shape)
    g = np.bincount(rows * logp.shape[1] + targets, g_pick, logp.size).reshape(logp.shape)
    return g - np.exp(logp) * g.sum(axis=-1, keepdims=True)


class TextPolicy:
    def __init__(self, max_trace_len: int, embed_dim: int, hidden: int):
        self.vocab = VOCAB_SIZE
        self.prompt_len = PROMPT_LEN
        self.max_len = max_trace_len
        self.embed = embed_dim
        self.ctx = PROMPT_LEN + max_trace_len
        self.arch = (self.ctx * embed_dim, hidden, hidden, VOCAB_SIZE)

    # ---- parameters ----

    def init_params(self, rng: np.random.Generator) -> ParamSet:
        blocks = {
            "wte": rng.normal(0.0, 0.3, size=(self.vocab, self.embed)),
            "wpe": rng.normal(0.0, 0.3, size=(self.ctx, self.embed)),
        }
        blocks.update(init_mlp_blocks(rng, self.arch))
        return ParamSet(blocks)

    # ---- context construction ----

    def token_rows(self, seqs: np.ndarray):
        """Context rows of every position of every trace of the text rows
        `seqs` (traces up to max_len + 1 wide), trace by trace: the row of
        position k of trace i holds prompt i, then trace i[:k], then PAD, and
        predicts trace i[k].  Returns (rows, targets, owner, position)."""
        P = self.prompt_len
        lens = trace_lengths(seqs[:, P:])
        owner = np.repeat(np.arange(len(lens)), lens)
        position = np.arange(owner.size) - np.repeat(np.cumsum(lens) - lens, lens)
        targets = seqs[owner, P + position]
        # a trace may be one token longer than the context holds: its last
        # token is only ever a target
        w = min(seqs.shape[1], self.ctx)
        rows = np.full((owner.size, self.ctx), PAD, dtype=np.int64)
        rows[:, :w] = seqs[owner, :w]
        rows[:, P:][np.arange(self.max_len) >= position[:, None]] = PAD
        return rows, targets, owner, position

    def _embed_np(self, params: ParamSet, ctx_rows: np.ndarray) -> np.ndarray:
        n = ctx_rows.shape[0]
        flat = params["wte"][ctx_rows.reshape(-1)].reshape(n, self.ctx * self.embed)
        return flat + params["wpe"].reshape(-1)

    def logits_np(self, params: ParamSet, ctx_rows: np.ndarray) -> np.ndarray:
        return mlp_forward_np(params, self._embed_np(params, ctx_rows), self.arch, "silu")

    def _cells(self, ctx_rows: np.ndarray) -> np.ndarray:
        """Flat embedding-table cell of every entry of the embedded rows."""
        return (ctx_rows.reshape(-1, 1) * self.embed + np.arange(self.embed)).reshape(-1)

    def _logits_var(self, tape: Tape, params: ParamSet, ctx_rows: np.ndarray,
                    cells: np.ndarray) -> Var:
        """Logits on the tape: the token and position embeddings as one node,
        whose table gradient scatters back by bincount over `cells` (each
        cell summed in row order, as np.add.at sums it), then the MLP node."""
        wte, wpe = tape.param(params, "wte"), tape.param(params, "wpe")

        def vjp(g):
            g_wte = np.bincount(cells, g.reshape(-1), self.vocab * self.embed)
            return g_wte.reshape(self.vocab, self.embed), g.sum(axis=0).reshape(self.ctx, -1)

        x = tape.node(self._embed_np(params, ctx_rows), [wte, wpe], vjp)
        return mlp_var(tape, params, x, self.arch, "silu")

    # ---- sampling ----

    def sample_trace(self, params: ParamSet, prompts: np.ndarray, temperature: float,
                     uniforms: np.ndarray | None = None) -> np.ndarray:
        """Lockstep decode of one trace per row of the (n, prompt_len) prompt
        tokens: each position scores every row that has not yet emitted EOS
        in one logits_np call.  Row i draws token k from
        softmax(logits / T) by inverse CDF at uniforms[i, k] (the rule
        Generator.choice applies to one uniform); without uniforms every row
        takes the argmax, ties to the lowest token id.  Returns the
        (n, ctx) text rows [prompt | trace]."""
        n = len(prompts)
        rows = np.full((n, self.ctx), PAD, dtype=np.int64)
        rows[:, : self.prompt_len] = prompts
        live = np.arange(n)
        for k in range(self.max_len):
            logits = self.logits_np(params, rows[live])
            if uniforms is None:
                chosen = np.argmax(logits, axis=1)
            else:
                p = np.exp(log_softmax_np(logits * (1.0 / temperature)))
                p /= p.sum(axis=1, keepdims=True)
                cdf = p.cumsum(axis=1)
                cdf /= cdf[:, -1:]
                bad = np.flatnonzero(~np.isfinite(cdf[:, -1]))
                if bad.size:
                    raise NumericError(f"non-finite token probabilities in row {live[bad[0]]}")
                chosen = (cdf <= uniforms[live, k, None]).sum(axis=1)
            rows[live, self.prompt_len + k] = chosen
            live = live[chosen != EOS]
            if not live.size:
                break
        return rows

    def greedy_trace(self, params: ParamSet, prompts: np.ndarray) -> np.ndarray:
        """Deterministic lockstep decode of one trace per prompt row
        (sample_trace without uniforms)."""
        return self.sample_trace(params, prompts, 1.0)

    # ---- GRPO surrogate ----

    def prepare_batch(self, seqs: np.ndarray, advantages: np.ndarray,
                      temperature: float) -> TextUpdateBatch:
        """The per-update part of the surrogate for the text rows `seqs`:
        the distinct context rows (sorted, so their order is fixed by the
        rows alone) and each scored row's index into them, targets, per-row
        advantages and weights.  The old log-probs are left to the first
        surrogate_loss call.  Each trace weighs 1/len(seqs), so one batch
        over several groups equals the mean of per-group batches."""
        G = len(seqs)
        rows, targets, owner, position = self.token_rows(seqs)
        weight = 1.0 / (G * np.bincount(owner, minlength=G)[owner])
        # one byte string per row: np.unique sorts and merges them whole
        keys = rows.view(np.dtype((np.void, rows.itemsize * self.ctx))).ravel()
        distinct, inverse = np.unique(keys, return_inverse=True)
        rows = distinct.view(np.int64).reshape(-1, self.ctx)
        return TextUpdateBatch(rows, self._cells(rows), inverse, targets, owner, position, None,
                               np.asarray(advantages, dtype=np.float64)[owner], weight,
                               1.0 / temperature)

    def surrogate_loss(
        self, params: ParamSet, batch: TextUpdateBatch, clip_eps: float,
    ) -> tuple[float, np.ndarray, LossStats]:
        """Clipped importance-weighted objective, averaged per token within a
        trace and across traces.  The policy is scored at the sampling
        temperature, so the ratio is taken against the distribution the
        traces were drawn from.  Everything after the MLP is one fused head
        node.  The first call on a batch must be at the sampling parameters:
        its picked log-probs become the batch's old log-probs, so every ratio
        of that call is exactly 1.  The net and the softmax run once per
        distinct context; each scored row picks from its context's
        log-softmax.  Returns the ascent gradient."""
        b = batch
        tape = Tape()
        out = self._logits_var(tape, params, b.rows, b.cells)
        logp = log_softmax_np(out.value * b.inv_t)
        pick = logp[b.inverse, b.targets]
        if b.old_logp is None:
            b.old_logp = pick
        ratio = np.exp(pick - b.old_logp)
        bad = np.flatnonzero(~np.isfinite(ratio))
        if bad.size:
            raise NumericError(f"non-finite importance ratio at trace {b.owner[bad[0]]}, "
                               f"position {b.position[bad[0]]}")

        j, clip_vjp, stats = clipped_objective(ratio, b.adv, b.weight, clip_eps)

        def vjp(g):
            return (_pick_vjp(logp, b.inverse, b.targets, clip_vjp(g) * ratio) * b.inv_t,)

        tape.output = tape.node(j, [out], vjp)
        return float(j), tape.param_grads(1.0), stats

    # ---- supervised pretraining ----

    def ce_loss(self, params: ParamSet, rows: np.ndarray, targets: np.ndarray):
        """Mean cross-entropy over positions, with gradient."""
        tape = Tape()
        out = self._logits_var(tape, params, rows, self._cells(rows))
        logp = log_softmax_np(out.value)
        scale = -1.0 / len(targets)
        each = np.arange(len(targets))
        loss = np.sum(logp[each, targets] * scale)
        tape.output = tape.node(loss, [out], lambda g: (_pick_vjp(logp, each, targets, g * scale),))
        return float(loss), tape.param_grads(1.0)

    def pretrain(
        self,
        params: ParamSet,
        seqs: np.ndarray,
        epochs: int,
        lr: float,
        batch_size: int,
        rng: np.random.Generator,
    ):
        """Cross-entropy training on the text rows `seqs`, a batch taking its
        traces' rows in batch order; an epoch's loss weighs each batch by
        its rows.  Reports epoch losses and greedy tuple accuracy over the
        full prompt grid."""
        rows_all, tgt_all, _, position = self.token_rows(seqs)
        first = np.flatnonzero(position == 0)
        lens = np.diff(first, append=len(position))

        def batch_loss(params, sel):
            n = lens[sel]
            idx = np.repeat(first[sel] - np.cumsum(n) + n, n) + np.arange(n.sum())
            return (*self.ce_loss(params, rows_all[idx], tgt_all[idx]), len(idx))

        params, epoch_losses = fit(params, len(seqs), epochs, batch_size, lr, rng, batch_loss)

        greedy = self.greedy_trace(params, PROMPT_TOKENS)[:, self.prompt_len:]
        monotone = all(b <= a + 1e-9 for a, b in zip(epoch_losses, epoch_losses[1:]))
        report = {
            "greedy_accuracy": canonical_accuracy(greedy, np.arange(len(PROMPT_TOKENS))),
            "epoch_losses": epoch_losses,
            "loss_monotone": monotone,
        }
        return params, report
