"""Task-family contracts: prompt sampling, rewards, reasoning dependence."""

import numpy as np
import pytest
from prompt_draws import (BANDS, ORACLE_PROMPTS, QUADRANTS, SPREADS, SURFACE_WORDS, all_tuples,
                          prompt_id, random_prompts)
from reference_ops import trace_tokens
from reference_reward import BAND_SPLIT, QUAD_DIRS, TAU_R, reference_reward, reference_target

from unigrpo import task
from unigrpo.rng import below, stream, words
from unigrpo.task import (
    CANONICAL_TRACES,
    EOS,
    PAD,
    PROMPT_BOUNDS,
    PROMPT_DRAWS,
    PROMPT_TOKENS,
    TOKEN_NAMES,
    draw_prompts,
    make_pretrain_data,
    prompt_ids,
    score,
    targets,
    trace_lengths,
)

# canonical trace -> (quadrant, band, spread)
DECODE = {p.trace: (p.quadrant, p.band, p.spread) for p in ORACLE_PROMPTS}
# prompt tokens -> prompt
PROMPTS = {p.tokens: p for p in ORACLE_PROMPTS}
# per attribute position, the canonical tokens of its values
CANON_TOKENS = [{p.trace[pos] for p in ORACLE_PROMPTS} for pos in range(3)]


def _text_columns(seqs):
    """The prompt and trace tuples of the text rows `seqs`."""
    rows = seqs.tolist()
    return [tuple(r[:3]) for r in rows], [tuple(r[3:]) for r in rows]


def score_one(x0, prompt, reward_mode="smooth") -> float:
    """The array score of a single row against prompt id `prompt`."""
    rewards, _ = score(np.asarray(x0)[None], [prompt], reward_mode)
    return rewards[0]


def target_spec(quadrant, band, spread):
    """(mu, tau) of an attribute tuple's Gaussian target, by the reference."""
    return reference_target(prompt_id(quadrant, band, spread))


def _closed_form_expected_reward(mu_true, mu_gen, tau_gen, tau_r):
    """Gaussian integral oracle: E[exp(-||x - mu_true||^2 / 2 tau_r^2)],
    x ~ N(mu_gen, tau_gen^2 I), derived per dimension by completing the square."""
    factor = tau_r**2 / (tau_r**2 + tau_gen**2)
    shift = np.sum((np.asarray(mu_gen) - np.asarray(mu_true)) ** 2)
    return factor * np.exp(-shift / (2.0 * (tau_r**2 + tau_gen**2)))


class TestPrompts:
    def test_fixed_seed_repeats(self):
        a = random_prompts(7, "p", 20)
        assert a.shape == (20,) and a.dtype == np.int64
        np.testing.assert_array_equal(a, random_prompts(7, "p", 20))
        assert (a != random_prompts(8, "p", 20)).any()

    def test_each_row_is_its_words(self):
        # counter-addressed: a row's prompt depends on its own words only
        a = random_prompts(7, "p", 20)
        index = [(0, i, 0) for i in range(20)]
        w = words(7, "p", index, 6)
        np.testing.assert_array_equal(draw_prompts(7, "p", index[5:9], w[5:9]), a[5:9])

    def test_draws_give_the_formula_ids(self):
        # the six draws of a row name its tuple's values and synonyms
        index = [(0, i, 0) for i in range(500)]
        w = words(3, "ids", index, 6)
        draws = below(3, "ids", index, w, PROMPT_BOUNDS).tolist()
        want = [prompt_id(QUADRANTS[q], BANDS[b], SPREADS[s], syn) for q, b, s, *syn in draws]
        assert draw_prompts(3, "ids", index, w).tolist() == want

    def test_tuple_frequencies_uniform(self):
        n = 10_000
        prompts = [ORACLE_PROMPTS[i] for i in random_prompts(0, "freq", n)]
        counts = {}
        for p in prompts:
            key = (p.quadrant, p.band, p.spread)
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 16
        for key, c in counts.items():
            assert abs(c / n - 1 / 16) < 0.01, key
        # every prompt token is one of its attribute's three synonyms
        for pos, kind in enumerate(("quad", "band", "spread")):
            syn = [SURFACE_WORDS[kind, (p.quadrant, p.band, p.spread)[pos]].index(
                TOKEN_NAMES[p.tokens[pos]]) for p in prompts]
            freq = np.bincount(syn, minlength=3) / n
            assert np.all(np.abs(freq - 1 / 3) < 0.02), (pos, freq)

    def test_every_prompt_decodes_to_valid_target(self):
        mu, tau = targets(PROMPT_DRAWS[:, :3])
        assert mu.shape == (432, 2) and tau.shape == (432,)
        assert np.all(tau > 0)
        for p in ORACLE_PROMPTS:
            d = QUAD_DIRS[p.quadrant]
            assert np.sign(mu[p.prompt_id, 0]) == np.sign(d[0])
            assert np.sign(mu[p.prompt_id, 1]) == np.sign(d[1])

    def test_targets_match_the_reference_bit_for_bit(self):
        mu, tau = targets(PROMPT_DRAWS[:, :3])
        for i in range(432):
            ref_mu, ref_tau = reference_target(i)
            assert mu[i].tobytes() == ref_mu.tobytes() and tau[i] == ref_tau, i

    def test_prompt_ids_unique(self):
        ids = [p.prompt_id for p in ORACLE_PROMPTS]
        assert ids == list(range(432))
        assert PROMPT_DRAWS.shape == (432, 6)
        np.testing.assert_array_equal(prompt_ids(PROMPT_DRAWS), np.arange(432))
        for p in ORACLE_PROMPTS:
            want = [p.quadrant - 1, BANDS.index(p.band), SPREADS.index(p.spread), *p.syn]
            assert PROMPT_DRAWS[p.prompt_id].tolist() == want

    def test_tables_match_the_per_prompt_construction(self):
        assert TOKEN_NAMES == ["<pad>", "<eos>", "QUAD_1", "QUAD_2", "QUAD_3", "QUAD_4",
                               "BAND_NEAR", "BAND_FAR", "SPREAD_TIGHT", "SPREAD_WIDE",
                               *(w for syns in SURFACE_WORDS.values() for w in syns)]
        assert PROMPT_TOKENS.tolist() == [list(p.tokens) for p in ORACLE_PROMPTS]
        assert CANONICAL_TRACES.tolist() == [list(p.trace) for p in ORACLE_PROMPTS]
        assert PROMPT_TOKENS.dtype == CANONICAL_TRACES.dtype == np.int64


class TestCanonicalTrace:
    def test_synonyms_share_trace(self):
        a = prompt_id(1, "near", "wide", (0, 0, 0))
        b = prompt_id(1, "near", "wide", (2, 1, 2))
        assert (PROMPT_TOKENS[a] != PROMPT_TOKENS[b]).any()
        np.testing.assert_array_equal(CANONICAL_TRACES[a], CANONICAL_TRACES[b])

    def test_length_four_with_eos(self):
        assert CANONICAL_TRACES.shape == (432, 4)
        assert np.all(CANONICAL_TRACES[:, -1] == EOS)


class TestTraceLengths:
    @pytest.mark.parametrize("rows,lengths", [
        ([[2, 6, 8, EOS]], [4]),              # a canonical trace
        ([[EOS, PAD, PAD, PAD]], [1]),        # EOS only
        ([[2, EOS, PAD, PAD]], [2]),          # PAD after the EOS
        ([[PAD, 3, EOS, PAD]], [3]),          # a sampled PAD before the EOS
        ([[2, PAD, 7, PAD]], [4]),            # filled without EOS: every token counts
        ([[EOS, EOS, 5, EOS]], [1]),          # the first EOS ends it
        ([[EOS], [5]], [1, 1]),               # one column
        ([[3, 4, 5, 6, 7, EOS, PAD]], [6]),   # wider than a canonical trace
    ])
    def test_edge_rows(self, rows, lengths):
        assert trace_lengths(np.array(rows)).tolist() == lengths

    def test_no_rows(self):
        assert trace_lengths(np.zeros((0, 4), dtype=np.int64)).shape == (0,)

    def test_matches_per_row_rule(self):
        rows = stream(3, "lengths").integers(0, 4, size=(500, 6))  # PAD and EOS often
        assert trace_lengths(rows).tolist() == [len(trace_tokens(row)) for row in rows]


class TestReward:
    def test_at_target_mean_is_one(self):
        mu, _ = target_spec(2, "far", "tight")
        assert score_one(mu, prompt_id(2, "far", "tight")) == pytest.approx(1.0)

    def test_one_tau_r_away(self):
        mu, _ = target_spec(1, "near", "tight")
        x = mu + np.array([TAU_R, 0.0])
        assert score_one(x, prompt_id(1, "near", "tight")) == pytest.approx(np.exp(-0.5),
                                                                            abs=1e-12)

    def test_binary_mode(self):
        p = prompt_id(1, "near", "tight")
        mu, _ = target_spec(1, "near", "tight")
        assert score_one(mu, p, "binary") == 1.0
        assert score_one(-mu, p, "binary") == 0.0      # wrong quadrant
        far_mu, _ = target_spec(1, "far", "tight")
        assert score_one(far_mu, p, "binary") == 0.0   # wrong band

    def test_nonfinite_sample_scores_zero(self):
        p = prompt_id(1, "near", "tight")
        assert score_one(np.array([np.nan, 0.0]), p) == 0.0

    def test_bounded_and_pure(self):
        rng = stream(1, "rwd")
        p = prompt_id(3, "far", "wide")
        for _ in range(200):
            x = rng.normal(size=2) * 3
            r = score_one(x, p)
            assert 0.0 <= r <= 1.0
            assert r == score_one(x, p)

    def test_expected_reward_matches_gaussian_integral(self):
        # Monte Carlo vs closed form, correct conditioning
        rng = stream(2, "head")
        for q, b, s in [(1, "near", "tight"), (4, "far", "wide")]:
            mu, tau = target_spec(q, b, s)
            xs = mu + tau * rng.standard_normal((200_000, 2))
            mc = np.mean(np.exp(-np.sum((xs - mu) ** 2, 1) / (2 * TAU_R**2)))
            closed = _closed_form_expected_reward(mu, mu, tau, TAU_R)
            assert closed == pytest.approx(TAU_R**2 / (TAU_R**2 + tau**2))
            assert mc == pytest.approx(closed, abs=0.01)

    def test_wrong_trace_lowers_expected_reward(self):
        # Sampling from the distribution a wrong trace would condition yields a
        # Monte-Carlo reward gap > 0.2 vs the correct trace, averaged over the
        # 15 wrong tuples.  (A trace wrong only in spread can score higher when
        # it tightens the samples; the aggregate gap is what joint optimization
        # feeds on.)
        rng = stream(3, "gap")
        n = 4000

        def mean_reward(gen_spec, true_spec):
            xs = gen_spec[0] + gen_spec[1] * rng.standard_normal((n, 2))
            return np.mean(np.exp(-np.sum((xs - true_spec[0]) ** 2, 1) / (2 * TAU_R**2)))

        # the vectorized scoring above agrees with score() itself
        p0 = prompt_id(2, "far", "wide")
        mu0, _ = target_spec(2, "far", "wide")
        x0 = mu0 + 0.3
        assert score_one(x0, p0) == pytest.approx(
            np.exp(-np.sum((x0 - mu0) ** 2) / (2 * TAU_R**2))
        )

        worst_gap = np.inf
        for q, b, s in all_tuples():
            true_spec = target_spec(q, b, s)
            correct = mean_reward(true_spec, true_spec)
            wrong_vals = [
                mean_reward(target_spec(q2, b2, s2), true_spec)
                for q2, b2, s2 in all_tuples()
                if (q2, b2, s2) != (q, b, s)
            ]
            worst_gap = min(worst_gap, correct - np.mean(wrong_vals))
        assert worst_gap > 0.2


class TestScoreOracle:
    """The array score against the scalar reference, row by row, bit for bit."""

    N = 100_000

    def _rows(self, seed):
        rng = np.random.default_rng(seed)
        rows = rng.integers(432, size=self.N)
        mu = np.array([reference_target(i)[0] for i in range(432)])[rows]
        x = mu + 0.3 * rng.standard_normal((self.N, 2))
        part = rng.integers(6, size=self.N)
        wide = part == 1
        x[wide] = rng.uniform(-2.5, 2.5, size=(int(wide.sum()), 2))
        # on the band_split circle, up to rounding
        circ = part == 2
        theta = rng.uniform(0.0, 2.0 * np.pi, size=int(circ.sum()))
        x[circ] = BAND_SPLIT * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        # one coordinate zero, of either sign
        zero = np.flatnonzero(part == 3)
        x[zero, rng.integers(2, size=len(zero))] = rng.choice([0.0, -0.0], size=len(zero))
        # exactly on band_split: the tiny coordinate's square underflows
        split = np.flatnonzero(part == 4)
        axis = rng.integers(2, size=len(split))
        x[split, axis] = BAND_SPLIT * rng.choice([-1.0, 1.0], size=len(split))
        x[split, 1 - axis] = rng.choice([-1e-200, 1e-200, 0.0], size=len(split))
        # non-finite and overflowing coordinates
        bad = np.flatnonzero(part == 5)
        x[bad, rng.integers(2, size=len(bad))] = rng.choice(
            [np.nan, np.inf, -np.inf, 1e200, -1e300], size=len(bad))
        x[:4] = [[0.0, 0.0], [np.nan, np.nan], [np.inf, np.nan], [-0.0, -0.0]]
        return x, rows

    @pytest.mark.parametrize("reward_mode", ["smooth", "binary"])
    def test_matches_scalar_reference_bit_for_bit(self, reward_mode):
        x, rows = self._rows(11)
        with np.errstate(over="ignore"):
            rewards, finite = score(x, rows, reward_mode)
            ref = np.array([reference_reward(xx, p, reward_mode) for xx, p in zip(x, rows)])
        np.testing.assert_array_equal(finite, np.isfinite(x).all(axis=1))
        assert rewards.dtype == np.float64 and rewards.shape == (self.N,)
        mismatch = np.flatnonzero(rewards.view(np.int64) != ref.view(np.int64))
        assert mismatch.size == 0, (mismatch[:5], x[mismatch[:5]], rewards[mismatch[:5]])
        # the cases the rows were built to hit are there
        on_split = np.hypot(x[:, 0], x[:, 1]) == BAND_SPLIT
        assert np.sum(on_split & (x != 0.0).all(axis=1)) > 1000
        assert np.sum(~finite) > 1000 and np.sum((x == 0.0).any(axis=1)) > 1000
        if reward_mode == "binary":
            assert np.sum(on_split & (ref == 1.0)) > 100
            assert 0.2 < ref.mean() < 0.8


class TestPretrainData:
    def test_zero_noise_gives_canonical_traces(self, monkeypatch):
        monkeypatch.setattr(task, "P_NOISE", 0.0)
        seqs, _ = make_pretrain_data(4, 500, 1)
        assert seqs.shape == (500, 7) and seqs.dtype == np.int64
        for tokens, trace in zip(*_text_columns(seqs)):
            q, b, s = DECODE[trace]
            prompt = PROMPTS[tokens]
            assert trace == prompt.trace
            assert (q, b, s) == (prompt.quadrant, prompt.band, prompt.spread)

    def test_corruption_rate(self):
        prompts, traces = _text_columns(make_pretrain_data(5, 10_000, 1)[0])
        # a corrupted trace differs from its prompt's canonical trace in one token
        wrong = [sum(a != b for a, b in zip(trace, PROMPTS[tokens].trace))
                 for tokens, trace in zip(prompts, traces)]
        assert set(wrong) == {0, 1}
        frac = np.mean(wrong)
        assert abs(frac - 0.25) < 0.02
        positions = []
        for tokens, trace, w in zip(prompts, traces, wrong):
            assert len(trace) == 4 and trace[3] == EOS
            if not w:
                continue
            right = PROMPTS[tokens].trace
            pos = next(i for i in range(3) if trace[i] != right[i])
            # the swapped token is another canonical value of the same attribute
            assert trace[pos] in CANON_TOKENS[pos] and trace[pos] != right[pos]
            positions.append(pos)
        share = np.bincount(positions, minlength=3) / len(positions)
        assert np.all(np.abs(share - 1 / 3) < 0.03), share
        # a swapped quadrant is any of the three wrong ones
        shift = np.bincount([(trace[0] - PROMPTS[tokens].trace[0]) % 4
                             for tokens, trace in zip(prompts, traces)], minlength=4)[1:]
        assert np.all(np.abs(shift / shift.sum() - 1 / 3) < 0.05), shift

    def test_examples_are_counter_addressed(self):
        # example i's draws do not depend on how many examples are drawn
        s, (c, x0) = make_pretrain_data(9, 50, 30)
        s2, (c2, x2) = make_pretrain_data(9, 400, 300)
        assert s.tobytes() == s2[:50].tobytes() and c.tobytes() == c2[:30].tobytes()
        assert x0.tobytes() == x2[:30].tobytes()

    def test_flow_pair_sample_means(self):
        _, (conds, x0) = make_pretrain_data(6, 1, 16_000)
        assert x0.shape == (16_000, 2) and conds.shape == (16_000, 4)
        by_cond = {}
        for cond, x in zip(map(tuple, conds.tolist()), x0):
            by_cond.setdefault(cond, []).append(x)
        assert len(by_cond) == 16
        for cond, xs in by_cond.items():
            q, b, s = DECODE[cond]
            mu, tau = target_spec(q, b, s)
            xs = np.array(xs)
            se = 3 * tau / np.sqrt(len(xs))
            assert np.all(np.abs(xs.mean(axis=0) - mu) < se + 1e-9)
