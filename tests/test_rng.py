"""Random draws: the vectorized Philox against numpy's, the per-tag key, and
the transforms from words to variates."""

import numpy as np
import pytest

from unigrpo.rng import _tag_words, below, normals, philox4x64, stream, tag_key, uniforms, words

U64 = 2**64


def _to_int(ctr) -> int:
    return sum(int(w) << (64 * i) for i, w in enumerate(ctr))


def _to_words(value: int) -> list[int]:
    return [(value >> (64 * i)) % U64 for i in range(4)]


class TestPhilox:
    def test_matches_numpy_philox_with_carries(self):
        rng = np.random.default_rng(11)
        for trial in range(60):
            key = rng.integers(0, U64, size=2, dtype=np.uint64)
            ctr = rng.integers(0, U64, size=4, dtype=np.uint64)
            # counters whose increments carry across one, two and three words
            if trial % 4 == 1:
                ctr[0] = U64 - 1
            elif trial % 4 == 2:
                ctr[:2] = U64 - 1
            elif trial % 4 == 3:
                ctr[:3] = U64 - 2 + int(rng.integers(0, 2))
            raw = np.random.Philox(key=key, counter=ctr).random_raw(12)
            # numpy increments the 256-bit counter before each 4-word block
            start = _to_int(ctr)
            blocks = np.array([_to_words((start + b) % 2**256) for b in (1, 2, 3)],
                              dtype=np.uint64)
            np.testing.assert_array_equal(philox4x64(blocks, key).ravel(), raw)

    def test_counter_wraps_at_256_bits(self):
        key = np.array([3, 5], dtype=np.uint64)
        top = np.full(4, U64 - 1, dtype=np.uint64)
        raw = np.random.Philox(key=key, counter=top).random_raw(4)
        np.testing.assert_array_equal(philox4x64(np.zeros(4, dtype=np.uint64), key), raw)

    def test_tag_key_is_the_stream_key(self):
        for seed, tag in ((0, "trace"), (101, "flow"), (2**40 + 3, "eval-noise")):
            ss = np.random.SeedSequence(entropy=seed, spawn_key=_tag_words(tag))
            expected = np.random.Philox(ss).state["state"]["key"]
            np.testing.assert_array_equal(tag_key(seed, tag), expected)
            assert not tag_key(seed, tag).flags.writeable

    def test_words_layout(self):
        # word j of a row is lane j % 4 of the block at counter (j // 4, *index)
        index = [(7, 2, 5), (0, 0, 0), (3, 9, 1)]
        got = words(101, "flow", index, 9)
        assert got.shape == (3, 9) and got.dtype == np.uint64
        key = tag_key(101, "flow")
        for row, (u, s, m) in zip(got, index):
            first = u * 2**64 + s * 2**128 + m * 2**192
            raw = np.random.Philox(key=key, counter=(first - 1) % 2**256).random_raw(12)
            np.testing.assert_array_equal(row, raw[:9])

    def test_uniforms_match_generator_random(self):
        key = tag_key(5, "trace")
        raw_rng = np.random.Philox(key=key)
        w = raw_rng.random_raw(8).astype(np.uint64)
        expected = np.random.Generator(np.random.Philox(key=key)).random(8)
        np.testing.assert_array_equal(uniforms(w), expected)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            words(0, "trace", [(1, 0, 0), (1, -1, 0)], 4)
        with pytest.raises(ValueError, match="non-negative"):
            stream(0, "trace", 1, -1, 0)


class TestTransforms:
    def test_box_muller_moments(self):
        # 400k normals: mean, variance, pair correlation and the 2-sigma mass
        # each within 4 standard errors
        index = [(0, i, 0) for i in range(20_000)]
        z = normals(words(3, "bm", index, 20))
        n = z.size
        assert z.shape == (20_000, 20)
        assert abs(z.mean()) * np.sqrt(n) < 4.0
        assert abs(z.var() - 1.0) / np.sqrt(2.0 / n) < 4.0
        pairs = z.reshape(-1, 2)
        assert abs(np.mean(pairs[:, 0] * pairs[:, 1])) * np.sqrt(n / 2) < 4.0
        p2 = 0.9544997361036416
        inside = np.mean(np.abs(z) < 2.0)
        assert abs(inside - p2) / np.sqrt(p2 * (1 - p2) / n) < 4.0

    def test_box_muller_formula(self):
        w = np.array([[0, 1 << 63, U64 - 1, 0]], dtype=np.uint64)
        u = uniforms(w)[0]
        np.testing.assert_array_equal(u, [0.0, 0.5, 1.0 - 2.0**-53, 0.0])
        z = normals(w)[0]
        r = np.sqrt(-2.0 * np.log1p(-u[2]))
        np.testing.assert_array_equal(z, [0.0, 0.0, r, 0.0])

    @pytest.mark.parametrize("n", [1, 3, 5, 6, 7, 2**32 + 1, 2**63 + 1, U64 - 1])
    def test_below_is_lemire_on_crafted_words(self, n):
        # exact integer Lemire: high half of w * n unless the low half is
        # below 2**64 mod n, in which case the row redraws from lane 0 of the
        # blocks at counter (2**63 + r, *index).  The word 0 is rejected for
        # every n > 1 here, and about half of all words at n = 2**63 + 1.
        index = [(1, i, 2) for i in range(40)]
        crafted = [0, 1, 2, 3, U64 - 1, U64 - 2, 1 << 63, (1 << 63) - 1, 12345]
        crafted += [(U64 // 3) + 1, U64 // n, (U64 // n) * 2 + 1]
        crafted += np.random.default_rng(n % 97).integers(0, U64, 28, np.uint64).tolist()
        w = np.array([c % U64 for c in crafted], dtype=np.uint64)
        key = tag_key(4, "bnd")
        threshold = (U64 - n) % n
        expected, redraws = [], []
        for (a, b, c), word in zip(index, w.tolist()):
            r = 0
            while (word * n) % U64 < threshold:
                ctr = np.array([(1 << 63) + r, a, b, c], dtype=np.uint64)
                word = int(philox4x64(ctr, key)[0])
                r += 1
            expected.append((word * n) >> 64)
            redraws.append(r)
        assert below(4, "bnd", index, w, n).tolist() == expected
        assert all(0 <= v < n for v in expected)
        assert (redraws[0] > 0) == (n > 1)
        if n == 2**63 + 1:
            assert max(redraws) >= 2

    def test_below_columns_redraw_at_their_own_addresses(self):
        # (rows, k) words with a bound per column: the r-th redraw of column c
        # is lane c % 4 of the block at counter (2**63 + r * ceil(k / 4) + c // 4,
        # *index).  At n = 2**63 + 1 about half of all words reject, and the word
        # 0 always does, so row 0's columns 0, 1 and 4 all reject at first.
        n, k = 2**63 + 1, 6
        bounds = (n, n, 3, 5, n, 2**32 + 1)
        index = [(3, i, 7) for i in range(30)]
        w = np.random.default_rng(5).integers(0, U64, (30, k), np.uint64)
        w[0, [0, 1, 4]] = 0
        key = tag_key(4, "cols")
        expected = np.zeros((30, k), dtype=object)
        first_redraw = {}
        for i, (a, b, c) in enumerate(index):
            for col, bound in enumerate(bounds):
                word, r = int(w[i, col]), 0
                while (word * bound) % U64 < (U64 - bound) % bound:
                    block = (1 << 63) + r * 2 + col // 4
                    ctr = np.array([block, a, b, c], dtype=np.uint64)
                    word = int(philox4x64(ctr, key)[col % 4])
                    first_redraw.setdefault((i, col), word)
                    r += 1
                expected[i, col] = (word * bound) >> 64
        got = below(4, "cols", index, w, bounds)
        assert got.shape == (30, k) and got.tolist() == expected.tolist()
        assert sum(col in (0, 1, 4) for _, col in first_redraw) > 20
        # two rejecting columns of one row redraw different words
        redraws = [first_redraw[(0, col)] for col in (0, 1, 4)]
        assert len(set(redraws)) == 3
        # columns that reject nothing give the one-column result at their bound,
        # whatever the other columns redraw
        for col in (2, 3, 5):
            assert got[:, col].tolist() == below(4, "cols", index, w[:, col], bounds[col]).tolist()

    def test_below_rejects_bad_bounds(self):
        for n in (0, U64, (3, 0), (2, U64)):
            with pytest.raises(ValueError):
                below(0, "bnd", [(0, 0, 0)], np.zeros((1, np.size(n)), dtype=np.uint64), n)
