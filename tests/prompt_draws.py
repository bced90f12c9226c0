"""Random test prompts drawn the way training draws them: six
counter-addressed words per prompt, turned into a prompt by
`task.draw_prompts`."""

from unigrpo.rng import words
from unigrpo.task import draw_prompts


def random_prompts(seed: int, tag: str, n: int) -> list:
    """n prompts from the words of counter rows (0, i, 0) under (seed, tag)."""
    index = [(0, i, 0) for i in range(n)]
    return draw_prompts(seed, tag, index, words(seed, tag, index, 6))
