"""Test prompts: random prompt ids drawn the way training draws them (six
counter-addressed words per prompt, turned into an id by
`task.draw_prompts`), a prompt's id from its attributes, and a per-prompt
oracle of the prompt tables `task` builds as arrays."""

from itertools import product
from typing import NamedTuple

from unigrpo.rng import words
from unigrpo.task import EOS, TOKEN_NAMES, draw_prompts

QUADRANTS = (1, 2, 3, 4)
BANDS = ("near", "far")
SPREADS = ("tight", "wide")
# the synonyms of each attribute value
SURFACE_WORDS = {
    ("quad", 1): ("northeast", "upper-right", "first-quadrant"),
    ("quad", 2): ("northwest", "upper-left", "second-quadrant"),
    ("quad", 3): ("southwest", "lower-left", "third-quadrant"),
    ("quad", 4): ("southeast", "lower-right", "fourth-quadrant"),
    ("band", "near"): ("near", "close", "inner"),
    ("band", "far"): ("far", "distant", "outer"),
    ("spread", "tight"): ("tight", "narrow", "focused"),
    ("spread", "wide"): ("wide", "broad", "scattered"),
}


def random_prompts(seed: int, tag: str, n: int):
    """The ids of n prompts from the words of counter rows (0, i, 0) under
    (seed, tag)."""
    index = [(0, i, 0) for i in range(n)]
    return draw_prompts(seed, tag, index, words(seed, tag, index, 6))


def prompt_id(quadrant, band, spread, syn=(0, 0, 0)) -> int:
    """The id of the prompt of attribute tuple (quadrant, band, spread) and
    synonyms `syn`: tuples in (quadrant, band, spread) order, then 27
    synonym triples each."""
    tup = ((quadrant - 1) * 2 + BANDS.index(band)) * 2 + SPREADS.index(spread)
    return tup * 27 + syn[0] * 9 + syn[1] * 3 + syn[2]


def all_tuples() -> list:
    """The 16 attribute tuples in id order."""
    return list(product(QUADRANTS, BANDS, SPREADS))


class OraclePrompt(NamedTuple):
    prompt_id: int
    tokens: tuple    # the three surface tokens
    trace: tuple     # the canonical trace: three attribute tokens and EOS
    quadrant: int
    band: str
    spread: str
    syn: tuple


def oracle_prompt(quadrant, band, spread, syn=(0, 0, 0)) -> OraclePrompt:
    """One prompt built token by token: each surface word's and canonical
    attribute name's token is its place in the vocabulary."""
    keys = (("quad", quadrant), ("band", band), ("spread", spread))
    tokens = tuple(TOKEN_NAMES.index(SURFACE_WORDS[key][k]) for key, k in zip(keys, syn))
    names = (f"QUAD_{quadrant}", f"BAND_{band.upper()}", f"SPREAD_{spread.upper()}")
    trace = tuple(TOKEN_NAMES.index(name) for name in names) + (EOS,)
    return OraclePrompt(prompt_id(quadrant, band, spread, syn), tokens, trace,
                        quadrant, band, spread, tuple(syn))


# every prompt, in id order
ORACLE_PROMPTS = [oracle_prompt(q, b, s, syn) for q, b, s in all_tuples()
                  for syn in product(range(3), repeat=3)]
