"""Seeded random streams.

All randomness flows through numpy generators derived from a master seed plus
an integer path (trial index, sub-stream index, ...).  Streams derived from
the same (seed, path) are identical no matter how trials are scheduled across
processes, which is what makes transcripts and Monte Carlo estimates
replayable.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError


def make_rng(seed: int) -> np.random.Generator:
    """Root generator for a master seed."""
    return np.random.default_rng(np.random.SeedSequence(seed))


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Independent stream addressed by (seed, path)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(path)))


def random_bits(rng: np.random.Generator, count: int) -> np.ndarray:
    """Uniform 0/1 vector of the given length."""
    return rng.integers(0, 2, size=count, dtype=np.uint8)


def uniform_rows_and_words(
    rng: np.random.Generator, rounds: int, width: int
) -> tuple[list[float], list[int]]:
    """What ``rounds`` rounds of ``rng.random(width)`` then one 32-bit draw take.

    Returns the ``rounds * width`` uniforms, round after round, and each
    round's 32-bit word.  A bounded ``rng.integers(0, k)`` with k a power of
    two up to 2**32 is the word's top bits, ``(word * k) >> 32``: Lemire's
    rule never rejects there.  Takes one ``random_raw`` block of PCG64
    words in the rounds' order: a uniform is ``(w >> 11) * 2**-53``, and a
    round's word is the buffered upper half if one is held, else the lower
    half of a fresh word, whose upper half is then held.  The buffer is
    written back, so the generator ends where the rounds leave it.
    """
    bit_generator = rng.bit_generator
    state = bit_generator.state
    if state["bit_generator"] != "PCG64":
        raise ContractError(f"need a PCG64 generator, got {state['bit_generator']}")
    has, held = state["has_uint32"], state["uinteger"]
    fresh = np.arange(has, rounds, 2)  # the rounds that take a fresh word
    at = (fresh + 1) * width + np.arange(fresh.size)
    raw = bit_generator.random_raw(rounds * width + fresh.size)
    uniforms = ((np.delete(raw, at) >> 11) * 2.0**-53).tolist()
    words = raw[at]
    halves = [held] * has + np.column_stack((words & 0xFFFFFFFF, words >> 32)).ravel().tolist()
    state = bit_generator.state
    state["has_uint32"] = len(halves) - rounds
    if halves:
        state["uinteger"] = halves[-1]
    bit_generator.state = state
    return uniforms, halves[:rounds]
