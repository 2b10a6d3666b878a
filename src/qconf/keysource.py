"""Trusted key-establishment oracle.

Key agreement itself is out of scope; this oracle models its ideal outcome:
every legitimate party observes the same uniformly random bit stream, and the
stream never touches a channel, so adversary taps structurally cannot see it.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .rng import random_bits


def establish_key(
    parties: tuple[str, ...], length: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw a fresh shared key for the listed parties, as read-only uint8 bits."""
    if length < 1:
        raise ContractError("key length must be >= 1")
    if len(parties) < 2:
        raise ContractError("a shared key needs at least 2 parties")
    # Nothing reads this draw; it stays in the stream until the stream-version
    # bump (ROADMAP item 4) removes it.
    rng.integers(0, 2**63, dtype=np.int64)
    bits = random_bits(rng, length)
    bits.setflags(write=False)
    return bits
