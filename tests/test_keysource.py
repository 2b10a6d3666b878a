"""Key oracle: shared view, uniformity, determinism."""

import numpy as np
import pytest

from qconf.errors import ContractError
from qconf.keysource import establish_key
from qconf.rng import derive_rng, make_rng, random_bits


def test_same_seed_same_key():
    key_a = establish_key(("P1", "P2"), 8, make_rng(42))
    key_b = establish_key(("P1", "P2"), 8, make_rng(42))
    assert np.array_equal(key_a, key_b)
    # The key follows one unread int64 draw, kept for the stream.
    rng = make_rng(42)
    rng.integers(0, 2**63, dtype=np.int64)
    assert np.array_equal(key_a, random_bits(rng, 8))


def test_all_parties_see_identical_stream():
    key = establish_key(("P1", "P2", "P3"), 16, make_rng(1))
    # one shared bits array, frozen against mutation
    assert key.dtype == np.uint8
    with pytest.raises(ValueError):
        key[0] = 1


def test_uniformity():
    bits = establish_key(("P1", "P2"), 100_000, make_rng(7))
    assert abs(float(bits.mean()) - 0.5) < 0.01


def test_contracts():
    with pytest.raises(ContractError):
        establish_key(("P1",), 8, make_rng(0))
    with pytest.raises(ContractError):
        establish_key(("P1", "P2"), 0, make_rng(0))


def test_derived_streams_are_independent():
    key_a = establish_key(("P1", "P2"), 64, derive_rng(5, 0))
    key_b = establish_key(("P1", "P2"), 64, derive_rng(5, 1))
    assert not np.array_equal(key_a, key_b)
