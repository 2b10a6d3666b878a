"""One-item forms of the program's batch primitives, used only by tests.

Each is the single case of the batch form the program calls, so a test that
checks one qubit, one link or one round reads as it did; ``index_to_bits``
is the inverse of ``qsim.bits_to_index``.
"""

import numpy as np

from qconf.channels import DecoySet, make_decoy_sets, measure_carriers
from qconf.codec import consistent_outcome_codes, decode_z_rounds
from qconf.qsim import BASES


def measure_flying(qubit: int, basis: str, u: float) -> tuple[int, int]:
    """Measure one carrier in Z or X; returns (bit, collapsed carrier)."""
    (bit,), (collapsed,) = measure_carriers((qubit,), (basis,), (u,))
    return bit, collapsed


def make_decoy_set(payload_len: int, count: int, rng: np.random.Generator) -> DecoySet:
    """Fresh decoys at random slots of one link's augmented sequence."""
    return make_decoy_sets([payload_len], count, rng)[0]


def decode_z_round(
    own_bit: int, own_position: int, code: int, n_parties: int
) -> tuple[int, ...]:
    """All parties' bits for one Z round: the one-round case of ``decode_z_rounds``."""
    view = decode_z_rounds(np.array([[own_bit]]), [own_position], [code], n_parties)
    return tuple(view[0, :, 0].tolist())


def index_to_bits(index: int, n: int) -> tuple[int, ...]:
    """Big-endian bit tuple of an index (bit of qubit 0 first)."""
    return tuple((index >> (n - 1 - k)) & 1 for k in range(n))


def dishonest_middle_announce(
    bits: list[int], x_basis: bool, n_parties: int, rng: np.random.Generator
) -> int:
    """Announce a uniformly drawn outcome code consistent with per-qubit results."""
    codes = consistent_outcome_codes(bits, x_basis, n_parties)
    return codes[int(rng.integers(0, len(codes)))]


def dishonest_middle_round_by_round(rows, rng: np.random.Generator) -> list[int]:
    """``adversary.dishonest_middle_rounds`` with numpy's draws, one round at a time.

    Each round draws ``rng.random(1 + n)`` (the basis coin, then one uniform
    per carrier), measures, and announces with ``dishonest_middle_announce``.
    """
    announced = []
    for row in rows:
        coin, *uniforms = rng.random(1 + len(row)).tolist()
        x_basis = coin < 0.5
        bits, _ = measure_carriers(row, [BASES[x_basis]] * len(row), uniforms)
        announced.append(dishonest_middle_announce(bits, x_basis, len(row), rng))
    return announced
