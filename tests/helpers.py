"""One-item forms of the program's batch primitives, used only by tests.

Each is the single case of the batch form the program calls, so a test that
checks one qubit, one link or one round reads as it did; ``index_to_bits``
is the inverse of ``qsim.bits_to_index``.
"""

import numpy as np

from qconf.channels import DecoySet, make_decoy_sets, measure_carriers
from qconf.codec import decode_z_rounds


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
