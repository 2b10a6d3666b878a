"""Bit <-> qubit encoding rules and outcome decoding, as pure functions.

Encoding conventions shared by every protocol:

* message phase: the shared key bit selects the basis (0 -> Z, 1 -> X) and
  the message bit selects the vector within it;
* exchange phase: the 1-based position of the round selects the basis
  (even -> Z, odd -> X);
* XOR phase: positions whose key bit equals the select bit are X-encoded,
  the rest Z-encoded.

A preparation is its label id ``2 * x + bit`` (``x`` is 1 for the X
basis), the ``qsim`` label id that is also its carrier, and an outcome is its
code.  Decoding uses only two facts about the joint basis: a Z-product
collapses onto the index of its bit string (or the complement), and an
X-product collapses onto a sign equal to the XOR of the encoded bits.

The consistent-outcome sets are tabled on first use, keyed by the party
count and one small integer (parity or folded index), never by a bit
tuple: at 16 parties one X-round entry already holds 32768 codes.  Z rounds
decode in one batch for every reader (``decode_z_rounds``).
"""

from __future__ import annotations

from functools import cache
from typing import Sequence

import numpy as np

from .errors import ContractError, ProtocolCorruptionError
from .qsim import BASES, bits_to_index
from .rng import random_bits

# Two-party sifting keeps exactly the outcomes that leak nothing about the
# XOR of the two message bits: codes 1 (Phi0-) and 2 (Phi1+).
SIFT_KEEP_CODES = frozenset({1, 2})


def _label(x: int, bit: int) -> int:
    """Label id of a preparation in the X basis if ``x``, else Z."""
    bit = int(bit)
    if bit not in (0, 1):
        raise ContractError(f"bit must be 0 or 1, got {bit!r}")
    return 2 * bool(x) + bit


def encode_message_qubit(msg_bit: int, key_bit: int) -> int:
    """Message-phase preparation: key bit picks the basis, message the vector."""
    return _label(key_bit, msg_bit)


def label_indices(bits: Sequence[int], x_flags: Sequence[int]) -> list[int]:
    """Each preparation's label id, ``2 * x + bit``, for a whole sequence.

    ``x`` is 1 (or True) where the basis is X, so
    ``label_indices([b], [k])`` is ``[encode_message_qubit(b, k)]``.  The bits
    are not checked: callers pass 0/1 rows they built.
    """
    return [2 * x + b for b, x in zip(bits, x_flags)]


def decode_partner_bit(own_bit: int, key_bit: int, code: int) -> int:
    """Partner's bit in the two-party dialogue, from the outcome code.

    On Z rounds the outcome index says whether the two bits agree; on X
    rounds the sign does.
    """
    if not 0 <= code < 4:
        raise ContractError(f"two-party decode needs a 2-qubit outcome code, got {code}")
    marker = code >> 1 if key_bit == 0 else code & 1
    return int(own_bit) ^ marker


def sift_outcome(code: int) -> bool:
    """Keep a two-party round iff its outcome code is in the non-leaking pair."""
    return code in SIFT_KEEP_CODES


def decode_z_rounds(
    own_bits: np.ndarray, own_positions: Sequence[int], codes: Sequence[int], n_parties: int
) -> np.ndarray:
    """Each reader's view of all parties' bits at rounds where everyone used Z.

    Each round's outcome index, read once as a bit string, gives every
    party's bit up to one complement; a reader fixes the complement by its
    own bit.  ``own_bits[r, i]`` is reader r's bit at round i and
    ``own_positions[r]`` its party position.  Returns ``views[r, b, i]``,
    party b's bit at round i as reader r decodes it.
    """
    index = np.asarray(codes, dtype=np.int64) >> 1
    bits = (index >> np.arange(n_parties - 1, -1, -1)[:, None]) & 1
    flips = bits[list(own_positions)] ^ own_bits
    if (flips >> 1).any():
        raise ProtocolCorruptionError(
            f"outcome codes {list(codes)} are inconsistent with own bits {own_bits.tolist()}"
        )
    return bits ^ flips[:, None, :]


def decode_z_round(
    own_bit: int, own_position: int, code: int, n_parties: int
) -> tuple[int, ...]:
    """All parties' bits for one Z round: the one-round case of ``decode_z_rounds``."""
    view = decode_z_rounds(np.array([[own_bit]]), [own_position], [code], n_parties)
    return tuple(view[0, :, 0].tolist())


def decode_x_round(code: int) -> int:
    """XOR of all encoded bits for a round where everyone used the X basis."""
    return code & 1


def encode_exchange_qubit(msg_bit: int, position: int) -> int:
    """Exchange-phase preparation; `position` is the 1-based round index."""
    return _label(position % 2, msg_bit)


def exchange_basis(position: int) -> str:
    """Basis used by encode_exchange_qubit for a 1-based round index."""
    return BASES[encode_exchange_qubit(0, position) >> 1]


def derive_select_bit(key: np.ndarray) -> int:
    """Basis-select bit for the XOR protocol.

    Balanced keys resolve by parity; otherwise the majority value wins, which
    guarantees at least half of the positions carry the payload basis.
    """
    key = np.asarray(key)
    if len(key) % 2 != 0:
        raise ContractError("select bit needs an even-length key")
    half = len(key) // 2
    weight = int(key.sum())
    if weight == half:
        return weight % 2
    return 1 if weight > half else 0


def payload_positions(key: np.ndarray, select: int) -> list[int]:
    """First half-length positions whose key bit equals the select bit."""
    key = np.asarray(key)
    m = len(key) // 2
    positions = np.flatnonzero(key == select)
    if len(positions) < m:
        raise ContractError("select bit does not cover enough positions")
    return [int(p) for p in positions[:m]]


def embed_payload(
    payload: Sequence[int], key: np.ndarray, select: int, rng: np.random.Generator
) -> np.ndarray:
    """Scatter an m-bit payload over a 2m-bit carrier.

    The first m positions (in index order) where the key bit equals the
    select bit receive the payload in order; every other position gets a
    random filler bit.  One filler draw is consumed per carrier position so
    the stream layout does not depend on the key.
    """
    payload = np.asarray(payload, dtype=np.uint8)
    key = np.asarray(key)
    if len(key) != 2 * len(payload):
        raise ContractError("carrier must be twice the payload length")
    carrier = random_bits(rng, len(key))
    carrier[payload_positions(key, select)] = payload
    return carrier


def encode_xor_qubit(carrier_bit: int, key_bit: int, select: int) -> int:
    """XOR-phase preparation: payload-basis (X) where the key matches select."""
    return _label(key_bit == select, carrier_bit)


def consistent_outcome_codes(
    bits: Sequence[int], x_round: bool, n_parties: int
) -> tuple[int, ...]:
    """Outcome codes an honest joint measurement can produce for these bits.

    Z rounds allow both signs of the single reachable index; X rounds allow
    every index at the parity-determined sign.
    """
    if len(bits) != n_parties:
        raise ContractError(f"{len(bits)} bits for {n_parties} parties")
    if x_round:
        return _round_codes(n_parties, True, sum(bits) & 1)
    j = bits_to_index(bits)
    return _round_codes(n_parties, False, min(j, 2**n_parties - 1 - j))


@cache
def _round_codes(n_parties: int, x_round: bool, key: int) -> tuple[int, ...]:
    """X rounds: every index at sign ``key``; Z rounds: index ``key``, both signs."""
    if x_round:
        return tuple(2 * i + key for i in range(2 ** (n_parties - 1)))
    return (2 * key, 2 * key + 1)
