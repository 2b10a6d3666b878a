"""Multi-party XOR computation with a blinded coordinator.

P1 draws a private mask, distributes it to the other parties over
decoy-protected direct channels, and blinds its own number with it.  Each
party scatters its m-bit number over a 2m-bit carrier whose payload positions
are fixed by the shared key and a derived select bit, encodes payload
positions in the X basis, and ships everything to the middle party as in the
conference protocol.  The X-round signs then give the XOR of the carriers,
which at payload positions is the blinded XOR; unmasking with the distributed
mask yields the true XOR, while any wire observer only ever sees a one-time
padded value.

A cheating P1 that blinds with a different mask than it distributed learns
the true XOR while every other party ends up with that value shifted by
mask ^ substitute.
"""

from __future__ import annotations

import numpy as np

from ..adversary import AttackConfig, draw_substitute_blind
from ..codec import (
    decode_x_round,
    derive_select_bit,
    embed_payload,
    label_indices,
    payload_positions,
)
from ..errors import ContractError
from ..qsim import BASES
from ..rng import random_bits
from .common import (
    ProtocolParams,
    Transcript,
    bits_to_str,
    consistency_check,
    decoy_hop,
    open_run,
    party_names,
    relay_round,
)


def run_xor(
    numbers,
    attack: AttackConfig,
    rng: np.random.Generator,
    params: ProtocolParams = ProtocolParams(),
    snapshot: dict | None = None,
) -> Transcript:
    """Compute the bitwise XOR of every party's m-bit number."""
    nums = np.array([np.asarray(v, dtype=np.uint8) for v in numbers])
    n_parties, m = nums.shape
    if n_parties < 3:
        raise ContractError("xor computation needs at least 3 parties")
    if m == 0:
        raise ContractError("numbers must be non-empty")
    parties = party_names(n_parties)
    transcript, record, key = open_run(
        snapshot or {"protocol": "xor", "n_parties": n_parties, "length": m},
        parties, nums, 2 * m, attack, rng,
    )
    true_xor = np.bitwise_xor.reduce(nums, axis=0)
    transcript.secrets["true_xor"] = bits_to_str(true_xor)
    key_bits = key.tolist()
    select = derive_select_bit(key)

    # --- mask distribution (P1 -> everyone else, decoy protected) ----------
    mask = random_bits(rng, m)
    transcript.secrets["mask"] = bits_to_str(mask)
    unmask = {}  # what each party takes off the blinded XOR
    mask_sent = label_indices(mask.tolist(), key_bits)
    mask_bases = [BASES[label >> 1] for label in mask_sent]
    for p in parties[1:]:
        reads = decoy_hop(
            parties, {(parties[0], p): mask_sent}, mask_bases,
            attack, record, params, rng, transcript,
            fields={}, transmit_fields={"purpose": "mask_distribution"},
        )
        if reads is None:
            return transcript
        unmask[p] = np.array(reads[p][0], dtype=np.uint8)

    blind = mask
    if attack.kind == "dishonest_p1":
        blind = draw_substitute_blind(mask, rng)
        transcript.secrets["substitute_blind"] = bits_to_str(blind)
    unmask[parties[0]] = blind
    payloads = nums.copy()
    payloads[0] = nums[0] ^ blind

    # --- carrier construction and transmission -----------------------------
    carriers = np.array(
        [embed_payload(payloads[a], key, select, rng) for a in range(n_parties)]
    )
    carrier_rows = carriers.tolist()
    # Positions whose key bit equals the select bit are X (``encode_xor_qubit``).
    x_flags = (key == select).tolist()
    labels = {p: label_indices(row, x_flags) for p, row in zip(parties, carrier_rows)}
    relayed = relay_round(
        labels, attack, record, params, rng, transcript,
        cheating_middle=attack.kind == "dishonest_middle",
    )
    if relayed is None:
        return transcript
    keep, outcomes = relayed
    survivors = consistency_check(carrier_rows, x_flags, keep, outcomes, params, rng, transcript)
    if survivors is None:
        return transcript

    # --- decoding -----------------------------------------------------------
    # chi at an original position: from the surviving outcome when possible,
    # otherwise from the bits that were publicly revealed when the position
    # was sampled for estimation (the sampling is position-blind, so payload
    # positions can land in either ceremony).
    survived = {keep[i]: outcomes[i] for i in survivors}
    pay_pos = payload_positions(key, select)
    eta = np.zeros(m, dtype=np.uint8)
    for j, pos in enumerate(pay_pos):
        if pos in survived:
            eta[j] = decode_x_round(survived[pos])
        else:
            eta[j] = int(np.bitwise_xor.reduce(carriers[:, pos]))
    transcript.secrets["blinded_xor"] = bits_to_str(eta)

    transcript.outputs = {
        "payload_positions": [int(i) for i in pay_pos],
        "xor_value": {p: bits_to_str(eta ^ unmask[p]) for p in parties},
    }
    return transcript
