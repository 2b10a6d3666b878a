"""Multi-party conference through an untrusted measuring relay.

One code path serves every N >= 3; the three-party protocol is exactly the
N = 3 instance.  A run has two phases:

1. message phase: everyone encodes against the shared key, permutes, and
   sends to the middle party, which survives a single-qubit check ceremony,
   reveals permutations, measures each N-tuple in the joint basis, and
   survives a consistency check on the announced outcomes;
2. exchange phase: rounds where the key bit was 1 only reveal the XOR of all
   message bits, so parties circulate decoy-protected qubit sets for N-2
   hops, each hop measured non-destructively in its publicly derivable
   basis, until every party can reconstruct all other messages.
"""

from __future__ import annotations

import numpy as np

from ..adversary import AttackConfig
from ..codec import (
    decode_x_round,
    decode_z_round,
    encode_exchange_qubit,
    exchange_basis,
    label_indices,
)
from ..errors import ContractError
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


def run_conference(
    messages,
    attack: AttackConfig,
    rng: np.random.Generator,
    params: ProtocolParams = ProtocolParams(),
    snapshot: dict | None = None,
) -> Transcript:
    """Full conference run; ``messages`` is one bit sequence per party."""
    msg = np.array([np.asarray(m, dtype=np.uint8) for m in messages])
    n_parties, m = msg.shape
    if n_parties < 3:
        raise ContractError("conference needs at least 3 parties")
    if m == 0:
        raise ContractError("messages must be non-empty")
    parties = party_names(n_parties)
    msg_rows = msg.tolist()
    transcript, record, key = open_run(
        snapshot or {"protocol": "conferenceN", "n_parties": n_parties, "length": m},
        parties, msg_rows, m, attack, rng,
    )
    key_bits = key.tolist()

    # --- message phase -----------------------------------------------------
    labels = {p: label_indices(row, key_bits) for p, row in zip(parties, msg_rows)}
    relayed = relay_round(
        labels, attack, record, params, rng, transcript,
        cheating_middle=attack.kind == "dishonest_middle",
    )
    if relayed is None:
        return transcript
    keep, outcomes = relayed
    survivors = consistency_check(msg_rows, key_bits, keep, outcomes, params, rng, transcript)
    if survivors is None:
        return transcript

    outcomes3 = [outcomes[i] for i in survivors]
    kept_positions = [keep[i] for i in survivors]
    key3 = [key_bits[i] for i in kept_positions]
    msg3 = [[row[i] for i in kept_positions] for row in msg_rows]
    n3 = len(survivors)

    recovered, chi, ok = _reconstruct(
        parties, msg3, key3, outcomes3, attack, record, params, rng, transcript
    )
    if not ok:
        return transcript

    transcript.outputs = {
        "kept_positions": kept_positions,
        "recovered": {
            p: {q: bits_to_str(recovered[p][q]) for q in parties if q != p}
            for p in parties
        },
        "xor_view": {
            "positions": [i for i in range(n3) if key3[i] == 1],
            "bits": bits_to_str(chi),
        },
    }
    return transcript


def _reconstruct(parties, msg3, key3, outcomes3, attack, record, params, rng, transcript):
    """Exchange phase plus final per-party reassembly.

    ``msg3`` holds one list of kept message bits per party and ``key3`` the
    kept key bits.  Returns (recovered, chi, ok); ok False means a decoy
    check aborted.
    """
    n_parties = len(parties)
    n3 = len(key3)
    z_rounds = [i for i in range(n3) if key3[i] == 0]
    x_rounds = [i for i in range(n3) if key3[i] == 1]
    chi = [decode_x_round(outcomes3[i]) for i in x_rounds]

    # Z rounds decode in place for every party at once.
    z_bits = {p: {} for p in parties}
    for a, p in enumerate(parties):
        for i in z_rounds:
            z_bits[p][i] = decode_z_round(msg3[a][i], a, outcomes3[i], n_parties)

    # Exchange phase: each party's X-round bits travel N-2 hops clockwise,
    # re-protected with fresh decoys at every hop.  Positions are 1-based in
    # the relabeled sequence, and their parity fixes the encoding basis that
    # every party can derive from the shared key.
    read_bases = [exchange_basis(i + 1) for i in x_rounds]
    current = {
        p: [encode_exchange_qubit(msg3[a][i], i + 1) for i in x_rounds]
        for a, p in enumerate(parties)
    }
    learned = {p: {} for p in parties}
    for hop in range(1, n_parties - 1):
        ring = {(p, parties[(a + 1) % n_parties]): current[p] for a, p in enumerate(parties)}
        reads = decoy_hop(
            parties, ring, read_bases, attack, record, params, rng, transcript,
            fields={"round": hop}, transmit_fields={},
        )
        if reads is None:
            return None, None, False
        for a, p in enumerate(parties):
            source = parties[(a - hop) % n_parties]
            learned[p][source], current[p] = reads[p]

    # The one party never heard from directly is pinned down by the XOR view.
    recovered = {p: {} for p in parties}
    for a, p in enumerate(parties):
        unknown = parties[(a + 1) % n_parties]
        inferred = []
        for j, i in enumerate(x_rounds):
            acc = chi[j] ^ msg3[a][i]
            for q in parties:
                if q not in (p, unknown):
                    acc ^= learned[p][q][j]
            inferred.append(acc)
        learned[p][unknown] = inferred
        for b, q in enumerate(parties):
            if q == p:
                continue
            full = [0] * n3
            for i in z_rounds:
                full[i] = z_bits[p][i][b]
            for j, i in enumerate(x_rounds):
                full[i] = learned[p][q][j]
            recovered[p][q] = full
    return recovered, chi, True
