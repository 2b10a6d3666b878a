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

Each piece of the exchange phase's work is done once: a hop checks the
decoys of all its links with one block of uniforms and reads all its
payloads with one more (``common.decoy_hop``), and each Z round's outcome
index is read once as all parties' bits (``codec.decode_z_rounds``), which
each party's own bit then orients.  Every party's view of every message is
one n x n x n3 bit array.
"""

from __future__ import annotations

import numpy as np

from ..adversary import AttackConfig
from ..codec import decode_x_round, decode_z_rounds, exchange_basis, label_indices
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

    kept_positions = [keep[i] for i in survivors]
    key3 = key[kept_positions]
    recovered, chi, ok = _reconstruct(
        parties, msg[:, kept_positions], key3, [outcomes[i] for i in survivors],
        attack, record, params, rng, transcript,
    )
    if not ok:
        return transcript

    transcript.outputs = {
        "kept_positions": kept_positions,
        "recovered": {
            p: {q: bits_to_str(recovered[a, b]) for b, q in enumerate(parties) if q != p}
            for a, p in enumerate(parties)
        },
        "xor_view": {
            "positions": np.flatnonzero(key3).tolist(),
            "bits": bits_to_str(chi),
        },
    }
    return transcript


def _reconstruct(parties, msg3, key3, outcomes3, attack, record, params, rng, transcript):
    """Exchange phase plus every party's view of every message.

    ``msg3`` is the parties' kept message bits (an n x n3 array), ``key3``
    the kept key bits and ``outcomes3`` the kept rounds' codes.  Returns
    (views, chi, ok): ``views[a, b]`` is party b's kept bits as party a
    reads them; ok False means a decoy check aborted.
    """
    n_parties, n3 = msg3.shape
    z_rounds = np.flatnonzero(key3 == 0)
    x_rounds = np.flatnonzero(key3 == 1).tolist()
    chi = np.array([decode_x_round(outcomes3[i]) for i in x_rounds], dtype=np.uint8)
    everyone = np.arange(n_parties)
    views = np.empty((n_parties, n_parties, n3), dtype=np.uint8)
    # Z rounds: each outcome index is read once, as all parties' bits.
    views[:, :, z_rounds] = decode_z_rounds(
        msg3[:, z_rounds], everyone, [outcomes3[i] for i in z_rounds], n_parties
    )

    # Exchange phase: each party's X-round bits travel N-2 hops clockwise,
    # re-protected with fresh decoys at every hop.  Positions are 1-based in
    # the relabeled sequence, and their parity fixes the encoding basis that
    # every party can derive from the shared key (``encode_exchange_qubit``).
    x_flags = [(i + 1) % 2 for i in x_rounds]
    read_bases = [exchange_basis(i + 1) for i in x_rounds]
    own = msg3[:, x_rounds]
    current = dict(zip(parties, (label_indices(row, x_flags) for row in own.tolist())))
    # learned[a, b]: party b's X-round bits as party a has them.
    learned = np.zeros((n_parties, n_parties, len(x_rounds)), dtype=np.uint8)
    learned[everyone, everyone] = own
    for hop in range(1, n_parties - 1):
        ring = {(p, parties[(a + 1) % n_parties]): current[p] for a, p in enumerate(parties)}
        reads = decoy_hop(
            parties, ring, read_bases, attack, record, params, rng, transcript,
            fields={"round": hop}, transmit_fields={},
        )
        if reads is None:
            return None, None, False
        learned[everyone, (everyone - hop) % n_parties] = [reads[p][0] for p in parties]
        current = {p: reads[p][1] for p in parties}

    # The one party never heard from directly is pinned down by the XOR view.
    learned[everyone, (everyone + 1) % n_parties] = chi ^ np.bitwise_xor.reduce(learned, axis=1)
    views[:, :, x_rounds] = learned
    return views, chi, True
