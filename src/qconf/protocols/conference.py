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

from ..adversary import AdversaryRecord, AttackConfig, dishonest_middle_announce, make_tap
from ..channels import (
    PHASE_DECOY,
    QuantumChannel,
    extract_payload,
    first_error_estimation,
    flying,
    insert_decoys,
    make_decoy_set,
    measure_channel_tuple,
    measure_flying,
    permute,
    random_permutation,
    second_error_estimation,
    unpermute,
    verify_decoys,
)
from ..codec import (
    consistent_outcome_codes,
    decode_x_round,
    decode_z_round,
    encode_exchange_qubit,
    encode_message_qubit,
    exchange_basis,
)
from ..errors import ContractError
from ..keysource import establish_key
from ..qsim import BASIS_X, BASIS_Z, build_joint_basis
from .common import (
    MIDDLE,
    ProtocolParams,
    Transcript,
    bits_to_str,
    party_names,
    sample_size,
    sorted_sample,
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
    transcript = Transcript(
        config=snapshot
        or {"protocol": "conferenceN", "n_parties": n_parties, "length": m}
    )
    msg_rows = msg.tolist()
    transcript.secrets["messages"] = [bits_to_str(row) for row in msg_rows]
    record = AdversaryRecord(kind=attack.kind)

    key_bits = establish_key(parties, m, rng).bits.tolist()
    transcript.secrets["key_initial"] = bits_to_str(key_bits)
    transcript.add_key_stage("initial", m)
    transcript.add_event("key_established", parties=list(parties), length=m)

    # --- message phase -----------------------------------------------------
    prepared = {
        p: [encode_message_qubit(b, k) for b, k in zip(row, key_bits)]
        for p, row in zip(parties, msg_rows)
    }
    perms = {p: random_permutation(m, rng) for p in parties}
    held = {}
    for p in parties:
        channel = QuantumChannel(p, MIDDLE, tap=make_tap(attack, record, f"{p}->{MIDDLE}"))
        held[p] = channel.transmit(
            permute([flying(s) for s in prepared[p]], perms[p]), rng, transcript.add_event
        )

    def _finish() -> Transcript:
        transcript.adversary = record.to_dict() if attack.kind != "none" else None
        return transcript

    sample1 = sorted_sample(rng, m, sample_size(params.delta, m))
    transcript.add_event("estimation_positions", phase="first_estimation", positions=sample1)
    est1 = first_error_estimation(prepared, held, perms, sample1, params.threshold, rng)
    transcript.add_estimate(est1)
    if est1.verdict == "abort":
        transcript.record_abort(est1.phase)
        return _finish()

    for p in parties:
        transcript.add_event("permutation_reveal", party=p, mapping=perms[p].mapping.tolist())
    ordered = {p: unpermute(held[p], perms[p]) for p in parties}

    discard = set(sample1)
    keep = [i for i in range(m) if i not in discard]
    key2 = [key_bits[i] for i in keep]
    seq2 = {p: [ordered[p][i] for i in keep] for p in parties}
    m2 = len(keep)
    transcript.add_key_stage("after_first_estimation", m2)

    basis_n = build_joint_basis(n_parties)
    outcomes = []
    if attack.kind == "dishonest_middle":
        # The middle party measures every qubit of a round in one random
        # basis and announces an outcome consistent with what it saw.
        for i in range(m2):
            x_basis = rng.random() < 0.5
            basis = BASIS_X if x_basis else BASIS_Z
            bits = []
            for p in parties:
                bit, collapsed = measure_flying(seq2[p][i], basis, rng)
                seq2[p][i] = collapsed
                bits.append(bit)
            outcome = dishonest_middle_announce(bits, x_basis, n_parties, rng)
            record.announced.append(outcome.code)
            outcomes.append(outcome)
    else:
        for i in range(m2):
            outcomes.append(
                measure_channel_tuple([seq2[p][i] for p in parties], basis_n, rng)
            )
    transcript.add_event("joint_announcement", codes=[o.code for o in outcomes])

    sample2 = sorted_sample(rng, m2, sample_size(params.gamma, m2))
    transcript.add_event("estimation_positions", phase="second_estimation", positions=sample2)
    transcript.add_event(
        "message_reveal",
        phase="second_estimation",
        rounds=sample2,
        bits={p: [row[keep[i]] for i in sample2] for p, row in zip(parties, msg_rows)},
    )
    est2 = second_error_estimation(
        outcomes,
        key2,
        {p: [row[i] for i in keep] for p, row in zip(parties, msg_rows)},
        sample2,
        n_parties,
        params.threshold,
        consistent_outcome_codes,
    )
    transcript.add_estimate(est2)
    if est2.verdict == "abort":
        transcript.record_abort(est2.phase)
        return _finish()

    discard2 = set(sample2)
    keep2 = [i for i in range(m2) if i not in discard2]
    outcomes3 = [outcomes[i] for i in keep2]
    kept_positions = [keep[i] for i in keep2]
    key3 = [key_bits[i] for i in kept_positions]
    msg3 = [[row[i] for i in kept_positions] for row in msg_rows]
    n3 = len(keep2)
    transcript.add_key_stage("after_second_estimation", n3)

    recovered, chi, ok = _reconstruct(
        parties, msg3, key3, outcomes3, attack, record, params, rng, transcript
    )
    _finish()
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
    exchange_sets = {
        p: [
            flying(encode_exchange_qubit(msg3[a][i], i + 1))
            for i in x_rounds
        ]
        for a, p in enumerate(parties)
    }
    learned = {p: {} for p in parties}
    current = dict(exchange_sets)
    for hop in range(1, n_parties - 1):
        decoys = {}
        outgoing = {}
        for p in parties:
            decoys[p] = make_decoy_set(len(x_rounds), params.decoy_count, rng)
            outgoing[p] = insert_decoys(current[p], decoys[p])
        received = {}
        for a, p in enumerate(parties):
            nxt = parties[(a + 1) % n_parties]
            channel = QuantumChannel(p, nxt, tap=make_tap(attack, record, f"{p}->{nxt}"))
            received[nxt] = channel.transmit(
                outgoing[p], rng, transcript.add_event, round=hop
            )
        for a, p in enumerate(parties):
            nxt = parties[(a + 1) % n_parties]
            transcript.add_event("receipt_ack", round=hop, channel=f"{p}->{nxt}")
        for a, p in enumerate(parties):
            nxt = parties[(a + 1) % n_parties]
            transcript.add_event(
                "decoy_reveal",
                round=hop,
                channel=f"{p}->{nxt}",
                positions=list(decoys[p].positions),
                states=[s.label for s in decoys[p].specs],
            )
        aborted = False
        for a, p in enumerate(parties):
            prev = parties[(a - 1) % n_parties]
            estimate = verify_decoys(received[p], decoys[prev], params.threshold, rng)
            transcript.add_estimate(estimate)
            aborted = aborted or estimate.verdict == "abort"
        if aborted:
            transcript.record_abort(PHASE_DECOY)
            return None, None, False
        for a, p in enumerate(parties):
            prev = parties[(a - 1) % n_parties]
            payload = extract_payload(received[p], decoys[prev])
            source = parties[(a - hop) % n_parties]
            bits = []
            for j, i in enumerate(x_rounds):
                bit, payload[j] = measure_flying(payload[j], exchange_basis(i + 1), rng)
                bits.append(bit)
            learned[p][source] = bits
            current[p] = payload

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
