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

from ..adversary import (
    AdversaryRecord,
    AttackConfig,
    dishonest_middle_announce,
    draw_substitute_blind,
    make_tap,
)
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
    derive_select_bit,
    embed_payload,
    encode_message_qubit,
    encode_xor_qubit,
    payload_positions,
)
from ..errors import ContractError
from ..keysource import establish_key
from ..qsim import BASIS_X, BASIS_Z, build_joint_basis
from ..rng import random_bits
from .common import (
    MIDDLE,
    ProtocolParams,
    Transcript,
    bits_to_str,
    party_names,
    sample_size,
    sorted_sample,
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
    transcript = Transcript(
        config=snapshot or {"protocol": "xor", "n_parties": n_parties, "length": m}
    )
    true_xor = np.bitwise_xor.reduce(nums, axis=0)
    transcript.secrets["messages"] = [bits_to_str(row) for row in nums]
    transcript.secrets["true_xor"] = bits_to_str(true_xor)
    record = AdversaryRecord(kind=attack.kind)

    def _finish() -> Transcript:
        transcript.adversary = record.to_dict() if attack.kind != "none" else None
        return transcript

    key = establish_key(parties, 2 * m, rng).bits
    key_bits = key.tolist()
    transcript.secrets["key_initial"] = bits_to_str(key_bits)
    transcript.add_key_stage("initial", 2 * m)
    transcript.add_event("key_established", parties=list(parties), length=2 * m)
    select = derive_select_bit(key)

    # --- mask distribution (P1 -> everyone else, decoy protected) ----------
    mask = random_bits(rng, m)
    transcript.secrets["mask"] = bits_to_str(mask)
    mask_received = {parties[0]: mask}
    mask_specs = [encode_message_qubit(b, k) for b, k in zip(mask.tolist(), key_bits)]
    for a in range(1, n_parties):
        p = parties[a]
        decoys = make_decoy_set(m, params.decoy_count, rng)
        channel = QuantumChannel(
            parties[0], p, tap=make_tap(attack, record, f"{parties[0]}->{p}")
        )
        received = channel.transmit(
            insert_decoys([flying(s) for s in mask_specs], decoys),
            rng,
            transcript.add_event,
            purpose="mask_distribution",
        )
        transcript.add_event("receipt_ack", channel=f"{parties[0]}->{p}")
        transcript.add_event(
            "decoy_reveal",
            channel=f"{parties[0]}->{p}",
            positions=list(decoys.positions),
            states=[s.label for s in decoys.specs],
        )
        estimate = verify_decoys(received, decoys, params.threshold, rng)
        transcript.add_estimate(estimate)
        if estimate.verdict == "abort":
            transcript.record_abort(PHASE_DECOY)
            return _finish()
        payload = extract_payload(received, decoys)
        bits = []
        for i in range(m):
            basis = BASIS_X if key_bits[i] else BASIS_Z
            bit, payload[i] = measure_flying(payload[i], basis, rng)
            bits.append(bit)
        mask_received[p] = np.array(bits, dtype=np.uint8)

    blind = mask
    if attack.kind == "dishonest_p1":
        blind = draw_substitute_blind(mask, rng)
        transcript.secrets["substitute_blind"] = bits_to_str(blind)
    payloads = nums.copy()
    payloads[0] = nums[0] ^ blind

    # --- carrier construction and transmission -----------------------------
    carriers = np.array(
        [embed_payload(payloads[a], key, select, rng) for a in range(n_parties)]
    )
    length = 2 * m
    carrier_rows = carriers.tolist()
    prepared = {
        p: [encode_xor_qubit(b, k, select) for b, k in zip(row, key_bits)]
        for p, row in zip(parties, carrier_rows)
    }
    perms = {p: random_permutation(length, rng) for p in parties}
    held = {}
    for p in parties:
        channel = QuantumChannel(p, MIDDLE, tap=make_tap(attack, record, f"{p}->{MIDDLE}"))
        held[p] = channel.transmit(
            permute([flying(s) for s in prepared[p]], perms[p]), rng, transcript.add_event
        )

    sample1 = sorted_sample(rng, length, sample_size(params.delta, length))
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
    keep = [i for i in range(length) if i not in discard]
    key2 = key[keep]
    seq2 = {p: [ordered[p][i] for i in keep] for p in parties}
    len2 = len(keep)
    transcript.add_key_stage("after_first_estimation", len2)

    basis_n = build_joint_basis(n_parties)
    outcomes = []
    x_flags2 = (key2 == select).astype(np.uint8)
    if attack.kind == "dishonest_middle":
        for i in range(len2):
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
        for i in range(len2):
            outcomes.append(
                measure_channel_tuple([seq2[p][i] for p in parties], basis_n, rng)
            )
    transcript.add_event("joint_announcement", codes=[o.code for o in outcomes])

    sample2 = sorted_sample(rng, len2, sample_size(params.gamma, len2))
    transcript.add_event("estimation_positions", phase="second_estimation", positions=sample2)
    transcript.add_event(
        "message_reveal",
        phase="second_estimation",
        rounds=sample2,
        bits={p: [row[keep[i]] for i in sample2] for p, row in zip(parties, carrier_rows)},
    )
    est2 = second_error_estimation(
        outcomes,
        x_flags2,
        {p: [row[i] for i in keep] for p, row in zip(parties, carrier_rows)},
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
    keep2 = [i for i in range(len2) if i not in discard2]
    transcript.add_key_stage("after_second_estimation", len(keep2))

    # --- decoding -----------------------------------------------------------
    # chi at an original position: from the surviving outcome when possible,
    # otherwise from the bits that were publicly revealed when the position
    # was sampled for estimation (the sampling is position-blind, so payload
    # positions can land in either ceremony).
    survived = {keep[i]: rank for rank, i in enumerate(keep2)}
    revealed_first = set(sample1)
    revealed_second = {keep[i] for i in sample2}
    outcomes3 = [outcomes[i] for i in keep2]
    pay_pos = payload_positions(key, select)
    eta = np.zeros(m, dtype=np.uint8)
    for j, pos in enumerate(pay_pos):
        if pos in survived:
            eta[j] = outcomes3[survived[pos]].sign
        elif pos in revealed_first or pos in revealed_second:
            eta[j] = int(np.bitwise_xor.reduce(carriers[:, pos]))
        else:  # unreachable: every position either survives or was sampled
            raise ContractError("payload position lost without a reveal")
    transcript.secrets["blinded_xor"] = bits_to_str(eta)

    outputs = {}
    for a, p in enumerate(parties):
        unmask = blind if (a == 0 and attack.kind == "dishonest_p1") else mask_received[p]
        outputs[p] = bits_to_str(eta ^ unmask)
    transcript.outputs = {
        "payload_positions": [int(i) for i in pay_pos],
        "xor_value": outputs,
    }
    return _finish()
