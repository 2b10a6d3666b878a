"""Two-party dialogue through an untrusted measuring relay.

Both variants share the same skeleton: encode both messages against a shared
key, let the middle party measure pairs in the Bell-type joint basis, keep
only the two non-leaking outcomes, spot-check a fraction of the kept rounds
by disclosing guesses, and decode the rest.  The hardened variant adds a
private permutation per sender plus a single-qubit check ceremony *before*
the joint measurement, which is what pushes a key-guessing interceptor from
winning odds 3/4 down to 9/16 per checked pair.
"""

from __future__ import annotations

import numpy as np

from ..adversary import AdversaryRecord, AttackConfig, make_tap
from ..channels import (
    PHASE_GUESS,
    ErrorEstimate,
    QuantumChannel,
    first_error_estimation,
    flying,
    measure_channel_tuple,
    permute,
    random_permutation,
    unpermute,
)
from ..codec import decode_partner_bit, encode_message_qubit, sift_outcome
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

PAIR_PARTIES = party_names(2)


def _check_messages(message_a, message_b) -> dict[str, list[int]]:
    """Both parties' messages as lists of ints, keyed by party."""
    a = np.asarray(message_a, dtype=np.uint8)
    b = np.asarray(message_b, dtype=np.uint8)
    if len(a) != len(b):
        raise ContractError("both messages must have equal length")
    if len(a) == 0:
        raise ContractError("messages must be non-empty")
    return {PAIR_PARTIES[0]: a.tolist(), PAIR_PARTIES[1]: b.tolist()}


def _shared_guess_bases(attack: AttackConfig, length: int, rng) -> list[str] | None:
    """One basis coin per position, shared across both channels.

    Models the interceptor of the unhardened protocol, who knows that both
    qubits of a position were prepared under the same key bit.
    """
    if attack.kind != "intercept_resend":
        return None
    return [BASIS_Z if rng.random() < 0.5 else BASIS_X for _ in range(length)]


def _guess_comparison(
    msgs: dict[str, list[int]],
    key: list[int],
    outcomes,
    kept: list[int],
    fraction: float,
    total: int,
    threshold: float,
    rng,
    transcript: Transcript,
) -> tuple[ErrorEstimate, list[int]]:
    """Disclose-and-compare ceremony on a sample of the sifted rounds.

    ``msgs`` and ``key`` hold bits as lists of ints.
    """
    a, b = msgs[PAIR_PARTIES[0]], msgs[PAIR_PARTIES[1]]
    count = min(sample_size(fraction, total), len(kept))
    picked = (
        sorted(kept[j] for j in rng.choice(len(kept), size=count, replace=False))
        if kept
        else []
    )
    transcript.add_event("estimation_positions", phase=PHASE_GUESS, positions=picked)
    detail = []
    mismatches = 0
    guesses = {p: [] for p in PAIR_PARTIES}
    for i in picked:
        guess_b = decode_partner_bit(a[i], key[i], outcomes[i])
        guess_a = decode_partner_bit(b[i], key[i], outcomes[i])
        guesses[PAIR_PARTIES[0]].append(guess_b)
        guesses[PAIR_PARTIES[1]].append(guess_a)
        ok = guess_b == b[i] and guess_a == a[i]
        mismatches += not ok
        detail.append(("pair", int(i), ok))
    transcript.add_event("guess_reveal", phase=PHASE_GUESS, guesses=guesses)
    estimate = ErrorEstimate(PHASE_GUESS, len(picked), mismatches, threshold, tuple(detail))
    transcript.add_estimate(estimate)
    return estimate, picked


def _decode_outputs(
    msgs: dict[str, list[int]],
    key: list[int],
    outcomes,
    rounds: list[int],
    position_labels: list[int],
) -> dict:
    a, b = msgs[PAIR_PARTIES[0]], msgs[PAIR_PARTIES[1]]
    rec_b = [decode_partner_bit(a[i], key[i], outcomes[i]) for i in rounds]
    rec_a = [decode_partner_bit(b[i], key[i], outcomes[i]) for i in rounds]
    return {
        "kept_positions": [position_labels[i] for i in rounds],
        "recovered": {
            PAIR_PARTIES[0]: {PAIR_PARTIES[1]: bits_to_str(rec_b)},
            PAIR_PARTIES[1]: {PAIR_PARTIES[0]: bits_to_str(rec_a)},
        },
    }


def run_mdi_qd_original(
    message_a,
    message_b,
    attack: AttackConfig,
    rng: np.random.Generator,
    params: ProtocolParams = ProtocolParams(),
    snapshot: dict | None = None,
) -> Transcript:
    """Unhardened dialogue: no permutation, no pre-measurement check."""
    msgs = _check_messages(message_a, message_b)
    n = len(msgs[PAIR_PARTIES[0]])
    transcript = Transcript(config=snapshot or {"protocol": "mdi_qd_original", "length": n})
    transcript.secrets["messages"] = [bits_to_str(msgs[p]) for p in PAIR_PARTIES]
    record = AdversaryRecord(kind=attack.kind)

    key = establish_key(PAIR_PARTIES, n, rng).bits.tolist()
    transcript.secrets["key_initial"] = bits_to_str(key)
    transcript.add_key_stage("initial", n)
    transcript.add_event("key_established", parties=list(PAIR_PARTIES), length=n)

    shared_bases = _shared_guess_bases(attack, n, rng)
    held = {}
    for p in PAIR_PARTIES:
        specs = [encode_message_qubit(b, k) for b, k in zip(msgs[p], key)]
        channel = QuantumChannel(
            p, MIDDLE, tap=make_tap(attack, record, f"{p}->{MIDDLE}", shared_bases)
        )
        held[p] = channel.transmit([flying(s) for s in specs], rng, transcript.add_event)

    basis2 = build_joint_basis(2)
    outcomes = [
        measure_channel_tuple([held[PAIR_PARTIES[0]][i], held[PAIR_PARTIES[1]][i]], basis2, rng)
        for i in range(n)
    ]
    transcript.add_event("joint_announcement", codes=[o.code for o in outcomes])

    kept = [i for i, o in enumerate(outcomes) if sift_outcome(o)]
    transcript.add_event("sifting", kept_positions=kept)

    estimate, picked = _guess_comparison(
        msgs, key, outcomes, kept, params.delta, n, params.threshold, rng, transcript
    )
    transcript.adversary = record.to_dict() if attack.kind != "none" else None
    if estimate.verdict == "abort":
        transcript.record_abort(PHASE_GUESS)
        return transcript

    picked = set(picked)
    remaining = [i for i in kept if i not in picked]
    transcript.outputs = _decode_outputs(msgs, key, outcomes, remaining, list(range(n)))
    return transcript


def run_mdi_qd_modified(
    message_a,
    message_b,
    attack: AttackConfig,
    rng: np.random.Generator,
    params: ProtocolParams = ProtocolParams(),
    snapshot: dict | None = None,
) -> Transcript:
    """Hardened dialogue: permute, check single qubits, then measure jointly."""
    msgs = _check_messages(message_a, message_b)
    n = len(msgs[PAIR_PARTIES[0]])
    transcript = Transcript(config=snapshot or {"protocol": "mdi_qd_modified", "length": n})
    transcript.secrets["messages"] = [bits_to_str(msgs[p]) for p in PAIR_PARTIES]
    record = AdversaryRecord(kind=attack.kind)

    key = establish_key(PAIR_PARTIES, n, rng).bits.tolist()
    transcript.secrets["key_initial"] = bits_to_str(key)
    transcript.add_key_stage("initial", n)
    transcript.add_event("key_established", parties=list(PAIR_PARTIES), length=n)

    prepared = {
        p: [encode_message_qubit(b, k) for b, k in zip(msgs[p], key)]
        for p in PAIR_PARTIES
    }
    perms = {p: random_permutation(n, rng) for p in PAIR_PARTIES}
    held = {}
    for p in PAIR_PARTIES:
        channel = QuantumChannel(p, MIDDLE, tap=make_tap(attack, record, f"{p}->{MIDDLE}"))
        shuffled = permute([flying(s) for s in prepared[p]], perms[p])
        held[p] = channel.transmit(shuffled, rng, transcript.add_event)

    sample1 = sorted_sample(rng, n, sample_size(params.delta, n))
    transcript.add_event("estimation_positions", phase="first_estimation", positions=sample1)
    est1 = first_error_estimation(prepared, held, perms, sample1, params.threshold, rng)
    transcript.add_estimate(est1)
    transcript.adversary = record.to_dict() if attack.kind != "none" else None
    if est1.verdict == "abort":
        transcript.record_abort(est1.phase)
        return transcript

    for p in PAIR_PARTIES:
        transcript.add_event(
            "permutation_reveal", party=p, mapping=perms[p].mapping.tolist()
        )
    ordered = {p: unpermute(held[p], perms[p]) for p in PAIR_PARTIES}

    discard = set(sample1)
    keep = [i for i in range(n) if i not in discard]
    key2 = [key[i] for i in keep]
    msgs2 = {p: [msgs[p][i] for i in keep] for p in PAIR_PARTIES}
    seq2 = {p: [ordered[p][i] for i in keep] for p in PAIR_PARTIES}
    m2 = len(keep)
    transcript.add_key_stage("after_first_estimation", m2)

    basis2 = build_joint_basis(2)
    outcomes = [
        measure_channel_tuple([seq2[PAIR_PARTIES[0]][i], seq2[PAIR_PARTIES[1]][i]], basis2, rng)
        for i in range(m2)
    ]
    transcript.add_event("joint_announcement", codes=[o.code for o in outcomes])

    kept = [i for i, o in enumerate(outcomes) if sift_outcome(o)]
    transcript.add_event("sifting", kept_positions=kept)

    estimate, picked = _guess_comparison(
        msgs2, key2, outcomes, kept, params.delta, m2, params.threshold, rng, transcript
    )
    if estimate.verdict == "abort":
        transcript.record_abort(PHASE_GUESS)
        return transcript

    picked = set(picked)
    remaining = [i for i in kept if i not in picked]
    transcript.outputs = _decode_outputs(msgs2, key2, outcomes, remaining, keep)
    return transcript
