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

from ..adversary import AttackConfig, guess_bases, make_tap
from ..channels import PHASE_GUESS, QuantumChannel, estimate_from_detail, measure_rounds
from ..codec import decode_partner_bit, label_indices, sift_outcome
from ..errors import ContractError
from .common import (
    MIDDLE,
    ProtocolParams,
    Transcript,
    bits_to_str,
    open_run,
    party_names,
    relay_round,
    sample_size,
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
    return guess_bases(rng.random(length).tolist())


def _sift_and_decode(
    msgs: dict[str, list[int]],
    key: list[int],
    outcomes,
    position_labels: list[int],
    params: ProtocolParams,
    rng,
    transcript: Transcript,
) -> None:
    """Sift, run the disclose-and-compare ceremony, then decode the rest.

    ``msgs`` and ``key`` hold one bit per measured round as lists of ints;
    ``position_labels`` names each round's original position.  Sets the
    transcript's outputs, or records the abort.
    """
    a, b = msgs[PAIR_PARTIES[0]], msgs[PAIR_PARTIES[1]]
    kept = [i for i, o in enumerate(outcomes) if sift_outcome(o)]
    transcript.add_event("sifting", kept_positions=kept)
    count = min(sample_size(params.delta, len(outcomes)), len(kept))
    picked = (
        sorted(kept[j] for j in rng.choice(len(kept), size=count, replace=False))
        if kept
        else []
    )
    transcript.add_event("estimation_positions", phase=PHASE_GUESS, positions=picked)
    detail = []
    guesses = {p: [] for p in PAIR_PARTIES}
    for i in picked:
        guess_b = decode_partner_bit(a[i], key[i], outcomes[i])
        guess_a = decode_partner_bit(b[i], key[i], outcomes[i])
        guesses[PAIR_PARTIES[0]].append(guess_b)
        guesses[PAIR_PARTIES[1]].append(guess_a)
        detail.append(["pair", int(i), guess_b == b[i] and guess_a == a[i]])
    transcript.add_event("guess_reveal", phase=PHASE_GUESS, guesses=guesses)
    estimate = estimate_from_detail(PHASE_GUESS, detail, params.threshold)
    transcript.add_estimate(estimate)
    if estimate["verdict"] == "abort":
        transcript.record_abort(PHASE_GUESS)
        return

    picked = set(picked)
    rounds = [i for i in kept if i not in picked]
    rec_b = [decode_partner_bit(a[i], key[i], outcomes[i]) for i in rounds]
    rec_a = [decode_partner_bit(b[i], key[i], outcomes[i]) for i in rounds]
    transcript.outputs = {
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
    transcript, record, key = open_run(
        snapshot or {"protocol": "mdi_qd_original", "length": n},
        PAIR_PARTIES, list(msgs.values()), n, attack, rng,
    )
    key = key.tolist()

    shared_bases = _shared_guess_bases(attack, n, rng)
    held = {}
    for p in PAIR_PARTIES:
        sent = label_indices(msgs[p], key)
        channel = QuantumChannel(
            p, MIDDLE, tap=make_tap(attack, record, f"{p}->{MIDDLE}", shared_bases)
        )
        held[p] = channel.transmit(sent, rng, transcript.add_event)

    outcomes = measure_rounds(
        list(zip(held[PAIR_PARTIES[0]], held[PAIR_PARTIES[1]])), rng.random(n).tolist()
    )
    transcript.add_event("joint_announcement", codes=outcomes)
    _sift_and_decode(msgs, key, outcomes, list(range(n)), params, rng, transcript)
    return transcript


def run_mdi_qd_modified(
    message_a,
    message_b,
    attack: AttackConfig,
    rng: np.random.Generator,
    params: ProtocolParams = ProtocolParams(),
    snapshot: dict | None = None,
) -> Transcript:
    """Hardened dialogue: permute, check single qubits, then measure jointly.

    The middle party measures honestly under every attack kind; its
    cheating is modelled in the conference and XOR relays.
    """
    msgs = _check_messages(message_a, message_b)
    n = len(msgs[PAIR_PARTIES[0]])
    transcript, record, key = open_run(
        snapshot or {"protocol": "mdi_qd_modified", "length": n},
        PAIR_PARTIES, list(msgs.values()), n, attack, rng,
    )
    key = key.tolist()
    labels = {p: label_indices(msgs[p], key) for p in PAIR_PARTIES}
    relayed = relay_round(
        labels, attack, record, params, rng, transcript, cheating_middle=False
    )
    if relayed is None:
        return transcript
    keep, outcomes = relayed
    msgs2 = {p: [msgs[p][i] for i in keep] for p in PAIR_PARTIES}
    _sift_and_decode(msgs2, [key[i] for i in keep], outcomes, keep, params, rng, transcript)
    return transcript
