"""Shared protocol machinery: parties, parameters, transcripts, the relay and decoy-hop stages."""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np

from ..adversary import AdversaryRecord, AttackConfig, dishonest_middle_rounds, make_tap
from ..channels import (
    PHASE_DECOY,
    QuantumChannel,
    first_error_estimation,
    make_decoy_sets,
    measure_payload,
    measure_rounds,
    random_permutation,
    second_error_estimation,
    verify_decoys,
)
from ..errors import ContractError
from ..keysource import establish_key
from ..qsim import LABELS

MIDDLE = "middle"


def party_names(n: int) -> tuple[str, ...]:
    return tuple(f"P{i + 1}" for i in range(n))


@dataclass(frozen=True)
class ProtocolParams:
    """Tunable fractions shared by every protocol.

    ``delta`` sizes the pre-measurement single-qubit check, ``gamma`` the
    post-measurement consistency check, ``decoy_count`` the per-hop decoys of
    the exchange phases.  Threshold 0 means any mismatch aborts, which is the
    right default for a noiseless channel.
    """

    delta: float = 0.1
    gamma: float = 0.1
    decoy_count: int = 16
    threshold: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ContractError(f"delta must be in (0, 1), got {self.delta}")
        if not 0.0 < self.gamma < 1.0:
            raise ContractError(f"gamma must be in (0, 1), got {self.gamma}")
        if self.decoy_count < 1:
            raise ContractError(f"decoy_count: must be >= 1, got {self.decoy_count}")
        if not 0.0 <= self.threshold < 1.0:
            raise ContractError("threshold must be in [0, 1)")


def sample_size(fraction: float, total: int) -> int:
    """Number of positions checked: floored, at least 1, at most total."""
    return max(1, min(math.floor(fraction * total), total))


def sorted_sample(rng: np.random.Generator, total: int, count: int) -> list[int]:
    """Sorted sample of distinct positions drawn from the shared coin."""
    return sorted(rng.choice(total, size=count, replace=False).tolist())


_BIT_TEXT = bytes.maketrans(b"\x00\x01", b"01")


def bits_to_str(bits) -> str:
    """'0'/'1' text of a bit sequence: a numpy row or a list of ints.

    ``bytes`` takes the bits as ints, rejecting values outside 0-255 rather
    than wrapping them, and one ``translate`` maps bytes 0 and 1 to text.
    """
    try:
        raw = bytes(bits.tolist() if isinstance(bits, np.ndarray) else list(bits))
    except (TypeError, ValueError):
        raw = None
    if raw is None or raw.translate(None, b"\x00\x01"):
        raise ContractError(f"bits must be 0 or 1, got {bits!r}")
    return raw.translate(_BIT_TEXT).decode("ascii")


def str_to_bits(text: str) -> np.ndarray:
    """uint8 bits of a '0'/'1' string, read as bytes."""
    raw = text.encode()
    if raw.translate(None, b"01"):
        raise ContractError(f"bit text must hold only 0 and 1, got {text!r}")
    return np.frombuffer(raw, np.uint8) - 48


@dataclass
class Transcript:
    """Complete record of one protocol run.

    ``events`` is everything observable on the wire (channel traffic and
    public announcements); ``secrets`` is the simulator's omniscient side
    record (true messages, keys, masks) used only for scoring and replay
    checks and never shown to adversary taps.  ``adversary`` is the active
    attack's record, None on honest runs; ``shared_dict`` renders it.

    Values are stored as their producers built them, as JSON-native types;
    ``RunConfig`` is where numbers from outside become native.
    """

    config: dict
    key_stages: list = field(default_factory=list)
    events: list = field(default_factory=list)
    estimates: list = field(default_factory=list)
    outputs: dict | None = None
    abort: dict = field(default_factory=lambda: {"aborted": False, "stage": None})
    adversary: AdversaryRecord | None = None
    secrets: dict = field(default_factory=dict)

    def add_event(self, type_: str, **fields) -> None:
        self.events.append({"type": type_, **fields})

    def add_key_stage(self, stage: str, length: int) -> None:
        self.key_stages.append({"stage": stage, "length": length})

    def add_estimate(self, estimate: dict) -> None:
        """Store a ceremony's estimate dict as it is and log its verdict."""
        self.estimates.append(estimate)
        self.add_event(
            "estimation_verdict",
            phase=estimate["phase"],
            rate=estimate["rate"],
            verdict=estimate["verdict"],
        )

    def record_abort(self, stage: str) -> None:
        self.abort = {"aborted": True, "stage": stage}
        self.add_event("abort", stage=stage)

    @property
    def aborted(self) -> bool:
        return bool(self.abort["aborted"])

    def shared_dict(self) -> dict:
        """JSON-native dict of the run that shares the transcript's containers.

        For a caller that drops the transcript once it has the dict, so
        nothing else sees a change to either; the adversary record renders
        itself as fresh containers.
        """
        return {
            "config": self.config,
            "key_stages": self.key_stages,
            "events": self.events,
            "estimates": self.estimates,
            "outputs": self.outputs,
            "abort": self.abort,
            "adversary": None if self.adversary is None else self.adversary.to_dict(),
            "secrets": self.secrets,
        }

    def to_dict(self) -> dict:
        """JSON-native dict of the run; changing it leaves the transcript as is.

        Each event, estimate and key stage is copied one level deep: their
        values are never changed after they are added.  The fields set by
        plain assignment (config, outputs, secrets) are small and deep-copied.
        """
        data = self.shared_dict()
        for name in ("key_stages", "events", "estimates"):
            data[name] = [dict(item) for item in data[name]]
        for name in ("config", "outputs", "secrets"):
            data[name] = copy.deepcopy(data[name])
        data["abort"] = dict(self.abort)
        return data

    def to_json(self) -> str:
        return transcript_json(self.shared_dict())


# Scalar writers by exact type, each spelling a value as ``json`` does.
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _FLOAT_WORDS.get(text, text)


_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda value: "null",
}
_SCALAR_TYPES = frozenset(_SCALARS)


def transcript_json(data) -> str:
    """``json.dumps(data, sort_keys=True, indent=1)``, written in one pass.

    With an indent the stdlib leaves its C encoder for a generator per
    container; this writer builds the same text recursively, joining a list
    of scalars in one ``str.join``.  Only the exact types of a JSON-native
    tree are accepted (dict with str keys, list, str, int, float, bool,
    None); any other value raises ``TypeError``.
    """
    return _write(data, "\n")


def _write(value, newline: str) -> str:
    """``value``'s text; ``newline`` is a line break and the current indent."""
    kind = type(value)
    scalar = _SCALARS.get(kind)
    if scalar is not None:
        return scalar(value)
    if kind is list:
        if not value:
            return "[]"
        inner = newline + " "
        kinds = set(map(type, value))
        if not kinds <= _SCALAR_TYPES:
            items = [_write(item, inner) for item in value]
        elif len(kinds) == 1:
            items = map(_SCALARS[kinds.pop()], value)
        else:
            items = [_SCALARS[type(item)](item) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + " "
        # encode_basestring_ascii raises TypeError for a key that is not a str.
        items = [
            encode_basestring_ascii(key) + ": " + _write(value[key], inner)
            for key in sorted(value)
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def open_run(
    config: dict,
    parties: tuple[str, ...],
    rows: list,
    key_length: int,
    attack: AttackConfig,
    rng: np.random.Generator,
) -> tuple[Transcript, AdversaryRecord, np.ndarray]:
    """Transcript, adversary record and shared key of a fresh run.

    ``rows`` are the parties' true messages.  The transcript reports the
    record only when an attack is active.
    """
    record = AdversaryRecord(kind=attack.kind)
    transcript = Transcript(config=config, adversary=None if attack.kind == "none" else record)
    transcript.secrets["messages"] = [bits_to_str(row) for row in rows]
    key = establish_key(parties, key_length, rng)
    transcript.secrets["key_initial"] = bits_to_str(key)
    transcript.add_key_stage("initial", key_length)
    transcript.add_event("key_established", parties=list(parties), length=key_length)
    return transcript, record, key


# ---------------------------------------------------------------------------
# Stages shared by the drivers: the relay round and its consistency check
# (hardened dialogue, conference, XOR) and the decoy-protected hop
# (conference exchange, XOR mask distribution)
# ---------------------------------------------------------------------------


def relay_round(
    labels: dict[str, list[int]],
    attack: AttackConfig,
    record: AdversaryRecord,
    params: ProtocolParams,
    rng: np.random.Generator,
    transcript: Transcript,
    *,
    cheating_middle: bool,
) -> tuple[list[int], list] | None:
    """Permute, send to the middle party, spot-check, reveal, measure jointly.

    ``labels`` holds each party's preparations in party order, as label ids
    (``codec.label_indices``), which are also their carriers.  Permutations
    are drawn and revealed, but only a tapped channel applies one: the spot
    check and the joint rows read party order.  With
    ``cheating_middle`` the middle party measures every qubit of a round in
    one random basis and announces an outcome consistent with what it saw,
    all kept rounds in one batch from one block
    (``adversary.dishonest_middle_rounds``).
    Returns the positions kept after the spot check and one announced
    outcome code per kept position, or None when the spot check aborts.
    """
    parties = list(labels)
    length = len(labels[parties[0]])
    perms = {p: random_permutation(length, rng) for p in parties}
    held = {}
    for p in parties:
        channel = QuantumChannel(p, MIDDLE, tap=make_tap(attack, record, f"{p}->{MIDDLE}"))
        held[p] = channel.transmit(labels[p], rng, transcript.add_event, perms[p])

    sample = sorted_sample(rng, length, sample_size(params.delta, length))
    transcript.add_event("estimation_positions", phase="first_estimation", positions=sample)
    estimate = first_error_estimation(labels, held, sample, params.threshold, rng)
    transcript.add_estimate(estimate)
    if estimate["verdict"] == "abort":
        transcript.record_abort(estimate["phase"])
        return None

    for p in parties:
        transcript.add_event("permutation_reveal", party=p, mapping=perms[p].mapping.tolist())
    rows = list(zip(*(held[p] for p in parties)))
    discard = set(sample)
    keep = [i for i in range(length) if i not in discard]
    transcript.add_key_stage("after_first_estimation", len(keep))

    if cheating_middle:
        outcomes = dishonest_middle_rounds([rows[i] for i in keep], rng)
        record.announced.extend(outcomes)
    else:
        outcomes = measure_rounds([rows[i] for i in keep], rng.random(len(keep)).tolist())
    transcript.add_event("joint_announcement", codes=outcomes)
    return keep, outcomes


def consistency_check(
    rows: list[list[int]],
    x_flags: list,
    keep: list[int],
    outcomes: list,
    params: ProtocolParams,
    rng: np.random.Generator,
    transcript: Transcript,
) -> list[int] | None:
    """Reveal the bits of sampled rounds and check the announced outcomes.

    ``rows`` (one per party, in party order) and ``x_flags`` (1 where a
    position was prepared in the X basis) cover every transmitted position;
    ``keep`` and ``outcomes`` come from ``relay_round``.  Returns the indices
    into ``keep`` that survive, or None when the check aborts.
    """
    parties = party_names(len(rows))
    kept_rows = {p: [row[i] for i in keep] for p, row in zip(parties, rows)}
    sample = sorted_sample(rng, len(keep), sample_size(params.gamma, len(keep)))
    transcript.add_event("estimation_positions", phase="second_estimation", positions=sample)
    transcript.add_event(
        "message_reveal",
        phase="second_estimation",
        rounds=sample,
        bits={p: [row[i] for i in sample] for p, row in kept_rows.items()},
    )
    estimate = second_error_estimation(
        outcomes, [x_flags[i] for i in keep], kept_rows, sample, params.threshold
    )
    transcript.add_estimate(estimate)
    if estimate["verdict"] == "abort":
        transcript.record_abort(estimate["phase"])
        return None
    discard = set(sample)
    survivors = [i for i in range(len(keep)) if i not in discard]
    transcript.add_key_stage("after_second_estimation", len(survivors))
    return survivors


def decoy_hop(
    parties: tuple[str, ...], payloads: dict[tuple[str, str], list[int]], read_bases: list[str],
    attack: AttackConfig, record: AdversaryRecord, params: ProtocolParams,
    rng: np.random.Generator, transcript: Transcript, *, fields: dict, transmit_fields: dict,
) -> dict[str, tuple[list[int], list[int]]] | None:
    """Send payloads under fresh decoys; each receiver checks them, then reads.

    ``payloads`` maps each link ``(sender, receiver)``, senders in party
    order, to the sender's carriers, one per read basis; a party receives on
    at most one link.  Senders draw decoys, every link's with one call
    (``make_decoy_sets``), then transmit each payload followed by its decoys,
    which only a tapped link interleaves; each link gets a
    ``receipt_ack``, then a ``decoy_reveal``.  Receivers check, then read in
    ``read_bases``, in the order of ``parties``: one block of uniforms checks
    every inbound link's decoys and, only if none aborts, one more reads every
    payload.  Returns each receiver's ``measure_payload`` pair, or None after
    recording an abort.  ``fields`` go on every event, ``transmit_fields`` on
    the transmit and attack events only.
    """
    width = len(read_bases)
    if any(len(payload) != width for payload in payloads.values()):
        raise ContractError("one read basis per payload carrier")
    decoys = dict(zip(payloads, make_decoy_sets([width] * len(payloads), params.decoy_count, rng)))
    received = {}
    for link, payload in payloads.items():
        channel = QuantumChannel(*link, tap=make_tap(attack, record, "->".join(link)))
        received[link] = channel.transmit(
            payload + list(decoys[link].labels), rng, transcript.add_event, decoys[link],
            **fields, **transmit_fields,
        )
    for link in payloads:
        transcript.add_event("receipt_ack", channel="->".join(link), **fields)
    for link, decoy_set in decoys.items():
        transcript.add_event(
            "decoy_reveal", channel="->".join(link), positions=list(decoy_set.positions),
            states=[LABELS[label] for label in decoy_set.labels], **fields,
        )
    inbound = sorted(payloads, key=lambda link: parties.index(link[1]))
    estimates = verify_decoys(
        [(received[link][width:], decoys[link]) for link in inbound], params.threshold, rng
    )
    for estimate in estimates:
        transcript.add_estimate(estimate)
    if any(estimate["verdict"] == "abort" for estimate in estimates):
        transcript.record_abort(PHASE_DECOY)
        return None
    payload = []
    for link in inbound:
        payload += received[link][:width]
    bits, collapsed = measure_payload(payload, read_bases * len(inbound), rng)
    reads = {}
    for j, link in enumerate(inbound):
        span = slice(j * width, (j + 1) * width)
        reads[link[1]] = bits[span], collapsed[span]
    return reads
