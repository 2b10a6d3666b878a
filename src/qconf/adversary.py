"""Adversary strategies: channel taps, a dishonest middle party, a cheating P1.

Channel taps operate on in-flight qubits only, each carried by its intern id
(see ``channels``); they never see keys, permutations, or decoy layouts,
which is exactly the information boundary the protocols rely on.  Everything
an attack learns or fabricates is kept in an :class:`AdversaryRecord` so
experiments can score recovery rates afterwards.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .channels import measure_carriers
from .codec import consistent_outcome_codes
from .errors import ContractError
from .qsim import BASIS_X, BASIS_Z, LABELS, PAULIS, dephase, pauli_image
from .rng import random_bits

ATTACK_KINDS = (
    "none",
    "intercept_resend",
    "entangle_measure",
    "dos",
    "mitm",
    "dishonest_middle",
    "dishonest_p1",
)

CHANNEL_TAP_KINDS = ("intercept_resend", "entangle_measure", "dos", "mitm")

# Per-Pauli probability of surviving a preparation-basis check when the
# preparation basis is a fair Z/X coin: identity always passes, the bit-flip
# and phase-flip each disturb one basis, i*sigma_y disturbs both.
DOS_PASS_WEIGHTS = (1.0, 0.5, 0.0, 0.5)


@dataclass(frozen=True)
class AttackConfig:
    """Which strategy is active, its parameters, and where it attaches.

    ``target_links`` of None means every quantum channel of the run; naming
    links (e.g. ``{"P1->P2"}``) restricts the tap to those hops.
    """

    kind: str = "none"
    dos_weights: tuple[float, ...] | None = None
    target_links: frozenset[str] | None = None

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ContractError(f"unknown attack kind {self.kind!r}")
        if self.kind == "dos":
            if self.dos_weights is None or len(self.dos_weights) != 4:
                raise ContractError("dos needs four mixing weights")
            norm = sum(w * w for w in self.dos_weights)
            if not abs(norm - 1.0) <= 1e-10:  # also rejects NaN
                raise ContractError(f"dos weights not unit-norm (sum w^2 = {norm})")
            # Stored as floats, like every fraction of a run config.
            object.__setattr__(self, "dos_weights", tuple(map(float, self.dos_weights)))
        elif self.dos_weights is not None:
            raise ContractError("dos_weights only apply to kind='dos'")
        if self.target_links is not None:
            object.__setattr__(self, "target_links", frozenset(self.target_links))

    def applies_to(self, channel_id: str) -> bool:
        if self.kind not in CHANNEL_TAP_KINDS:
            return False
        return self.target_links is None or channel_id in self.target_links

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "dos_weights": list(self.dos_weights) if self.dos_weights else None,
            "target_links": sorted(self.target_links) if self.target_links else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AttackConfig":
        if not isinstance(data, dict):
            raise ContractError(f"attack: must be an object, got {data!r}")
        extra = set(data) - {"kind", "dos_weights", "target_links"}
        if extra:
            raise ContractError(f"attack: unknown fields {sorted(extra)}")
        if not isinstance(data.get("kind", "none"), str):
            raise ContractError("attack.kind: must be a string")
        weights = data.get("dos_weights")
        if weights is not None and (
            not isinstance(weights, list)
            or not all(isinstance(w, (int, float)) and not isinstance(w, bool) for w in weights)
        ):
            raise ContractError("attack.dos_weights: must be a list of numbers")
        links = data.get("target_links")
        if links is not None and (
            not isinstance(links, list) or not all(isinstance(link, str) for link in links)
        ):
            raise ContractError("attack.target_links: must be a list of strings")
        return cls(
            kind=data.get("kind", "none"),
            dos_weights=tuple(weights) if weights else None,
            target_links=frozenset(links) if links else None,
        )


@dataclass
class AdversaryRecord:
    """What the adversary saw or fabricated during one run, as transcripts report it.

    ``to_dict`` returns fresh native containers, so a transcript takes it as
    is.
    """

    kind: str = "none"
    guesses: dict = field(default_factory=dict)         # channel -> [(basis, bit)]
    ancilla_counts: dict = field(default_factory=dict)  # channel -> ancillas attached
    substituted: dict = field(default_factory=dict)     # channel -> [label text]
    announced: list = field(default_factory=list)       # outcome codes (middle)
    pauli_counts: list = field(default_factory=lambda: [0, 0, 0, 0])

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "guesses": {ch: list(map(list, entries)) for ch, entries in self.guesses.items()},
            "substituted": {ch: list(labels) for ch, labels in self.substituted.items()},
            "ancilla_counts": dict(self.ancilla_counts),
            "announced": list(self.announced),
            "pauli_counts": list(self.pauli_counts),
        }


# ---------------------------------------------------------------------------
# Per-qubit attack primitives
# ---------------------------------------------------------------------------


def guess_bases(coins: list[float]) -> list[str]:
    """The interceptor's fair Z/X basis guesses, one read from each uniform."""
    return [BASIS_Z if coin < 0.5 else BASIS_X for coin in coins]


def dos_cumulative(weights: tuple[float, ...]) -> list[float]:
    """Running sum of the squared mixing weights, which ``dos_attack`` draws from.

    The running sum and ``bisect_left`` equal numpy's ``cumsum`` and
    ``searchsorted`` bit for bit.
    """
    cumulative = list(accumulate(w * w for w in weights))
    if len(cumulative) != len(PAULIS) or not abs(cumulative[-1] - 1.0) <= 1e-10:
        raise ContractError("dos needs four unit-norm weights")
    return cumulative


def dos_attack(qubit: int, cumulative: list[float], u: float) -> tuple[int, int]:
    """Apply the Pauli that the uniform ``u`` picks from ``dos_cumulative``.

    The carrier takes its image from the intern table.
    """
    choice = min(bisect_left(cumulative, u), 3)
    if choice == 0:
        return qubit, choice
    return pauli_image(qubit, choice), choice


def mitm_attack(
    sequence: list[int], rng: np.random.Generator
) -> tuple[list[int], list[int]]:
    """Keep the genuine sequence; substitute fresh uniformly random label states.

    Returns (kept, substituted); a label state's carrier is its label id.
    """
    return list(sequence), rng.integers(0, 4, size=len(sequence)).tolist()


def dishonest_middle_announce(
    bits: list[int], x_basis: bool, n_parties: int, rng: np.random.Generator
) -> int:
    """Announce a uniformly drawn outcome code consistent with per-qubit results."""
    codes = consistent_outcome_codes(bits, x_basis, n_parties)
    return codes[int(rng.integers(0, len(codes)))]


def draw_substitute_blind(
    true_blind: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Random mask different from the distributed one (the cheating P1's R)."""
    while True:
        candidate = random_bits(rng, len(true_blind))
        if not np.array_equal(candidate, true_blind):
            return candidate


# ---------------------------------------------------------------------------
# Channel taps
# ---------------------------------------------------------------------------


class InterceptResendTap:
    """Per-qubit intercept-and-resend: each qubit is measured in a guessed
    basis (``channels.measure_carriers``) and its collapse forwarded.

    ``forced_bases`` coordinates the basis guess across channels by slot,
    which models a key-guessing eavesdropper on the unpermuted protocol;
    without it each qubit gets an independent coin.  ``apply`` draws one
    block: a coin then a measurement uniform per qubit, or only the
    measurement uniforms under ``forced_bases``.
    """

    kind = "intercept_resend"

    def __init__(self, record: AdversaryRecord, forced_bases: list[str] | None = None):
        self.record = record
        self.forced_bases = forced_bases

    def apply(self, qubits, rng, channel_id):
        guesses = self.record.guesses.setdefault(channel_id, [])
        if self.forced_bases:
            bases = self.forced_bases
            uniforms = rng.random(len(qubits)).tolist()
        else:
            draws = rng.random(2 * len(qubits)).tolist()
            bases = guess_bases(draws[::2])
            uniforms = draws[1::2]
        bits, forwarded = measure_carriers(qubits, bases, uniforms)
        guesses.extend(zip(bases, bits))
        return forwarded


class EntangleMeasureTap:
    """Per-qubit CNOT onto a retained |0> ancilla that nothing reads.

    The wire keeps its state with the ancilla traced out (``qsim.dephase``),
    so ``apply`` draws nothing.
    """

    kind = "entangle_measure"

    def __init__(self, record: AdversaryRecord):
        self.record = record

    def apply(self, qubits, rng, channel_id):
        counts = self.record.ancilla_counts
        counts[channel_id] = counts.get(channel_id, 0) + len(qubits)
        return [dephase(qubit) for qubit in qubits]


class DosTap:
    """Stochastic Pauli channel with the configured mixing weights.

    ``apply`` draws one uniform per qubit, as one block.
    """

    kind = "dos"

    def __init__(self, record: AdversaryRecord, weights: tuple[float, ...]):
        self.record = record
        self.cumulative = dos_cumulative(weights)

    def apply(self, qubits, rng, channel_id):
        counts = self.record.pauli_counts
        out = []
        for qubit, u in zip(qubits, rng.random(len(qubits)).tolist()):
            forwarded, choice = dos_attack(qubit, self.cumulative, u)
            counts[choice] += 1
            out.append(forwarded)
        return out


class MitmTap:
    """Swap the whole sequence for fresh random qubits; keep the originals."""

    kind = "mitm"

    def __init__(self, record: AdversaryRecord):
        self.record = record

    def apply(self, qubits, rng, channel_id):
        _, substituted = mitm_attack(qubits, rng)
        self.record.substituted[channel_id] = [LABELS[label] for label in substituted]
        return substituted


def make_tap(
    config: AttackConfig,
    record: AdversaryRecord,
    channel_id: str,
    forced_bases: list[str] | None = None,
):
    """Tap instance for one channel, or None when the attack skips it."""
    if not config.applies_to(channel_id):
        return None
    if config.kind == "intercept_resend":
        return InterceptResendTap(record, forced_bases)
    if config.kind == "entangle_measure":
        return EntangleMeasureTap(record)
    if config.kind == "dos":
        return DosTap(record, config.dos_weights)
    if config.kind == "mitm":
        return MitmTap(record)
    return None
