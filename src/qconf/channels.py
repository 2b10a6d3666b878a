"""Quantum/classical channel machinery: permutations, decoys, estimations.

A transmitted qubit is carried by the intern id of its single-qubit state
(see ``qsim``): a label state's id is its index in ``LABEL_SPECS``, which is
also its ``codec.label_indices`` value, and the entangling attack's dephased
qubit is ``qsim.MIXED``.  The ceremonies here measure carriers by table
lookup.

Measurements take a pre-drawn uniform ``u``.  Each ceremony draws the
uniforms of all its measurements as one ``rng.random(k).tolist()`` block,
which on numpy's PCG64 equals k successive ``rng.random()`` calls, so the
generator's stream is the one a draw per measurement would give.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .codec import consistent_outcome_codes
from .errors import ContractError
from .qsim import (
    BASIS_X,
    BASIS_Z,
    MAX_TABLE_QUBITS,
    MIXED,
    P0,
    JointBasis,
    LABEL_SPECS,
    Outcome,
    QubitSpec,
    interned,
    label_id,
    label_spec,
    measure_joint,
    measure_product,
    tensor,
)

PHASE_FIRST = "first_estimation"
PHASE_SECOND = "second_estimation"
PHASE_DECOY = "decoy_verification"
PHASE_GUESS = "guess_comparison"

# The label carrier a measurement in each basis collapses onto, by bit.
_COLLAPSED = {
    basis: (label_id(label_spec(basis, 0)), label_id(label_spec(basis, 1)))
    for basis in (BASIS_Z, BASIS_X)
}


def measure_flying(qubit: int, basis: str, u: float) -> tuple[int, int]:
    """Measure a carrier in Z or X; returns (bit, collapsed carrier).

    Reads ``p0`` from the intern table ``qsim.P0`` and collapses onto the
    label carrier of (basis, bit).
    """
    try:
        bit = 0 if u < P0[qubit][basis] else 1
    except KeyError:
        raise ContractError(f"basis must be Z or X, got {basis!r}") from None
    return bit, _COLLAPSED[basis][bit]


def measure_payload(
    qubits: Sequence[int], bases: Sequence[str], rng: np.random.Generator
) -> tuple[list[int], list[int]]:
    """Measure each carrier in its basis; returns (bits, collapsed carriers).

    Draws ``len(bases)`` uniforms, as one block.
    """
    if len(qubits) != len(bases):
        raise ContractError("one basis per carrier")
    bits = []
    collapsed = []
    for qubit, basis, u in zip(qubits, bases, rng.random(len(bases)).tolist()):
        bit, post = measure_flying(qubit, basis, u)
        bits.append(bit)
        collapsed.append(post)
    return bits, collapsed


def measure_channel_tuple(qubits: Sequence[int], basis: JointBasis, u: float) -> Outcome:
    """Joint-basis measurement of one carrier per party, in party order.

    Up to ``MAX_TABLE_QUBITS`` carriers, or any tuple holding ``MIXED``, go
    through ``qsim.measure_product``; wider pure tuples build their product
    state.
    """
    if len(qubits) != basis.num_qubits:
        raise ContractError(
            f"{len(qubits)} carriers for a {basis.num_qubits}-qubit joint basis"
        )
    ids = tuple(qubits)
    if len(ids) <= MAX_TABLE_QUBITS or MIXED in ids:
        return measure_product(ids, u)
    return measure_joint(tensor([interned(sid) for sid in ids]), basis, u)


# ---------------------------------------------------------------------------
# Permutations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Permutation:
    """Bijection on positions; ``mapping[i]`` is where source slot i lands."""

    mapping: np.ndarray

    def __post_init__(self):
        mapping = np.array(self.mapping, dtype=np.int64, copy=True)
        if sorted(mapping.tolist()) != list(range(len(mapping))):
            raise ContractError("mapping is not a bijection on 0..L-1")
        mapping.setflags(write=False)
        object.__setattr__(self, "mapping", mapping)

    def __len__(self) -> int:
        return len(self.mapping)


def random_permutation(length: int, rng: np.random.Generator) -> Permutation:
    return Permutation(rng.permutation(length))


def permute(seq: Sequence, p: Permutation) -> list:
    if len(seq) != len(p):
        raise ContractError("sequence and permutation lengths differ")
    out = [None] * len(seq)
    for slot, item in zip(p.mapping.tolist(), seq):
        out[slot] = item
    return out


def unpermute(seq: Sequence, p: Permutation) -> list:
    if len(seq) != len(p):
        raise ContractError("sequence and permutation lengths differ")
    return [seq[slot] for slot in p.mapping.tolist()]


# ---------------------------------------------------------------------------
# Decoy photons
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecoySet:
    """Decoy preparations plus their positions in the augmented sequence."""

    positions: tuple[int, ...]
    specs: tuple[QubitSpec, ...]

    def __post_init__(self):
        if len(self.positions) != len(self.specs):
            raise ContractError("positions and specs must pair up")
        if list(self.positions) != sorted(set(self.positions)):
            raise ContractError("decoy positions must be strictly increasing")

    @property
    def count(self) -> int:
        return len(self.positions)


def make_decoy_set(
    payload_len: int, count: int, rng: np.random.Generator
) -> DecoySet:
    """Fresh decoys at random slots of the augmented sequence."""
    if count < 0:
        raise ContractError("decoy count must be >= 0")
    positions = np.sort(rng.choice(payload_len + count, size=count, replace=False))
    picks = rng.integers(0, 4, size=count)
    specs = tuple(LABEL_SPECS[int(p)] for p in picks)
    return DecoySet(tuple(int(p) for p in positions), specs)


def insert_decoys(payload: Sequence[int], decoys: DecoySet) -> list[int]:
    """Interleave decoys into the payload; removing them restores the order."""
    total = len(payload) + decoys.count
    if any(not 0 <= p < total for p in decoys.positions):
        raise ContractError("decoy positions out of range")
    out: list[int] = []
    decoy_at = dict(zip(decoys.positions, decoys.specs))
    payload_iter = iter(payload)
    for slot in range(total):
        spec = decoy_at.get(slot)
        out.append(label_id(spec) if spec is not None else next(payload_iter))
    return out


def extract_payload(seq: Sequence[int], decoys: DecoySet) -> list[int]:
    """Drop the decoy positions, recovering the payload in order."""
    positions = set(decoys.positions)
    if len(seq) < len(positions):
        raise ContractError("sequence shorter than the decoy set")
    return [q for slot, q in enumerate(seq) if slot not in positions]


# ---------------------------------------------------------------------------
# Error estimation ceremonies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorEstimate:
    """Outcome of one estimation ceremony.

    ``detail`` keeps one (label, position, ok) record per individual check so
    the Monte Carlo layer can aggregate pass rates at any granularity.
    """

    phase: str
    positions_checked: int
    mismatches: int
    threshold: float
    detail: tuple = field(default=())

    @property
    def rate(self) -> float:
        if self.positions_checked == 0:
            return 0.0
        return self.mismatches / self.positions_checked

    @property
    def verdict(self) -> str:
        return "abort" if self.rate > self.threshold else "continue"

    def to_dict(self) -> dict:
        """The estimate as a dict; each detail row is a native [str, int, bool]."""
        return {
            "phase": self.phase,
            "positions_checked": self.positions_checked,
            "mismatches": self.mismatches,
            "rate": self.rate,
            "threshold": self.threshold,
            "verdict": self.verdict,
            "detail": [[str(label), int(pos), bool(ok)] for label, pos, ok in self.detail],
        }


def verify_decoys(
    received: list[int],
    decoys: DecoySet,
    threshold: float,
    rng: np.random.Generator,
    phase: str = PHASE_DECOY,
) -> ErrorEstimate:
    """Measure each decoy in its preparation basis and count mismatches.

    Draws ``decoys.count`` uniforms.  Collapses the decoy slots of
    ``received`` in place; payload slots are untouched.
    """
    detail = []
    mismatches = 0
    uniforms = rng.random(decoys.count).tolist()
    for pos, spec, u in zip(decoys.positions, decoys.specs, uniforms):
        bit, collapsed = measure_flying(received[pos], spec.basis, u)
        received[pos] = collapsed
        ok = bit == spec.bit
        mismatches += not ok
        detail.append(("decoy", pos, ok))
    return ErrorEstimate(phase, decoys.count, mismatches, threshold, tuple(detail))


def first_error_estimation(
    prepared: Mapping[str, Sequence[QubitSpec]],
    held: Mapping[str, list[int]],
    perms: Mapping[str, Permutation],
    sample_positions: Sequence[int],
    threshold: float,
    rng: np.random.Generator,
) -> ErrorEstimate:
    """Single-qubit spot checks before the joint measurement.

    For each sampled original position every sender tells the middle party
    the physical slot and preparation basis; the middle party measures and
    announces, and the sender compares against the prepared bit.  Draws one
    uniform per check, position-major.  Collapses the checked slots of
    ``held`` in place.
    """
    slots = {party: perms[party].mapping.tolist() for party in prepared}
    uniforms = iter(rng.random(len(sample_positions) * len(prepared)).tolist())
    detail = []
    mismatches = 0
    for position in sample_positions:
        for party, specs in prepared.items():
            slot = slots[party][position]
            spec = specs[position]
            bit, collapsed = measure_flying(held[party][slot], spec.basis, next(uniforms))
            held[party][slot] = collapsed
            ok = bit == spec.bit
            mismatches += not ok
            detail.append((party, int(position), ok))
    return ErrorEstimate(
        PHASE_FIRST, len(detail), mismatches, threshold, tuple(detail)
    )


def second_error_estimation(
    outcomes: Sequence[Outcome],
    x_round_flags: Sequence[int],
    revealed_bits: Mapping[str, Sequence[int]],
    sample_rounds: Sequence[int],
    threshold: float,
) -> ErrorEstimate:
    """Consistency check of announced joint outcomes against revealed bits.

    A sampled round fails when the announced outcome lies outside the set of
    outcomes an honest joint measurement could have produced for the revealed
    bits and that round's basis.
    """
    parties = list(revealed_bits)
    detail = []
    mismatches = 0
    for round_idx in sample_rounds:
        bits = [int(revealed_bits[p][round_idx]) for p in parties]
        allowed = consistent_outcome_codes(bits, bool(x_round_flags[round_idx]), len(parties))
        ok = outcomes[round_idx].code in allowed
        mismatches += not ok
        detail.append(("round", int(round_idx), ok))
    return ErrorEstimate(
        PHASE_SECOND, len(detail), mismatches, threshold, tuple(detail)
    )


# ---------------------------------------------------------------------------
# Channels
# ---------------------------------------------------------------------------


@dataclass
class QuantumChannel:
    """Ordered qubit transport with an optional adversary tap."""

    sender: str
    receiver: str
    tap: object | None = None

    @property
    def channel_id(self) -> str:
        return f"{self.sender}->{self.receiver}"

    def transmit(
        self,
        qubits: list[int],
        rng: np.random.Generator,
        record_event: Callable[..., None],
        **event_fields,
    ) -> list[int]:
        """Carry the qubits through the tap; ``record_event`` logs the traffic.

        ``record_event(type_, **fields)`` is the transcript's ``add_event``.
        """
        record_event(
            "transmit", channel=self.channel_id, count=len(qubits), **event_fields
        )
        if self.tap is not None:
            qubits = self.tap.apply(qubits, rng, self.channel_id)
            record_event(
                "attack", channel=self.channel_id, kind=self.tap.kind, **event_fields
            )
        return list(qubits)
