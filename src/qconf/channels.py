"""Quantum/classical channel machinery: permutations, decoys, estimations.

A transmitted qubit is carried by a :class:`FlyingQubit`.  Normally its state
is a single qubit, but an entangling adversary may extend it with ancilla
qubits; ``channel_qubit`` marks which qubit of the state is actually on the
wire, and every later measurement of that wire qubit goes through the full
joint state.  The shared single-qubit carriers made by ``carrier`` hold
their state's intern id (``sid``), and the ceremonies here measure them by
table lookup.

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
    P0,
    JointBasis,
    LABEL_SPECS,
    Outcome,
    PureState,
    QubitSpec,
    interned,
    label_id,
    measure_embedded,
    measure_joint,
    measure_product,
    measure_qubit,
    tensor,
)

PHASE_FIRST = "first_estimation"
PHASE_SECOND = "second_estimation"
PHASE_DECOY = "decoy_verification"
PHASE_GUESS = "guess_comparison"


@dataclass(frozen=True)
class FlyingQubit:
    """One in-flight qubit, possibly entangled with adversary ancillas.

    ``sid`` is the intern id of the state of a shared carrier made by
    ``carrier``; every other carrier has None and is measured densely.
    """

    state: PureState
    channel_qubit: int = 0
    sid: int | None = field(default=None, init=False)


_CARRIERS: dict[int, FlyingQubit] = {}


def carrier(sid: int) -> FlyingQubit:
    """The shared, immutable in-flight qubit of an interned state."""
    qubit = _CARRIERS.get(sid)
    if qubit is None:
        qubit = _CARRIERS[sid] = FlyingQubit(interned(sid))
        object.__setattr__(qubit, "sid", sid)
    return qubit


def flying(spec: QubitSpec) -> FlyingQubit:
    """The shared, immutable in-flight qubit for a preparation."""
    return carrier(label_id(spec))


# The carriers of the four label states, in ``LABEL_SPECS`` order, so
# ``codec.label_indices`` indexes them too.
LABEL_CARRIERS = tuple(flying(spec) for spec in LABEL_SPECS)
_COLLAPSED = {BASIS_Z: LABEL_CARRIERS[:2], BASIS_X: LABEL_CARRIERS[2:]}


def measure_flying(qubit: FlyingQubit, basis: str, u: float) -> tuple[int, FlyingQubit]:
    """Measure the wire qubit in Z or X; returns (bit, collapsed carrier).

    A shared carrier reads its ``p0`` from the intern table ``qsim.P0`` and
    collapses onto the label carrier of (basis, bit); any other carrier is
    measured densely by ``measure_qubit``.
    """
    sid = qubit.sid
    if sid is not None:
        try:
            bit = 0 if u < P0[sid][basis] else 1
        except KeyError:
            raise ContractError(f"basis must be Z or X, got {basis!r}") from None
        return bit, _COLLAPSED[basis][bit]
    bit, post = measure_qubit(qubit.state, qubit.channel_qubit, basis, u)
    return bit, FlyingQubit(post, qubit.channel_qubit)


def measure_channel_tuple(
    qubits: Sequence[FlyingQubit], basis: JointBasis, u: float
) -> Outcome:
    """Joint-basis measurement of one wire qubit per party, in party order.

    Up to ``MAX_TABLE_QUBITS`` single-qubit carriers are measured from the
    joint table; wider tuples and entangled carriers build the joint state.
    """
    if len(qubits) <= MAX_TABLE_QUBITS and len(qubits) == basis.num_qubits:
        ids = tuple(q.sid for q in qubits)
        if None not in ids:
            return measure_product(ids, u)
    joint = tensor([q.state for q in qubits])
    if joint.num_qubits == basis.num_qubits:
        return measure_joint(joint, basis, u)
    targets = []
    offset = 0
    for q in qubits:
        targets.append(offset + q.channel_qubit)
        offset += q.state.num_qubits
    return measure_embedded(joint, targets, basis, u)


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


def insert_decoys(payload: Sequence[FlyingQubit], decoys: DecoySet) -> list[FlyingQubit]:
    """Interleave decoys into the payload; removing them restores the order."""
    total = len(payload) + decoys.count
    if any(not 0 <= p < total for p in decoys.positions):
        raise ContractError("decoy positions out of range")
    out: list[FlyingQubit] = []
    decoy_at = dict(zip(decoys.positions, decoys.specs))
    payload_iter = iter(payload)
    for slot in range(total):
        spec = decoy_at.get(slot)
        out.append(flying(spec) if spec is not None else next(payload_iter))
    return out


def extract_payload(seq: Sequence[FlyingQubit], decoys: DecoySet) -> list[FlyingQubit]:
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
    received: list[FlyingQubit],
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
    held: Mapping[str, list[FlyingQubit]],
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
        qubits: list[FlyingQubit],
        rng: np.random.Generator,
        record_event: Callable[..., None],
        **event_fields,
    ) -> list[FlyingQubit]:
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
