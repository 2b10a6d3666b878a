"""Quantum/classical channel machinery: permutations, decoys, estimations.

A transmitted qubit is carried by the intern id of its single-qubit state
(see ``qsim``): a preparation's carrier is its label id 0-3, and the
entangling attack's dephased qubit is ``qsim.MIXED``.  A joint measurement
gives an outcome code.  The ceremonies here measure carriers by table
lookup, in batches: ``measure_carriers`` holds the single-qubit rule once
and takes a whole ceremony's carriers, bases and uniforms, and
``measure_rounds`` measures each row of a relay round jointly from its
carrier ids, by ``qsim.measure_joint``.

Measurements take a pre-drawn uniform ``u``.  Each ceremony draws the
uniforms of all its measurements as one ``rng.random(k).tolist()`` block,
which on numpy's PCG64 equals k successive ``rng.random()`` calls, so the
generator's stream is the one a draw per measurement would give.  The decoy
check of a hop takes every inbound link at once and draws one block for
all their decoys, in link order: the per-link blocks, concatenated.

A ceremony's estimate is the JSON-native dict the transcript stores
(``estimate_from_detail``), with one ``[label, position, ok]`` list per check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .codec import consistent_outcome_codes
from .errors import ContractError
from .qsim import BASES, P0, measure_joint

PHASE_FIRST = "first_estimation"
PHASE_SECOND = "second_estimation"
PHASE_DECOY = "decoy_verification"
PHASE_GUESS = "guess_comparison"

# The label carrier a measurement in each basis collapses onto, by bit.
_COLLAPSED = {basis: (2 * x, 2 * x + 1) for x, basis in enumerate(BASES)}


def measure_carriers(
    carriers: Sequence[int], bases: Sequence[str], uniforms: Sequence[float]
) -> tuple[list[int], list[int]]:
    """Measure each carrier in its basis with its uniform; returns (bits, collapsed).

    The one single-qubit measurement rule: bit 0 iff ``u < qsim.P0[carrier][basis]``,
    and the carrier collapses onto the label carrier of (basis, bit).
    """
    if not len(carriers) == len(bases) == len(uniforms):
        raise ContractError("one basis and one uniform per carrier")
    bits = []
    collapsed = []
    try:
        for carrier, basis, u in zip(carriers, bases, uniforms):
            bit = 0 if u < P0[carrier][basis] else 1
            bits.append(bit)
            collapsed.append(_COLLAPSED[basis][bit])
    except KeyError:
        raise ContractError(f"bases must be Z or X, got {sorted(set(bases))}") from None
    return bits, collapsed


def measure_flying(qubit: int, basis: str, u: float) -> tuple[int, int]:
    """Measure one carrier in Z or X; returns (bit, collapsed carrier)."""
    (bit,), (collapsed,) = measure_carriers((qubit,), (basis,), (u,))
    return bit, collapsed


def measure_payload(
    qubits: Sequence[int], bases: Sequence[str], rng: np.random.Generator
) -> tuple[list[int], list[int]]:
    """Measure each carrier in its basis; returns (bits, collapsed carriers).

    Draws ``len(bases)`` uniforms, as one block.
    """
    return measure_carriers(qubits, bases, rng.random(len(bases)).tolist())


def measure_rounds(rows: Sequence[tuple[int, ...]], uniforms: Sequence[float]) -> list[int]:
    """Joint-basis outcome code of each row of carriers, one uniform per row.

    A row holds one carrier per party, in party order; ``qsim.measure_joint``
    measures it from its carrier ids, at any width from 2 to ``qsim.MAX_QUBITS``.
    """
    if len(rows) != len(uniforms):
        raise ContractError("one uniform per round")
    return [measure_joint(row, u) for row, u in zip(rows, uniforms)]


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
    """A drawn permutation; ``rng.permutation`` gives a fresh bijection, so no copy or check."""
    mapping = rng.permutation(length)
    mapping.setflags(write=False)
    drawn = object.__new__(Permutation)
    object.__setattr__(drawn, "mapping", mapping)
    return drawn


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
    """Decoy preparations, as label ids, plus their positions in the augmented sequence."""

    positions: tuple[int, ...]
    labels: tuple[int, ...]

    def __post_init__(self):
        if len(self.positions) != len(self.labels):
            raise ContractError("positions and labels must pair up")
        if any(a >= b for a, b in zip(self.positions, self.positions[1:])):
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
    positions = sorted(rng.choice(payload_len + count, size=count, replace=False).tolist())
    picks = rng.integers(0, 4, size=count).tolist()
    return DecoySet(tuple(positions), tuple(picks))


def insert_decoys(payload: Sequence[int], decoys: DecoySet) -> list[int]:
    """Interleave decoys into the payload; removing them restores the order.

    Positions rise strictly, so inserting each decoy in turn puts every one
    at its final slot, and the two ends bound every position.
    """
    positions = decoys.positions
    if positions and (positions[0] < 0 or positions[-1] >= len(payload) + len(positions)):
        raise ContractError("decoy positions out of range")
    out = list(payload)
    for pos, label in zip(decoys.positions, decoys.labels):
        out.insert(pos, label)
    return out


def extract_payload(seq: Sequence[int], decoys: DecoySet) -> list[int]:
    """Drop the decoy positions, recovering the payload in order.

    Joins the slices between the (strictly increasing) decoy positions.
    """
    if len(seq) < decoys.count:
        raise ContractError("sequence shorter than the decoy set")
    payload = []
    start = 0
    for pos in decoys.positions:
        payload += seq[start:pos]
        start = pos + 1
    payload += seq[start:]
    return payload


# ---------------------------------------------------------------------------
# Error estimation ceremonies
# ---------------------------------------------------------------------------


def estimate_from_detail(phase: str, detail: list, threshold: float) -> dict:
    """The estimate of one ceremony from its ``[label, position, ok]`` rows.

    The dict is what the transcript stores, as it is: the rows let the Monte
    Carlo layer aggregate pass rates at any granularity, and the verdict is
    ``abort`` when the mismatch rate exceeds the threshold.
    """
    checked = len(detail)
    mismatches = sum(not ok for _, _, ok in detail)
    rate = mismatches / checked if checked else 0.0
    return {
        "phase": phase,
        "positions_checked": checked,
        "mismatches": mismatches,
        "rate": rate,
        "threshold": threshold,
        "verdict": "abort" if rate > threshold else "continue",
        "detail": detail,
    }


def verify_decoys(
    links: Sequence[tuple[list[int], DecoySet]],
    threshold: float,
    rng: np.random.Generator,
) -> list[dict]:
    """Measure each link's decoys in their preparation bases; one estimate per link.

    ``links`` holds a hop's inbound ``(received, decoys)`` pairs in check
    order.  Draws one uniform per decoy, as one block across the links in
    that order.  Collapses the decoy slots of each ``received`` in place;
    payload slots are untouched.
    """
    carriers, bases = [], []
    for received, decoys in links:
        carriers += [received[pos] for pos in decoys.positions]
        bases += [BASES[label >> 1] for label in decoys.labels]
    bits, collapsed = measure_carriers(carriers, bases, rng.random(len(bases)).tolist())
    # One iterator over every link's results: ``zip`` stops at a link's last
    # position before it takes the next link's first result.
    results = zip(bits, collapsed)
    estimates = []
    for received, decoys in links:
        detail = []
        for pos, label, (bit, post) in zip(decoys.positions, decoys.labels, results):
            received[pos] = post
            detail.append(["decoy", pos, bit == label & 1])
        estimates.append(estimate_from_detail(PHASE_DECOY, detail, threshold))
    return estimates


def first_error_estimation(
    labels: Mapping[str, Sequence[int]],
    held: Mapping[str, list[int]],
    perms: Mapping[str, Permutation],
    sample_positions: Sequence[int],
    threshold: float,
    rng: np.random.Generator,
) -> dict:
    """Single-qubit spot checks before the joint measurement.

    ``labels`` holds each sender's preparations in original order, as label
    ids.  For each sampled original position every sender
    tells the middle party the physical slot and preparation basis; the
    middle party measures and announces, and the sender compares against the
    prepared bit.  Draws one uniform per check, position-major.  Collapses
    the checked slots of ``held`` in place.
    """
    slots = {party: perms[party].mapping.tolist() for party in labels}
    checks = [
        (party, int(pos), slots[party][pos], labels[party][pos])
        for pos in sample_positions
        for party in labels
    ]
    bits, collapsed = measure_carriers(
        [held[party][slot] for party, _, slot, _ in checks],
        [BASES[label >> 1] for *_, label in checks],
        rng.random(len(checks)).tolist(),
    )
    detail = []
    for (party, pos, slot, label), bit, post in zip(checks, bits, collapsed):
        held[party][slot] = post
        detail.append([party, pos, bit == label & 1])
    return estimate_from_detail(PHASE_FIRST, detail, threshold)


def second_error_estimation(
    outcomes: Sequence[int],
    x_round_flags: Sequence[int],
    revealed_bits: Mapping[str, Sequence[int]],
    sample_rounds: Sequence[int],
    threshold: float,
) -> dict:
    """Consistency check of announced joint outcomes against revealed bits.

    A sampled round fails when the announced outcome code lies outside the
    set of codes an honest joint measurement could have produced for the
    revealed bits and that round's basis.
    """
    parties = list(revealed_bits)
    detail = []
    for round_idx in sample_rounds:
        bits = [int(revealed_bits[p][round_idx]) for p in parties]
        allowed = consistent_outcome_codes(bits, bool(x_round_flags[round_idx]), len(parties))
        detail.append(["round", int(round_idx), outcomes[round_idx] in allowed])
    return estimate_from_detail(PHASE_SECOND, detail, threshold)


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
