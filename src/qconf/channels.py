"""Quantum/classical channel machinery: permutations, decoys, estimations.

A transmitted qubit is carried by the intern id of its single-qubit state
(see ``qsim``): a preparation's carrier is its label id 0-3, and the
entangling attack's dephased qubit is ``qsim.MIXED``.  A joint measurement
gives an outcome code.  The ceremonies here measure carriers by table
lookup, in batches: ``measure_carriers`` holds the single-qubit rule once
and takes a whole ceremony's carriers, bases and uniforms, and
``measure_rounds`` measures each row of a relay round jointly from its
carrier ids, by ``qsim.measure_joint``.

Wire order matters only to a tap, so only a tapped channel builds it, from
the channel's ``Permutation`` or ``DecoySet`` (``QuantumChannel.transmit``).
The ceremonies read party order: the first estimation reads each sampled
position, and the decoy check takes each link's carriers at its decoy slots.

Measurements take a pre-drawn uniform ``u``.  Each ceremony draws the
uniforms of all its measurements as one ``rng.random(k).tolist()`` block,
which on numpy's PCG64 equals k successive ``rng.random()`` calls, so the
generator's stream is the one a draw per measurement would give.  The decoy
check of a hop takes every inbound link at once and draws one block for
all their decoys, in link order: the per-link blocks, concatenated.  A
hop's senders draw their decoys with one call too (``make_decoy_sets``):
one ``rng.integers`` over the bound of every draw that each link's
``rng.choice`` and ``rng.integers`` would make, which takes the same
numbers from the stream.

A ceremony's estimate is the JSON-native dict the transcript stores
(``estimate_from_detail``), with one ``[label, position, ok]`` list per check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Mapping, Sequence

import numpy as np

from .codec import consistent_outcome_codes
from .errors import ContractError
from .qsim import BASES, MEASURE, measure_joint

PHASE_FIRST = "first_estimation"
PHASE_SECOND = "second_estimation"
PHASE_DECOY = "decoy_verification"
PHASE_GUESS = "guess_comparison"


def measure_carriers(
    carriers: Sequence[int], bases: Sequence[str], uniforms: Sequence[float]
) -> tuple[list[int], list[int]]:
    """Measure each carrier in its basis with its uniform; returns (bits, collapsed).

    The one single-qubit measurement rule, read from the basis's
    ``qsim.MEASURE`` row: bit 0 iff ``u`` is below the carrier's p0, and the
    carrier collapses onto the label carrier of (basis, bit).
    """
    if not len(carriers) == len(bases) == len(uniforms):
        raise ContractError("one basis and one uniform per carrier")
    bits = []
    collapsed = []
    try:
        for carrier, basis, u in zip(carriers, bases, uniforms):
            p0, zero, one = MEASURE[basis]
            if u < p0[carrier]:
                bits.append(0)
                collapsed.append(zero)
            else:
                bits.append(1)
                collapsed.append(one)
    except KeyError:
        raise ContractError(f"bases must be Z or X, got {sorted(set(bases))}") from None
    return bits, collapsed


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

    def to_wire(self, seq: Sequence) -> list:
        """The wire order of a party-order sequence (``permute``)."""
        return permute(seq, self)

    def from_wire(self, seq: Sequence) -> list:
        """The party order of a wire sequence (``unpermute``)."""
        return unpermute(seq, self)


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

    def to_wire(self, seq: Sequence[int]) -> list[int]:
        """The wire order of a link's payload followed by these decoys' labels."""
        return insert_decoys(seq[: len(seq) - self.count], self)

    def from_wire(self, seq: Sequence[int]) -> list[int]:
        """A link's sequence from wire order: the payload, then the decoy slots."""
        return extract_payload(seq, self) + [seq[pos] for pos in self.positions]


# numpy's ``Generator.choice(total, count, replace=False)`` shuffles the
# tail of ``arange(total)`` when this holds, and runs Floyd's algorithm
# otherwise (numpy 2.4; the cutoff was found by experiment).
def _tail_shuffled(total: int, count: int) -> bool:
    return total > 10000 and count > total // 50


@lru_cache(maxsize=256)
def _decoy_bounds(total: int, count: int) -> np.ndarray:
    """Exclusive upper bound of each draw of one link's decoys, in draw order.

    ``choice`` draws each index below its bound: Floyd's ``total - count + 1
    ... total``, then a shuffle of the picks, ``count ... 2``; or the tail
    shuffle's ``total ... max(total - count, 1) + 1``.  Then ``count`` labels
    below 4.  Read-only, 24 bytes a decoy at most; 256 rows are kept.
    """
    if _tail_shuffled(total, count):
        picks = range(total, max(total - count, 1), -1)
    else:
        picks = [*range(total - count + 1, total + 1), *range(count, 1, -1)]
    bounds = np.array([*picks, *[4] * count], dtype=np.int64)
    bounds.setflags(write=False)
    return bounds


def make_decoy_sets(
    payload_lens: Sequence[int], count: int, rng: np.random.Generator
) -> list[DecoySet]:
    """Fresh decoys at random slots of each link's augmented sequence, in link order.

    Each link draws what ``rng.choice(payload_len + count, count,
    replace=False)`` then ``rng.integers(0, 4, count)`` draw.  Both reduce
    every draw to one bounded 32-bit Lemire draw, so one ``rng.integers``
    call over the bounds of every draw (``_decoy_bounds``) takes the same
    numbers from the stream, and leaves the generator in the same state.
    The positions follow from the draws by ``choice``'s own rule, distinct,
    so sorted they rise strictly and ``DecoySet``'s check is skipped.
    """
    if count < 0:
        raise ContractError("decoy count must be >= 0")
    rows = [_decoy_bounds(n + count, count) for n in payload_lens]
    draws = rng.integers(0, np.concatenate(rows)).tolist() if rows else []
    sets = []
    end = 0
    for n, row in zip(payload_lens, rows):
        total, start, end = n + count, end, end + len(row)
        picks = draws[start : end - count]
        if _tail_shuffled(total, count):
            slots = {}  # the moved entries of arange(total)
            for i, j in zip(range(total - 1, 0, -1), picks):
                slots[i], slots[j] = slots.get(j, j), slots.get(i, i)
            positions = [slots.get(i, i) for i in range(total - count, total)]
        else:
            positions = set()
            for j, pick in zip(range(total - count, total), picks):
                positions.add(j if pick in positions else pick)
        drawn = object.__new__(DecoySet)
        object.__setattr__(drawn, "positions", tuple(sorted(positions)))
        object.__setattr__(drawn, "labels", tuple(draws[end - count : end]))
        sets.append(drawn)
    return sets


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
    mismatches = checked - sum(map(itemgetter(2), detail))
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
    links: Sequence[tuple[Sequence[int], DecoySet]],
    threshold: float,
    rng: np.random.Generator,
) -> list[dict]:
    """Measure each link's decoys in their preparation bases; one estimate per link.

    ``links`` holds a hop's inbound ``(carriers, decoys)`` pairs in check
    order, ``carriers`` being what the receiver holds at the decoy slots,
    in slot order.  Draws one uniform per decoy, as one block across the
    links in that order.  Nothing reads a decoy slot again, so the
    collapses are dropped.
    """
    carriers, bases = [], []
    for held, decoys in links:
        if len(held) != decoys.count:
            raise ContractError("one carrier per decoy")
        carriers += held
        bases += [BASES[label >> 1] for label in decoys.labels]
    bits, _ = measure_carriers(carriers, bases, rng.random(len(bases)).tolist())
    # One iterator over every link's bits: ``zip`` stops at a link's last
    # position before it takes the next link's first bit.
    results = iter(bits)
    estimates = []
    for _, decoys in links:
        checks = zip(decoys.positions, decoys.labels, results)
        detail = [["decoy", pos, bit == label & 1] for pos, label, bit in checks]
        estimates.append(estimate_from_detail(PHASE_DECOY, detail, threshold))
    return estimates


def first_error_estimation(
    labels: Mapping[str, Sequence[int]],
    held: Mapping[str, Sequence[int]],
    sample_positions: Sequence[int],
    threshold: float,
    rng: np.random.Generator,
) -> dict:
    """Single-qubit spot checks before the joint measurement.

    ``labels`` holds each sender's preparations and ``held`` what the
    middle party holds, both in party order, as carrier ids.  For each
    sampled position every sender tells the middle party the physical slot
    and preparation basis; the middle party measures and announces, and the
    sender compares against the prepared bit.  Draws one uniform per check,
    position-major.  The sampled positions leave the kept rounds, so the
    collapses are dropped.
    """
    checks = [(party, int(pos)) for pos in sample_positions for party in labels]
    bits, _ = measure_carriers(
        [held[party][pos] for party, pos in checks],
        [BASES[labels[party][pos] >> 1] for party, pos in checks],
        rng.random(len(checks)).tolist(),
    )
    detail = [
        [party, pos, bit == labels[party][pos] & 1] for (party, pos), bit in zip(checks, bits)
    ]
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
        layout: Permutation | DecoySet | None = None,
        **event_fields,
    ) -> list[int]:
        """Carry the sender's qubits, in party order; ``record_event`` logs the traffic.

        An untapped receiver holds the sender's list as it is.  A tap acts on
        the wire order that ``layout`` builds (none: party order), and what
        arrives is mapped back.  ``record_event(type_, **fields)`` is the
        transcript's ``add_event``.
        """
        record_event("transmit", channel=self.channel_id, count=len(qubits), **event_fields)
        if self.tap is None:
            return qubits
        wire = qubits if layout is None else layout.to_wire(qubits)
        wire = self.tap.apply(wire, rng, self.channel_id)
        record_event("attack", channel=self.channel_id, kind=self.tap.kind, **event_fields)
        return wire if layout is None else layout.from_wire(wire)
