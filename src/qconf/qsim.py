"""Minimal pure-state simulator for products of single qubits.

States are dense complex vectors indexed so that qubit 0 is the most
significant bit of the computational index (a state over qubits 1..n written
left to right).  The joint measurement basis used by the relay pairs each
computational index ``i`` with its bitwise complement::

    phi(i, +/-) = (|i> +/- |2^n - 1 - i>) / sqrt(2),  0 <= i < 2^(n-1)

and an outcome is held as its code alone, ``code = 2 * index + sign_bit``
(index ``code >> 1``, sign ``code & 1``), so that the code order matches the
natural listing order of the basis.

Every qubit on the wire is a single-qubit state held by its intern id (see
``intern``): each distinct state gets a small integer id, and its Born
probabilities, Pauli images and small joint distributions are computed once
and looked up by id after.  A preparation is one of the four label states,
held as its label id i in 0-3: basis ``BASES[i >> 1]``, bit ``i & 1``, text
``LABELS[i]``.  The label states take intern ids 0-3 in that order, so a
preparation's label id is also its carrier.  One id, ``MIXED``, is the
maximally mixed state I/2 that the entangling attack leaves on the wire (see
``dephase``).

A relay row is measured by ``measure_joint`` from its carrier ids alone.  A
row of at most ``MAX_TABLE_QUBITS`` carriers reads its joint table.  A wider
row of label ids and ``MIXED``, as honest and entangled runs send, is drawn
from its support (``label_support``): all its nonzero outcomes share one
probability, so the draw needs only the running sums of that float.  A
wider row holding a Pauli image, as the ``dos`` attack sends, is folded:
``joint_cumulative`` multiplies out the carriers' amplitudes and
``outcome_distribution`` folds each index with its complement.  The fold
stays the tests' reference for the other two, which draw the code it draws
for every ``u``.  No product ``PureState`` is built.  ``tensor`` and
``dense_joint_basis`` (an O(4^n) matrix) stay as the reference that
``tables.computed_row`` and the tests compute Born rows from.

Nothing here draws random numbers: each measurement takes one uniform
``u`` in [0, 1), drawn by its caller, so a ceremony can draw the uniforms of
all its measurements in one block.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, ResourceLimitError

STATE_ATOL = 1e-12
UNITARY_ATOL = 1e-10
MAX_QUBITS = 16

INV_SQRT2 = 1.0 / math.sqrt(2.0)

BASIS_Z = "Z"
BASIS_X = "X"
# A preparation is its label id i in 0-3: basis BASES[i >> 1], bit i & 1.
BASES = (BASIS_Z, BASIS_X)
LABELS = ("Z0", "Z1", "X0", "X1")

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_IY = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)  # i * sigma_y
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
# The Paulis in the order the stochastic-Pauli attack's weights index them.
PAULIS = (PAULI_I, PAULI_X, PAULI_IY, PAULI_Z)

# Bound on the number of distinct single-qubit states (see ``intern``).
MAX_INTERNED = 64
# Largest product of interned states whose joint cumulative is tabled.
MAX_TABLE_QUBITS = 3


# ---------------------------------------------------------------------------
# Core value types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over ``num_qubits`` qubits."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ContractError("num_qubits must be >= 1")
        amps = np.array(self.amplitudes, dtype=complex, copy=True)
        if amps.shape != (2**self.num_qubits,):
            raise ContractError(
                f"amplitude vector must have length {2 ** self.num_qubits}, "
                f"got shape {amps.shape}"
            )
        norm = float(np.vdot(amps, amps).real)
        if abs(norm - 1.0) > STATE_ATOL:
            raise ContractError(f"state norm {norm} is not 1")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 2**self.num_qubits


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


# Amplitudes of the four label states, in ``LABELS`` order.
_LABEL_AMPLITUDES = (
    [1.0, 0.0],
    [0.0, 1.0],
    [INV_SQRT2, INV_SQRT2],
    [INV_SQRT2, -INV_SQRT2],
)


def tensor(states: Sequence[PureState]) -> PureState:
    """Kronecker product; the first state supplies the most significant bits."""
    if not states:
        raise ContractError("tensor of an empty sequence")
    n = sum(s.num_qubits for s in states)
    return PureState(n, reduce(np.multiply.outer, [s.amplitudes for s in states]).reshape(-1))


def _check_width(num_qubits: int) -> None:
    """Raise unless a joint measurement over ``num_qubits`` fits 2..MAX_QUBITS."""
    if not 2 <= num_qubits <= MAX_QUBITS:
        raise ResourceLimitError(
            f"joint basis supports 2..{MAX_QUBITS} qubits, got {num_qubits}"
        )


def dense_joint_basis(num_qubits: int) -> np.ndarray:
    """The basis as a dense 2^n x 2^n matrix; row ``code`` is that vector.

    O(4^n) reference for the table checks and tests; measurement never
    builds it.
    """
    _check_width(num_qubits)
    dim = 2**num_qubits
    matrix = np.zeros((dim, dim), dtype=complex)
    for index in range(dim // 2):
        for sign in (0, 1):
            code = 2 * index + sign
            matrix[code, index] = INV_SQRT2
            matrix[code, dim - 1 - index] = INV_SQRT2 if sign == 0 else -INV_SQRT2
    return matrix


# ---------------------------------------------------------------------------
# Interned single-qubit states
# ---------------------------------------------------------------------------
#
# Every carrier is one qubit in a state reached from the four label states by
# Paulis, collapses and the entangling attack: a small, closed set.  Each pure
# state is interned once, keyed on its exact amplitude bytes, and gets a small
# integer id.  Three tables keyed by id hold what the protocols compute from
# it: ``P0[id][basis]``, ``_IMAGE[id][pauli]`` and, for products of at most
# ``MAX_TABLE_QUBITS``, ``_JOINT[ids]``.  Each entry of a pure state is
# computed once by the dense code from those same bytes, so a lookup returns
# exactly the float that code would return on every call.  States whose
# bytes differ by one ULP keep separate ids, and more than ``MAX_INTERNED``
# states raise rather than grow the tables.

_INTERN_IDS: dict[bytes, int] = {}
_INTERNED: list[PureState | None] = []
# Read by ``channels.measure_carriers``, the one single-qubit measurement of
# interned states.
P0: list[dict[str, float]] = []
_IMAGE: list[list[int | None]] = []
_JOINT: dict[tuple[int, ...], list[float]] = {}


def _zero_probability(state: PureState, basis: str) -> float:
    """Born probability of bit 0 for a single qubit measured in Z or X.

    Computed on Python complex scalars: their add, abs (hypot) and ``** 2``
    (pow) are the IEEE operations numpy applies to its complex128 scalars,
    so the value, and every bit sampled from it, equals numpy's.
    """
    a0, a1 = state.amplitudes.tolist()
    if basis == BASIS_Z:
        return abs(a0) ** 2
    if basis == BASIS_X:
        return abs(a0 + a1) ** 2 / 2.0
    raise ContractError(f"basis must be Z or X, got {basis!r}")


def intern(state: PureState) -> int:
    """Id of a single-qubit state; new amplitude bytes get the next id."""
    if state.num_qubits != 1:
        raise ContractError("only single-qubit states are interned")
    key = state.amplitudes.tobytes()
    if key in _INTERN_IDS:
        return _INTERN_IDS[key]
    if len(_INTERNED) >= MAX_INTERNED:
        raise ResourceLimitError(
            f"more than {MAX_INTERNED} distinct single-qubit states; "
            "amplitudes are drifting under renormalization"
        )
    sid = _INTERN_IDS[key] = len(_INTERNED)
    P0.append({basis: _zero_probability(state, basis) for basis in (BASIS_Z, BASIS_X)})
    _IMAGE.append([None] * len(PAULIS))
    _INTERNED.append(state)
    return sid


def interned(sid: int) -> PureState | None:
    """The pure state behind an intern id; None for ``MIXED``."""
    return _INTERNED[sid]


def pauli_image(sid: int, pauli: int) -> int:
    """Id of ``PAULIS[pauli]`` applied to an interned state.

    Each entry is computed once by ``apply_1q_unitary``, with its unitarity
    check and renormalization.
    """
    images = _IMAGE[sid]
    image = images[pauli]
    if image is None:
        image = intern(apply_1q_unitary(_INTERNED[sid], PAULIS[pauli], 0))
        images[pauli] = image
    return image


def dephase(sid: int) -> int:
    """Id of the wire qubit after a CNOT onto a fresh |0> ancilla.

    Nothing reads the ancilla afterwards, so the wire carries what is left
    once the ancilla is traced out: Z labels pass unchanged, and X labels
    become ``MIXED``, which stays ``MIXED``.  Only the label states and
    ``MIXED`` are defined.
    """
    try:
        return _DEPHASED[sid]
    except KeyError:
        raise ContractError(f"only label states and MIXED are dephased, got id {sid}") from None


def joint_cumulative(ids: tuple[int, ...]) -> list[float] | np.ndarray:
    """Cumulative outcome probabilities of a product of interned states.

    The carriers' amplitudes are multiplied out in carrier order, a
    ``MIXED`` carrier reading as amplitude 1 at both bits, and
    ``outcome_distribution`` gives the probability of each code.  The
    cumulative is ``np.cumsum``, a running sum in code order.  Products of
    at most ``MAX_TABLE_QUBITS`` are tabled as lists, once per id tuple;
    wider ones have too many tuples to keep, and stay arrays.  ``_draw``
    reads either form.
    """
    cumulative = _JOINT.get(ids)
    if cumulative is None:
        _check_width(len(ids))
        factors = [_BOTH_BITS if sid == MIXED else _INTERNED[sid].amplitudes for sid in ids]
        amps = reduce(np.multiply.outer, factors).reshape(-1)
        probs = outcome_distribution(amps, ids.count(MIXED))
        # Freeing the product before the running sum is allocated lets a
        # 16-carrier row reuse heap pages: 480 minor page faults a row
        # rather than 1086 (glibc 2.36, which trims the freed heap top).
        del amps
        cumulative = np.cumsum(probs)
        if len(ids) <= MAX_TABLE_QUBITS:
            cumulative = _JOINT[ids] = cumulative.tolist()
    return cumulative


def measure_joint(ids: tuple[int, ...], u: float) -> int:
    """Joint-basis outcome code of a product of interned states, picked by ``u``.

    A tabled row is looked up; a wider row of label ids and ``MIXED`` is
    drawn from its support (``label_support``); any other row, one holding
    a Pauli image, is folded by ``joint_cumulative``.  All three draw the
    same code for the same ``u``.
    """
    cumulative = _JOINT.get(ids)
    if cumulative is None:
        if len(ids) > MAX_TABLE_QUBITS and max(ids) <= MIXED:
            return _draw_support(ids, u)
        cumulative = joint_cumulative(ids)
    return _draw(cumulative, u)


def label_support(ids: tuple[int, ...]) -> tuple[float, int, Callable]:
    """``(p, size, code)`` of a row of label ids 0-3 and ``MIXED``.

    Every nonzero outcome of such a row has the same probability ``p``,
    computed in the float order of ``outcome_distribution``: the product
    amplitudes all have magnitude m, ``INV_SQRT2`` multiplied in once per
    X carrier (Z and ``MIXED`` factors are an exact 1.0), and the fold of
    an index with a zero complement adds an exact 0.0.  ``size`` is the
    number of nonzero outcomes and ``code(t)`` the t-th of them in code
    order; ``code`` takes an int or an int array.  With a Z carrier the
    support is both signs of each pair index min(j, 2^n-1-j), j ranging
    over the indices that agree with the Z bits.  Without one, an X-only
    row puts every index at the sign of its X1 parity, and a row with
    ``MIXED`` puts every code.
    """
    _check_width(len(ids))
    top = len(ids) - 1
    low = (1 << top) - 1  # a pair index has qubit 0's bit clear
    m = 1.0
    zmask = zbits = parity = 0
    free = []  # weights of the X and MIXED bits below qubit 0
    for k, sid in enumerate(ids):
        weight = 1 << (top - k)
        if sid < 2:
            zmask |= weight
            zbits |= sid * weight
            continue
        if sid != MIXED:
            m *= INV_SQRT2
            parity ^= sid & 1
        if k:
            free.append(weight)
    mixed = ids.count(MIXED)
    if mixed:
        w = m * m
        p = (w if zmask else w + w) / 2 ** (mixed + 1)
    else:
        s = m * INV_SQRT2
        p = s * s if zmask else (s + s) * (s + s)
    if not zmask:
        if mixed:
            return p, 2 << top, lambda t: t
        return p, 1 << top, lambda t: 2 * t + parity
    zlow = zmask & low
    flip = pivot = 0
    if ids[0] < 2:
        # Every j has top bit ids[0]: its pair index is j, or its complement.
        fixed = (zbits ^ zmask if ids[0] else zbits) & low
    else:
        # A free qubit 0 folds each j with top bit 1 onto its complement, so
        # the Z bits of a pair index read zbits or their flip.  The highest
        # Z bit below qubit 0, the pivot, joins the free bits and tells which.
        pivot = zlow.bit_length() - 1
        free.append(1 << pivot)
        flip = zlow ^ (1 << pivot)
        fixed = zbits & flip
    free.sort()

    def code(t):
        index, rest = fixed, t >> 1
        for weight in free:
            index = index + (rest & 1) * weight
            rest = rest >> 1
        if flip:
            index = index ^ flip * (((index ^ zbits) >> pivot) & 1)
        return 2 * index + (t & 1)

    return p, 2 << len(free), code


def _draw_support(ids: tuple[int, ...], u: float) -> int:
    """``_draw(joint_cumulative(ids), u)`` for a row ``label_support`` takes.

    The running sums of ``p`` equal the dense cumulative at the nonzero
    codes, since the zero codes add an exact 0.0, so ``bisect_right``
    passes the same codes.  Past the last sum the dense draw stops at the
    last code, 2^n - 1.
    """
    p, size, code = label_support(ids)
    sums = np.full(size, p)
    np.cumsum(sums, out=sums)  # in place: one buffer a row, not two
    t = bisect_right(sums, u * sums[-1])
    return code(t) if t < size else (1 << len(ids)) - 1


# The label states take ids 0-3, in ``LABELS`` order.
for _amplitudes in _LABEL_AMPLITUDES:
    intern(PureState(1, np.array(_amplitudes, dtype=complex)))

# The maximally mixed state I/2 takes the next id.  It has no amplitudes:
# both bases read it as a fair coin, and every Pauli leaves it unchanged.
MIXED = len(_INTERNED)
_BOTH_BITS = np.ones(2, dtype=complex)
_INTERNED.append(None)
P0.append({BASIS_Z: 0.5, BASIS_X: 0.5})
_IMAGE.append([MIXED] * len(PAULIS))

# Z labels (ids 0, 1) pass the entangling tap; X labels (2, 3) dephase.
_DEPHASED = {0: 0, 1: 1, 2: MIXED, 3: MIXED, MIXED: MIXED}


# ---------------------------------------------------------------------------
# Born rule and sampling
# ---------------------------------------------------------------------------


def outcome_distribution(amplitudes: np.ndarray, mixed: int) -> np.ndarray:
    """Born probability of each outcome code of a product with these amplitudes.

    ``mixed`` counts the product's ``MIXED`` carriers, each read as
    amplitude 1 at both bits.  With k >= 1 of them an index and its
    complement differ on a ``MIXED`` bit, so the overlaps do not interfere:
    both signs of index i have probability (|A(i)|^2 + |A(2^n-1-i)|^2) /
    2^(k+1).

    A pure product folds each pair into |a +/- b|^2 / 2, with
    ``a = amplitudes[i]`` and ``b = amplitudes[dim - 1 - i]``.  Each overlap
    is ``R*a + R*b`` or ``R*a - R*b`` with ``R = 1/sqrt(2)``, the float
    order of the dense product ``dense_joint_basis(n).conj() @ amplitudes``,
    so the probabilities are bit-identical to it.  numpy scales a complex
    by a real as (ar*R - ai*0, ar*0 + ai*R), as Python's complex scalars
    do; the products can differ from the dense ones only in the sign of a
    zero, which abs drops.
    """
    half = len(amplitudes) // 2
    if mixed:
        weights = np.abs(amplitudes) ** 2
        pairs = (weights[:half] + weights[::-1][:half]) / 2 ** (mixed + 1)
        return np.repeat(pairs, 2)
    scaled = amplitudes * INV_SQRT2
    a = scaled[:half]
    b = scaled[::-1][:half]
    overlaps = np.empty_like(scaled)
    overlaps[0::2] = a + b
    overlaps[1::2] = a - b
    return np.abs(overlaps) ** 2


def _draw(cumulative: list[float] | np.ndarray, u: float) -> int:
    """Index of a cumulative distribution picked by the uniform ``u``.

    The cumulative is a list or a numpy array of the same floats;
    ``bisect_right`` compares the same values in either.
    """
    return min(bisect_right(cumulative, u * cumulative[-1]), len(cumulative) - 1)


# ---------------------------------------------------------------------------
# Unitaries
# ---------------------------------------------------------------------------


def apply_1q_unitary(state: PureState, u: np.ndarray, target: int) -> PureState:
    """Apply a 2x2 unitary to one qubit; output renormalized to unit norm."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ContractError("single-qubit unitary must be 2x2")
    defect = np.max(np.abs(u.conj().T @ u - np.eye(2)))
    if defect > UNITARY_ATOL:
        raise ContractError(f"matrix is not unitary (defect {defect:.2e})")
    n = state.num_qubits
    if not 0 <= target < n:
        raise ContractError(f"target {target} out of range for {n} qubits")
    psi = state.amplitudes.reshape((2,) * n)
    psi = np.moveaxis(psi, target, 0)
    out = np.tensordot(u, psi, axes=(1, 0))
    out = np.moveaxis(out, 0, target).reshape(-1)
    out = out / math.sqrt(float(np.sum(np.abs(out) ** 2)))
    return PureState(n, out)


# ---------------------------------------------------------------------------
# Index helpers shared by the codec and table checks
# ---------------------------------------------------------------------------


def index_to_bits(index: int, n: int) -> tuple[int, ...]:
    """Big-endian bit tuple of an index (bit of qubit 0 first)."""
    return tuple((index >> (n - 1 - k)) & 1 for k in range(n))


def bits_to_index(bits: Sequence[int]) -> int:
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    return value
