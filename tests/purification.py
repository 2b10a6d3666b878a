"""Purification reference for the entangling attack, in plain numpy.

The attack CNOTs each wire qubit onto a fresh |0> ancilla that nothing reads.
This module builds that joint pure state and marginalizes the ancillas with
dense numpy, independently of the intern tables in ``qconf.qsim``, so tests
can pin the dephasing map, ``P0[MIXED]`` and the joint table against it.
Qubit 0 is the most significant bit of the index, as in ``qsim``.
"""

import math
from functools import reduce

import numpy as np

from qconf import qsim
from qconf.qsim import dense_joint_basis

R = 1.0 / math.sqrt(2.0)
LABEL_AMPLITUDES = {
    "Z0": np.array([1.0, 0.0], dtype=complex),
    "Z1": np.array([0.0, 1.0], dtype=complex),
    "X0": np.array([R, R], dtype=complex),
    "X1": np.array([R, -R], dtype=complex),
}
LABELS = tuple(LABEL_AMPLITUDES)
ZERO = LABEL_AMPLITUDES["Z0"]


def cnot(psi: np.ndarray, control: int, target: int) -> np.ndarray:
    """CNOT on a state vector of ``log2(len(psi))`` qubits."""
    n = int(psi.size).bit_length() - 1
    index = np.arange(psi.size)
    flip = ((index >> (n - 1 - control)) & 1) << (n - 1 - target)
    return psi[index ^ flip]


def purify(labels, taps) -> np.ndarray:
    """Wires prepared in ``labels``, then one CNOT per entry of ``taps``.

    ``taps[j]`` is the wire whose CNOT targets ancilla j; a wire may be
    tapped more than once.  Wires come first, then the ancillas in order.
    """
    wires = len(labels)
    factors = [LABEL_AMPLITUDES[label] for label in labels] + [ZERO] * len(taps)
    psi = reduce(np.kron, factors)
    for ancilla, wire in enumerate(taps):
        psi = cnot(psi, wire, wires + ancilla)
    return psi


def wire_density(psi: np.ndarray, wire: int) -> np.ndarray:
    """2x2 density matrix of one qubit, every other qubit traced out."""
    n = int(psi.size).bit_length() - 1
    columns = np.moveaxis(psi.reshape((2,) * n), wire, 0).reshape(2, -1)
    return columns @ columns.conj().T


def wire_distribution(psi: np.ndarray, wires: int) -> np.ndarray:
    """Joint-basis outcome probabilities of the first ``wires`` qubits.

    Each column over the ancillas is measured against the dense joint basis,
    and the columns' probabilities are summed.
    """
    columns = psi.reshape(2**wires, -1)
    return np.sum(np.abs(dense_joint_basis(wires).conj() @ columns) ** 2, axis=1)


def carrier_density(sid: int) -> np.ndarray:
    """2x2 density matrix of an interned carrier; I/2 for ``qsim.MIXED``."""
    if sid == qsim.MIXED:
        return np.eye(2) / 2
    amplitudes = qsim.interned(sid).amplitudes
    return np.outer(amplitudes, amplitudes.conj())
