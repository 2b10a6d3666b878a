"""Simulator core: state construction, joint basis, Born rule, sampling.

The entangling attack's tables are pinned against the numpy purification
reference in ``purification.py``.
"""

import math
import tracemalloc
from functools import reduce
from itertools import product

import numpy as np
import pytest

from purification import (
    LABELS,
    carrier_density,
    purify,
    wire_density,
    wire_distribution,
)
from qconf import qsim
from qconf.channels import measure_flying, measure_rounds
from qconf.errors import ContractError, ResourceLimitError
from qconf.qsim import (
    BASES,
    BASIS_X,
    BASIS_Z,
    MAX_QUBITS,
    MIXED,
    MAX_TABLE_QUBITS,
    PAULI_IY,
    PAULIS,
    PAULI_X,
    PAULI_Z,
    PureState,
    apply_1q_unitary,
    bits_to_index,
    dense_joint_basis,
    dephase,
    index_to_bits,
    interned,
    measure_joint,
    outcome_distribution,
    tensor,
)
from qconf.rng import make_rng
from qconf.tables import born_row

R = 1.0 / math.sqrt(2.0)
HADAMARD = np.array([[R, R], [R, -R]], dtype=complex)


def label_carrier(label):
    """The carrier (label id, also its intern id) of a label such as "X1"."""
    return qsim.LABELS.index(label)


def label_state(label):
    """The interned state of a label such as "X1"."""
    return interned(label_carrier(label))


def state_of(*labels):
    return tensor([label_state(lab) for lab in labels])


def carriers_of(*labels):
    """The row of carriers of labels such as "X1"."""
    return tuple(label_carrier(label) for label in labels)


def search_index(cumulative, u):
    """The numpy draw rule: np.searchsorted(side="right"), kept below the end."""
    index = int(np.searchsorted(cumulative, u * cumulative[-1], side="right"))
    return min(index, len(cumulative) - 1)


def sample_index(probs, u):
    """Reference draw from a probability vector, by its np.cumsum."""
    return search_index(np.cumsum(probs), u)


def tapped(label):
    """The carrier of a label after one pass of the entangling tap."""
    return dephase(label_carrier(label))


def measure_label(label, basis, rng):
    """Measure a label state's carrier: (bit, collapsed state)."""
    bit, post = measure_flying(label_carrier(label), basis, rng.random())
    return bit, interned(post)


class TestMaterialize:
    """The label states behind label ids 0-3, read by ``interned``."""

    def test_z0(self):
        np.testing.assert_allclose(label_state("Z0").amplitudes, [1, 0])

    def test_x0(self):
        np.testing.assert_allclose(label_state("X0").amplitudes, [R, R])

    def test_x1(self):
        np.testing.assert_allclose(label_state("X1").amplitudes, [R, -R])

    def test_amplitudes_real(self):
        for label in range(len(qsim.LABELS)):
            assert np.all(interned(label).amplitudes.imag == 0)

    def test_label_round_trip(self):
        # Label id i is basis BASES[i >> 1] and bit i & 1; LABELS spells both.
        assert len(qsim.LABELS) == 4
        for label, text in enumerate(qsim.LABELS):
            assert text == f"{BASES[label >> 1]}{label & 1}"
            assert label_carrier(text) == label


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ContractError):
            PureState(1, np.array([1.0, 1.0]))

    def test_norm_tolerance(self):
        amps = np.array([0.6, 0.8j])
        PureState(1, amps * math.sqrt(1.0 + 1e-13))
        with pytest.raises(ContractError):
            PureState(1, amps * math.sqrt(1.0 + 1e-11))

    def test_rejects_bad_length(self):
        with pytest.raises(ContractError):
            PureState(2, np.array([1.0, 0.0]))

    def test_amplitudes_read_only(self):
        state = label_state("Z0")
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0


class TestTensor:
    def test_01_is_index_1(self):
        np.testing.assert_allclose(state_of("Z0", "Z1").amplitudes, [0, 1, 0, 0])

    def test_plus_plus_uniform(self):
        np.testing.assert_allclose(state_of("X0", "X0").amplitudes, [0.5] * 4)

    def test_111_is_index_7(self):
        amps = state_of("Z1", "Z1", "Z1").amplitudes
        expected = np.zeros(8)
        expected[7] = 1.0
        np.testing.assert_allclose(amps, expected)

    def test_first_qubit_most_significant(self):
        # |10> must be index 2, not 1
        np.testing.assert_allclose(state_of("Z1", "Z0").amplitudes, [0, 0, 1, 0])

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            tensor([])


class TestJointBasis:
    def test_bell_basis_psi_plus(self):
        np.testing.assert_allclose(dense_joint_basis(2)[2], [0, R, R, 0], atol=1e-15)

    def test_three_qubit_phi2_minus(self):
        expected = np.zeros(8)
        expected[2], expected[5] = R, -R
        np.testing.assert_allclose(dense_joint_basis(3)[5], expected, atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_gram_matrix_is_identity(self, n):
        matrix = dense_joint_basis(n)
        gram = matrix.conj() @ matrix.T
        np.testing.assert_allclose(gram, np.eye(2**n), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_completeness(self, n):
        total = sum(np.outer(v, v.conj()) for v in dense_joint_basis(n))
        np.testing.assert_allclose(total, np.eye(2**n), atol=1e-12)

    def test_resource_guard(self):
        # The width guard runs before anything is built: a 17-carrier row
        # would fold 2^17 amplitudes (2 MiB), the dense basis 2^34 entries.
        tracemalloc.start()
        try:
            for width in (1, MAX_QUBITS + 1):
                row = carriers_of("X0") * width
                with pytest.raises(ResourceLimitError):
                    measure_rounds([row], [0.5])
                with pytest.raises(ResourceLimitError):
                    qsim.joint_cumulative(row)
                with pytest.raises(ResourceLimitError):
                    dense_joint_basis(width)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_outcome_code_bijection(self):
        # Code 2 * index + sign is basis row ``code``: phi(code >> 1, code & 1).
        codes = [2 * i + s for i in range(4) for s in (0, 1)]
        assert codes == list(range(8))
        matrix = dense_joint_basis(3)
        for code in range(8):
            index, sign = code >> 1, code & 1
            assert 2 * index + sign == code
            assert matrix[code, index] == R
            assert matrix[code, 7 - index] == (R if sign == 0 else -R)

    def test_measured_codes_are_native_ints(self):
        # An outcome is its code alone: measure_joint and measure_rounds give
        # Python ints in 0..2^n - 1, which transcripts hold as they are.
        rng = make_rng(16)
        ids = pauli_closure() + [MIXED]
        for n in (2, 3, 5, 8):
            rows = [tuple(ids[i] for i in rng.integers(len(ids), size=n)) for _ in range(20)]
            uniforms = rng.random(len(rows)).tolist()
            codes = measure_rounds(rows, uniforms)
            assert codes == [measure_joint(row, u) for row, u in zip(rows, uniforms)]
            assert all(type(code) is int and 0 <= code < 2**n for code in codes)


class TestOutcomeDistribution:
    def test_00_pair(self):
        probs = outcome_distribution(state_of("Z0", "Z0").amplitudes, 0)
        np.testing.assert_allclose(probs, [0.5, 0.5, 0, 0], atol=1e-12)

    def test_plus_minus_minus_triple(self):
        probs = outcome_distribution(state_of("X0", "X1", "X1").amplitudes, 0)
        np.testing.assert_allclose(probs, [0.25, 0, 0.25, 0, 0.25, 0, 0.25, 0], atol=1e-12)

    def test_four_party_odd_minus_row(self):
        probs = outcome_distribution(state_of("X0", "X0", "X0", "X1").amplitudes, 0)
        expected = np.tile([0.0, 0.125], 8)
        np.testing.assert_allclose(probs, expected, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_z_product_law(self, n):
        # |j1..jn> puts 1/2 on each sign of index min(j, 2^n-1-j), 0 elsewhere
        for bits in product((0, 1), repeat=n):
            probs = born_row(bits)  # Z labels: label id = bit
            j = bits_to_index(bits)
            j_hat = min(j, 2**n - 1 - j)
            for code in range(2**n):
                want = 0.5 if code // 2 == j_hat else 0.0
                assert abs(probs[code] - want) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_x_parity_law(self, n):
        # odd number of minus states -> all mass on minus signs, and vice versa
        for bits in product((0, 1), repeat=n):
            probs = born_row([2 + b for b in bits])  # X labels
            sign = sum(bits) % 2
            share = 1.0 / 2 ** (n - 1)
            for code in range(2**n):
                want = share if code % 2 == sign else 0.0
                assert abs(probs[code] - want) < 1e-12


def random_state(n, rng):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return PureState(n, amps / np.linalg.norm(amps))


class TestPairFold:
    """The closed-form joint measurement against the dense reference basis."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_equals_dense_product_exactly(self, n):
        rng = np.random.default_rng(n)
        conj = dense_joint_basis(n).conj()
        states = [
            tensor([interned(2 * int(rng.integers(2)) + int(rng.integers(2)))
                    for _ in range(n)])
            for _ in range(20)
        ] + [random_state(n, rng) for _ in range(10)]
        for state in states:
            dense = np.abs(conj @ state.amplitudes) ** 2
            assert np.array_equal(outcome_distribution(state.amplitudes, 0), dense)
        # Rows of interned pure ids, as the relay measures them: the labels,
        # their Pauli images -Z1, -X+ and -X-, and the 1-ULP copies of X+
        # and X- that ``pauli_image`` makes.
        ids = pauli_closure()
        for _ in range(30):
            row = tuple(ids[i] for i in rng.integers(len(ids), size=n))
            state = tensor([qsim.interned(sid) for sid in row])
            dense = np.cumsum(np.abs(conj @ state.amplitudes) ** 2)
            assert np.array_equal(qsim.joint_cumulative(row), dense)

    @pytest.mark.parametrize(
        "n, targets",
        [
            (3, [0, 2]),
            (3, [2, 1]),
            (4, [1, 3]),
            (4, [3, 0, 2]),
            (5, [4, 1, 2]),
            (6, [5, 0, 3, 1]),
            (8, [0, 2, 4, 6]),
        ],
    )
    def test_embedded_matches_dense_marginal(self, n, targets):
        # The k = len(targets) wires sit in an n-qubit purification whose
        # other n - k qubits are ancillas CNOT-ed from the wires in turn.  The
        # joint table of the dephased carriers equals the dense marginal over
        # the ancillas, up to summation order in the last bits.
        rng = np.random.default_rng(n)
        k = len(targets)
        taps = [j % k for j in range(n - k)]
        for _ in range(20):
            labels = [LABELS[i] for i in rng.integers(0, 4, size=k)]
            ids = [label_carrier(label) for label in labels]
            for wire in taps:
                ids[wire] = dephase(ids[wire])
            dense = np.cumsum(wire_distribution(purify(labels, taps), k))
            table = qsim.joint_cumulative(tuple(ids))
            np.testing.assert_allclose(table, dense, rtol=0, atol=1e-15)

    def test_twelve_qubit_measurement_stays_small(self):
        ids = pauli_closure()
        row = tuple(ids[i] for i in np.random.default_rng(12).integers(len(ids), size=12))
        rng = make_rng(12)
        tracemalloc.start()
        try:
            measure_joint(row, rng.random())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_sample_index_matches_numpy_search(self):
        # ``_draw`` reads a wide row's np.cumsum array and a tabled row's
        # .tolist(); both must pick the index np.searchsorted picks.
        rng = np.random.default_rng(11)
        vectors = []
        for dim in (4, 8, 1024):
            probs = rng.random(dim) ** 3
            vectors.append(np.cumsum(probs / probs.sum()))
        # An all-Z row: both signs of one index, then zeros to the end.
        z_row = qsim.joint_cumulative(carriers_of("Z1", "Z1", "Z1", "Z1"))
        assert isinstance(z_row, np.ndarray) and z_row[1] == z_row[-1]
        vectors.append(z_row)
        for cumulative in vectors:
            draws = make_rng(len(cumulative))
            # u = 0 and the largest u below 1, then u that lands exactly on a
            # cumulative value, which bisect_right must pass.
            grid = [0.0, 1.0 - 2.0**-53] + [draws.random() for _ in range(200)]
            landing = [c / cumulative[-1] for c in cumulative[:-1]]
            grid += [u for u in landing if u * cumulative[-1] in cumulative]
            for u in grid:
                want = search_index(cumulative, u)
                assert qsim._draw(cumulative, u) == want
                assert qsim._draw(cumulative.tolist(), u) == want
        # On the all-Z row: 0 picks code 0, a u on the first value and the
        # largest u both pick code 1, never a trailing zero.
        half = float(z_row[0] / z_row[-1])
        assert half * z_row[-1] == z_row[0]
        for u, code in ((0.0, 0), (half, 1), (1.0 - 2.0**-53, 1)):
            assert qsim._draw(z_row, u) == qsim._draw(z_row.tolist(), u) == code


def dense_probabilities(ids):
    """The fold's outcome probabilities of a row, as ``joint_cumulative`` forms them."""
    factors = [np.ones(2, dtype=complex) if sid == MIXED else interned(sid).amplitudes
               for sid in ids]
    amplitudes = reduce(np.multiply.outer, factors).reshape(-1)
    return outcome_distribution(amplitudes, ids.count(MIXED))


class TestSupportSampler:
    """``label_support`` and the draw from it against the dense fold, bit for bit.

    A wide row of label ids and ``MIXED`` is drawn from its support; every
    code it draws must be the code ``_draw(joint_cumulative(ids), u)`` draws.
    """

    @staticmethod
    def check_row(ids, rng, landings=1):
        dense = qsim.joint_cumulative(ids)
        p, size, code = qsim.label_support(ids)
        codes = code(np.arange(size))
        probs = dense_probabilities(ids)
        assert np.array_equal(codes, np.flatnonzero(probs))
        assert np.all(probs[codes] == p)
        sums = np.cumsum(np.full(size, p))
        assert np.array_equal(sums, dense[codes])
        # u = 0, the largest u below 1, and 1 itself, which only the guard
        # of both draws keeps on the last code; then u landing on sampled
        # running sums and their neighbours, which bisect_right must split
        # alike.
        grid = [0.0, 1.0 - 2.0**-53, 1.0]
        for t in rng.integers(size, size=landings):
            u = float(sums[t] / sums[-1])
            grid += [u, np.nextafter(u, 0.0), np.nextafter(u, 1.0)]
        for u in grid:
            assert measure_joint(ids, u) == qsim._draw(dense, u)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_every_label_and_mixed_row(self, n):
        rng = np.random.default_rng(n)
        for ids in product(range(MIXED + 1), repeat=n):
            self.check_row(ids, rng)

    @pytest.mark.parametrize("n", [7, 8])
    def test_every_label_row(self, n):
        rng = np.random.default_rng(n)
        for ids in product(range(len(qsim.LABELS)), repeat=n):
            self.check_row(ids, rng)

    @pytest.mark.parametrize("n", range(9, MAX_QUBITS + 1))
    def test_random_wide_rows(self, n):
        rng = np.random.default_rng(n)
        x_bits = rng.integers(2, size=n)
        x_bits[-1] = x_bits[:-1].sum() % 2  # an even X1 count
        flipped = x_bits.copy()
        flipped[-1] ^= 1
        rows = [
            tuple(rng.integers(2, size=n)),  # all Z
            tuple(2 + x_bits),  # all X, both parities
            tuple(2 + flipped),
            (MIXED,) * n,
        ] + [tuple(rng.integers(MIXED + 1, size=n)) for _ in range(8)]
        for ids in rows:
            self.check_row(tuple(int(sid) for sid in ids), rng, landings=20)

    def test_routes(self, monkeypatch):
        # A wide label row never folds; a row holding a Pauli image always
        # does, as do tabled rows.
        label_row = carriers_of("X0", "Z1", "X1", "Z0")
        image = qsim.pauli_image(label_carrier("Z0"), 2)  # i*sigma_y|0> = -|1>
        image_row = (image,) + label_row
        want = qsim._draw(qsim.joint_cumulative(image_row), 0.3)
        with monkeypatch.context() as patch:
            patch.setattr(qsim, "joint_cumulative", None)
            assert measure_joint(label_row, 0.3) == qsim._draw_support(label_row, 0.3)
        with monkeypatch.context() as patch:
            patch.setattr(qsim, "label_support", None)
            assert measure_joint(image_row, 0.3) == want
            assert measure_joint(label_row[:MAX_TABLE_QUBITS], 0.3) in range(8)


class TestMeasurement:
    def test_eigenstate_deterministic(self):
        rng = make_rng(0)
        for code, vector in enumerate(dense_joint_basis(3)):
            cumulative = np.cumsum(outcome_distribution(vector, 0))
            assert qsim._draw(cumulative, rng.random()) == code

    def test_111_lands_on_index_zero(self):
        rng = make_rng(1)
        row = carriers_of("Z1", "Z1", "Z1")
        for _ in range(50):
            assert measure_joint(row, rng.random()) >> 1 == 0

    def test_plus_plus_frequencies(self):
        rng = make_rng(2)
        row = carriers_of("X0", "X0")
        counts = np.zeros(4)
        trials = 100_000
        for _ in range(trials):
            counts[measure_joint(row, rng.random())] += 1
        freq = counts / trials
        assert abs(freq[0] - 0.5) < 0.01 and abs(freq[2] - 0.5) < 0.01
        assert freq[1] == 0 and freq[3] == 0

    def test_single_minus_in_x(self):
        rng = make_rng(3)
        bit, post = measure_label("X1", BASIS_X, rng)
        assert bit == 1
        np.testing.assert_allclose(post.amplitudes, [R, -R])

    def test_single_zero_in_x_uniform(self):
        rng = make_rng(4)
        trials = 100_000
        ones = sum(
            measure_label("Z0", BASIS_X, rng)[0]
            for _ in range(trials)
        )
        assert abs(ones / trials - 0.5) < 0.01

    def test_plus_in_z_uniform(self):
        rng = make_rng(5)
        trials = 100_000
        zeros = sum(
            1 - measure_label("X0", BASIS_Z, rng)[0]
            for _ in range(trials)
        )
        assert abs(zeros / trials - 0.5) < 0.01

    def test_preparation_basis_non_demolition(self):
        rng = make_rng(6)
        for label in qsim.LABELS:
            basis, bit = label[0], int(label[1])
            state = label_state(label)
            got, post = measure_label(label, basis, rng)
            assert got == bit
            np.testing.assert_allclose(post.amplitudes, state.amplitudes, atol=1e-12)

    def test_measure_qubit_matches_single(self):
        # A tapped wire reads 0 with the purification's p0, in either basis.
        rng_a, rng_b = make_rng(7), make_rng(7)
        for label in LABELS:
            rho = wire_density(purify([label], [0]), 0)
            p0 = {BASIS_Z: rho[0, 0].real, BASIS_X: (rho.sum() / 2).real}
            for basis in (BASIS_Z, BASIS_X):
                for _ in range(200):
                    bit, _ = measure_flying(tapped(label), basis, rng_a.random())
                    assert bit == (0 if rng_b.random() < p0[basis] else 1)

    def test_measure_qubit_collapses_partner(self):
        # In the purification of a tapped |+>, a Z read of the wire pins the
        # ancilla to the same bit; the carrier collapses to that Z label, and
        # reading it again repeats the bit.
        rng = make_rng(8)
        psi = purify(["X0"], [0]).reshape(2, 2)
        for _ in range(20):
            bit, post = measure_flying(tapped("X0"), BASIS_Z, rng.random())
            ancilla = psi[bit] / np.linalg.norm(psi[bit])
            np.testing.assert_allclose(ancilla, np.eye(2)[bit], atol=1e-12)
            assert post == label_carrier(f"Z{bit}")
            assert measure_flying(post, BASIS_Z, rng.random())[0] == bit

    def test_measure_embedded_marginalizes_ancilla(self):
        # A tapped |+> and a |0> measured jointly follow the purification's
        # marginal over the ancilla: a quarter on each code.
        rng = make_rng(9)
        want = wire_distribution(purify(["X0", "Z0"], [0]), 2)
        counts = np.zeros(4)
        trials = 20_000
        rows = [(tapped("X0"), label_carrier("Z0"))] * trials
        for outcome in measure_rounds(rows, rng.random(trials).tolist()):
            counts[outcome] += 1
        np.testing.assert_allclose(want, [0.25] * 4, atol=1e-15)
        np.testing.assert_allclose(counts / trials, want, atol=0.02)


class TestScalarSingleMeasurement:
    """``measure_flying`` draws against a p0 equal, bit for bit, to numpy's."""

    @staticmethod
    def numpy_p0(state, basis):
        a0, a1 = state.amplitudes  # numpy complex128 scalars
        return abs(a0) ** 2 if basis == BASIS_Z else abs(a0 + a1) ** 2 / 2.0

    def states(self):
        labels = [label_state(label) for label in qsim.LABELS]
        images = [
            apply_1q_unitary(state, u, 0)
            for u in (PAULI_X, PAULI_IY, PAULI_Z)
            for state in labels
        ]
        return labels + images

    def test_label_states_and_pauli_images(self):
        states = self.states()
        assert len(states) == 16
        for state in states:
            for basis in (BASIS_Z, BASIS_X):
                assert qsim._zero_probability(state, basis) == self.numpy_p0(state, basis)

    def test_random_states(self):
        rng = make_rng(12)
        for _ in range(2000):
            amps = rng.normal(size=2) + 1j * rng.normal(size=2)
            state = PureState(1, amps / np.linalg.norm(amps))
            for basis in (BASIS_Z, BASIS_X):
                assert qsim._zero_probability(state, basis) == self.numpy_p0(state, basis)

    def test_bits_follow_numpy_p0(self):
        rng_a, rng_b = make_rng(13), make_rng(13)
        for state in self.states():
            for basis in (BASIS_Z, BASIS_X):
                bit, post = measure_flying(qsim.intern(state), basis, rng_a.random())
                assert bit == (0 if rng_b.random() < self.numpy_p0(state, basis) else 1)
                assert post == label_carrier(f"{basis}{bit}")

    def test_label_specs_are_shared(self):
        # Each label id's state is interned once: its amplitudes intern back
        # to the same id, and ``interned`` hands out that one object.
        for label in range(len(qsim.LABELS)):
            state = interned(label)
            assert state is interned(label)
            assert qsim.intern(PureState(1, state.amplitudes.copy())) == label

    def test_rejects_bad_basis(self):
        with pytest.raises(ContractError):
            measure_flying(label_carrier("Z0"), "Y", 0.5)


def pauli_closure():
    """Ids of every state reachable from the label states by Paulis."""
    frontier = [qsim.intern(label_state(label)) for label in qsim.LABELS]
    seen = set(frontier)
    while frontier:
        sid = frontier.pop()
        for pauli in range(len(PAULIS)):
            image = qsim.pauli_image(sid, pauli)
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    return sorted(seen)


class TestInternTables:
    """Each id table holds exactly what the dense code computes per call."""

    def test_closure_is_small(self):
        ids = pauli_closure()
        assert len(ids) <= qsim.MAX_INTERNED
        assert ids[: len(qsim.LABELS)] == list(range(len(qsim.LABELS)))

    def test_pauli_images_byte_equal(self):
        for sid in pauli_closure():
            state = qsim.interned(sid)
            for pauli, u in enumerate(PAULIS):
                image = qsim.interned(qsim.pauli_image(sid, pauli))
                dense = apply_1q_unitary(state, u, 0)
                assert image.amplitudes.tobytes() == dense.amplitudes.tobytes()

    def test_p0_equals_formula(self):
        for sid in pauli_closure():
            state = qsim.interned(sid)
            for basis in (BASIS_Z, BASIS_X):
                want = TestScalarSingleMeasurement.numpy_p0(state, basis)
                assert qsim.P0[sid][basis] == want

    def test_collapse_to_label_states(self):
        rng_a, rng_b = make_rng(14), make_rng(14)
        for sid in pauli_closure():
            for basis in (BASIS_Z, BASIS_X):
                bit, post = measure_flying(sid, basis, rng_a.random())
                assert bit == (0 if rng_b.random() < qsim.P0[sid][basis] else 1)
                assert post == label_carrier(f"{basis}{bit}")

    @pytest.mark.parametrize("n", range(2, MAX_TABLE_QUBITS + 1))
    def test_joint_table_draws_like_sample_index(self, n):
        ids = pauli_closure()
        grid = [0.0, 0.25, 0.5, 0.75, np.nextafter(1.0, 0.0)] + list(np.linspace(0, 1, 17))
        conj = dense_joint_basis(n).conj()
        for combo in product(ids, repeat=n):
            state = tensor([qsim.interned(i) for i in combo])
            probs = np.abs(conj @ state.amplitudes) ** 2
            cumulative = qsim.joint_cumulative(combo)
            # Draws that land exactly on a boundary test the bisect side too.
            for u in grid + cumulative:
                want = sample_index(probs, u)
                assert measure_joint(combo, u) == want

    def test_joint_table_refuses_wide_products(self):
        narrow = (0,) * MAX_TABLE_QUBITS
        assert isinstance(qsim.joint_cumulative(narrow), list)
        assert narrow in qsim._JOINT
        wide = (0,) * (MAX_TABLE_QUBITS + 1)
        cumulative = qsim.joint_cumulative(wide)
        assert isinstance(cumulative, np.ndarray)
        assert np.array_equal(cumulative, np.cumsum(born_row([0] * len(wide))))
        assert wide not in qsim._JOINT

    def test_keys_on_exact_bytes(self):
        state = label_state("X0")
        nudged = state.amplitudes.copy()
        nudged[0] = np.nextafter(nudged[0].real, 1.0)
        twin = PureState(1, state.amplitudes.copy())
        assert qsim.intern(twin) == qsim.intern(state)
        assert qsim.intern(PureState(1, nudged)) != qsim.intern(state)

    def test_bound_raises(self, monkeypatch):
        monkeypatch.setattr(qsim, "MAX_INTERNED", len(qsim._INTERNED))
        known = label_state("Z1")
        assert qsim.intern(known) == 1
        fresh = random_state(1, np.random.default_rng(15))
        with pytest.raises(ResourceLimitError):
            qsim.intern(fresh)

    def test_rejects_multi_qubit_and_bad_basis(self):
        with pytest.raises(ContractError):
            qsim.intern(state_of("Z0", "Z1"))
        with pytest.raises(ContractError):
            measure_flying(0, "Y", 0.5)


class TestUnitaries:
    def test_identity(self):
        state = state_of("X0", "Z1")
        out = apply_1q_unitary(state, np.eye(2), 0)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)

    def test_pauli_x_flips(self):
        out = apply_1q_unitary(label_state("Z0"), PAULI_X, 0)
        np.testing.assert_allclose(out.amplitudes, [0, 1], atol=1e-15)

    def test_pauli_z_swaps_x_states(self):
        out = apply_1q_unitary(label_state("X0"), PAULI_Z, 0)
        np.testing.assert_allclose(out.amplitudes, [R, -R], atol=1e-15)

    def test_norm_preserved(self):
        rng = make_rng(10)
        state = state_of("X0", "X1", "Z1")
        for target in range(3):
            out = apply_1q_unitary(state, HADAMARD, target)
            assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) < 1e-12
            state = out

    def test_rejects_non_unitary(self):
        with pytest.raises(ContractError):
            apply_1q_unitary(state_of("Z0"), np.array([[1, 0], [0, 2.0]]), 0)


class TestCnot:
    """The entangling tap's CNOT onto |0>, as ``dephase`` leaves the wire."""

    def test_00_unchanged(self):
        np.testing.assert_allclose(purify(["Z0"], [0]), [1, 0, 0, 0], atol=1e-15)
        assert tapped("Z0") == label_carrier("Z0")
        assert tapped("Z1") == label_carrier("Z1")

    def test_plus_control_makes_phi_plus(self):
        np.testing.assert_allclose(purify(["X0"], [0]), [R, 0, 0, R], atol=1e-15)
        assert tapped("X0") == MIXED
        assert qsim.interned(MIXED) is None

    def test_minus_control_makes_phi_minus(self):
        np.testing.assert_allclose(purify(["X1"], [0]), [R, 0, 0, -R], atol=1e-15)
        assert tapped("X1") == MIXED
        assert dephase(MIXED) == MIXED

    def test_index_contracts(self):
        # Only the label states and MIXED reach the tap.
        flipped = qsim.pauli_image(label_carrier("Z0"), 2)  # i*sigma_y|0> = -|1>
        for sid in (flipped, len(qsim._INTERNED), -1):
            with pytest.raises(ContractError):
                dephase(sid)


class TestDephasedTables:
    """``MIXED``, ``dephase`` and the joint table against the purification."""

    def test_mixed_p0_equals_purification(self):
        for label in ("X0", "X1"):
            # Tapped once, and tapped again on a second ancilla.
            for taps in ([0], [0, 0]):
                rho = wire_density(purify([label], taps), 0)
                assert abs(qsim.P0[MIXED][BASIS_Z] - rho[0, 0].real) <= 1e-15
                assert abs(qsim.P0[MIXED][BASIS_X] - (rho.sum() / 2).real) <= 1e-15
        assert [qsim.pauli_image(MIXED, pauli) for pauli in range(4)] == [MIXED] * 4

    def test_dephasing_map_equals_purification(self):
        for label in LABELS:
            for taps in ([0], [0, 0]):
                sid = label_carrier(label)
                for _ in taps:
                    sid = dephase(sid)
                rho = wire_density(purify([label], taps), 0)
                np.testing.assert_allclose(carrier_density(sid), rho, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_joint_cumulative_equals_purification(self, n):
        # Every tuple of labels, each wire tapped or not, up to n = 4; 200
        # seeded random ones beyond.
        if n <= 4:
            cases = product(product(LABELS, repeat=n), product((False, True), repeat=n))
        else:
            rng = make_rng(n)
            cases = (
                ([LABELS[k] for k in rng.integers(len(LABELS), size=n)], rng.integers(2, size=n))
                for _ in range(200)
            )
        for labels, mask in cases:
            taps = [wire for wire in range(n) if mask[wire]]
            ids = tuple(
                tapped(label) if hit else label_carrier(label)
                for label, hit in zip(labels, mask)
            )
            dense = np.cumsum(wire_distribution(purify(labels, taps), n))
            table = qsim.joint_cumulative(ids)
            np.testing.assert_allclose(table, dense, rtol=0, atol=1e-15)

    def test_all_mixed_is_uniform_exactly(self):
        # The closed form sums powers of two, so the uniform is exact.
        for n in range(2, MAX_QUBITS + 1):
            uniform = [(c + 1) / 2**n for c in range(2**n)]
            assert np.array_equal(qsim.joint_cumulative((MIXED,) * n), uniform)


def test_index_bit_helpers_round_trip():
    for n in (1, 3, 5):
        for i in range(2**n):
            assert bits_to_index(index_to_bits(i, n)) == i
