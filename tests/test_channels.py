"""Channel machinery: permutations, decoys, estimation ceremonies."""

import numpy as np
import pytest

from qconf import qsim
from qconf.adversary import AdversaryRecord, EntangleMeasureTap
from qconf.channels import (
    DecoySet,
    Permutation,
    QuantumChannel,
    extract_payload,
    first_error_estimation,
    insert_decoys,
    make_decoy_set,
    measure_carriers,
    measure_flying,
    measure_payload,
    measure_rounds,
    permute,
    random_permutation,
    second_error_estimation,
    unpermute,
    verify_decoys,
)
from qconf.codec import consistent_outcome_codes, encode_message_qubit
from qconf.errors import ContractError
from qconf.protocols import RunConfig, Transcript, execute_trial
from qconf.qsim import (
    BASES,
    BASIS_X,
    BASIS_Z,
    LABELS,
    MIXED,
    P0,
    PAULIS,
    interned,
    pauli_image,
)
from qconf.rng import make_rng, random_bits
from qconf.tables import born_row


def label(text):
    """The label id, also the carrier, of a preparation such as "X1"."""
    return LABELS.index(text)


class TestPermutation:
    def test_identity(self):
        p = Permutation(np.arange(5))
        assert permute(list("abcde"), p) == list("abcde")

    def test_round_trip_small(self):
        p = Permutation(np.array([1, 2, 0]))
        seq = ["a", "b", "c"]
        assert unpermute(permute(seq, p), p) == seq

    def test_round_trip_randomized(self):
        rng = make_rng(20)
        for _ in range(1000):
            length = int(rng.integers(1, 100))
            p = random_permutation(length, rng)
            seq = list(rng.integers(0, 1000, size=length))
            assert unpermute(permute(seq, p), p) == seq

    def test_rejects_non_bijection(self):
        with pytest.raises(ContractError):
            Permutation(np.array([0, 0, 2]))

    @pytest.mark.parametrize("length", [0, 1, 100])
    def test_drawn_matches_built(self, length):
        # A drawn permutation skips the copy and the check, and ends up as a
        # built one would: the same draw, read-only int64.
        drawn_rng, built_rng = make_rng(21), make_rng(21)
        drawn = random_permutation(length, drawn_rng)
        built = Permutation(built_rng.permutation(length))
        assert drawn.mapping.tolist() == built.mapping.tolist()
        assert drawn.mapping.dtype == built.mapping.dtype == np.int64
        assert not drawn.mapping.flags.writeable
        assert drawn_rng.bit_generator.state == built_rng.bit_generator.state

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            permute([1, 2], Permutation(np.arange(3)))


class TestDecoys:
    def test_zero_decoys(self):
        payload = [label("Z0")]
        decoys = DecoySet((), ())
        assert insert_decoys(payload, decoys) == payload

    def test_positional_bookkeeping(self):
        payload = [label("Z0"), label("Z1"), label("Z0")]
        decoys = DecoySet((0, 4), (label("X0"), label("X1")))
        out = insert_decoys(payload, decoys)
        assert len(out) == 5
        assert out[1:4] == payload
        assert extract_payload(out, decoys) == payload

    def test_round_trip_randomized(self):
        rng = make_rng(21)
        for _ in range(1000):
            length = int(rng.integers(1, 40))
            count = int(rng.integers(0, 20))
            payload = random_bits(rng, length).tolist()  # Z labels: label id = bit
            decoys = make_decoy_set(length, count, rng)
            assert extract_payload(insert_decoys(payload, decoys), decoys) == payload

    def test_positions_strictly_increasing(self):
        with pytest.raises(ContractError):
            DecoySet((3, 3), (label("Z0"), label("Z0")))

    @pytest.mark.parametrize("positions", [(4, 2), (0, 5, 5, 7), (1, 6, 2)])
    def test_positions_out_of_order(self, positions):
        with pytest.raises(ContractError, match="strictly increasing"):
            DecoySet(positions, (label("Z0"),) * len(positions))

    @pytest.mark.parametrize("positions", [(-1, 2), (0, 4), (5,)])
    def test_insert_rejects_positions_out_of_range(self, positions):
        # Two payload qubits and the decoys fill slots 0..len(positions) + 1.
        decoys = DecoySet(positions, (label("X0"),) * len(positions))
        with pytest.raises(ContractError, match="out of range"):
            insert_decoys([label("Z0"), label("Z1")], decoys)

    def test_untouched_channel_verifies_clean(self):
        rng = make_rng(22)
        for _ in range(200):
            decoys = make_decoy_set(10, 8, rng)
            payload = random_bits(rng, 10).tolist()  # Z labels: label id = bit
            received = insert_decoys(payload, decoys)
            (estimate,) = verify_decoys([(received, decoys)], 0.0, rng)
            assert estimate["mismatches"] == 0
            assert estimate["verdict"] == "continue"

    def test_verification_is_non_demolition_for_payload(self):
        rng = make_rng(23)
        payload = [label("X1")] * 4
        decoys = make_decoy_set(4, 4, rng)
        received = insert_decoys(payload, decoys)
        verify_decoys([(received, decoys)], 0.0, rng)
        for qubit in extract_payload(received, decoys):
            np.testing.assert_allclose(
                interned(qubit).amplitudes,
                interned(label("X1")).amplitudes,
                atol=1e-12,
            )


class TestFirstEstimation:
    def _setup(self, n, rng):
        key = random_bits(rng, n)
        messages = {p: random_bits(rng, n) for p in ("P1", "P2")}
        labels = {
            p: [encode_message_qubit(messages[p][i], key[i]) for i in range(n)]
            for p in messages
        }
        perms = {p: random_permutation(n, rng) for p in messages}
        held = {p: permute(labels[p], perms[p]) for p in messages}
        return labels, held, perms

    def test_honest_run_no_mismatch(self):
        rng = make_rng(24)
        labels, held, perms = self._setup(40, rng)
        estimate = first_error_estimation(labels, held, perms, [3, 7, 20], 0.0, rng)
        assert estimate["mismatches"] == 0
        assert estimate["positions_checked"] == 6  # 2 parties x 3 positions
        assert estimate["verdict"] == "continue"

    def test_detail_labels_parties_and_positions(self):
        rng = make_rng(25)
        labels, held, perms = self._setup(10, rng)
        estimate = first_error_estimation(labels, held, perms, [2, 5], 0.0, rng)
        assert {entry[0] for entry in estimate["detail"]} == {"P1", "P2"}
        assert {entry[1] for entry in estimate["detail"]} == {2, 5}

    def test_flipped_qubit_detected(self):
        rng = make_rng(26)
        labels, held, perms = self._setup(10, rng)
        # corrupt P1's qubit for original position 4 with an orthogonal state
        slot = int(perms["P1"].mapping[4])
        held["P1"][slot] = labels["P1"][4] ^ 1  # same basis, other bit
        estimate = first_error_estimation(labels, held, perms, [4], 0.0, rng)
        assert estimate["mismatches"] == 1
        assert estimate["verdict"] == "abort"


class TestSecondEstimation:
    def test_honest_outcomes_consistent(self):
        rng = make_rng(27)
        bits = {"P1": [0, 1, 0], "P2": [1, 1, 0], "P3": [1, 0, 0]}
        key = [0, 1, 0]
        outcomes = []
        for i in range(3):
            row = [bits[p][i] for p in bits]
            codes = consistent_outcome_codes(row, bool(key[i]), 3)
            outcomes.append(codes[0])
        estimate = second_error_estimation(outcomes, key, bits, [0, 1, 2], 0.0)
        assert estimate["mismatches"] == 0

    def test_uniform_announcements_pass_z_rounds_quarter(self):
        # With random announcements a Z round passes iff the index matches:
        # 2 of 8 codes for three parties.
        rng = make_rng(28)
        trials = 20_000
        passes = 0
        for _ in range(trials):
            row = [int(b) for b in random_bits(rng, 3)]
            announced = int(rng.integers(0, 8))
            estimate = second_error_estimation(
                [announced],
                [0],
                {p: [row[i]] for i, p in enumerate(("P1", "P2", "P3"))},
                [0],
                0.0,
            )
            passes += estimate["mismatches"] == 0
        assert abs(passes / trials - 0.25) < 0.01


class TestFlying:
    def test_shared_per_preparation(self):
        # The encoded preparation is the carrier: one id, one interned state.
        assert encode_message_qubit(1, 1) == label("X1") == 3
        assert interned(encode_message_qubit(1, 1)) is interned(label("X1"))

    def test_single_qubit_collapse_is_shared(self):
        bit, post = measure_flying(label("X0"), "X", make_rng(28).random())
        assert bit == 0
        assert post == label("X0")

    def test_batch_equals_scalar_for_every_id(self):
        # Every interned id: the labels, their Pauli images and MIXED, each
        # in both bases at u = 0, at p0 and its neighbours, and just below 1.
        for sid in range(len(LABELS)):
            for pauli in range(len(PAULIS)):
                pauli_image(sid, pauli)
        carriers, bases, uniforms = [], [], []
        for sid in range(len(P0)):
            for basis in (BASIS_Z, BASIS_X):
                p0 = P0[sid][basis]
                for u in (0.0, np.nextafter(p0, 0.0), p0, np.nextafter(p0, 1.0), 1.0 - 2.0**-53):
                    carriers.append(sid)
                    bases.append(basis)
                    uniforms.append(float(u))
        assert MIXED in carriers
        bits, collapsed = measure_carriers(carriers, bases, uniforms)
        assert list(zip(bits, collapsed)) == [
            measure_flying(*args) for args in zip(carriers, bases, uniforms)
        ]
        for sid, basis, u, bit, post in zip(carriers, bases, uniforms, bits, collapsed):
            assert bit == int(u >= P0[sid][basis])
            assert post == 2 * BASES.index(basis) + bit

    def test_batch_contract(self):
        with pytest.raises(ContractError):
            measure_carriers([0, 1], ["Z"], [0.5, 0.5])
        with pytest.raises(ContractError):
            measure_carriers([0], ["Y"], [0.5])


class TestInternedCarriers:
    def test_one_shared_carrier_per_state(self):
        # A label state's carrier is its intern id and its label id.
        for index, text in enumerate(LABELS):
            assert qsim.intern(interned(index)) == label(text) == index

    def test_entangled_carrier_is_the_mixed_id(self):
        # The entangling tap hands on intern ids: Z labels as they are, X
        # labels as MIXED, which has no pure state.
        tap = EntangleMeasureTap(AdversaryRecord(kind="entangle_measure"))
        out = tap.apply(list(range(len(LABELS))), None, "P1->middle")
        assert out == [0, 1, MIXED, MIXED]
        assert interned(MIXED) is None

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_tuple_measurement_matches_dense(self, n):
        # Each row draws from the running sum of its dense Born row.
        picks = make_rng(33 + n).integers(0, 4, size=(200, n))
        uniforms = make_rng(40 + n).random(len(picks)).tolist()
        rows = [tuple(row) for row in picks.tolist()]
        outcomes = measure_rounds(rows, uniforms)
        for qubits, u, outcome in zip(rows, uniforms, outcomes):
            dense = np.cumsum(born_row(qubits))
            assert outcome == qsim._draw(dense, u)

    def test_sizes_must_match(self):
        with pytest.raises(ContractError):
            measure_rounds([(0, 1, 2)], [0.5, 0.5])
        with pytest.raises(ContractError):
            measure_rounds([(0,)], [0.5])
        with pytest.raises(ContractError):
            measure_payload([0, 1], ["Z"], make_rng(36))

    def test_wide_honest_trial_keeps_joint_table_small(self):
        config = RunConfig(protocol="conferenceN", n_parties=10, message_length=100, seed=3)
        transcript = execute_trial(config, 0)
        assert transcript.outputs is not None
        assert all(len(ids) <= qsim.MAX_TABLE_QUBITS for ids in qsim._JOINT)


class TestQuantumChannel:
    def test_transmit_records_event(self):
        transcript = Transcript(config={})
        channel = QuantumChannel("P1", "middle")
        out = channel.transmit([label("Z0")], make_rng(29), transcript.add_event)
        assert len(out) == 1
        assert transcript.events == [{"type": "transmit", "channel": "P1->middle", "count": 1}]

    def test_tap_applies_and_records(self):
        class FlipTap:
            kind = "flip"

            def apply(self, qubits, rng, channel_id):
                return [label("Z1") for _ in qubits]

        transcript = Transcript(config={})
        channel = QuantumChannel("P1", "middle", tap=FlipTap())
        out = channel.transmit([label("Z0")], make_rng(30), transcript.add_event)
        bit, _ = measure_flying(out[0], "Z", make_rng(31).random())
        assert bit == 1
        assert [e["type"] for e in transcript.events] == ["transmit", "attack"]
