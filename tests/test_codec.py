"""Encoding rules and decoding tables, checked against frozen references."""

from itertools import product

import numpy as np
import pytest

from qconf.codec import (
    consistent_outcome_codes,
    decode_partner_bit,
    decode_x_round,
    decode_z_round,
    derive_select_bit,
    embed_payload,
    encode_exchange_qubit,
    encode_message_qubit,
    encode_xor_qubit,
    exchange_basis,
    label_indices,
    payload_positions,
    sift_outcome,
)
from qconf.errors import ContractError, ProtocolCorruptionError
from qconf.qsim import BASES, LABELS, index_to_bits
from qconf.tables import born_row
from qconf.rng import make_rng, random_bits

# Published decode table: (key bit, own bit) -> partner guess per outcome
# column [Phi0+, Phi0-, Phi1+, Phi1-]; identical for both parties.
TWO_PARTY_GUESS_TABLE = {
    (0, 0): (0, 0, 1, 1),
    (0, 1): (1, 1, 0, 0),
    (1, 0): (0, 1, 0, 1),
    (1, 1): (1, 0, 1, 0),
}

# Published three-party correctness rule for a Z-basis sender with bit 0:
# outcome index -> (partner bits); bit 1 selects the complement row.
THREE_PARTY_Z_TABLE = {
    0: (0, 0, 0),
    1: (0, 0, 1),
    2: (0, 1, 0),
    3: (0, 1, 1),
}


def label(text):
    """The label id of a preparation such as "X1"."""
    return LABELS.index(text)


class TestMessageEncoding:
    def test_four_cases(self):
        assert encode_message_qubit(0, 0) == label("Z0")
        assert encode_message_qubit(1, 0) == label("Z1")
        assert encode_message_qubit(0, 1) == label("X0")
        assert encode_message_qubit(1, 1) == label("X1")

    def test_label_indices_pick_the_encoded_spec(self):
        # The protocols send label_indices in place of each encode_* call.
        for bit, flag in product((0, 1), repeat=2):
            [encoded] = label_indices([bit], [flag])
            assert encoded == encode_message_qubit(bit, flag)
            assert encoded == encode_xor_qubit(bit, flag, 1)
            [encoded] = label_indices([bit], [flag == 0])
            assert encoded == encode_xor_qubit(bit, flag, 0)
        for position, bit in product(range(1, 5), (0, 1)):
            [encoded] = label_indices([bit], [exchange_basis(position) == "X"])
            assert encoded == encode_exchange_qubit(bit, position)
            assert BASES[encoded >> 1] == exchange_basis(position)

    def test_shared_and_validated(self):
        # Every encoder gives a plain int label id for numpy and bool inputs,
        # and rejects a bit outside 0/1.
        got = encode_message_qubit(np.uint8(1), np.True_)
        assert got == encode_message_qubit(1, 1) and type(got) is int
        assert type(encode_xor_qubit(np.uint8(0), np.uint8(1), 1)) is int
        assert type(encode_exchange_qubit(np.uint8(1), 3)) is int
        for bad in (2, -1):
            with pytest.raises(ContractError):
                encode_message_qubit(bad, 0)
            with pytest.raises(ContractError):
                encode_xor_qubit(bad, 0, 1)
            with pytest.raises(ContractError):
                encode_exchange_qubit(bad, 1)


class TestTwoPartyDecode:
    @pytest.mark.parametrize("key,own", list(TWO_PARTY_GUESS_TABLE))
    def test_matches_published_table(self, key, own):
        for code, want in enumerate(TWO_PARTY_GUESS_TABLE[(key, own)]):
            assert decode_partner_bit(own, key, code) == want

    def test_round_trip_exhaustive(self):
        # For every (a, b, k) and every outcome the pair can actually
        # produce, both parties decode the partner's bit exactly.
        for a, b, k in product((0, 1), repeat=3):
            probs = born_row([encode_message_qubit(a, k), encode_message_qubit(b, k)])
            for code in range(4):
                if probs[code] < 1e-12:
                    continue
                assert decode_partner_bit(a, k, code) == b
                assert decode_partner_bit(b, k, code) == a

    def test_rejects_large_outcome(self):
        # Codes 4 and up belong to wider rows; no code is negative.
        for code in (4, 7, -1):
            with pytest.raises(ContractError):
                decode_partner_bit(0, 0, code)


class TestSifting:
    def test_keep_set(self):
        keep = {code for code in range(4) if sift_outcome(code)}
        assert keep == {1, 2}  # Phi0- and Phi1+

    def test_discarded_outcomes_leak_parity(self):
        # The discarded pair is exactly the set whose occurrence pins a ^ b
        # regardless of basis: Phi0+ only arises from equal bits in either
        # basis class, Phi1- only from unequal bits.
        for code, parity in ((0, 0), (3, 1)):
            for a, b, k in product((0, 1), repeat=3):
                probs = born_row([encode_message_qubit(a, k), encode_message_qubit(b, k)])
                if probs[code] > 1e-12:
                    assert (a ^ b) == parity


class TestConferenceDecode:
    def test_alice_zero_rows(self):
        for index, bits in THREE_PARTY_Z_TABLE.items():
            for sign in (0, 1):
                got = decode_z_round(0, 0, 2 * index + sign, 3)
                assert got == bits

    def test_spec_rows(self):
        assert decode_z_round(0, 0, 4, 3) == (0, 1, 0)  # Phi2+
        assert decode_z_round(1, 0, 3, 4) == (1, 1, 1, 0)  # Phi1-
        assert decode_z_round(1, 0, 0, 3) == (1, 1, 1)  # Phi0+

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_round_trip_exhaustive(self, n):
        for bits in product((0, 1), repeat=n):
            probs = born_row([encode_message_qubit(b, 0) for b in bits])
            for code in range(2**n):
                if probs[code] < 1e-12:
                    continue
                for position in range(n):
                    got = decode_z_round(bits[position], position, code, n)
                    assert got == bits

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_x_round_trip_exhaustive(self, n):
        for bits in product((0, 1), repeat=n):
            probs = born_row([encode_message_qubit(b, 1) for b in bits])
            want = sum(bits) % 2
            for code in range(2**n):
                if probs[code] < 1e-12:
                    continue
                assert decode_x_round(code) == want

    def test_corruption_raises(self):
        # The candidate strings are complementary, so one always matches a
        # valid own bit; only corrupted data (here an out-of-range bit) can
        # leave both candidates unmatched.
        with pytest.raises(ProtocolCorruptionError):
            decode_z_round(2, 0, 0, 3)


class TestExchangeEncoding:
    def test_parity_rule(self):
        assert encode_exchange_qubit(0, 4) == label("Z0")
        assert encode_exchange_qubit(1, 7) == label("X1")
        assert encode_exchange_qubit(1, 2) == label("Z1")
        assert exchange_basis(3) == "X" and exchange_basis(8) == "Z"


class TestSelectBit:
    def test_balanced_key_uses_parity(self):
        assert derive_select_bit(np.array([1, 1, 1, 1, 0, 0, 0, 0])) == 0

    def test_heavy_key(self):
        assert derive_select_bit(np.array([1, 1, 1, 1, 1, 0, 0, 0])) == 1

    def test_light_key(self):
        assert derive_select_bit(np.array([1, 0, 0, 0, 0, 0, 0, 0])) == 0

    def test_odd_length_rejected(self):
        with pytest.raises(ContractError):
            derive_select_bit(np.array([1, 0, 1]))

    def test_guarantees_enough_positions(self):
        rng = make_rng(11)
        for _ in range(500):
            key = random_bits(rng, 2 * int(rng.integers(1, 40)))
            select = derive_select_bit(key)
            assert int(np.sum(key == select)) >= len(key) // 2


class TestEmbedPayload:
    def test_hand_trace_balanced(self):
        # key 1100 (m=2, weight 2 = m, select = 0): payload occupies the two
        # zero positions, fillers land on the ones.
        rng = make_rng(12)
        key = np.array([1, 1, 0, 0], dtype=np.uint8)
        carrier = embed_payload([1, 0], key, derive_select_bit(key), rng)
        assert carrier[2] == 1 and carrier[3] == 0

    def test_heavy_key_prefix(self):
        key = np.array([1, 1, 1, 1, 1, 1, 0, 0], dtype=np.uint8)
        select = derive_select_bit(key)
        assert select == 1
        carrier = embed_payload([1, 1, 0, 1], key, select, make_rng(13))
        assert list(carrier[:4]) == [1, 1, 0, 1]

    def test_uniform_zero_key(self):
        key = np.zeros(8, dtype=np.uint8)
        carrier = embed_payload([0, 1, 1, 0], key, 0, make_rng(14))
        assert list(carrier[:4]) == [0, 1, 1, 0]

    def test_extraction_round_trip_randomized(self):
        rng = make_rng(15)
        for _ in range(1000):
            m = int(rng.integers(1, 24))
            key = random_bits(rng, 2 * m)
            select = derive_select_bit(key)
            payload = random_bits(rng, m)
            carrier = embed_payload(payload, key, select, rng)
            positions = payload_positions(key, select)
            assert np.array_equal(carrier[positions], payload)

    def test_length_contract(self):
        with pytest.raises(ContractError):
            embed_payload([1, 0], np.zeros(6, dtype=np.uint8), 0, make_rng(0))


class TestXorEncoding:
    def test_cases(self):
        assert encode_xor_qubit(0, 0, 1) == label("Z0")
        assert encode_xor_qubit(1, 1, 1) == label("X1")
        assert encode_xor_qubit(1, 0, 1) == label("Z1")
        assert encode_xor_qubit(0, 1, 1) == label("X0")


class TestConsistentOutcomes:
    def test_z_round_both_signs(self):
        assert consistent_outcome_codes((0, 0, 1), False, 3) == (2, 3)
        assert consistent_outcome_codes((1, 1, 0), False, 3) == (2, 3)

    def test_x_round_sign_set(self):
        assert consistent_outcome_codes((1, 0, 0), True, 3) == (1, 3, 5, 7)
        assert consistent_outcome_codes((1, 1, 0), True, 3) == (0, 2, 4, 6)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_born_support(self, n):
        for x_round in (False, True):
            for bits in product((0, 1), repeat=n):
                probs = born_row([encode_message_qubit(b, int(x_round)) for b in bits])
                support = {c for c in range(2**n) if probs[c] > 1e-12}
                assert support == set(consistent_outcome_codes(bits, x_round, n))

    def test_width_must_match_party_count(self):
        for x_round in (False, True):
            with pytest.raises(ContractError):
                consistent_outcome_codes([1, 0], x_round, 3)


class TestTabledDecoding:
    """The (n, parity), (n, j_hat) and (n, index) tables equal the formulas."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_exhaustive(self, n):
        for bits in product((0, 1), repeat=n):
            j = int("".join(map(str, bits)), 2)
            j_hat = min(j, 2**n - 1 - j)
            x_codes = tuple(2 * i + sum(bits) % 2 for i in range(2 ** (n - 1)))
            assert consistent_outcome_codes(bits, True, n) == x_codes
            assert consistent_outcome_codes(list(bits), False, n) == (2 * j_hat, 2 * j_hat + 1)
            candidates = (
                index_to_bits(j_hat, n),
                tuple(1 - b for b in index_to_bits(j_hat, n)),
            )
            for sign in (0, 1):
                for position in range(n):
                    got = decode_z_round(bits[position], position, 2 * j_hat + sign, n)
                    assert got == bits
                    assert got in candidates
