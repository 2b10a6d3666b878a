"""Attack primitives: forwarded states, pass rates, records."""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from purification import carrier_density, purify, wire_density
from qconf.adversary import (
    AdversaryRecord,
    AttackConfig,
    EntangleMeasureTap,
    InterceptResendTap,
    dishonest_middle_announce,
    dos_attack,
    dos_cumulative,
    draw_substitute_blind,
    guess_bases,
    mitm_attack,
)
from qconf.channels import measure_flying
from qconf.codec import consistent_outcome_codes
from qconf.errors import ContractError
from qconf.qsim import BASES, LABELS, MIXED, interned
from qconf.rng import make_rng, random_bits

R = 1.0 / math.sqrt(2.0)


class TestAttackConfig:
    def test_none_taps_nothing(self):
        config = AttackConfig()
        assert not config.applies_to("P1->middle")

    def test_target_links_filter(self):
        config = AttackConfig(kind="intercept_resend", target_links=frozenset({"P1->P2"}))
        assert config.applies_to("P1->P2")
        assert not config.applies_to("P2->P3")

    def test_dos_weight_validation(self):
        with pytest.raises(ContractError):
            AttackConfig(kind="dos", dos_weights=(1.0, 1.0, 0.0, 0.0))
        with pytest.raises(ContractError):
            AttackConfig(kind="dos")
        with pytest.raises(ContractError):
            AttackConfig(kind="intercept_resend", dos_weights=(1, 0, 0, 0))

    def test_round_trip(self):
        config = AttackConfig(kind="dos", dos_weights=(0.0, 1.0, 0.0, 0.0))
        assert AttackConfig.from_dict(config.to_dict()) == config


def random_label(rng) -> int:
    """A uniformly drawn label id: the basis coin, then the bit."""
    return 2 * int(rng.integers(2)) + int(rng.integers(2))


def intercept_resend(qubit: int, basis: str, rng) -> tuple[int, tuple[str, int]]:
    """One qubit through the intercept tap with its basis guess fixed."""
    record = AdversaryRecord(kind="intercept_resend")
    (forwarded,) = InterceptResendTap(record, [basis]).apply([qubit], rng, "P1->middle")
    (guess,) = record.guesses["P1->middle"]
    return forwarded, guess


class TestInterceptResend:
    def test_matching_basis_undetectable(self):
        rng = make_rng(40)
        forwarded, (basis, bit) = intercept_resend(LABELS.index("Z0"), "Z", rng)
        assert (basis, bit) == ("Z", 0)
        np.testing.assert_allclose(interned(forwarded).amplitudes, [1, 0], atol=1e-12)

    def test_wrong_basis_half_detected(self):
        # |0> read in X forwards |+> or |->; a later Z check passes half the
        # time.
        rng = make_rng(41)
        trials = 50_000
        passes = 0
        for _ in range(trials):
            forwarded, _ = intercept_resend(LABELS.index("Z0"), "X", rng)
            bit, _ = measure_flying(forwarded, "Z", rng.random())
            passes += bit == 0
        assert abs(passes / trials - 0.5) < 0.01

    def test_overall_pass_three_quarters(self):
        rng = make_rng(42)
        trials = 100_000
        passes = 0
        for _ in range(trials):
            label = random_label(rng)
            (basis,) = guess_bases([rng.random()])
            forwarded, _ = intercept_resend(label, basis, rng)
            bit, _ = measure_flying(forwarded, BASES[label >> 1], rng.random())
            passes += bit == label & 1
        assert abs(passes / trials - 0.75) < 0.01


def entangle(label: str) -> int:
    """The carrier the entangling tap forwards for one label state."""
    tap = EntangleMeasureTap(AdversaryRecord(kind="entangle_measure"))
    (forwarded,) = tap.apply([LABELS.index(label)], None, "P1->middle")
    return forwarded


class TestEntangleMeasure:
    """The tap forwards what the CNOT's purification leaves on the wire."""

    def test_z_state_copies(self):
        rng = make_rng(43)
        joint = purify(["Z1"], [0])
        np.testing.assert_allclose(joint, [0, 0, 0, 1], atol=1e-12)
        forwarded = entangle("Z1")
        assert forwarded == LABELS.index("Z1")
        np.testing.assert_allclose(carrier_density(forwarded), wire_density(joint, 0), atol=1e-15)
        bit, _ = measure_flying(forwarded, "Z", rng.random())
        assert bit == 1  # Z checks never fail

    def test_plus_becomes_phi_plus(self):
        joint = purify(["X0"], [0])
        np.testing.assert_allclose(joint, [R, 0, 0, R], atol=1e-12)
        assert entangle("X0") == MIXED
        np.testing.assert_allclose(carrier_density(MIXED), wire_density(joint, 0), atol=1e-15)

    def test_minus_becomes_phi_minus(self):
        joint = purify(["X1"], [0])
        np.testing.assert_allclose(joint, [R, 0, 0, -R], atol=1e-12)
        assert entangle("X1") == MIXED
        np.testing.assert_allclose(carrier_density(MIXED), wire_density(joint, 0), atol=1e-15)

    def test_x_check_fails_half(self):
        rng = make_rng(46)
        trials = 50_000
        passes = 0
        for _ in range(trials):
            bit, _ = measure_flying(entangle("X0"), "X", rng.random())
            passes += bit == 0
        assert abs(passes / trials - 0.5) < 0.01

    def test_counts_ancillas_per_channel(self):
        record = AdversaryRecord(kind="entangle_measure")
        tap = EntangleMeasureTap(record)
        tap.apply([0, 2, 3], None, "P1->middle")
        tap.apply([MIXED], None, "P1->middle")
        assert record.ancilla_counts == {"P1->middle": 4}


class TestDos:
    def test_identity_weights_pass_always(self):
        rng = make_rng(47)
        weights = dos_cumulative((1.0, 0.0, 0.0, 0.0))
        out, choice = dos_attack(LABELS.index("X1"), weights, rng.random())
        assert choice == 0
        bit, _ = measure_flying(out, "X", rng.random())
        assert bit == 1

    def test_iy_weights_always_detected(self):
        rng = make_rng(48)
        trials = 5000
        for _ in range(trials):
            label = random_label(rng)
            out, _ = dos_attack(label, dos_cumulative((0.0, 0.0, 1.0, 0.0)), rng.random())
            bit, _ = measure_flying(out, BASES[label >> 1], rng.random())
            assert bit != label & 1

    def test_sigma_x_passes_half(self):
        rng = make_rng(49)
        trials = 50_000
        passes = 0
        for _ in range(trials):
            label = random_label(rng)
            out, _ = dos_attack(label, dos_cumulative((0.0, 1.0, 0.0, 0.0)), rng.random())
            bit, _ = measure_flying(out, BASES[label >> 1], rng.random())
            passes += bit == label & 1
        assert abs(passes / trials - 0.5) < 0.01

    def test_rejects_bad_weights(self):
        with pytest.raises(ContractError):
            dos_cumulative((0.5, 0.5, 0.5, 0.0))


class TestMitm:
    def test_keeps_originals(self):
        rng = make_rng(50)
        originals = [LABELS.index("Z1"), LABELS.index("X0")]
        kept, substituted = mitm_attack(originals, rng)
        assert kept == originals
        assert len(substituted) == 2 and set(substituted) <= {0, 1, 2, 3}

    def test_check_pass_half(self):
        rng = make_rng(51)
        trials = 100_000
        passes = 0
        for _ in range(trials):
            label = random_label(rng)
            _, substituted = mitm_attack([label], rng)
            bit, _ = measure_flying(substituted[0], BASES[label >> 1], rng.random())
            passes += bit == label & 1
        assert abs(passes / trials - 0.5) < 0.01


def exact_dishonest_middle_pass(n_parties: int) -> Fraction:
    """Exact pass probability of the consistent-set announcement strategy.

    Enumerates preparation basis, true bits, the middle's basis, its result
    distribution, and its uniform announcement; the parties' check accepts
    announcements inside the consistent set of the true bits.
    """
    total = Fraction(0)
    dim = 2**n_parties
    weight = Fraction(1, 2) * Fraction(1, dim) * Fraction(1, 2)
    for x_round in (False, True):
        for bits in product((0, 1), repeat=n_parties):
            allowed = set(consistent_outcome_codes(bits, x_round, n_parties))
            for middle_x in (False, True):
                observed = (
                    {bits: Fraction(1)}
                    if middle_x == x_round
                    else {o: Fraction(1, dim) for o in product((0, 1), repeat=n_parties)}
                )
                for obs, p_obs in observed.items():
                    codes = consistent_outcome_codes(obs, middle_x, n_parties)
                    hit = len([c for c in codes if c in allowed])
                    total += weight * p_obs * Fraction(hit, len(codes))
    return total


class TestDishonestMiddle:
    def test_z_result_announces_matching_index(self):
        rng = make_rng(52)
        for _ in range(100):
            code = dishonest_middle_announce([0, 0, 1], False, 3, rng)
            assert code >> 1 == 1

    def test_x_result_announces_matching_sign(self):
        rng = make_rng(53)
        for _ in range(100):
            code = dishonest_middle_announce([1, 0, 0], True, 3, rng)
            assert code & 1 == 1

    def test_exact_pass_probability_is_11_16(self):
        # The published figure for this strategy is 7/8, but the total of its
        # own conditionals (1, 1/2, 1/4) under fair basis priors is 11/16,
        # and wrong-basis results carry no information about the checked
        # quantity, so 11/16 is also the strategy optimum.
        assert exact_dishonest_middle_pass(3) == Fraction(11, 16)

    def test_monte_carlo_matches_enumeration(self):
        rng = make_rng(54)
        trials = 50_000
        passes = 0
        for _ in range(trials):
            x_round = bool(rng.integers(2))
            bits = [int(b) for b in random_bits(rng, 3)]
            middle_x = bool(rng.integers(2))
            if middle_x == x_round:
                observed = bits
            else:
                observed = [int(b) for b in random_bits(rng, 3)]
            announced = dishonest_middle_announce(observed, middle_x, 3, rng)
            passes += announced in consistent_outcome_codes(bits, x_round, 3)
        assert abs(passes / trials - 11 / 16) < 0.01


class TestDishonestP1:
    def test_substitute_differs(self):
        rng = make_rng(55)
        mask = random_bits(rng, 16)
        for _ in range(100):
            substitute = draw_substitute_blind(mask, rng)
            assert not np.array_equal(substitute, mask)
