"""Block draws: each ceremony draws its uniforms once and keeps the stream.

A ceremony draws the uniforms of all its measurements as one
``rng.random(k).tolist()`` block.  On numpy's PCG64 that block equals k
scalar ``rng.random()`` calls and leaves the generator in the same state, so
the stream, and every golden transcript, is the one a draw per measurement
gives.  These tests pin that identity and the count each ceremony draws.
"""

from itertools import product

import numpy as np
import pytest

from helpers import dishonest_middle_round_by_round
from qconf.adversary import (
    AdversaryRecord,
    AttackConfig,
    DosTap,
    EntangleMeasureTap,
    InterceptResendTap,
    dishonest_middle_rounds,
    make_tap,
)
from qconf.channels import (
    DecoySet,
    extract_payload,
    first_error_estimation,
    insert_decoys,
    make_decoy_sets,
    measure_payload,
    verify_decoys,
)
from qconf.codec import consistent_outcome_codes
from qconf.errors import ContractError
from qconf.protocols import ProtocolParams, Transcript, party_names
from qconf.protocols.common import decoy_hop, relay_round
from qconf.qsim import BASIS_X, BASIS_Z
from qconf.rng import make_rng, uniform_rows_and_words

PARTIES = ("P1", "P2", "P3")


def twin(rng: np.random.Generator) -> np.random.Generator:
    """A generator in the same state as ``rng``."""
    copy = np.random.default_rng()
    copy.bit_generator.state = rng.bit_generator.state
    return copy


def assert_advanced_by(rng, before, count):
    """``rng`` is where ``before`` gets after ``count`` uniform draws."""
    before.random(count)
    assert rng.bit_generator.state == before.bit_generator.state


def choice_decoys(payload_len, count, rng):
    """One link's decoys drawn by the numpy primitives the hop's one call reproduces."""
    positions = sorted(rng.choice(payload_len + count, size=count, replace=False).tolist())
    return DecoySet(tuple(positions), tuple(rng.integers(0, 4, size=count).tolist()))


def entangle(qubits):
    """The carriers after the entangling tap, which draws nothing."""
    return EntangleMeasureTap(AdversaryRecord(kind="entangle_measure")).apply(qubits, None, "")


def carriers(labels, entangled):
    """Label carriers (a label's index is its carrier), or each one tapped."""
    return entangle(list(labels)) if entangled else list(labels)


@pytest.mark.parametrize("k", [0, 1, 2, 7, 1000])
def test_block_equals_scalar_draws(k):
    block, scalar = make_rng(k), make_rng(k)
    values = block.random(k).tolist()
    assert values == [scalar.random() for _ in range(k)]
    assert all(type(v) is float for v in values)
    assert block.bit_generator.state == scalar.bit_generator.state
    assert block.random() == scalar.random()


# numpy's choice(total, count, replace=False) runs Floyd's algorithm, or
# shuffles the tail of an arange when total > 10000 and count > total // 50:
# both sides of each cutoff, count == total, and payload_len 0.
DECOY_CASES = [
    (10000, 200), (10000, 201), (10001, 200), (10001, 201),
    (10000, 10000), (10001, 10001), (20000, 400), (20000, 401),
    (16, 16), (1, 1), (116, 16), (28, 16), (5, 3),
]


@pytest.mark.parametrize("total,count", DECOY_CASES)
@pytest.mark.parametrize("links", [1, 3, 10])
@pytest.mark.parametrize("half_word", [False, True])
def test_decoy_sets_equal_choice(total, count, links, half_word):
    # The one call of a hop equals each link's rng.choice then rng.integers,
    # and leaves the generator where they leave it.  A 32-bit draw first
    # leaves half of PCG64's 64-bit word buffered, which the bounded draws of
    # both forms take before a fresh word.
    rng = make_rng(total + count + links)
    if half_word:
        rng.integers(0, 2**31, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
    before = twin(rng)
    drawn = make_decoy_sets([total - count] * links, count, rng)
    assert drawn == [choice_decoys(total - count, count, before) for _ in range(links)]
    assert rng.bit_generator.state == before.bit_generator.state


def test_decoy_sets_of_unequal_links_equal_choice():
    rng = make_rng(67)
    lens = [0, 3, 9990, 9985, 20, 12000]
    before = twin(rng)
    drawn = make_decoy_sets(lens, 16, rng)
    assert drawn == [choice_decoys(n, 16, before) for n in lens]
    assert rng.bit_generator.state == before.bit_generator.state


@pytest.mark.parametrize("n_parties", [3, 4, 10, 16])
@pytest.mark.parametrize("rounds", [1, 2, 3, 90])
@pytest.mark.parametrize("half_word", [False, True])
def test_dishonest_middle_rounds_equal_round_by_round(n_parties, rounds, half_word):
    # The one block of every kept round equals each round's rng.random(1 + n)
    # then rng.integers(0, len(codes)), announced codes included, and leaves
    # the generator where they leave it, PCG64's 32-bit buffer too.  Every
    # third round is dephased, so MIXED carriers are measured as well.
    rng = make_rng(100 * n_parties + rounds)
    rows = [carriers(rng.integers(0, 4, size=n_parties).tolist(), r % 3 == 2) for r in range(rounds)]
    # Drawing the rows takes 32-bit words too; one more flips the buffer.
    if rng.bit_generator.state["has_uint32"] != half_word:
        rng.integers(0, 2**31, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"] == half_word
    before = twin(rng)
    assert dishonest_middle_rounds(rows, rng) == dishonest_middle_round_by_round(rows, before)
    assert rng.bit_generator.state == before.bit_generator.state


@pytest.mark.parametrize("n_parties", range(3, 17))
def test_consistent_code_counts_are_powers_of_two(n_parties):
    # dishonest_middle_rounds reads rng.integers(0, len(codes)) as the top
    # bits of one 32-bit word, which holds only for a power-of-two count.
    for bits in product((0, 1), repeat=n_parties):
        for x_round in (False, True):
            count = len(consistent_outcome_codes(bits, x_round, n_parties))
            assert count > 1 and count & (count - 1) == 0


def test_round_words_need_pcg64():
    rng = np.random.Generator(np.random.MT19937(1))
    with pytest.raises(ContractError, match="PCG64"):
        uniform_rows_and_words(rng, 2, 4)


@pytest.mark.parametrize("entangled", [False, True])
def test_first_estimation_draws_one_per_check(entangled):
    rng = make_rng(60)
    length, sample = 30, [1, 4, 9, 16, 25]
    labels = {p: rng.integers(0, 4, size=length).tolist() for p in PARTIES}
    held = {p: carriers(labels[p], entangled) for p in PARTIES}
    before = twin(rng)
    estimate = first_error_estimation(labels, held, sample, 0.0, rng)
    assert_advanced_by(rng, before, len(sample) * len(PARTIES))
    assert estimate["positions_checked"] == len(sample) * len(PARTIES)


@pytest.mark.parametrize("entangled", [False, True])
def test_verify_decoys_draws_one_per_decoy(entangled):
    rng = make_rng(61)
    decoys = choice_decoys(12, 9, rng)
    payload = rng.integers(0, 4, size=12).tolist()
    received = carriers(insert_decoys(payload, decoys), entangled)
    held = [received[pos] for pos in decoys.positions]
    before = twin(rng)
    (estimate,) = verify_decoys([(held, decoys)], 0.0, rng)
    assert_advanced_by(rng, before, decoys.count)
    assert estimate["positions_checked"] == 9


@pytest.mark.parametrize("entangled", [False, True])
@pytest.mark.parametrize("forced", [False, True])
def test_intercept_tap_draws_coin_and_measurement(entangled, forced):
    rng = make_rng(62)
    qubits = carriers(rng.integers(0, 4, size=20).tolist(), entangled)
    bases = [BASIS_Z, BASIS_X] * 10 if forced else None
    record = AdversaryRecord(kind="intercept_resend")
    before = twin(rng)
    out = InterceptResendTap(record, bases).apply(qubits, rng, "P1->middle")
    assert_advanced_by(rng, before, len(qubits) * (1 if forced else 2))
    assert len(out) == len(record.guesses["P1->middle"]) == len(qubits)
    if forced:
        assert [basis for basis, _ in record.guesses["P1->middle"]] == bases


@pytest.mark.parametrize("entangled", [False, True])
def test_dos_tap_draws_one_per_qubit(entangled):
    rng = make_rng(63)
    qubits = carriers(rng.integers(0, 4, size=20).tolist(), entangled)
    record = AdversaryRecord(kind="dos")
    before = twin(rng)
    DosTap(record, (0.5, 0.5, 0.5, 0.5)).apply(qubits, rng, "P1->middle")
    assert_advanced_by(rng, before, len(qubits))
    assert sum(record.pauli_counts) == len(qubits)


@pytest.mark.parametrize("entangled", [False, True])
def test_measure_payload_draws_one_per_basis(entangled):
    rng = make_rng(64)
    qubits = carriers(rng.integers(0, 4, size=20).tolist(), entangled)
    bases = [BASIS_Z, BASIS_X] * 10
    before = twin(rng)
    bits, collapsed = measure_payload(qubits, bases, rng)
    assert_advanced_by(rng, before, len(bases))
    assert len(bits) == len(collapsed) == len(qubits)


@pytest.mark.parametrize("kind", ["none", "entangle_measure"])
@pytest.mark.parametrize("n_parties", [2, 3, 5])
def test_honest_joint_loop_draws_one_per_kept_round(kind, n_parties):
    # Nothing draws between the key stage recorded after the first
    # estimation and the end of the relay round except the joint loop.  The
    # threshold lets the entangled rounds, which hold MIXED, reach it.
    rng = make_rng(65)
    length = 40
    labels = {p: rng.integers(0, 4, size=length).tolist() for p in party_names(n_parties)}
    attack = AttackConfig(kind=kind)
    transcript = Transcript(config={})
    snapshots = []

    def add_key_stage(stage, count):
        snapshots.append(twin(rng))
        Transcript.add_key_stage(transcript, stage, count)

    transcript.add_key_stage = add_key_stage
    keep, outcomes = relay_round(
        labels, attack, AdversaryRecord(kind=kind), ProtocolParams(threshold=0.9), rng, transcript,
        cheating_middle=False,
    )
    assert len(snapshots) == 1
    assert_advanced_by(rng, snapshots[0], len(keep))
    assert len(outcomes) == len(keep) == length - 4


def replay_decoy_hop(parties, payloads, read_bases, attack, params, rng):
    """The decoy hop's draws in their documented order, on the primitives.

    Every sender draws its decoys, then every link's wire sequence
    (``insert_decoys``) passes its tap; receivers check the decoy slots in
    party order, and read the payload slots (``extract_payload``) in the
    same order only if none aborts.  Each link checks and reads with a
    block of its own, so the hop's one block per phase, on party order,
    must equal these blocks concatenated.
    """
    decoys = {
        link: choice_decoys(len(qubits), params.decoy_count, rng)
        for link, qubits in payloads.items()
    }
    received = {}
    for link, qubits in payloads.items():
        sent = insert_decoys(qubits, decoys[link])
        tap = make_tap(attack, AdversaryRecord(kind=attack.kind), "->".join(link))
        received[link] = sent if tap is None else tap.apply(sent, rng, "->".join(link))
    inbound = sorted(payloads, key=lambda link: parties.index(link[1]))
    verdicts = [
        verify_decoys(
            [([received[link][pos] for pos in decoys[link].positions], decoys[link])],
            params.threshold, rng,
        )[0]["verdict"]
        for link in inbound
    ]
    if "abort" in verdicts:
        return None
    return {
        link[1]: measure_payload(extract_payload(received[link], decoys[link]), read_bases, rng)
        for link in inbound
    }


def ring(n):
    """The links of a conference hop among n parties."""
    names = party_names(n)
    return [(p, names[(a + 1) % n]) for a, p in enumerate(names)]


# The rings of a 3- and a 10-party conference hop and one XOR mask link.
HOP_LINKS = {
    "ring": ring(3),
    "ring10": ring(10),
    "mask": [("P1", "P3")],
}


@pytest.mark.parametrize("links", HOP_LINKS)
@pytest.mark.parametrize(
    "kind,threshold,aborts",
    [("none", 0.0, False), ("intercept_resend", 0.9, False), ("intercept_resend", 0.0, True)],
)
def test_decoy_hop_draws_as_its_primitives(links, kind, threshold, aborts):
    # Intercept and resend fails a quarter of the 16 decoys of a link on
    # average: threshold 0.9 lets the tapped hop pass, threshold 0 aborts it.
    parties = party_names(max(int(p[1:]) for link in HOP_LINKS[links] for p in link))
    rng = make_rng(66)
    payloads = {link: rng.integers(0, 4, size=12).tolist() for link in HOP_LINKS[links]}
    read_bases = [BASIS_Z, BASIS_X] * 6
    attack = AttackConfig(kind=kind)
    params = ProtocolParams(threshold=threshold)
    before = twin(rng)
    transcript = Transcript(config={})
    reads = decoy_hop(
        parties, payloads, read_bases, attack, AdversaryRecord(kind=kind), params, rng,
        transcript, fields={}, transmit_fields={},
    )
    assert reads == replay_decoy_hop(parties, payloads, read_bases, attack, params, before)
    assert rng.bit_generator.state == before.bit_generator.state
    assert (reads is None) == aborts == transcript.aborted
