"""Published probability tables, frozen row by row, against the Born rule."""

import json

import pytest

from qconf.tables import computed_row, expected_row, tables_summary, verify_outcome_tables

HALF, QUARTER, EIGHTH = 0.5, 0.25, 0.125

# Two-party table: rows (a, b) per basis class; columns are outcome codes
# [Phi0+, Phi0-, Phi1+, Phi1-].
TWO_PARTY_Z = {
    (0, 0): (HALF, HALF, 0, 0),
    (0, 1): (0, 0, HALF, HALF),
    (1, 0): (0, 0, HALF, HALF),
    (1, 1): (HALF, HALF, 0, 0),
}
TWO_PARTY_X = {
    (0, 0): (HALF, 0, HALF, 0),
    (0, 1): (0, HALF, 0, HALF),
    (1, 0): (0, HALF, 0, HALF),
    (1, 1): (HALF, 0, HALF, 0),
}

# Three-party table, same layout over eight outcome codes.
THREE_PARTY_Z = {
    (0, 0, 0): 0,
    (0, 0, 1): 1,
    (0, 1, 0): 2,
    (0, 1, 1): 3,
    (1, 0, 0): 3,
    (1, 0, 1): 2,
    (1, 1, 0): 1,
    (1, 1, 1): 0,
}

# Four-party appendix rows: bits -> supported outcome index.
FOUR_PARTY_Z = {
    (0, 0, 0, 0): 0,
    (0, 0, 0, 1): 1,
    (0, 0, 1, 0): 2,
    (0, 0, 1, 1): 3,
    (0, 1, 0, 0): 4,
    (0, 1, 0, 1): 5,
    (0, 1, 1, 0): 6,
    (0, 1, 1, 1): 7,
    (1, 0, 0, 0): 7,
    (1, 0, 0, 1): 6,
    (1, 0, 1, 0): 5,
    (1, 0, 1, 1): 4,
    (1, 1, 0, 0): 3,
    (1, 1, 0, 1): 2,
    (1, 1, 1, 0): 1,
    (1, 1, 1, 1): 0,
}


@pytest.mark.parametrize("bits,row", sorted(TWO_PARTY_Z.items()))
def test_two_party_z_rows(bits, row):
    probs = computed_row(bits, "Z")
    for code, want in enumerate(row):
        assert abs(probs[code] - want) < 1e-12


@pytest.mark.parametrize("bits,row", sorted(TWO_PARTY_X.items()))
def test_two_party_x_rows(bits, row):
    probs = computed_row(bits, "X")
    for code, want in enumerate(row):
        assert abs(probs[code] - want) < 1e-12


@pytest.mark.parametrize("bits,index", sorted(THREE_PARTY_Z.items()))
def test_three_party_z_rows(bits, index):
    probs = computed_row(bits, "Z")
    for code in range(8):
        want = HALF if code // 2 == index else 0.0
        assert abs(probs[code] - want) < 1e-12


def test_three_party_x_rows():
    for bits in THREE_PARTY_Z:
        probs = computed_row(bits, "X")
        sign = sum(bits) % 2
        for code in range(8):
            want = QUARTER if code % 2 == sign else 0.0
            assert abs(probs[code] - want) < 1e-12


@pytest.mark.parametrize("bits,index", sorted(FOUR_PARTY_Z.items()))
def test_four_party_z_rows(bits, index):
    probs = computed_row(bits, "Z")
    for code in range(16):
        want = HALF if code // 2 == index else 0.0
        assert abs(probs[code] - want) < 1e-12


def test_four_party_x_rows():
    for bits in FOUR_PARTY_Z:
        probs = computed_row(bits, "X")
        sign = sum(bits) % 2
        for code in range(16):
            want = EIGHTH if code % 2 == sign else 0.0
            assert abs(probs[code] - want) < 1e-12


def test_expected_rows_match_frozen_tables():
    # the law-based reference itself reproduces the frozen rows
    for bits, row in TWO_PARTY_Z.items():
        assert tuple(expected_row(bits, "Z")) == row
    for bits, row in TWO_PARTY_X.items():
        assert tuple(expected_row(bits, "X")) == row


def test_full_verification_clean():
    entries, diffs = verify_outcome_tables()
    assert not diffs
    # 2 bases x (2^n rows x 2^n entries) for n = 2, 3, 4
    assert len(entries) == 2 * (16 + 64 + 256)
    # The entries are JSON-native: each verdict is a Python bool.
    assert all(type(entry["ok"]) is bool for entry in entries)
    json.dumps(entries)


def test_failing_entries_become_diffs():
    # A negative tolerance fails every entry: each is one diff, in entry
    # order, and the summary names it by party count, preparation and outcome.
    entries, diffs = verify_outcome_tables(atol=-1.0)
    assert len(entries) == len(diffs) == 2 * (16 + 64 + 256)
    assert not any(entry["ok"] for entry in entries)
    summary = tables_summary(entries, diffs)
    assert summary["entries"] == len(entries)
    assert summary["all_pass"] is False
    assert len(summary["diffs"]) == len(entries)
    for index, label in ((0, "N=2 Z0Z0 Phi0+"), (3, "N=2 Z0Z0 Phi1-"), (-1, "N=4 X1X1X1X1 Phi7-")):
        entry = entries[index]
        assert summary["diffs"][index] == {
            "entry": label, "expected": entry["expected"], "computed": entry["computed"],
        }
    assert entries[0]["expected"] == 0.5 and abs(entries[0]["computed"] - 0.5) < 1e-12
