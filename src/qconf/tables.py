"""Reference outcome tables and their Born-rule verification.

For product preparations over the shared key's two basis classes the joint
measurement distribution follows two laws:

* Z row with bits j: probability 1/2 on both signs of index
  min(j, 2^n - 1 - j), nothing anywhere else;
* X row with bits v: probability 1 / 2^(n-1) on every index at the sign
  equal to XOR(v), nothing at the opposite sign.

``verify_outcome_tables`` recomputes every row of the two-, three-, and
four-party tables from first principles (state construction + Born rule on
the dense basis matrix) and diffs the result against these laws entry by
entry.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

import numpy as np

from .codec import label_indices
from .qsim import BASIS_X, BASIS_Z, bits_to_index, dense_joint_basis, interned, tensor

TABLE_ATOL = 1e-12
TABLE_SIZES = (2, 3, 4)


def outcome_label(code: int) -> str:
    """Text of an outcome code: ``Phi<index><sign>``, e.g. code 3 is ``Phi1-``."""
    return f"Phi{code >> 1}{'+-'[code & 1]}"


def expected_row(bits: tuple[int, ...], basis: str) -> np.ndarray:
    """Law-predicted outcome distribution for one product preparation."""
    n = len(bits)
    probs = np.zeros(2**n)
    if basis == BASIS_Z:
        j = bits_to_index(bits)
        j_hat = min(j, 2**n - 1 - j)
        probs[2 * j_hat] = 0.5
        probs[2 * j_hat + 1] = 0.5
    else:
        sign = int(np.bitwise_xor.reduce(np.asarray(bits, dtype=np.uint8)))
        for index in range(2 ** (n - 1)):
            probs[2 * index + sign] = 1.0 / 2 ** (n - 1)
    return probs


def born_row(labels: Sequence[int]) -> np.ndarray:
    """Born-rule distribution of a product preparation of label ids, by outcome code.

    Projects onto the dense basis matrix rather than calling the simulator's
    closed-form measurement, so the table check does not rest on the code
    path that samples outcomes.
    """
    state = tensor([interned(label) for label in labels])
    return np.abs(dense_joint_basis(len(labels)).conj() @ state.amplitudes) ** 2


def computed_row(bits: tuple[int, ...], basis: str) -> np.ndarray:
    """Born-rule distribution of the actual product state of one table row."""
    return born_row(label_indices(bits, [basis == BASIS_X] * len(bits)))


def verify_outcome_tables(
    sizes: tuple[int, ...] = TABLE_SIZES, atol: float = TABLE_ATOL
) -> tuple[list[dict], list[dict]]:
    """Recompute every table row; returns (all entry records, failing entries)."""
    entries: list[dict] = []
    for n in sizes:
        for basis in (BASIS_Z, BASIS_X):
            for bits in product((0, 1), repeat=n):
                expected = expected_row(bits, basis)
                computed = computed_row(bits, basis)
                for code in range(2**n):
                    entries.append(
                        {
                            "n_parties": n,
                            "basis": basis,
                            "bits": "".join(str(b) for b in bits),
                            "outcome": outcome_label(code),
                            "expected": float(expected[code]),
                            "computed": float(computed[code]),
                            "ok": bool(abs(computed[code] - expected[code]) <= atol),
                        }
                    )
    return entries, [e for e in entries if not e["ok"]]


def tables_to_csv(entries: list[dict]) -> str:
    lines = ["n_parties,basis,bits,outcome,expected,computed,ok"]
    for e in entries:
        lines.append(
            f"{e['n_parties']},{e['basis']},{e['bits']},{e['outcome']},"
            f"{e['expected']:.12g},{e['computed']:.12g},{e['ok']}"
        )
    return "\n".join(lines) + "\n"


def _entry_label(entry: dict) -> str:
    """``N=<parties> <preparations> <outcome>``, e.g. ``N=2 Z0Z0 Phi0+``."""
    states = "".join(entry["basis"] + bit for bit in entry["bits"])
    return f"N={entry['n_parties']} {states} {entry['outcome']}"


def tables_summary(entries: list[dict], diffs: list[dict]) -> dict:
    return {
        "entries": len(entries),
        "diffs": [
            {"entry": _entry_label(d), "expected": d["expected"], "computed": d["computed"]}
            for d in diffs
        ],
        "all_pass": not diffs,
    }
