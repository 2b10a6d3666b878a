"""Shared protocol machinery: parties, parameters, transcripts."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from ..channels import ErrorEstimate
from ..errors import ContractError

MIDDLE = "middle"


def party_names(n: int) -> tuple[str, ...]:
    return tuple(f"P{i + 1}" for i in range(n))


@dataclass(frozen=True)
class ProtocolParams:
    """Tunable fractions shared by every protocol.

    ``delta`` sizes the pre-measurement single-qubit check, ``gamma`` the
    post-measurement consistency check, ``decoy_count`` the per-hop decoys of
    the exchange phases.  Threshold 0 means any mismatch aborts, which is the
    right default for a noiseless channel.
    """

    delta: float = 0.1
    gamma: float = 0.1
    decoy_count: int = 16
    threshold: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ContractError(f"delta must be in (0, 1), got {self.delta}")
        if not 0.0 < self.gamma < 1.0:
            raise ContractError(f"gamma must be in (0, 1), got {self.gamma}")
        if self.decoy_count < 0:
            raise ContractError("decoy_count must be >= 0")
        if not 0.0 <= self.threshold < 1.0:
            raise ContractError("threshold must be in [0, 1)")


def sample_size(fraction: float, total: int) -> int:
    """Number of positions checked: floored, at least 1, at most total."""
    return max(1, min(math.floor(fraction * total), total))


def sorted_sample(rng: np.random.Generator, total: int, count: int) -> list[int]:
    """Sorted sample of distinct positions drawn from the shared coin."""
    return sorted(int(i) for i in rng.choice(total, size=count, replace=False))


def bits_to_str(bits) -> str:
    """'0'/'1' text of a bit sequence: a numpy row or a list of ints."""
    if isinstance(bits, np.ndarray):
        bits = bits.tolist()
    return "".join(map(str, bits))


def str_to_bits(text: str) -> np.ndarray:
    return np.array([int(c) for c in text], dtype=np.uint8)


_NATIVE = frozenset({str, int, float, bool, type(None)})


def _plain(value):
    """JSON-safe copy of a value: numpy scalars/arrays to native types.

    Containers come back as new dicts and lists.  Native scalars, nearly
    every value a transcript holds, are returned by the first check, and
    container items that are native scalars skip the recursive call.
    """
    if type(value) in _NATIVE:
        return value
    if isinstance(value, dict):
        return {str(k): v if type(v) in _NATIVE else _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [v if type(v) in _NATIVE else _plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return _plain(value.tolist())
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


@dataclass
class Transcript:
    """Complete record of one protocol run.

    ``events`` is everything observable on the wire (channel traffic and
    public announcements); ``secrets`` is the simulator's omniscient side
    record (true messages, keys, masks) used only for scoring and replay
    checks and never shown to adversary taps.

    Events and estimates are made JSON-safe once, as they are added, so
    ``to_dict`` copies them without walking them again.
    """

    config: dict
    key_stages: list = field(default_factory=list)
    events: list = field(default_factory=list)
    estimates: list = field(default_factory=list)
    outputs: dict | None = None
    abort: dict = field(default_factory=lambda: {"aborted": False, "stage": None})
    adversary: dict | None = None
    secrets: dict = field(default_factory=dict)

    def add_event(self, type_: str, **fields) -> None:
        self.events.append(_plain({"type": type_, **fields}))

    def add_key_stage(self, stage: str, length: int) -> None:
        self.key_stages.append({"stage": stage, "length": int(length)})

    def add_estimate(self, estimate: ErrorEstimate) -> None:
        # The detail rows, most of an estimate, come native from to_dict.
        self.estimates.append(
            {
                key: value if key == "detail" else _plain(value)
                for key, value in estimate.to_dict().items()
            }
        )
        self.add_event(
            "estimation_verdict",
            phase=estimate.phase,
            rate=estimate.rate,
            verdict=estimate.verdict,
        )

    def record_abort(self, stage: str) -> None:
        self.abort = {"aborted": True, "stage": stage}
        self.add_event("abort", stage=stage)

    @property
    def aborted(self) -> bool:
        return bool(self.abort["aborted"])

    def to_dict(self) -> dict:
        """JSON-safe dict of the run; changing it leaves the transcript as is.

        Each event, estimate and key stage is copied one level deep: their
        values were made JSON-safe on entry and are never changed after.
        The fields set by plain assignment (config, outputs, adversary,
        secrets) are small and go through ``_plain``.
        """
        return {
            "config": _plain(self.config),
            "key_stages": [dict(stage) for stage in self.key_stages],
            "events": [dict(event) for event in self.events],
            "estimates": [dict(estimate) for estimate in self.estimates],
            "outputs": _plain(self.outputs),
            "abort": dict(self.abort),
            "adversary": _plain(self.adversary),
            "secrets": _plain(self.secrets),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)
