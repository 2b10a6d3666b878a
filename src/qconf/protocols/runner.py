"""Run configuration, validation, and trial execution.

A :class:`RunConfig` is the single source of truth for one batch of runs:
protocol, sizes, check fractions, attack, trials, and master seed.  Trial t
derives its message stream from (seed, t, 0) and its protocol stream from
(seed, t, 1), so any trial can be reproduced in isolation and parallel
workers cannot perturb each other.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..adversary import CHANNEL_TAP_KINDS, AttackConfig
from ..errors import ContractError, ResourceLimitError
from ..qsim import MAX_QUBITS
from ..rng import derive_rng, random_bits
from .common import ProtocolParams, Transcript
from .conference import run_conference
from .mdi_qd import run_mdi_qd_modified, run_mdi_qd_original
from .xor_compute import run_xor

PROTOCOLS = ("mdi_qd_original", "mdi_qd_modified", "conference3", "conferenceN", "xor")

# A protocol alias only pins the party count; the canonical name is what the
# transcript records, so a three-party conference run is byte-identical no
# matter which alias requested it.
_CANONICAL = {"conference3": "conferenceN"}

# The attack kinds each protocol implements, by canonical name.  ``validate``
# rejects any other pair, so a config cannot name an attack that never runs.
_TAPS = ("none", *CHANNEL_TAP_KINDS)
PROTOCOL_ATTACKS = {
    "mdi_qd_original": _TAPS,
    "mdi_qd_modified": _TAPS,
    "conferenceN": (*_TAPS, "dishonest_middle"),
    "xor": (*_TAPS, "dishonest_middle", "dishonest_p1"),
}

MIN_SAMPLED_POSITIONS = 10
# Longest message a run accepts: a trial holds a few lists of this length
# per party, and its transcript a permutation of it per party.
MAX_MESSAGE_LENGTH = 100_000

_INT_FIELDS = ("message_length", "n_parties", "decoy_count", "trials", "seed")
_FLOAT_FIELDS = ("delta", "gamma", "threshold")


def _check_pair(protocol: str, kind: str) -> None:
    """Reject an unknown protocol, or an attack kind it does not implement."""
    if protocol not in PROTOCOL_ATTACKS:
        raise ContractError(f"protocol: unknown value {protocol!r}")
    if kind not in PROTOCOL_ATTACKS[protocol]:
        raise ContractError(f"attack.kind: protocol {protocol!r} does not implement {kind!r}")


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A number a float can hold: not a bool, NaN or an int too large."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return not math.isnan(value)
    except OverflowError:
        return False


def _check_int(name: str, value) -> None:
    if not _is_int(value):
        raise ContractError(f"{name}: must be an integer, got {value!r}")


def _check_float(name: str, value) -> None:
    if not _is_real(value):
        raise ContractError(f"{name}: must be a number, got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    """Validated description of a batch of protocol runs."""

    protocol: str
    message_length: int
    n_parties: int = 2
    delta: float = 0.1
    gamma: float = 0.1
    decoy_count: int = 16
    threshold: float = 0.0
    attack: AttackConfig = AttackConfig()
    message_source: str = "random"
    messages_hex: tuple[str, ...] | None = None
    trials: int = 1
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "protocol", _CANONICAL.get(self.protocol, self.protocol))
        # Numbers from outside (numpy scalars, say) become native here, so
        # the transcript's copy of the config is JSON-native as it stands.
        # Values of the wrong type stay as given, for ``validate`` to reject.
        for name in _INT_FIELDS:
            if _is_int(getattr(self, name)):
                object.__setattr__(self, name, int(getattr(self, name)))
        for name in _FLOAT_FIELDS:
            if _is_real(getattr(self, name)):
                object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def params(self) -> ProtocolParams:
        return ProtocolParams(self.delta, self.gamma, self.decoy_count, self.threshold)

    @property
    def transmitted_length(self) -> int:
        """Physical sequence length sent to the middle party."""
        return 2 * self.message_length if self.protocol == "xor" else self.message_length

    def validate(self) -> None:
        for name in _INT_FIELDS:
            _check_int(name, getattr(self, name))
        for name in _FLOAT_FIELDS:
            _check_float(name, getattr(self, name))
        _check_pair(self.protocol, self.attack.kind)
        if self.protocol.startswith("mdi_qd"):
            if self.n_parties != 2:
                raise ContractError("n_parties: dialogue protocols take exactly 2")
        elif self.n_parties < 3:
            raise ContractError("n_parties: conference/xor need at least 3")
        # The relay measures one carrier per party jointly.
        qubits = self.n_parties
        if qubits > MAX_QUBITS:
            # 16-byte amplitudes; the size is capped so that it stays printable.
            mib = 2 ** (min(qubits, 64) - 16)
            raise ResourceLimitError(
                f"n_parties: {self.n_parties} parties need a joint state of {qubits} "
                f"qubits ({'over ' if qubits > 64 else ''}{mib:,} MiB of amplitudes); "
                f"the simulator's limit is {MAX_QUBITS} qubits"
            )
        if self.message_length < 1:
            raise ContractError("message_length: must be >= 1")
        if self.message_length > MAX_MESSAGE_LENGTH:
            raise ResourceLimitError(
                f"message_length: {self.message_length} exceeds the limit of "
                f"{MAX_MESSAGE_LENGTH:,} bits"
            )
        if self.trials < 1:
            raise ContractError("trials: must be >= 1")
        if self.seed < 0:
            raise ContractError("seed: must be >= 0")
        self.params  # range checks
        # Sampled check counts below ~10 make the estimation ceremonies
        # statistically meaningless; reject such configurations up front.
        if math.floor(self.delta * self.transmitted_length) < MIN_SAMPLED_POSITIONS:
            raise ContractError(
                "message_length: too small for delta "
                f"(need delta * transmitted length >= {MIN_SAMPLED_POSITIONS}, got "
                f"{self.delta * self.transmitted_length:.1f})"
            )
        if self.message_source not in ("random", "hex"):
            raise ContractError(f"message_source: unknown value {self.message_source!r}")
        if self.message_source == "hex":
            if (
                not isinstance(self.messages_hex, (list, tuple))
                or len(self.messages_hex) != self.n_parties
            ):
                raise ContractError("messages_hex: need a list with one hex string per party")
            for text in self.messages_hex:
                if not isinstance(text, str):
                    raise ContractError(f"messages_hex: {text!r} is not a string")
                _hex_to_bits(text, self.message_length)  # raises on bad input
        elif self.messages_hex is not None:
            raise ContractError("messages_hex: only valid with message_source='hex'")

    def to_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "message_length": self.message_length,
            "n_parties": self.n_parties,
            "delta": self.delta,
            "gamma": self.gamma,
            "decoy_count": self.decoy_count,
            "threshold": self.threshold,
            "attack": self.attack.to_dict(),
            "message_source": self.message_source,
            "messages_hex": list(self.messages_hex) if self.messages_hex else None,
            "trials": self.trials,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {
            "protocol",
            "message_length",
            "n_parties",
            "delta",
            "gamma",
            "decoy_count",
            "threshold",
            "attack",
            "message_source",
            "messages_hex",
            "trials",
            "seed",
        }
        extra = set(data) - known - {"trial_index"}
        if extra:
            raise ContractError(f"config: unknown fields {sorted(extra)}")
        trial_index = data.get("trial_index")
        if trial_index is not None:
            _check_int("trial_index", trial_index)
            if trial_index < 0:
                raise ContractError("trial_index: must be >= 0")
        kwargs = {k: v for k, v in data.items() if k in known}
        if "attack" in kwargs and kwargs["attack"] is not None:
            kwargs["attack"] = AttackConfig.from_dict(kwargs["attack"])
        elif "attack" in kwargs:
            kwargs["attack"] = AttackConfig()
        if isinstance(kwargs.get("messages_hex"), list):
            kwargs["messages_hex"] = tuple(kwargs["messages_hex"])
        try:
            config = cls(**kwargs)
        except TypeError as exc:
            raise ContractError(f"config: {exc}") from exc
        config.validate()
        return config


def _hex_to_bits(text: str, length: int) -> np.ndarray:
    """Hex literal -> bit vector, most significant bit first."""
    expected = (length + 3) // 4
    if len(text) != expected:
        raise ContractError(
            f"messages_hex: need exactly {expected} hex digits for {length} bits"
        )
    try:
        value = int(text, 16)
    except ValueError as exc:
        raise ContractError(f"messages_hex: invalid hex literal {text!r}") from exc
    if value >> length:
        raise ContractError("messages_hex: pad bits beyond message_length must be 0")
    return np.array([(value >> (length - 1 - i)) & 1 for i in range(length)], dtype=np.uint8)


def trial_messages(config: RunConfig, trial: int) -> list[np.ndarray]:
    """The true per-party messages for one trial."""
    n = config.n_parties
    if config.message_source == "hex":
        return [_hex_to_bits(t, config.message_length) for t in config.messages_hex]
    rng = derive_rng(config.seed, trial, 0)
    return [random_bits(rng, config.message_length) for _ in range(n)]


def execute_trial(config: RunConfig, trial: int = 0) -> Transcript:
    """Run one trial; the embedded config makes the transcript replayable.

    The config is not validated here (``iter_trials`` and ``from_dict`` do),
    but a protocol/attack pair that ``validate`` rejects is rejected too.
    """
    _check_pair(config.protocol, config.attack.kind)
    messages = trial_messages(config, trial)
    rng = derive_rng(config.seed, trial, 1)
    snapshot = config.to_dict()
    # ``derive_rng`` has taken ``trial`` only if it is an integer; a numpy one is stored as int.
    snapshot["trial_index"] = int(trial)
    params = config.params
    if config.protocol == "mdi_qd_original":
        return run_mdi_qd_original(*messages, config.attack, rng, params, snapshot)
    if config.protocol == "mdi_qd_modified":
        return run_mdi_qd_modified(*messages, config.attack, rng, params, snapshot)
    if config.protocol == "conferenceN":
        return run_conference(messages, config.attack, rng, params, snapshot)
    return run_xor(messages, config.attack, rng, params, snapshot)


def _trial_worker(args: tuple) -> dict:
    config_dict, trial = args
    config = RunConfig.from_dict(config_dict)
    return execute_trial(config, trial).shared_dict()


def iter_trials(
    config: RunConfig, workers: int = 1, trial_indices: list[int] | None = None
) -> Iterator[dict]:
    """Transcript dicts of the configured trials, in trial order, one at a time.

    Serially each trial runs only when the next transcript is asked for, so
    a caller that writes and drops each one holds one transcript at a time.
    With a pool at most two trials per worker are submitted and not yet
    taken, so what is held stays bounded in ``trials`` there too.  Results
    are identical for any ``workers``.  Each dict is the transcript's
    ``shared_dict``: the transcript is dropped, so nothing is copied.
    """
    config.validate()
    indices = trial_indices if trial_indices is not None else range(config.trials)
    if workers <= 1:
        for t in indices:
            yield execute_trial(config, t).shared_dict()
        return
    config_dict = config.to_dict()
    window = 2 * workers
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending: deque = deque()
        for t in indices:
            pending.append(pool.submit(_trial_worker, (config_dict, t)))
            if len(pending) == window:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def run_trials(
    config: RunConfig, workers: int = 1, trial_indices: list[int] | None = None
) -> list[dict]:
    """Every transcript of ``iter_trials``, as a list."""
    return list(iter_trials(config, workers, trial_indices))
