"""Protocol orchestrators and the trial runner."""

from .common import MIDDLE, ProtocolParams, Transcript, party_names
from .conference import run_conference
from .mdi_qd import run_mdi_qd_modified, run_mdi_qd_original
from .runner import (
    PROTOCOLS,
    RunConfig,
    execute_trial,
    iter_trials,
    run_trials,
    trial_messages,
)
from .xor_compute import run_xor


__all__ = [
    "MIDDLE",
    "PROTOCOLS",
    "ProtocolParams",
    "RunConfig",
    "Transcript",
    "execute_trial",
    "iter_trials",
    "party_names",
    "run_conference",
    "run_mdi_qd_modified",
    "run_mdi_qd_original",
    "run_trials",
    "run_xor",
    "trial_messages",
]
