"""Protocol orchestrators and the trial runner."""

from .common import MIDDLE, ProtocolParams, Transcript, party_names
from .conference import run_conference
from .mdi_qd import run_mdi_qd_modified, run_mdi_qd_original
from .runner import PROTOCOLS, RunConfig, execute_trial, run_trials, trial_messages
from .xor_compute import run_xor


def run_conference3(message_a, message_b, message_c, attack, rng, params=None, snapshot=None):
    """Three-party conference: exactly the N = 3 instance of run_conference."""
    kwargs = {} if params is None else {"params": params}
    return run_conference([message_a, message_b, message_c], attack, rng, snapshot=snapshot, **kwargs)


__all__ = [
    "MIDDLE",
    "PROTOCOLS",
    "ProtocolParams",
    "RunConfig",
    "Transcript",
    "execute_trial",
    "party_names",
    "run_conference",
    "run_conference3",
    "run_mdi_qd_modified",
    "run_mdi_qd_original",
    "run_trials",
    "run_xor",
    "trial_messages",
]
