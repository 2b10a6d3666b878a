"""Monte Carlo experiments and the catalog of closed-form probabilities.

An :class:`Experiment` is a run configuration plus a list of named statistics
to extract from each transcript.  Statistics are Bernoulli counts (successes,
samples), so aggregation across trials is order-insensitive and results are
identical under any parallel schedule.

The attack suite and the catalog both read one table: ``EXPERIMENTS`` holds
the runs, and ``CHECKS`` the rows, each comparing one statistic of a run
against its closed form.

``check_agreement`` compares an estimate against a closed-form value using a
band of z standard errors computed *from the analytic value* (score test):
an estimate-based SE degenerates to 0 whenever the empirical rate is exactly
0 or 1, which would spuriously fail near-certain detection rates.  The
estimate's own reported SE remains sqrt(p(1-p)/n) of the empirical rate.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Callable

import numpy as np

from .adversary import DOS_PASS_WEIGHTS, AttackConfig
from .errors import ContractError
from .protocols.common import sample_size, str_to_bits
from .protocols.runner import RunConfig, _trial_worker, iter_trials

DEFAULT_Z = 4.0


@dataclass(frozen=True)
class Estimate:
    """Point estimate of one Bernoulli statistic."""

    name: str
    value: float
    se: float
    samples: int


@dataclass(frozen=True)
class AnalyticFormula:
    """Closed-form probability, evaluable at arbitrary valid parameters."""

    name: str
    fn: Callable[..., float]

    def evaluate(self, **kwargs) -> float:
        value = float(self.fn(**kwargs))
        if not 0.0 <= value <= 1.0:
            raise ContractError(f"formula {self.name} left [0,1]: {value}")
        return value


@dataclass(frozen=True)
class AgreementRecord:
    """Machine-readable comparison of an estimate against a formula."""

    name: str
    estimate: float
    se: float
    samples: int
    analytic: float
    z: float
    band: float
    verdict: str

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def check_agreement(
    estimate: Estimate, value: float, z: float = DEFAULT_Z
) -> AgreementRecord:
    """Pass iff the estimate sits within z null-hypothesis standard errors.

    An estimate of no samples is no evidence, so it fails whatever its value.
    """
    if z <= 0:
        raise ContractError("z must be positive")
    if estimate.samples > 0:
        band = z * math.sqrt(value * (1.0 - value) / estimate.samples)
        verdict = "pass" if abs(estimate.value - value) <= band else "fail"
    else:
        band, verdict = 0.0, "fail"
    return AgreementRecord(
        estimate.name, estimate.value, estimate.se, estimate.samples, value, z, band, verdict
    )


# ---------------------------------------------------------------------------
# Statistic extractors: transcript dict -> (successes, samples)
# ---------------------------------------------------------------------------


def _estimates_of(transcript: dict, phase: str) -> list[dict]:
    return [e for e in transcript["estimates"] if e["phase"] == phase]


def _pass_counts(transcript: dict, phase: str) -> tuple[int, int]:
    checked = mism = 0
    for est in _estimates_of(transcript, phase):
        checked += est["positions_checked"]
        mism += est["mismatches"]
    return checked - mism, checked


def _stat_first_position_pass(tr: dict) -> tuple[int, int]:
    """Position passes iff every party's qubit check at it passed."""
    successes = samples = 0
    for est in _estimates_of(tr, "first_estimation"):
        by_position: dict[int, bool] = {}
        for _, position, ok in est["detail"]:
            by_position[position] = by_position.get(position, True) and ok
        samples += len(by_position)
        successes += sum(by_position.values())
    return successes, samples


def _stat_first_sender_pass(tr: dict) -> tuple[int, int]:
    """One check per sampled position: the first sender's.

    The first ceremony checks every sender at the same sampled positions, so
    the checks at a position share its key bit and with it the basis.  Where
    an attack's pass rate depends on the basis (a dos X tap passes exactly
    the X-basis checks, entangle_measure dephases only X labels) those checks
    are correlated, and counting all of them inflates the variance of the
    pass rate by 1 + (n - 1) * ((p_Z - p_X) / 2)^2 / (p (1 - p)): 3 for dos_x
    and 5/3 for entangle_measure at n = 3.  One check per position is
    independent of the others.
    """
    successes = samples = 0
    for est in _estimates_of(tr, "first_estimation"):
        detail = est["detail"]
        first = detail[0][0] if detail else None
        for party, _, ok in detail:
            if party == first:
                samples += 1
                successes += ok
    return successes, samples


def _stat_guess_mismatch(tr: dict) -> tuple[int, int]:
    """Per-checked-round detection rate of the disclose-and-compare ceremony."""
    passes, checked = _pass_counts(tr, "guess_comparison")
    return checked - passes, checked


def _stat_attacker_pair_recovery(tr: dict) -> tuple[int, int]:
    """Adversary's per-position exact recovery of the true message bit pair."""
    truth = [str_to_bits(s).tolist() for s in tr["secrets"]["messages"]]
    guesses = tr["adversary"]["guesses"]
    first = guesses.get("P1->middle", [])
    second = guesses.get("P2->middle", [])
    samples = min(len(first), len(second), len(truth[0]))
    successes = sum(
        g1 == t1 and g2 == t2
        for (_, g1), (_, g2), t1, t2 in zip(first, second, truth[0], truth[1])
    )
    return successes, samples


def _aborted_at(tr: dict, stage: str) -> tuple[int, int]:
    return int(tr["abort"]["aborted"] and tr["abort"]["stage"] == stage), 1


def _stat_run_aborted(tr: dict) -> tuple[int, int]:
    return int(tr["abort"]["aborted"]), 1


def _mdi_correct(tr: dict) -> bool:
    truth = [str_to_bits(s) for s in tr["secrets"]["messages"]]
    kept = tr["outputs"]["kept_positions"]
    rec_b = str_to_bits(tr["outputs"]["recovered"]["P1"]["P2"])
    rec_a = str_to_bits(tr["outputs"]["recovered"]["P2"]["P1"])
    return bool(
        np.array_equal(rec_b, truth[1][kept]) and np.array_equal(rec_a, truth[0][kept])
    )


def _conference_correct(tr: dict) -> bool:
    truth = [str_to_bits(s) for s in tr["secrets"]["messages"]]
    kept = tr["outputs"]["kept_positions"]
    recovered = tr["outputs"]["recovered"]
    parties = sorted(recovered, key=lambda p: int(p[1:]))
    for p in parties:
        for q in parties:
            if p == q:
                continue
            want = truth[int(q[1:]) - 1][kept]
            if not np.array_equal(str_to_bits(recovered[p][q]), want):
                return False
    return True


def _xor_correct(tr: dict) -> bool:
    want = tr["secrets"]["true_xor"]
    return all(v == want for v in tr["outputs"]["xor_value"].values())


def _stat_honest_correct(tr: dict) -> tuple[int, int]:
    if tr["abort"]["aborted"] or tr["outputs"] is None:
        return 0, 1
    protocol = tr["config"]["protocol"]
    if protocol.startswith("mdi_qd"):
        return int(_mdi_correct(tr)), 1
    if protocol == "conferenceN":
        return int(_conference_correct(tr)), 1
    if protocol == "xor":
        return int(_xor_correct(tr)), 1
    raise ContractError(f"no correctness rule for protocol {protocol!r}")


def _stat_xor_blind_guess(tr: dict) -> tuple[int, int]:
    """Per-bit agreement between the announced blinded XOR and the true XOR."""
    if tr["abort"]["aborted"]:
        return 0, 0
    eta = str_to_bits(tr["secrets"]["blinded_xor"])
    mu = str_to_bits(tr["secrets"]["true_xor"])
    return int(np.sum(eta == mu)), len(mu)


def _stat_xor_p1_exact(tr: dict) -> tuple[int, int]:
    if tr["abort"]["aborted"]:
        return 0, 1
    return int(tr["outputs"]["xor_value"]["P1"] == tr["secrets"]["true_xor"]), 1


def _stat_xor_others_offset_exact(tr: dict) -> tuple[int, int]:
    """Non-coordinator outputs equal true XOR ^ mask ^ substitute, exactly."""
    if tr["abort"]["aborted"]:
        return 0, 1
    mask = str_to_bits(tr["secrets"]["mask"])
    substitute = str_to_bits(tr["secrets"].get("substitute_blind", tr["secrets"]["mask"]))
    want = str_to_bits(tr["secrets"]["true_xor"]) ^ mask ^ substitute
    ok = all(
        np.array_equal(str_to_bits(v), want)
        for p, v in tr["outputs"]["xor_value"].items()
        if p != "P1"
    )
    return int(ok), 1


STATISTICS: dict[str, Callable[[dict], tuple[int, int]]] = {
    "first_qubit_pass": partial(_pass_counts, phase="first_estimation"),
    "first_position_pass": _stat_first_position_pass,
    "first_sender_qubit_pass": _stat_first_sender_pass,
    "second_round_pass": partial(_pass_counts, phase="second_estimation"),
    "guess_mismatch": _stat_guess_mismatch,
    "attacker_pair_recovery": _stat_attacker_pair_recovery,
    "detect_first": partial(_aborted_at, stage="first_estimation"),
    "detect_second": partial(_aborted_at, stage="second_estimation"),
    "detect_decoy": partial(_aborted_at, stage="decoy_verification"),
    "run_aborted": _stat_run_aborted,
    "honest_correct": _stat_honest_correct,
    "xor_blind_guess": _stat_xor_blind_guess,
    "xor_p1_exact": _stat_xor_p1_exact,
    "xor_others_offset_exact": _stat_xor_others_offset_exact,
}


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    """A run configuration plus the statistics to pull out of each trial."""

    name: str
    config: RunConfig
    statistics: tuple[str, ...]

    def __post_init__(self):
        unknown = [s for s in self.statistics if s not in STATISTICS]
        if unknown:
            raise ContractError(f"unknown statistics {unknown}")
        if self.config.trials < 1:
            raise ContractError("experiment needs trials >= 1")


def _extract_counts(transcript: dict, statistics: tuple[str, ...]) -> dict:
    return {name: STATISTICS[name](transcript) for name in statistics}


def _experiment_worker(args: tuple) -> dict:
    config_dict, trial, statistics = args
    return _extract_counts(_trial_worker((config_dict, trial)), tuple(statistics))


def run_experiment(experiment: Experiment, workers: int = 1) -> dict[str, Estimate]:
    """Execute all trials and aggregate each statistic into an Estimate."""
    totals = {name: [0, 0] for name in experiment.statistics}

    def add(results) -> None:
        for counts in results:
            for name, (successes, samples) in counts.items():
                totals[name][0] += successes
                totals[name][1] += samples

    if workers <= 1:
        # ``map`` drops each transcript once its counts are taken, before
        # the next trial runs.
        statistics = repeat(tuple(experiment.statistics))
        add(map(_extract_counts, iter_trials(experiment.config), statistics))
    else:
        jobs = [
            (experiment.config.to_dict(), t, tuple(experiment.statistics))
            for t in range(experiment.config.trials)
        ]
        # ``with`` shuts the workers down even when a trial raises.
        with ProcessPoolExecutor(max_workers=workers) as pool:
            add(pool.map(_experiment_worker, jobs, chunksize=32))
    estimates = {}
    for name, (successes, samples) in totals.items():
        value = successes / samples if samples else 0.0
        se = math.sqrt(value * (1.0 - value) / samples) if samples else 0.0
        estimates[name] = Estimate(f"{experiment.name}:{name}", value, se, samples)
    return estimates


# ---------------------------------------------------------------------------
# Analytic catalog
# ---------------------------------------------------------------------------


def _dos_pass(weights) -> float:
    weights = tuple(weights)
    norm = sum(w * w for w in weights)
    if abs(norm - 1.0) > 1e-10:
        raise ContractError("dos weights not unit-norm")
    return sum(h * w * w for h, w in zip(DOS_PASS_WEIGHTS, weights))


def _first_checks(delta: float, length: int, n_parties: int) -> int:
    return n_parties * sample_size(delta, length)


def _second_checks(delta: float, gamma: float, length: int) -> int:
    """Second-ceremony checks: a gamma sample of the rounds the first left."""
    return sample_size(gamma, length - sample_size(delta, length))


# The described dishonest-middle strategy actually passes a consistency check
# with probability 11/16, not the published 7/8: conditional pass rates are
# 1 (matching basis, prior 1/2), 1/2 (X round read in Z, prior 1/4) and 1/4
# (Z round read in X, prior 1/4), and wrong-basis results carry no
# information about the checked quantity, so 11/16 is also the optimum.  The
# catalog keeps the published value; these constants document the simulated
# truth and back acceptance criteria 5 and 7 as well as the supplementary
# regression tests.
DISHONEST_MIDDLE_TRUE_PASS = 11 / 16


def dishonest_middle_true_detection(delta: float, gamma: float, length: int) -> float:
    return 1 - DISHONEST_MIDDLE_TRUE_PASS ** _second_checks(delta, gamma, length)


# ---------------------------------------------------------------------------
# Suite table
# ---------------------------------------------------------------------------

_INTERCEPT = AttackConfig(kind="intercept_resend")
_CONFERENCE3 = dict(protocol="conference3", n_parties=3)

# (name, Bernoulli samples per run, RunConfig fields but seed and trials).
# A per-check experiment runs enough trials for ``per_check`` samples; one
# with ``None`` measures a whole-run statistic over ``detection_runs`` trials.
# Experiment i runs with seed ``seed + i``, so a new experiment goes at the
# end: anywhere else it moves the seeds of those after it.
EXPERIMENTS = (
    # Key-guessing interceptor on the unhardened dialogue: recovery 5/8,
    # per-checked-bit detection 1/4.  delta=0.4 keeps the sample inside the
    # sifted half; ~400 checked bits and 1000 recovery samples per run.
    ("mdi_original_attack", 400,
     dict(protocol="mdi_qd_original", message_length=1000, delta=0.4, attack=_INTERCEPT)),
    # Independent-basis interceptor on the hardened dialogue: 9/16 per pair,
    # chance-level recovery.  100 checked pairs per run.
    ("mdi_modified_attack", 100,
     dict(protocol="mdi_qd_modified", message_length=1000, delta=0.1, attack=_INTERCEPT)),
    # Per-qubit pass rates at the conference's first ceremony: 300 checks per
    # run.  The interceptor's entry also backs the per-position (3/4)^3 row,
    # so its samples are its 100 whole positions.  The entangle and dos rows
    # read one check per sampled position (``first_sender_qubit_pass``), so
    # their samples are the 100 positions of each run; the figure stays at
    # 300 so that their trial counts do not change.
    ("conference_intercept", 100,
     dict(_CONFERENCE3, message_length=250, delta=0.4, attack=_INTERCEPT)),
    ("conference_entangle", 300,
     dict(_CONFERENCE3, message_length=250, delta=0.4,
          attack=AttackConfig(kind="entangle_measure"))),
    ("conference_mitm", 300,
     dict(_CONFERENCE3, message_length=250, delta=0.4, attack=AttackConfig(kind="mitm"))),
    ("conference_dos_x", 300,
     dict(_CONFERENCE3, message_length=250, delta=0.4,
          attack=AttackConfig(kind="dos", dos_weights=(0.0, 1.0, 0.0, 0.0)))),
    ("conference_dos_iy", 300,
     dict(_CONFERENCE3, message_length=250, delta=0.4,
          attack=AttackConfig(kind="dos", dos_weights=(0.0, 0.0, 1.0, 0.0)))),
    # Dishonest middle party: per-round consistency-check pass rate.  A large
    # gamma packs ~101 checked rounds into each run.
    ("dishonest_middle_checks", 101,
     dict(_CONFERENCE3, message_length=224, delta=0.1, gamma=0.5,
          attack=AttackConfig(kind="dishonest_middle"))),
    # Whole-run detection rates against the closed forms.
    ("mdi_modified_detection", None,
     dict(protocol="mdi_qd_modified", message_length=100, delta=0.1, attack=_INTERCEPT)),
    ("conference_intercept_detection", None,
     dict(_CONFERENCE3, message_length=100, delta=0.1, attack=_INTERCEPT)),
    ("conference_mitm_detection", None,
     dict(_CONFERENCE3, message_length=100, delta=0.1, attack=AttackConfig(kind="mitm"))),
    ("decoy_intercept_detection", None,
     dict(_CONFERENCE3, message_length=100, delta=0.1, gamma=0.1, decoy_count=16,
          attack=AttackConfig(kind="intercept_resend", target_links=frozenset({"P1->P2"})))),
    ("dishonest_middle_detection", None,
     dict(_CONFERENCE3, message_length=100, delta=0.1, gamma=0.1,
          attack=AttackConfig(kind="dishonest_middle"))),
    # One-time-pad probe: the announced blinded XOR agrees with the true XOR
    # only at chance level.
    ("xor_blind_probe", None,
     dict(protocol="xor", n_parties=3, message_length=32, delta=0.16, gamma=0.1)),
)

# (row name, experiment, statistic, catalog formula, closed form), in report
# order.  A closed form's parameters are read from the experiment's config:
# ``length`` is the message length, ``weights`` the dos weights, and any
# other name the config field of that name.  Exponents use the implemented
# sample counts (floored, minimum 1), so the formulas and the simulation
# agree on the same integers.
CHECKS = (
    ("mdi_original_attacker_pair_recovery", "mdi_original_attack", "attacker_pair_recovery",
     "mdi_original_attacker_pair_recovery", lambda: 5 / 8),
    ("mdi_original_per_bit_detection", "mdi_original_attack", "guess_mismatch",
     "mdi_original_per_bit_detection", lambda: 1 / 4),
    ("mdi_modified_position_pass", "mdi_modified_attack", "first_position_pass",
     "mdi_modified_position_pass", lambda: 9 / 16),
    ("mdi_modified_attacker_pair_recovery", "mdi_modified_attack", "attacker_pair_recovery",
     "mdi_modified_attacker_pair_recovery", lambda: 1 / 4),
    ("conference_intercept_qubit_pass", "conference_intercept", "first_qubit_pass",
     "intercept_qubit_pass", lambda: 3 / 4),
    ("conference_entangle_qubit_pass", "conference_entangle", "first_sender_qubit_pass",
     "entangle_qubit_pass", lambda: 3 / 4),
    ("conference_mitm_qubit_pass", "conference_mitm", "first_qubit_pass",
     "mitm_qubit_pass", lambda: 1 / 2),
    ("conference_dos_x_qubit_pass", "conference_dos_x", "first_sender_qubit_pass",
     "dos_qubit_pass", _dos_pass),
    ("conference_dos_iy_qubit_pass", "conference_dos_iy", "first_sender_qubit_pass",
     "dos_qubit_pass", _dos_pass),
    ("conference_intercept_position_pass", "conference_intercept", "first_position_pass",
     "conference_intercept_position_pass", lambda n_parties: (3 / 4) ** n_parties),
    ("dishonest_middle_check_pass", "dishonest_middle_checks", "second_round_pass",
     "dishonest_middle_check_pass", lambda: 7 / 8),
    ("mdi_modified_detection", "mdi_modified_detection", "detect_first",
     "mdi_modified_detection",
     lambda delta, length: 1 - (9 / 16) ** sample_size(delta, length)),
    ("conference_intercept_detection", "conference_intercept_detection", "detect_first",
     "conference_intercept_detection",
     lambda delta, length, n_parties: 1 - (3 / 4) ** _first_checks(delta, length, n_parties)),
    ("conference_mitm_detection", "conference_mitm_detection", "detect_first",
     "conference_mitm_detection",
     lambda delta, length, n_parties: 1 - (1 / 2) ** _first_checks(delta, length, n_parties)),
    ("decoy_intercept_detection", "decoy_intercept_detection", "detect_decoy",
     "decoy_intercept_detection", lambda decoy_count: 1 - (3 / 4) ** decoy_count),
    ("dishonest_middle_detection", "dishonest_middle_detection", "detect_second",
     "dishonest_middle_detection",
     lambda delta, gamma, length: 1 - (7 / 8) ** _second_checks(delta, gamma, length)),
    ("xor_blind_guess_chance", "xor_blind_probe", "xor_blind_guess",
     "xor_blind_guess_chance", lambda: 1 / 2),
)


def analytic_catalog() -> dict[str, AnalyticFormula]:
    """Every closed-form probability the verification suite checks against."""
    return {formula: AnalyticFormula(formula, fn) for *_, formula, fn in CHECKS}


@dataclass(frozen=True)
class SuiteRow:
    """One agreement check: an experiment statistic vs a catalog formula."""

    name: str
    experiment: str
    statistic: str
    formula: str
    formula_args: dict


def _trials_for(samples_per_run: int, target: int) -> int:
    return max(1, math.ceil(target / samples_per_run))


def _formula_args(fn: Callable[..., float], config: RunConfig) -> dict:
    # Parameter names from the code object: ``inspect.signature`` would take
    # as long again as building the rest of the suite.
    code = fn.__code__
    names = code.co_varnames[: code.co_argcount]
    renamed = {"length": config.message_length, "weights": config.attack.dos_weights}
    return {n: renamed[n] if n in renamed else getattr(config, n) for n in names}


def attack_suite(
    seed: int, per_check: int = 100_000, detection_runs: int = 10_000
) -> tuple[dict[str, Experiment], list[SuiteRow]]:
    """Experiments plus agreement rows covering every catalog formula.

    ``per_check`` targets the number of Bernoulli samples for per-check
    statistics; detection rates are whole-run statistics and use
    ``detection_runs`` trials.
    """
    experiments: dict[str, Experiment] = {}
    for offset, (name, per_run, fields) in enumerate(EXPERIMENTS):
        trials = detection_runs if per_run is None else _trials_for(per_run, per_check)
        config = RunConfig(**fields, seed=seed + offset, trials=trials)
        # The statistics its rows read, in row order.
        statistics = dict.fromkeys(s for _, e, s, *_ in CHECKS if e == name)
        experiments[name] = Experiment(name, config, tuple(statistics))
    rows = [
        SuiteRow(name, experiment, statistic, formula,
                 _formula_args(fn, experiments[experiment].config))
        for name, experiment, statistic, formula, fn in CHECKS
    ]
    return experiments, rows


def run_attack_suite(
    seed: int,
    per_check: int = 100_000,
    detection_runs: int = 10_000,
    z: float = DEFAULT_Z,
    workers: int = 1,
) -> list[AgreementRecord]:
    """Run every suite experiment and compare against the catalog."""
    experiments, rows = attack_suite(seed, per_check, detection_runs)
    catalog = analytic_catalog()
    estimates: dict[str, dict[str, Estimate]] = {}
    for name, experiment in experiments.items():
        estimates[name] = run_experiment(experiment, workers=workers)
    records = []
    for suite_row in rows:
        estimate = estimates[suite_row.experiment][suite_row.statistic]
        estimate = Estimate(suite_row.name, estimate.value, estimate.se, estimate.samples)
        value = catalog[suite_row.formula].evaluate(**suite_row.formula_args)
        records.append(check_agreement(estimate, value, z))
    return records


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

CSV_HEADER = "name,estimate,se,analytic,z,verdict"


def records_to_csv(records: list[AgreementRecord]) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.name},{r.estimate:.10g},{r.se:.10g},{r.analytic:.10g},{r.z:g},{r.verdict}"
        )
    return "\n".join(lines) + "\n"


def records_to_summary(records: list[AgreementRecord]) -> dict:
    return {
        "checks": [
            {
                "name": r.name,
                "estimate": r.estimate,
                "se": r.se,
                "samples": r.samples,
                "analytic": r.analytic,
                "z": r.z,
                "band": r.band,
                "verdict": r.verdict,
            }
            for r in records
        ],
        "failures": [r.name for r in records if not r.passed],
        "all_pass": all(r.passed for r in records),
    }
