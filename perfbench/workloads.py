"""The four benchmark workloads, driven through qconf's public API.

Each workload is a fixed unit of work (a *round*) made from the seed alone, so
every round of a run repeats the same trials and must give the same digest.
``setup`` is everything up to the first trial being ready (config or suite
construction, config-file load and validation) plus that first trial, which
fills the program's lazy caches.  ``steps`` lists the round's work as labelled
calls, which ``run.py`` times one by one; ``finish`` turns their results into
a :class:`RoundResult`, and ``check`` is the correctness gate.

All work is serial in this one process: on a two-core machine a worker pool
would measure the scheduler as much as the program.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import io
import json
import math
import shutil
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from qconf import cli, stats
from qconf.protocols import runner

# Per-check experiments (few long trials, a tap on every qubit) and whole-run
# detection experiments (many short trials, most aborting early), as grouped
# by ``stats.attack_suite``.
PER_CHECK_EXPERIMENTS = (
    "mdi_original_attack",
    "mdi_modified_attack",
    "conference_intercept",
    "conference_entangle",
    "conference_mitm",
    "conference_dos_x",
    "conference_dos_iy",
    "dishonest_middle_checks",
)
DETECTION_EXPERIMENTS = (
    "mdi_modified_detection",
    "conference_intercept_detection",
    "conference_mitm_detection",
    "decoy_intercept_detection",
    "dishonest_middle_detection",
    "xor_blind_probe",
)

# The README's documented discrepancy: the published 7/8 dishonest-middle
# pass rate is really 11/16, so these two rows must disagree with the catalog.
DEFECT_ROWS = frozenset({"dishonest_middle_check_pass", "dishonest_middle_detection"})

# A row agrees with its closed form when an exact two-sided binomial test
# cannot reject the closed form at the level of the suite's own z = 4 verdict
# (two-sided normal tail beyond 4 sigma).  At the benchmark's reduced sample
# sizes the z = 4 normal band misjudges near-certain detection rates (one
# escaped run out of 150 is "outside 4 sigma" when 150 * (1 - p) < 1), which
# would fail a correct program on a few percent of seeds; the exact test does
# not.  The defect rows stay far outside it at the sizes below.
EXACT_ALPHA = math.erfc(4 / math.sqrt(2))

RUN_CONFIGS = {
    "mdi_qd_original": {"n_parties": 2, "message_length": 128},
    "mdi_qd_modified": {"n_parties": 2, "message_length": 128},
    "conference3": {"n_parties": 3, "message_length": 128},
    "xor": {"n_parties": 3, "message_length": 64},
}


@dataclass
class RoundResult:
    """One round: its work counts, digest and outputs; ``run.py`` adds times."""

    trials: int
    digest: str
    samples: int = 0
    out_bytes: int = 0
    outputs: object = field(default=None, repr=False)
    wall_s: float = 0.0
    reference_s: float = 0.0
    scaled_wall_s: float = 0.0


def _sha256(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def _quiet_cli(argv: list[str]) -> None:
    """``qconf.cli.main`` in-process, its per-file lines kept off stdout."""
    with redirect_stdout(io.StringIO()):
        status = cli.main(argv)
    if status != 0:
        raise RuntimeError(f"qconf {' '.join(argv)} exited {status}")


def binomial_two_sided_p(successes: int, samples: int, p: float) -> float:
    """Exact two-sided binomial p-value (twice the smaller tail, capped at 1)."""
    if samples == 0:
        return 1.0
    if p <= 0.0 or p >= 1.0:
        return 1.0 if successes == (0 if p <= 0.0 else samples) else 0.0
    log_p, log_q = math.log(p), math.log1p(-p)
    base = math.lgamma(samples + 1)

    def pmf(i: int) -> float:
        return math.exp(
            base - math.lgamma(i + 1) - math.lgamma(samples - i + 1) + i * log_p
            + (samples - i) * log_q
        )

    lower = math.fsum(pmf(i) for i in range(successes + 1))
    upper = math.fsum(pmf(i) for i in range(successes, samples + 1))
    return min(1.0, 2.0 * min(lower, upper))


# ---------------------------------------------------------------------------
# Attack-suite workloads
# ---------------------------------------------------------------------------


class SuiteWorkload:
    """A group of ``attack_suite`` experiments plus their agreement rows."""

    reference = "interpreter"

    def __init__(self, name: str, experiments: tuple[str, ...], seed: int, **sizes):
        self.name = name
        self.group = experiments
        self.seed = seed
        self.sizes = sizes
        self.expect_agree = None

    def prepare(self) -> None:
        """Nothing to write: the suite is built in memory from the seed."""

    def setup(self) -> None:
        experiments, rows = stats.attack_suite(self.seed, **self.sizes)
        self.experiments = {name: experiments[name] for name in self.group}
        self.rows = [r for r in rows if r.experiment in self.experiments]
        catalog = stats.analytic_catalog()
        self.analytic = {
            r.name: catalog[r.formula].evaluate(**r.formula_args) for r in self.rows
        }
        if self.expect_agree is None:
            self.expect_agree = {r.name: r.name not in DEFECT_ROWS for r in self.rows}
        for experiment in self.experiments.values():
            experiment.config.validate()
        first = next(iter(self.experiments.values()))
        stats.run_experiment(
            dataclasses.replace(first, config=dataclasses.replace(first.config, trials=1))
        )

    def round_trials(self) -> int:
        return sum(e.config.trials for e in self.experiments.values())

    def steps(self) -> list:
        estimates = {}

        def experiment(name, experiment):
            estimates[name] = stats.run_experiment(experiment)

        def verdicts():
            records = []
            for row in self.rows:
                est = estimates[row.experiment][row.statistic]
                renamed = stats.Estimate(row.name, est.value, est.se, est.samples)
                records.append(stats.check_agreement(renamed, self.analytic[row.name]))
            return estimates, records

        return [
            (f"stats.experiment.{name}", functools.partial(experiment, name, e))
            for name, e in self.experiments.items()
        ] + [("stats.verdicts", verdicts)]

    def finish(self, values: list) -> RoundResult:
        estimates, records = values[-1]
        counts = [
            (name, statistic, round(est.value * est.samples), est.samples)
            for name, by_stat in sorted(estimates.items())
            for statistic, est in sorted(by_stat.items())
        ]
        return RoundResult(
            trials=self.round_trials(),
            digest=_sha256([json.dumps(counts).encode()]),
            samples=sum(c[3] for c in counts),
            outputs=records,
        )

    def agreement(self, records) -> dict[str, tuple[bool, float, str]]:
        """Row name -> (agrees with its closed form, exact p-value, z = 4 verdict)."""
        table = {}
        for r in records:
            p_exact = binomial_two_sided_p(round(r.estimate * r.samples), r.samples, r.analytic)
            table[r.name] = (p_exact >= EXACT_ALPHA, p_exact, r.verdict)
        return table

    def check(self, result: RoundResult) -> list[str]:
        problems = []
        table = self.agreement(result.outputs)
        for name, expected in self.expect_agree.items():
            agrees, p_exact, verdict = table[name]
            if agrees != expected:
                problems.append(
                    f"{name}: expected {'agreement' if expected else 'disagreement'} with"
                    f" the catalog, got z=4 verdict {verdict}, exact p {p_exact:.3g}"
                )
        return problems


# ---------------------------------------------------------------------------
# Transcript-producing workloads
# ---------------------------------------------------------------------------


def _honest_problems(label: str, transcript: dict) -> list[str]:
    successes, samples = stats.STATISTICS["honest_correct"](transcript)
    if (successes, samples) != (1, 1):
        return [f"{label}: honest_correct gave {successes}/{samples}"]
    return []


def _transcript_bytes(transcript: dict) -> bytes:
    """The bytes ``qconf run`` writes for a transcript."""
    return json.dumps(transcript, sort_keys=True, indent=1).encode()


class RunTranscriptsWorkload:
    """``qconf run`` in-process on one honest config per protocol."""

    name = "run_transcripts"
    reference = "interpreter"

    def __init__(self, seed: int, workdir: Path, trials: int = 16):
        self.seed = seed
        self.workdir = workdir
        self.trials = trials
        self.config_paths = {p: workdir / "configs" / f"{p}.json" for p in RUN_CONFIGS}
        self.first_trial_path = workdir / "configs" / "first_trial.json"

    def _out(self, protocol: str) -> Path:
        return self.workdir / "out" / protocol

    def prepare(self) -> None:
        """Write the config files; clear transcripts of earlier runs."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        (self.workdir / "configs").mkdir(parents=True)
        for offset, (protocol, sizes) in enumerate(RUN_CONFIGS.items()):
            config = {
                "protocol": protocol,
                "delta": 0.1,
                "gamma": 0.1,
                "attack": {"kind": "none"},
                "trials": self.trials,
                "seed": self.seed + offset,
                **sizes,
            }
            self.config_paths[protocol].write_text(json.dumps(config, indent=1))
            if offset == 0:
                first = dict(config, trial_index=0)
                self.first_trial_path.write_text(json.dumps(first, indent=1))

    def setup(self) -> None:
        for path in self.config_paths.values():
            runner.RunConfig.from_dict(json.loads(path.read_text()))
        _quiet_cli(
            ["run", "--config", str(self.first_trial_path),
             "--out", str(self.workdir / "first_trial")]
        )

    def round_trials(self) -> int:
        return self.trials * len(self.config_paths)

    def steps(self) -> list:
        return [
            (f"cli.run.{protocol}", functools.partial(
                _quiet_cli, ["run", "--config", str(path), "--out", str(self._out(protocol))]
            ))
            for protocol, path in self.config_paths.items()
        ]

    def finish(self, values: list) -> RoundResult:
        files = [
            self._out(protocol) / f"transcript_{t:03d}.json"
            for protocol in self.config_paths
            for t in range(self.trials)
        ]
        blobs = [f.read_bytes() for f in files]
        return RoundResult(
            trials=len(files),
            digest=_sha256(blobs),
            out_bytes=sum(len(b) for b in blobs),
            outputs=dict(zip(files, blobs)),
        )

    def check(self, result: RoundResult) -> list[str]:
        problems = []
        last = {}
        for path, blob in result.outputs.items():
            try:
                transcript = json.loads(blob)
            except ValueError as exc:
                problems.append(f"{path.name}: not JSON ({exc})")
                continue
            problems += _honest_problems(str(path), transcript)
            last[path.parent.name] = (path, blob, transcript)
        for protocol, (path, blob, transcript) in last.items():
            replay_config = self.workdir / "replay" / f"{protocol}.json"
            replay_config.parent.mkdir(parents=True, exist_ok=True)
            replay_config.write_text(json.dumps(transcript["config"]))
            replay_out = self.workdir / "replay" / protocol
            _quiet_cli(["run", "--config", str(replay_config), "--out", str(replay_out)])
            if (replay_out / path.name).read_bytes() != blob:
                problems.append(f"{protocol}: replay of {path.name} differs")
        return problems


class ConferenceWideWorkload:
    """``run_trials`` on an honest ten-party conference."""

    name = "conference_wide"
    # Most of a trial is numpy streaming the joint basis, whose speed tracks
    # the host's far less than the interpreter's does (see ``reference.py``).
    reference = "numpy"

    def __init__(self, seed: int, trials: int = 4):
        self.config = runner.RunConfig(
            protocol="conferenceN",
            # Ten parties make the dense joint basis 1024 x 1024 (16 MiB), more
            # than the L2 cache, so streaming it dominates the trial time.
            n_parties=10,
            message_length=100,
            trials=trials,
            seed=seed,
        )

    def prepare(self) -> None:
        """Nothing to write: the config is built in memory from the seed."""

    def setup(self) -> None:
        self.config.validate()
        runner.run_trials(self.config, trial_indices=[0])

    def round_trials(self) -> int:
        return self.config.trials

    def steps(self) -> list:
        return [
            (None, functools.partial(runner.run_trials, self.config, trial_indices=[t]))
            for t in range(self.config.trials)
        ]

    def finish(self, values: list) -> RoundResult:
        transcripts = [t for batch in values for t in batch]
        blobs = [_transcript_bytes(t) for t in transcripts]
        return RoundResult(
            trials=len(transcripts),
            digest=_sha256(blobs),
            outputs=list(zip(transcripts, blobs)),
        )

    def check(self, result: RoundResult) -> list[str]:
        problems = []
        for transcript, _ in result.outputs:
            problems += _honest_problems(f"trial {transcript['config']['trial_index']}", transcript)
        transcript, blob = result.outputs[-1]
        replayed = runner.run_trials(
            runner.RunConfig.from_dict(transcript["config"]),
            trial_indices=[transcript["config"]["trial_index"]],
        )
        if _transcript_bytes(replayed[0]) != blob:
            problems.append("replay of the last trial differs")
        return problems


WORKLOADS = ("suite_percheck", "suite_detection", "run_transcripts", "conference_wide")


def make(name: str, seed: int, workdir: Path, smallest: bool = False):
    """The named workload at benchmark sizes, or at the smallest valid sizes."""
    if name == "suite_percheck":
        sizes = {"per_check": 1 if smallest else 1000}
        return SuiteWorkload(name, PER_CHECK_EXPERIMENTS, seed, **sizes)
    if name == "suite_detection":
        sizes = {"detection_runs": 1 if smallest else 150}
        return SuiteWorkload(name, DETECTION_EXPERIMENTS, seed, **sizes)
    if name == "run_transcripts":
        return RunTranscriptsWorkload(seed, workdir, trials=1 if smallest else 16)
    if name == "conference_wide":
        return ConferenceWideWorkload(seed, trials=1 if smallest else 4)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
