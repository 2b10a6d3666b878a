"""Monte Carlo layer: estimates, agreement checks, catalog, suite plumbing."""

import inspect
import math
import multiprocessing
from dataclasses import replace
from fractions import Fraction

import pytest

from qconf.adversary import AttackConfig
from qconf.errors import ContractError
from qconf.protocols import RunConfig
from qconf.stats import (
    DISHONEST_MIDDLE_TRUE_PASS,
    STATISTICS,
    AnalyticFormula,
    Estimate,
    Experiment,
    analytic_catalog,
    attack_suite,
    check_agreement,
    dishonest_middle_true_detection,
    records_to_csv,
    records_to_summary,
    run_experiment,
)


class TestCheckAgreement:
    def test_pass_within_band(self):
        estimate = Estimate("x", 0.561, 0.0016, 100_000)
        assert check_agreement(estimate, 0.5625).passed

    def test_fail_outside_band(self):
        estimate = Estimate("x", 0.60, 0.0016, 100_000)
        assert not check_agreement(estimate, 0.5625).passed

    def test_exact_statistic(self):
        estimate = Estimate("x", 1.0, 0.0, 1000)
        record = check_agreement(estimate, 1.0)
        assert record.passed and record.band == 0.0

    def test_near_one_rate_uses_null_se(self):
        # 10^4 runs of a 1 - 2^-30 detection rate will all detect; the
        # empirical SE is 0 but the null band is not.
        value = 1 - 0.5**30
        estimate = Estimate("x", 1.0, 0.0, 10_000)
        assert check_agreement(estimate, value).passed

    def test_zero_samples_fail(self):
        # A row whose closed form is 0 (the I/Y dos row) must not pass on no
        # evidence.
        record = check_agreement(Estimate("x", 0.0, 0.0, 0), 0.0)
        assert not record.passed and record.band == 0.0

    def test_z_contract(self):
        with pytest.raises(ContractError):
            check_agreement(Estimate("x", 0.5, 0.1, 10), 0.5, z=0)


class TestCatalog:
    def test_modified_detection_value(self):
        catalog = analytic_catalog()
        value = catalog["mdi_modified_detection"].evaluate(delta=0.1, length=100)
        want = 1 - Fraction(9, 16) ** 10
        assert abs(value - float(want)) < 1e-12
        assert abs(value - 0.99683) < 5e-6

    def test_decoy_detection_value(self):
        value = analytic_catalog()["decoy_intercept_detection"].evaluate(decoy_count=16)
        want = 1 - Fraction(3, 4) ** 16
        assert abs(value - float(want)) < 1e-12
        assert abs(value - 0.98998) < 5e-6

    def test_dos_identity(self):
        value = analytic_catalog()["dos_qubit_pass"].evaluate(weights=(1, 0, 0, 0))
        assert value == 1.0

    def test_dos_half_cases(self):
        catalog = analytic_catalog()
        assert catalog["dos_qubit_pass"].evaluate(weights=(0, 1, 0, 0)) == 0.5
        assert catalog["dos_qubit_pass"].evaluate(weights=(0, 0, 1, 0)) == 0.0

    def test_values_in_unit_interval(self):
        with pytest.raises(ContractError):
            AnalyticFormula("bad", lambda: 1.5).evaluate()

    def test_every_formula_has_a_suite_row(self):
        catalog = analytic_catalog()
        _, rows = attack_suite(seed=1)
        covered = {row.formula for row in rows}
        assert covered == set(catalog)

    def test_dishonest_middle_simulated_truth(self):
        assert DISHONEST_MIDDLE_TRUE_PASS == 11 / 16
        want = 1 - (11 / 16) ** 9
        assert abs(dishonest_middle_true_detection(0.1, 0.1, 100) - want) < 1e-12


class TestSuiteTable:
    """Invariants of the suite table that ``attack_suite`` builds from."""

    SEED = 2024

    def suite(self):
        return attack_suite(self.SEED, per_check=1000, detection_runs=150)

    def test_every_experiment_feeds_a_row(self):
        experiments, rows = self.suite()
        assert {row.experiment for row in rows} == set(experiments)

    def test_row_names_are_distinct(self):
        _, rows = self.suite()
        assert len({row.name for row in rows}) == len(rows)

    def test_row_statistics_are_known_and_extracted(self):
        experiments, rows = self.suite()
        for row in rows:
            assert row.statistic in STATISTICS
            assert row.statistic in experiments[row.experiment].statistics
        for name, experiment in experiments.items():
            read = [row.statistic for row in rows if row.experiment == name]
            assert list(experiment.statistics) == list(dict.fromkeys(read))

    def test_seeds_follow_position(self):
        experiments, _ = self.suite()
        seeds = [experiment.config.seed for experiment in experiments.values()]
        assert seeds == [self.SEED + i for i in range(len(experiments))]

    def test_formula_args_are_config_fields(self):
        experiments, rows = self.suite()
        catalog = analytic_catalog()
        for row in rows:
            config = experiments[row.experiment].config
            fn = catalog[row.formula].fn
            assert list(row.formula_args) == list(inspect.signature(fn).parameters)
            for name, value in row.formula_args.items():
                if name == "length":
                    assert value == config.message_length
                elif name == "weights":
                    assert value == config.attack.dos_weights
                else:
                    assert value == getattr(config, name)


class TestRunExperiment:
    def _experiment(self, trials=20):
        config = RunConfig(
            protocol="conference3",
            n_parties=3,
            message_length=64,
            delta=0.16,
            gamma=0.1,
            seed=123,
            trials=trials,
        )
        return Experiment("honest", config, ("honest_correct", "run_aborted"))

    def test_honest_correctness_exact(self):
        estimates = run_experiment(self._experiment())
        assert estimates["honest_correct"].value == 1.0
        assert estimates["run_aborted"].value == 0.0
        assert estimates["honest_correct"].samples == 20

    def test_reproducible_across_workers(self):
        serial = run_experiment(self._experiment())
        parallel = run_experiment(self._experiment(), workers=2)
        assert serial == parallel

    def test_pool_shut_down_when_a_trial_raises(self):
        # The pool path validates in the worker, so the job itself fails there
        # under any start method: fork, forkserver or spawn.
        config = replace(self._experiment(trials=4).config, message_length=0)
        experiment = Experiment("raises", config, ("honest_correct",))
        with pytest.raises(ContractError, match="message_length"):
            run_experiment(experiment, workers=2)
        assert multiprocessing.active_children() == []

    def test_se_formula(self):
        config = RunConfig(
            protocol="mdi_qd_original",
            message_length=100,
            delta=0.4,
            seed=7,
            attack=AttackConfig(kind="intercept_resend"),
            trials=25,
        )
        estimates = run_experiment(
            Experiment("attack", config, ("attacker_pair_recovery",))
        )
        est = estimates["attacker_pair_recovery"]
        want = math.sqrt(est.value * (1 - est.value) / est.samples)
        assert abs(est.se - want) < 1e-15

    def test_first_sender_reads_one_check_per_position(self):
        # The checks at a position share its basis, so the statistic keeps
        # only the first sender's check of each sampled position.
        detail = [
            ["P1", 2, True], ["P2", 2, False], ["P3", 2, False],
            ["P1", 5, False], ["P2", 5, True], ["P3", 5, True],
        ]
        transcript = {"estimates": [{"phase": "first_estimation", "detail": detail}]}
        assert STATISTICS["first_sender_qubit_pass"](transcript) == (1, 2)

    def test_unknown_statistic_rejected(self):
        config = RunConfig(protocol="xor", n_parties=3, message_length=32, delta=0.16)
        with pytest.raises(ContractError):
            Experiment("bad", config, ("no_such_stat",))


class TestReports:
    def test_csv_shape(self):
        estimate = Estimate("demo", 0.51, 0.005, 10_000)
        records = [check_agreement(estimate, 0.5)]
        csv = records_to_csv(records)
        lines = csv.strip().splitlines()
        assert lines[0] == "name,estimate,se,analytic,z,verdict"
        assert lines[1].startswith("demo,0.51,")
        assert lines[1].endswith(",pass")

    def test_summary_flags_failures(self):
        records = [
            check_agreement(Estimate("good", 0.5, 0.005, 10_000), 0.5),
            check_agreement(Estimate("bad", 0.9, 0.005, 10_000), 0.5),
        ]
        summary = records_to_summary(records)
        assert summary["failures"] == ["bad"]
        assert not summary["all_pass"]
