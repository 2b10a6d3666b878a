"""CLI contract: exit codes, transcripts on disk, report files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qconf import stats
from qconf.cli import main
from qconf.protocols import RunConfig, runner

SRC = Path(__file__).resolve().parents[1] / "src"


def write_config(path: Path, **overrides) -> Path:
    config = {
        "protocol": "conference3",
        "n_parties": 3,
        "message_length": 64,
        "delta": 0.16,
        "gamma": 0.1,
        "seed": 7,
        "trials": 2,
    }
    config.update(overrides)
    target = path / "config.json"
    target.write_text(json.dumps(config))
    return target


def test_run_writes_transcripts(tmp_path, capsys):
    config = write_config(tmp_path)
    code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 0
    files = sorted((tmp_path / "out").glob("transcript_*.json"))
    assert len(files) == 2
    transcript = json.loads(files[0].read_text())
    assert transcript["outputs"] is not None
    assert transcript["config"]["protocol"] == "conferenceN"


def test_run_writes_each_transcript_before_the_next_trial(tmp_path, monkeypatch):
    out = tmp_path / "out"
    execute_trial = runner.execute_trial

    def checking(config, trial=0):
        written = sorted(p.name for p in out.glob("transcript_*.json"))
        assert written == [f"transcript_{t:03d}.json" for t in range(trial)]
        return execute_trial(config, trial)

    monkeypatch.setattr(runner, "execute_trial", checking)
    config = write_config(tmp_path, trials=3)
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    monkeypatch.undo()
    expected = runner.run_trials(RunConfig.from_dict(json.loads(config.read_text())))
    for t, transcript in enumerate(expected):
        text = (out / f"transcript_{t:03d}.json").read_text()
        assert text == json.dumps(transcript, sort_keys=True, indent=1)


def test_abort_is_still_exit_zero(tmp_path):
    config = write_config(
        tmp_path,
        attack={"kind": "intercept_resend"},
        trials=1,
    )
    code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 0
    transcript = json.loads((tmp_path / "out" / "transcript_000.json").read_text())
    assert transcript["abort"]["aborted"]


def test_config_error_names_field(tmp_path, capsys):
    config = write_config(tmp_path, delta=3.0)
    code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert "delta" in captured.err


@pytest.mark.parametrize(
    "overrides",
    [
        {"protocol": "conferenceN", "n_parties": 17},
        {"protocol": "xor", "n_parties": 17, "attack": {"kind": "entangle_measure"}},
        {"protocol": "conferenceN", "n_parties": 1100},
    ],
)
def test_oversized_joint_state_exits_2(tmp_path, capsys, overrides):
    config = write_config(tmp_path, **overrides)
    code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: n_parties:")
    assert "MiB" in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"message_length": "64"}, "message_length"),
        ({"delta": "x"}, "delta"),
        ({"attack": "dos"}, "attack"),
        ({"trials": True}, "trials"),
        ({"message_length": 100_000_000_000}, "message_length"),
        ({"attack": {"kind": "dos", "dos_weights": ["1", 0, 0, 0]}}, "attack.dos_weights"),
        ({"seed": -1}, "seed"),
        ({"message_source": "hex", "messages_hex": 5}, "messages_hex"),
        (
            {"message_source": "hex", "messages_hex": {"0" * 16: 1, "1" * 16: 2, "2" * 16: 3}},
            "messages_hex",
        ),
        ({"decoy_count": 0}, "decoy_count"),
        ({"threshold": 10**400}, "threshold"),
        ({"attack": {"kind": "dishonest_p1"}}, "attack.kind"),
        ({"attack": {"kind": "intercept_resend", "target_links": []}}, "attack.target_links"),
        (
            {"attack": {"kind": "intercept_resend", "target_links": ["P1->P9"]}},
            "attack.target_links",
        ),
        ({"attack": {"kind": "none", "target_links": ["P1->middle"]}}, "attack.target_links"),
        (
            {"attack": {"kind": "dishonest_middle", "target_links": ["P1->middle"]}},
            "attack.target_links",
        ),
    ],
)
def test_malformed_field_exits_2(tmp_path, capsys, overrides, field):
    config = write_config(tmp_path, **overrides)
    code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {field}")
    assert len(captured.err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_unparsable_integer_exits_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"protocol": "conferenceN", "seed": ' + "1" * 5000 + "}")
    code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: config:")


def test_module_entry_point_exits_2(tmp_path):
    config = write_config(tmp_path, delta="x")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "qconf", "run", "--config", str(config),
         "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 2
    assert result.stderr.startswith("error: delta")


def test_missing_config_file(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == 2


def test_seed_override_changes_run(tmp_path):
    config = write_config(tmp_path, trials=1)
    main(["run", "--config", str(config), "--out", str(tmp_path / "a")])
    main(["run", "--config", str(config), "--seed", "99", "--out", str(tmp_path / "b")])
    t_a = json.loads((tmp_path / "a" / "transcript_000.json").read_text())
    t_b = json.loads((tmp_path / "b" / "transcript_000.json").read_text())
    assert t_a["config"]["seed"] == 7 and t_b["config"]["seed"] == 99
    assert t_a["events"] != t_b["events"]


def test_config_round_trip_reproduces_transcript(tmp_path):
    config = write_config(tmp_path, trials=3)
    main(["run", "--config", str(config), "--out", str(tmp_path / "first")])
    emitted = tmp_path / "first" / "transcript_002.json"
    transcript = json.loads(emitted.read_text())
    replay_config = tmp_path / "replay.json"
    replay_config.write_text(json.dumps(transcript["config"]))
    code = main(["run", "--config", str(replay_config), "--out", str(tmp_path / "second")])
    assert code == 0
    replayed = tmp_path / "second" / "transcript_002.json"
    assert replayed.read_text() == emitted.read_text()


def test_verify_tables(tmp_path):
    code = main(["verify", "--suite", "tables", "--out", str(tmp_path / "rep")])
    assert code == 0
    assert (tmp_path / "rep" / "tables.csv").exists()
    summary = json.loads((tmp_path / "rep" / "tables.json").read_text())
    assert summary["all_pass"]


def test_verify_attacks_small_scale(tmp_path):
    # Tiny sample target: this exercises the full pipeline, not the
    # tolerances; the published dishonest-middle figures are expected to
    # fail (README "Known discrepancy"), so exit status 1 is legitimate here.
    code = main(
        [
            "verify",
            "--suite",
            "attacks",
            "--trials",
            "2000",
            "--seed",
            "5",
            "--out",
            str(tmp_path / "rep"),
        ]
    )
    assert code in (0, 1)
    summary = json.loads((tmp_path / "rep" / "attacks.json").read_text())
    names = {check["name"] for check in summary["checks"]}
    assert "mdi_modified_position_pass" in names
    csv_lines = (tmp_path / "rep" / "attacks.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "name,estimate,se,analytic,z,verdict"
    assert len(csv_lines) == len(names) + 1


def test_verify_rejects_unknown_suite(tmp_path):
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "bogus", "--out", str(tmp_path)])


@pytest.mark.parametrize("suite,trials", [("tables", "0"), ("attacks", "-5")])
def test_verify_rejects_trials_below_one(tmp_path, capsys, suite, trials):
    out = tmp_path / "rep"
    code = main(["verify", "--suite", suite, "--trials", trials, "--out", str(out)])
    assert code == 2
    assert "--trials" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("workers", [0, -3, (os.cpu_count() or 1) + 1])
def test_workers_out_of_range_exits_2(tmp_path, capsys, monkeypatch, workers):
    # Both commands reject the value before a pool exists, so none starts.
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was created")

    monkeypatch.setattr(runner, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(stats, "ProcessPoolExecutor", no_pool)
    out = tmp_path / "out"
    config = write_config(tmp_path)
    for argv in (
        ["run", "--config", str(config)],
        ["verify", "--suite", "tables"],
    ):
        code = main([*argv, "--workers", str(workers), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: --workers")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()


def test_verify_deterministic_reports(tmp_path):
    for name in ("a", "b"):
        main(
            [
                "verify",
                "--suite",
                "tables",
                "--seed",
                "3",
                "--out",
                str(tmp_path / name),
            ]
        )
    assert (tmp_path / "a" / "tables.csv").read_text() == (
        tmp_path / "b" / "tables.csv"
    ).read_text()
