"""Batch front door: run protocols from a config file, or verify the suites.

    qconf run --config cfg.json [--seed S] [--out DIR] [--workers W]
    qconf verify --suite tables|attacks|all [--trials T] [--seed S]
                 [--out DIR] [--workers W]

``run`` writes one transcript JSON per trial; a protocol abort is a result,
not a tool failure, so the exit status stays 0.  ``verify`` writes CSV plus a
JSON summary per suite and exits nonzero iff any check fails.  Exit status 2
flags configuration or I/O errors, with a message naming the offending field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import ContractError
from .protocols.common import transcript_json
from .protocols.runner import RunConfig, iter_trials
from .stats import (
    records_to_csv,
    records_to_summary,
    run_attack_suite,
)
from .tables import tables_summary, tables_to_csv, verify_outcome_tables

SUITES = ("tables", "attacks", "all")


def _load_config(path: str, seed_override: int | None) -> tuple[RunConfig, int | None]:
    """The validated config and its optional ``trial_index``."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ContractError(f"config: cannot read {path}: {exc}") from exc
    except ValueError as exc:  # malformed JSON, or an integer too long to parse
        raise ContractError(f"config: {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ContractError("config: top level must be a JSON object")
    if seed_override is not None:
        data["seed"] = seed_override
    return RunConfig.from_dict(data), data.get("trial_index")


def cmd_run(args: argparse.Namespace) -> int:
    config, only = _load_config(args.config, args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    indices = [only] if only is not None else None
    # Each transcript is written as it is produced; ``iter_trials`` holds at
    # most two per worker ahead of the writer, so memory stays bounded in trials.
    for transcript in iter_trials(config, workers=args.workers, trial_indices=indices):
        trial = transcript["config"]["trial_index"]
        path = out_dir / f"transcript_{trial:03d}.json"
        path.write_text(transcript_json(transcript))
        status = "abort" if transcript["abort"]["aborted"] else "ok"
        print(f"{path} [{status}]")
    return 0


def _verify_tables(out_dir: Path) -> bool:
    entries, diffs = verify_outcome_tables()
    (out_dir / "tables.csv").write_text(tables_to_csv(entries))
    summary = tables_summary(entries, diffs)
    (out_dir / "tables.json").write_text(json.dumps(summary, indent=1))
    print(f"tables: {len(entries)} entries, {len(diffs)} diffs")
    return summary["all_pass"]


def _verify_attacks(out_dir: Path, seed: int, trials: int, workers: int) -> bool:
    detection_runs = max(1, trials // 10)
    records = run_attack_suite(
        seed, per_check=trials, detection_runs=detection_runs, workers=workers
    )
    (out_dir / "attacks.csv").write_text(records_to_csv(records))
    summary = records_to_summary(records)
    (out_dir / "attacks.json").write_text(json.dumps(summary, indent=1))
    for record in records:
        print(
            f"{record.verdict.upper():4s} {record.name}: estimate {record.estimate:.5f}"
            f" vs analytic {record.analytic:.5f} (band {record.band:.5f})"
        )
    return summary["all_pass"]


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite not in SUITES:
        raise ContractError(f"suite: unknown value {args.suite!r}")
    if args.trials < 1:
        raise ContractError(f"--trials: must be at least 1, got {args.trials}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ok = True
    if args.suite in ("tables", "all"):
        ok = _verify_tables(out_dir) and ok
    if args.suite in ("attacks", "all"):
        ok = _verify_attacks(out_dir, args.seed, args.trials, args.workers) and ok
    print("verdict:", "pass" if ok else "fail")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qconf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute protocol trials from a config file")
    run_p.add_argument("--config", required=True, help="RunConfig JSON document")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--out", default="out", help="output directory for transcripts")
    run_p.add_argument("--workers", type=int, default=1, help="parallel trial workers")
    run_p.set_defaults(func=cmd_run)

    verify_p = sub.add_parser("verify", help="run a verification suite")
    verify_p.add_argument("--suite", required=True, choices=SUITES)
    verify_p.add_argument(
        "--trials",
        type=int,
        default=100_000,
        help="Bernoulli sample target for per-check statistics "
        "(whole-run detection uses trials/10 runs)",
    )
    verify_p.add_argument("--seed", type=int, default=2024)
    verify_p.add_argument("--out", default="reports")
    verify_p.add_argument("--workers", type=int, default=1)
    verify_p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    limit = os.cpu_count() or 1
    try:
        # Both commands take --workers; it is checked before any pool exists.
        if not 1 <= args.workers <= limit:
            raise ContractError(f"--workers: must be between 1 and {limit}, got {args.workers}")
        return args.func(args)
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
