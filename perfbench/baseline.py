"""Run the benchmark over several seeds and record the figures as JSON.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For every workload in BENCHMARK.json this runs ``run.py --trace 0`` once per
seed and ``run.py --trace 1`` once on the first seed, one run at a time.  It
records each end-to-end metric's per-seed values, median and quartile spread
(interquartile range over median, as the acceptance rule computes it), every
run's digest, the traced run's per-layer metrics and whether its digest equals
the untraced run's, plus the machine, Python, numpy and commit.  Pass
``--compare OLD.json`` to check a second set against a first: identical
digests, and no end-to-end median that moved, either way, by more than its
bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import program

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, cwd=program.ROOT, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["digest"] = next(line.split()[1] for line in lines if line.startswith("digest "))
    # Every computed metric, declared or not (failed_frac, samples_per_s, ...).
    result["printed"] = {
        name: {"value": float(value), "unit": unit}
        for name, value, unit in (line.split()[1:] for line in lines if line.startswith("metric "))
    }
    return result


def machine() -> dict:
    import numpy

    model = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=program.ROOT, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "cores": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def summarize(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def record(seeds: list[int]) -> dict:
    bench = json.loads((program.ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    out = {"machine": machine(), "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for entry in bench["workloads"]:
        name = entry["name"]
        runs = []
        for seed in seeds:
            runs.append(run_once(name, seed, seconds, 0))
            print(f"{name} seed {seed}: {json.dumps(runs[-1]['metrics'])}", file=sys.stderr)
        traced = run_once(name, seeds[0], seconds, 1)
        out["workloads"][name] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "digests": {str(s): r["digest"] for s, r in zip(seeds, runs)},
            "end_to_end": {
                name: dict(unit=first["unit"], **summarize(
                    [r["printed"][name]["value"] for r in runs]))
                for name, first in runs[0]["printed"].items()
            },
            "traced_digest_matches": traced["digest"] == runs[0]["digest"],
            "per_layer": traced["printed"],
        }
    return out


def compare(old: dict, new: dict) -> list[str]:
    """Problems of a second set of runs against a first of the same code."""
    bench = json.loads((program.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name, first in old["workloads"].items():
        second = new["workloads"][name]
        if first["digests"] != second["digests"]:
            problems.append(f"{name}: digests differ")
        for metric in bench["end_to_end"]:
            a = first["end_to_end"][metric["name"]]["median"]
            b = second["end_to_end"][metric["name"]]["median"]
            # Same code on both sides, so a move either way is instability.
            if abs((b - a) / a) > metric["bound"]:
                problems.append(f"{name} {metric['name']}: {a:.4g} -> {b:.4g}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--compare", help="an earlier output of this script")
    args = parser.parse_args()
    result = record(parse_seeds(args.seeds))
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    problems = []
    if args.compare:
        problems = compare(json.loads(Path(args.compare).read_text()), result)
    for name, w in result["workloads"].items():
        print(f"{name}: correct {w['correct']}, failed {w['failed']} of {w['attempted']} trials,"
              f" traced digest matches {w['traced_digest_matches']}, tracing overhead"
              f" {w['per_layer']['trace.overhead_s']['value']:.3f} s per round")
        for metric, v in w["end_to_end"].items():
            print(f"  {metric:14s} median {v['median']:.6g} {v['unit']}"
                  f"  (q1 {v['q1']:.6g}, q3 {v['q3']:.6g}, spread {v['spread']:.3f})")
    for problem in problems:
        print(f"COMPARE FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
