"""qconf benchmark: end-to-end throughput per workload, or a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``): ``suite_percheck``, ``suite_detection``,
``run_transcripts``, ``conference_wide``.  The seed makes the inputs; every
round of a run repeats the same seeded work, and rounds continue until S
seconds have passed.  Every round must give the same digest, and the first
round's outputs go through the workload's correctness gate.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` is the median of
several fresh-interpreter set-ups (see ``probe_setup.py``), ``wall_s`` the
median round time, and the rates are one round's work over that median.
Times are seconds at a fixed reference speed (see ``reference.py``): each is
scaled by reference slices timed while it ran, which cancels the host's speed
drift.  The raw seconds are printed too, per round and as the medians
``raw_setup_s`` and ``raw_wall_s``.

``--trace 1`` alternates untraced and traced rounds.  Traced rounds wrap the
public functions of each qconf layer (see ``tracing.py``) and give per-layer
calls, self times and computed counts for one round; the gap between traced
and untraced median round times is the tracing overhead, and both kinds of
round must give the same digest.  The spans of the first traced round and a
summary of every per-layer figure are written under ``.bench_out/``.

The last stdout line is one JSON object: ``correct``, ``attempted`` and
``failed`` (trials), and ``metrics``, holding exactly the metrics that
``BENCHMARK.json`` declares for the mode, each with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import program
import reference

SETUP_PROBES = 7
PROBE = Path(__file__).resolve().parent / "probe_setup.py"


def probe_setup_s(workload: str, seed: int, ref: reference.Reference) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter to its workload being ready.

    Returns the raw seconds and, the probe's own reference slices taken out,
    the same seconds at the reference speed.
    """
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(PROBE), "--workload", workload, "--seed", str(seed),
         "--reference", ref.kind],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=program.ROOT,
    )
    line = child.stdout.readline()
    elapsed = time.perf_counter() - start
    _, err = child.communicate()
    if child.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {child.returncode}):\n{err}")
    report = json.loads(line)
    return elapsed, ref.scale(elapsed - report["busy_s"], report["slice_s"])


def run_round(workload, ref: reference.Reference, tracer=None):
    """Time the round's steps, sampling the machine's speed while they run.

    With a tracer, each labelled step is a span and the slices' intervals are
    kept for :meth:`tracing.Tracer.end_round`.
    """
    values = []
    with ref.sampling(keep_pauses=tracer is not None) as samples:
        start = time.perf_counter()
        for label, step in workload.steps():
            with tracer.span(label) if tracer and label else contextlib.nullcontext():
                values.append(step())
        elapsed = time.perf_counter() - start
    result = workload.finish(values)
    result.wall_s = elapsed - samples.busy_s
    result.reference_s = samples.mean_s
    result.scaled_wall_s = ref.scale(result.wall_s, result.reference_s)
    result.pauses = samples.pauses
    return result


def declared_metrics() -> dict[str, list[dict]]:
    return json.loads((program.ROOT / "BENCHMARK.json").read_text())


def end_to_end_metrics(probes, rounds, attempted, failed) -> dict:
    """End-to-end metrics, times at the reference speed.

    ``raw_setup_s`` and ``raw_wall_s`` are the same medians in plain wall
    seconds, unscaled.  ``samples_per_s`` (suite workloads) and
    ``out_mib_per_s`` (transcript writers) appear only where the workload has
    such work.
    """
    wall = statistics.median(r.scaled_wall_s for r in rounds)
    first = rounds[0]
    metrics = {
        "setup_s": (statistics.median(scaled for _, scaled in probes), "s"),
        "raw_setup_s": (statistics.median(raw for raw, _ in probes), "s"),
        "wall_s": (wall, "s"),
        "raw_wall_s": (statistics.median(r.wall_s for r in rounds), "s"),
        "trials_per_s": (first.trials / wall, "1/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "failed_frac": (failed / attempted, "ratio"),
    }
    if first.samples:
        metrics["samples_per_s"] = (first.samples / wall, "1/s")
    if first.out_bytes:
        metrics["out_mib_per_s"] = (first.out_bytes / wall / 2**20, "MiB/s")
    return metrics


def per_layer_metrics(tracer, traced, untraced_walls, traced_walls) -> dict:
    """Per-layer figures for one round, self times averaged over traced rounds.

    Times are seconds at the reference speed, reference slices removed.
    """
    import tracing
    import workloads

    metrics = {}
    rounds = len(traced)
    first = traced[0]
    functions = {name for _, _, name in tracing.TARGETS} | set(tracing.EXTRA_SPANS)
    for name in tracer.names:
        if name == tracing.ROUND_SPAN:
            continue
        if name not in functions:  # a labelled step of the round
            wall = sum(t["total_s"].get(name, 0.0) for t in traced) / rounds
            metrics[f"{name}.wall_s"] = (wall, "s")
            continue
        metrics[f"{name}.calls"] = (first["calls"].get(name, 0), "count")
        self_s = sum(t["self_s"].get(name, 0.0) for t in traced) / rounds
        metrics[f"{name}.self_s"] = (self_s, "s")
    for name in functions:
        metrics.setdefault(f"{name}.calls", (0, "count"))
        metrics.setdefault(f"{name}.self_s", (0.0, "s"))
    for name in workloads.PER_CHECK_EXPERIMENTS + workloads.DETECTION_EXPERIMENTS:
        metrics.setdefault(f"stats.experiment.{name}.wall_s", (0.0, "s"))
    counts = first["counts"]
    measurements = counts["qsim.joint_measurements"]
    metrics["qsim.joint_matrix_bytes"] = (
        counts["qsim.joint_matrix_bytes_total"] / measurements if measurements else 0.0,
        "B",
    )
    for key in ("qsim.amplitudes_built", "channels.qubits_sent", "adversary.tap_qubits",
                "protocols.common.events"):
        metrics[key] = (counts[key], "count")
    for key, value in counts.items():
        if key.startswith("protocols.aborts."):
            metrics[key] = (value, "count")
    runs = counts["protocols.runs"]
    metrics["protocols.completed_frac"] = (
        (runs - counts["protocols.aborted"]) / runs if runs else 0.0, "ratio"
    )
    metrics["cli.bytes_written"] = (counts["cli.bytes_written"], "B")
    trial_ms = [ms for t in traced for ms in t["trial_ms"]]
    if len(trial_ms) >= 2:
        p50 = statistics.median(trial_ms)
        p90 = statistics.quantiles(trial_ms, n=10)[-1]
    else:
        p50 = p90 = trial_ms[0] if trial_ms else 0.0
    metrics["protocols.runner.execute_trial.p50_ms"] = (p50, "ms")
    metrics["protocols.runner.execute_trial.p90_ms"] = (p90, "ms")
    metrics["trace.overhead_s"] = (
        statistics.median(traced_walls) - statistics.median(untraced_walls),
        "s",
    )
    return metrics


def select(computed: dict, declared: list[dict]) -> dict:
    """Exactly the declared metrics, each checked against its declared unit."""
    out = {}
    for entry in declared:
        name = entry["name"]
        if name not in computed:
            raise KeyError(f"declared metric {name} was not measured")
        value, unit = computed[name]
        if unit != entry["unit"]:
            raise ValueError(f"metric {name}: measured in {unit}, declared {entry['unit']}")
        out[name] = {"value": value, "unit": unit}
    return out


def run(args) -> int:
    program.require_source()
    import tracing
    import workloads

    declared = declared_metrics()
    workdir = program.OUT / args.workload
    workload = workloads.make(args.workload, args.seed, workdir)
    workload.prepare()
    ref = reference.Reference(workload.reference)
    probes = [probe_setup_s(args.workload, args.seed, ref) for _ in range(SETUP_PROBES)]
    workload.setup()
    tracer = tracing.Tracer() if args.trace else None

    untraced, traced_rounds, traced_results = [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    index = 0
    while True:
        use_trace = tracer is not None and index % 2 == 1
        try:
            if use_trace:
                tracer.install()
                try:
                    with tracer.span(tracing.ROUND_SPAN):
                        result = run_round(workload, ref, tracer)
                finally:
                    tracer.uninstall()
                traced = tracer.end_round(result.pauses, ref.scale(1.0, result.reference_s))
                if traced_results:
                    del traced["spans"]  # only the first traced round's spans are kept
                traced_results.append(traced)
                traced_rounds.append(result)
            else:
                result = run_round(workload, ref)
                untraced.append(result)
        except Exception:
            traceback.print_exc()
            failed += workload.round_trials()
            attempted += workload.round_trials()
            break
        if untraced and result is not untraced[0]:
            result.outputs = None  # the gate reads the first round; the digest covers the rest
        attempted += result.trials
        index += 1
        if time.perf_counter() >= deadline and (tracer is None or index >= 2):
            break
    if not untraced:
        print("error: no round completed", file=sys.stderr)
        return 1

    rounds = untraced + traced_rounds
    problems = [] if failed == 0 else [f"{failed} trials raised"]
    digests = {r.digest for r in rounds}
    if len(digests) != 1:
        problems.append(f"rounds gave {len(digests)} different digests")
    problems += workload.check(untraced[0])

    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced_rounds)} traced rounds of {untraced[0].trials} trials")
    print(f"digest {untraced[0].digest}")
    print("set-up raw s " + " ".join(f"{raw:.4f}" for raw, _ in probes))
    print("round raw wall_s untraced " + " ".join(f"{r.wall_s:.4f}" for r in untraced))
    print("round reference slice ms " + " ".join(f"{1000 * r.reference_s:.3f}" for r in untraced))
    if traced_rounds:
        print("round raw wall_s traced " + " ".join(f"{r.wall_s:.4f}" for r in traced_rounds))
    for problem in problems:
        print(f"GATE FAIL {problem}")
    print(f"gate {'pass' if not problems else 'fail'}")

    if tracer is None:
        computed = end_to_end_metrics(probes, untraced, attempted, failed)
        chosen = declared["end_to_end"]
    else:
        computed = per_layer_metrics(
            tracer,
            traced_results,
            [r.scaled_wall_s for r in untraced],
            [r.scaled_wall_s for r in traced_rounds],
        )
        chosen = declared["per_layer"]
        stem = f"{args.workload}-seed{args.seed}"
        summary = {name: {"value": v, "unit": u} for name, (v, u) in sorted(computed.items())}
        (workdir / f"trace-{stem}.json").parent.mkdir(parents=True, exist_ok=True)
        (workdir / f"trace-{stem}.json").write_text(json.dumps(summary, indent=1))
        tracing.write_spans(workdir / f"spans-{stem}.npz", tracer.names, traced_results[0]["spans"])
        print(f"trace summary {workdir / f'trace-{stem}.json'}")
    for name, (value, unit) in sorted(computed.items()):
        print(f"metric {name} {value!r} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": select(computed, chosen),
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
