"""Self-test of the benchmark, at the smallest valid workload sizes.

    python3 -m pytest perfbench -q

Checks that every workload runs, that every metric BENCHMARK.json declares
is produced with its declared unit in both modes, that tracing leaves the
digest unchanged, and that the correctness gates trip on wrong expectations
and on corrupted output.
"""

from __future__ import annotations

import json
import math
import tracemalloc
from array import array

import pytest

import program

program.require_source()

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DECLARED = run.declared_metrics()
REF = run.reference.Reference()


def ready(name, tmp_path, smallest=True):
    workload = workloads.make(name, 5, tmp_path / name, smallest=smallest)
    workload.prepare()
    workload.setup()
    return workload


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_runs_and_reports_every_declared_metric(name, tmp_path):
    workload = ready(name, tmp_path)
    ref = run.reference.Reference(workload.reference)
    plain = run.run_round(workload, ref)
    assert plain.trials == workload.round_trials() >= 1
    assert isinstance(workload.check(plain), list)

    end_to_end = run.end_to_end_metrics([(0.5, 0.4)], [plain], plain.trials, 0)
    chosen = run.select(end_to_end, DECLARED["end_to_end"])
    assert all(m["value"] > 0 for m in chosen.values())

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span(tracing.ROUND_SPAN):
            traced = run.run_round(workload, ref, tracer)
    finally:
        tracer.uninstall()
    assert traced.digest == plain.digest
    layers = run.per_layer_metrics(tracer, [tracer.end_round()], [plain.wall_s], [traced.wall_s])
    chosen = run.select(layers, DECLARED["per_layer"])
    assert chosen["protocols.runner.execute_trial.calls"]["value"] == plain.trials


@pytest.mark.parametrize("kind", sorted(run.reference.SLICES))
def test_reference_slice_allocates_no_buffer(kind):
    # Small objects only (pymalloc pools), never a buffer in the program's heap.
    ref = run.reference.Reference(kind)
    ref.slice_s()
    tracemalloc.start()
    try:
        assert all(ref.slice_s() > 0 for _ in range(5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_declared_metric_names_are_unique():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in DECLARED[key]]
    assert len(names) == len(set(names))


def test_uninstall_restores_every_binding():
    from qconf import channels, qsim, stats

    before = (channels.measure_joint, qsim.outcome_distribution, dict(stats.STATISTICS))
    tracer = tracing.Tracer()
    tracer.install()
    assert channels.measure_joint is not before[0]
    tracer.uninstall()
    assert (channels.measure_joint, qsim.outcome_distribution, dict(stats.STATISTICS)) == before


def test_self_time_excludes_child_spans_and_pauses():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    tracer.span_start[:] = array("d", [0.0, 1.0])
    tracer.span_end[:] = array("d", [10.0, 4.0])
    result = tracer.end_round(pauses=[(2.0, 3.0), (5.0, 7.0)], scale=0.5)
    # inner: 3 s less a 1 s pause; outer: 10 s less 3 s of pauses, less inner.
    assert result["self_s"]["inner"] == pytest.approx(1.0)
    assert result["self_s"]["outer"] == pytest.approx(2.5)
    assert result["calls"]["outer"] == result["calls"]["inner"] == 1


def test_suite_gate_trips_on_a_wrong_expected_verdict(tmp_path):
    workload = ready("suite_percheck", tmp_path, smallest=False)
    result = run.run_round(workload, REF)
    assert workload.check(result) == []
    for row in ("dishonest_middle_check_pass", "conference_intercept_qubit_pass"):
        workload.expect_agree[row] = not workload.expect_agree[row]
        assert any(p.startswith(row) for p in workload.check(result))
        workload.expect_agree[row] = not workload.expect_agree[row]


def test_transcript_gate_trips_on_corrupted_output(tmp_path):
    workload = ready("run_transcripts", tmp_path)
    result = run.run_round(workload, REF)
    assert workload.check(result) == []
    path, blob = next(iter(result.outputs.items()))
    transcript = json.loads(blob)
    transcript["outputs"]["kept_positions"] = transcript["outputs"]["kept_positions"][1:]
    result.outputs[path] = json.dumps(transcript, sort_keys=True, indent=1).encode()
    assert workload.check(result)


def test_binomial_p_value_matches_direct_sum():
    n, p = 12, 0.3
    pmf = [math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(n + 1)]
    for k in range(n + 1):
        want = min(1.0, 2 * min(sum(pmf[: k + 1]), sum(pmf[k:])))
        assert workloads.binomial_two_sided_p(k, n, p) == pytest.approx(want, rel=1e-12)
    assert workloads.binomial_two_sided_p(0, 40, 0.0) == 1.0
    assert workloads.binomial_two_sided_p(1, 40, 0.0) == 0.0
