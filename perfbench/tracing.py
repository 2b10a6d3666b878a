"""In-memory span tracing around the public functions of each qconf layer.

A :class:`Tracer` replaces every binding of a traced function, in every
``qconf`` module that holds one, with a wrapper that records a span (name,
start, end, parent span, trial id).  Wrapping only the defining module would
miss callers that imported the name (``channels`` imports ``measure_joint``
by name, ``stats`` imports ``execute_trial``), so bindings are found by object
identity across all loaded ``qconf`` modules.  ``install`` and ``uninstall``
swap the wrappers in and out, so untraced rounds run the program unchanged.

Spans live in flat arrays while a round runs; :meth:`Tracer.end_round`
derives self times, call counts and trial latencies from them.  Self time is a
span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (module, qualified name inside the module, metric prefix).  A name the
# program no longer defines is skipped, and its metrics read 0.
TARGETS = [
    ("qconf.qsim", "tensor", "qsim.tensor"),
    ("qconf.qsim", "outcome_distribution", "qsim.outcome_distribution"),
    ("qconf.qsim", "measure_joint", "qsim.measure_joint"),
    ("qconf.qsim", "measure_embedded", "qsim.measure_embedded"),
    ("qconf.qsim", "measure_single", "qsim.measure_single"),
    ("qconf.qsim", "measure_qubit", "qsim.measure_qubit"),
    ("qconf.qsim", "apply_1q_unitary", "qsim.apply_1q_unitary"),
    ("qconf.qsim", "apply_cnot", "qsim.apply_cnot"),
    ("qconf.qsim", "build_joint_basis", "qsim.build_joint_basis"),
    ("qconf.codec", "consistent_outcome_codes", "codec.consistent_outcome_codes"),
    ("qconf.codec", "decode_z_round", "codec.decode_z_round"),
    ("qconf.codec", "decode_x_round", "codec.decode_x_round"),
    ("qconf.channels", "QuantumChannel.transmit", "channels.QuantumChannel.transmit"),
    ("qconf.channels", "first_error_estimation", "channels.first_error_estimation"),
    ("qconf.channels", "second_error_estimation", "channels.second_error_estimation"),
    ("qconf.channels", "verify_decoys", "channels.verify_decoys"),
    ("qconf.channels", "measure_channel_tuple", "channels.measure_channel_tuple"),
    ("qconf.channels", "measure_flying", "channels.measure_flying"),
    ("qconf.channels", "insert_decoys", "channels.insert_decoys"),
    ("qconf.channels", "extract_payload", "channels.extract_payload"),
    ("qconf.adversary", "InterceptResendTap.apply", "adversary.InterceptResendTap.apply"),
    ("qconf.adversary", "EntangleMeasureTap.apply", "adversary.EntangleMeasureTap.apply"),
    ("qconf.adversary", "DosTap.apply", "adversary.DosTap.apply"),
    ("qconf.adversary", "MitmTap.apply", "adversary.MitmTap.apply"),
    ("qconf.adversary", "dishonest_middle_announce", "adversary.dishonest_middle_announce"),
    ("qconf.protocols.mdi_qd", "run_mdi_qd_original", "protocols.run_mdi_qd_original"),
    ("qconf.protocols.mdi_qd", "run_mdi_qd_modified", "protocols.run_mdi_qd_modified"),
    ("qconf.protocols.conference", "run_conference", "protocols.run_conference"),
    ("qconf.protocols.xor_compute", "run_xor", "protocols.run_xor"),
    ("qconf.protocols.common", "Transcript.add_event", "protocols.common.Transcript.add_event"),
    ("qconf.protocols.common", "Transcript.add_estimate", "protocols.common.Transcript.add_estimate"),
    ("qconf.protocols.common", "Transcript.to_dict", "protocols.common.Transcript.to_dict"),
    ("qconf.protocols.runner", "RunConfig.from_dict", "protocols.runner.RunConfig.from_dict"),
    ("qconf.protocols.runner", "trial_messages", "protocols.runner.trial_messages"),
    ("qconf.protocols.runner", "execute_trial", "protocols.runner.execute_trial"),
    ("qconf.stats", "run_experiment", "stats.run_experiment"),
    ("qconf.keysource", "establish_key", "keysource.establish_key"),
    ("qconf.rng", "derive_rng", "rng.derive_rng"),
]
TRIAL_SPAN = "protocols.runner.execute_trial"
EXTRACT_SPAN = "stats.extract"
JSON_DUMPS_SPAN = "cli.json_dumps"
WRITE_SPAN = "cli.write"
ROUND_SPAN = "round"
EXTRA_SPANS = (EXTRACT_SPAN, JSON_DUMPS_SPAN, WRITE_SPAN)

PROTOCOL_RUNS = [name for _, _, name in TARGETS if name.startswith("protocols.run_")]
TAPS = [name for _, _, name in TARGETS if name.endswith("Tap.apply")]
ABORT_STAGES = (
    "first_estimation",
    "second_estimation",
    "decoy_verification",
    "guess_comparison",
)
COUNTERS = (
    "qsim.joint_matrix_bytes_total",
    "qsim.joint_measurements",
    "qsim.amplitudes_built",
    "channels.qubits_sent",
    "adversary.tap_qubits",
    "protocols.runs",
    "protocols.aborted",
    "protocols.common.events",
    "cli.bytes_written",
) + tuple(f"protocols.aborts.{stage}" for stage in ABORT_STAGES)


# ---------------------------------------------------------------------------
# Computed counts, taken from each traced call's arguments and result
# ---------------------------------------------------------------------------


def _basis_bytes(basis) -> int:
    # The dense product reads the basis once to build its conjugate and then
    # reads that copy once: two passes over the matrix per measurement.
    matrix = getattr(basis, "matrix", None)
    return 2 * matrix.nbytes if matrix is not None else 0


def _count_outcome_distribution(counts, args, kwargs, result):
    counts["qsim.joint_matrix_bytes_total"] += _basis_bytes(args[1])
    counts["qsim.joint_measurements"] += 1


def _count_measure_embedded(counts, args, kwargs, result):
    state, targets, basis = args[:3]
    if state.num_qubits == basis.num_qubits and list(targets) == list(range(state.num_qubits)):
        return  # delegated to measure_joint, counted by outcome_distribution
    counts["qsim.joint_matrix_bytes_total"] += _basis_bytes(basis)
    counts["qsim.joint_measurements"] += 1


def _count_amplitudes(counts, args, kwargs, result):
    state = result[1] if isinstance(result, tuple) else result
    counts["qsim.amplitudes_built"] += int(state.amplitudes.size)


def _count_transmit(counts, args, kwargs, result):
    counts["channels.qubits_sent"] += len(args[1])


def _count_tap(counts, args, kwargs, result):
    counts["adversary.tap_qubits"] += len(args[1])


def _count_protocol_run(counts, args, kwargs, result):
    counts["protocols.runs"] += 1
    counts["protocols.common.events"] += len(result.events)
    if result.abort["aborted"]:
        counts["protocols.aborted"] += 1
        key = f"protocols.aborts.{result.abort['stage']}"
        counts[key] = counts.get(key, 0) + 1


def _count_write(counts, args, kwargs, result):
    counts["cli.bytes_written"] += len(args[1].encode("utf-8"))


COUNT_HOOKS = {
    "qsim.outcome_distribution": _count_outcome_distribution,
    "qsim.measure_embedded": _count_measure_embedded,
    "qsim.tensor": _count_amplitudes,
    "qsim.apply_1q_unitary": _count_amplitudes,
    "qsim.apply_cnot": _count_amplitudes,
    "qsim.measure_qubit": _count_amplitudes,
    "channels.QuantumChannel.transmit": _count_transmit,
    "cli.write": _count_write,
    **{name: _count_protocol_run for name in PROTOCOL_RUNS},
    **{name: _count_tap for name in TAPS},
}


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class Tracer:
    """Span recorder plus the table of bindings it swaps in and out."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._swaps: list[tuple[object, str, object, object]] = []
        self._stack: list[int] = []
        self._trial = -1
        self._next_trial = 0
        self._clear()
        self._plan()

    # -- span recording ----------------------------------------------------

    def _clear(self) -> None:
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_trial = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts = dict.fromkeys(COUNTERS, 0)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_trial.append(self._trial)
        self.span_end.append(0.0)
        self._stack.append(index)
        self.span_start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.span_end[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        hook = COUNT_HOOKS.get(name)
        is_trial = name == TRIAL_SPAN
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_trial:
                outer = tracer._trial
                tracer._trial = tracer._next_trial
                tracer._next_trial += 1
            index = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
                if is_trial:
                    tracer._trial = outer
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        return traced

    # -- binding table -----------------------------------------------------

    def _plan(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "qconf" and m]
        for module_name, qualname, name in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            if "." in qualname:
                self._plan_method(module, qualname, name)
            else:
                self._plan_function(modules, module, qualname, name)
        stats = sys.modules.get("qconf.stats")
        if stats is not None and hasattr(stats, "STATISTICS"):
            table = stats.STATISTICS
            for key, fn in table.items():
                self._swaps.append((table, key, fn, self._wrap(EXTRACT_SPAN, fn)))
        cli = sys.modules.get("qconf.cli")
        if cli is not None:
            self._plan_cli(cli)

    def _plan_function(self, modules, module, attr, name) -> None:
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapper = self._wrap(name, original)
        for holder in modules:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._swaps.append((holder, key, original, wrapper))

    def _plan_method(self, module, qualname, name) -> None:
        class_name, attr = qualname.split(".")
        cls = getattr(module, class_name, None)
        raw = vars(cls).get(attr) if cls is not None else None
        if raw is None:
            return
        if isinstance(raw, classmethod):
            wrapper = classmethod(self._wrap(name, raw.__func__))
        else:
            wrapper = self._wrap(name, raw)
        self._swaps.append((cls, attr, raw, wrapper))

    def _plan_cli(self, cli) -> None:
        """Trace ``json.dumps`` and ``Path.write_text`` as ``cli`` sees them."""
        if hasattr(cli, "json"):
            proxy = types.ModuleType("json")
            proxy.__dict__.update(vars(cli.json))
            proxy.dumps = self._wrap(JSON_DUMPS_SPAN, cli.json.dumps)
            self._swaps.append((cli, "json", cli.json, proxy))
        if hasattr(cli, "Path"):
            traced_write = self._wrap(WRITE_SPAN, Path.write_text)
            traced_path = type("Path", (type(Path()),), {"write_text": traced_write})
            self._swaps.append((cli, "Path", cli.Path, traced_path))

    @staticmethod
    def _set(holder, key, value) -> None:
        if isinstance(holder, dict):
            holder[key] = value
        else:
            setattr(holder, key, value)

    def install(self) -> None:
        for holder, key, _, wrapper in self._swaps:
            self._set(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original, _ in reversed(self._swaps):
            self._set(holder, key, original)

    # -- per-round results ---------------------------------------------------

    def end_round(self, pauses=(), scale: float = 1.0) -> dict:
        """Aggregate the spans of the round just traced, then clear them.

        ``pauses`` are (start, end) intervals of work that is not the
        program's (the reference slices), each removed from every span it
        falls in; a pause runs between two bytecodes, so it lies wholly inside
        or wholly outside any span.  ``scale`` then converts the remaining
        seconds to seconds at the reference speed.
        """
        count = len(self.span_start)
        names = np.frombuffer(self.span_name, dtype=np.int32)[:count].copy()
        parents = np.frombuffer(self.span_parent, dtype=np.int32)[:count].copy()
        starts = np.frombuffer(self.span_start, dtype=np.float64)[:count].copy()
        ends = np.frombuffer(self.span_end, dtype=np.float64)[:count].copy()
        trials = np.frombuffer(self.span_trial, dtype=np.int32)[:count].copy()
        durations = ends - starts
        if len(pauses):
            pause_ends = np.array([end for _, end in pauses])
            paused = np.concatenate(([0.0], np.cumsum([end - start for start, end in pauses])))
            durations -= (paused[np.searchsorted(pause_ends, ends, side="right")]
                          - paused[np.searchsorted(pause_ends, starts, side="right")])
        durations *= scale
        has_parent = parents >= 0
        child_time = np.bincount(
            parents[has_parent], weights=durations[has_parent], minlength=count
        )
        self_time = durations - child_time
        width = len(self.names)
        calls = np.bincount(names, minlength=width)
        self_by_name = np.bincount(names, weights=self_time, minlength=width)
        total_by_name = np.bincount(names, weights=durations, minlength=width)
        trial_id = self._name_ids.get(TRIAL_SPAN, -1)
        trial_ms = 1000.0 * durations[names == trial_id]
        result = {
            "calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
            "self_s": {n: float(self_by_name[i]) for i, n in enumerate(self.names)},
            "total_s": {n: float(total_by_name[i]) for i, n in enumerate(self.names)},
            "trial_ms": trial_ms.tolist(),
            "counts": dict(self.counts),
            "spans": {
                "name": names,
                "parent": parents,
                "trial": trials,
                "start": starts,
                "end": ends,
            },
        }
        self._clear()
        return result


def write_spans(path: Path, names: list[str], spans: dict) -> None:
    """Save one round's spans: arrays plus the name table as JSON."""
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, names=np.array(json.dumps(names)), **spans)
