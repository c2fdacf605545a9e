"""Timing shims around the public entry points of each layer of repro.

The traced run installs one shim per entry point in ``SHIMS``. A shim
keeps a span (name, start, end, parent, operation id) and adds its self
time, its duration minus the time its child shims cover, to its layer.
Count hooks record the work a call did. Nothing under ``src/`` changes:
the shim replaces the entry point where callers look it up, which for a
module-level function means every ``repro`` module that bound it with
``from x import f``.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable


def _count_steps_from_summary(work, args, result, before):
    work["runtime.steps"] += result.steps_executed


def _count_steps(work, args, result, before):
    work["runtime.steps"] += result


def _count_window(work, args, result, before):
    work["runtime.rpc.windows"] += 1
    work["runtime.rpc.nonempty_windows"] += bool(result.events)


def _count_ops(work, args, result, before):
    work["tpu.ops"] += len(result.executions)


def _journal_bytes_before(args):
    return args[0].bytes_written


def _count_journal_bytes(work, args, result, before):
    work["profiler.journal.append.bytes"] += args[0].bytes_written - before


def _count_encoded(work, args, result, before):
    work["profiler.codec.encode.bytes"] += len(result)


def _count_decoded(work, args, result, before):
    work["profiler.codec.decode.bytes"] += len(args[0])


def _count_call(name):
    def count(work, args, result, before):
        work[name] += 1

    return count


def _count_acks(work, args, result, before):
    work["serve.submit.calls"] += 1
    for ack in result:
        work["serve.submit.records"] += 1
        work["serve.submit.accepted"] += ack.accepted
        work.max("serve.queue.depth_max", ack.depth)


def _count_ack(work, args, result, before):
    _count_acks(work, args, [result], before)


def _depth_before(args):
    return args[0].depth


def _count_drain(work, args, result, before):
    work["serve.pump.queue_visits"] += 1
    work.max("serve.queue.depth_max", before)


def _count_trials(work, args, result, before):
    work["optimizer.trials"] += len(result)
    work["optimizer.trial_steps"] += sum(trial.steps for trial in result)


@dataclass(frozen=True)
class Shim:
    """One entry point: ``name`` is ``function`` or ``Class.attribute``.

    ``before`` reads state a count hook compares against after the call.
    A shim with ``span=False`` is called once per simulated step, window
    or distance block: it adds to its layer's self time like any other,
    but keeps no span, so the trace stays small. An untimed shim only
    counts; it is for generator functions, whose call returns before
    their work is done.
    """

    layer: str
    module: str
    name: str
    count: Callable | None = None
    before: Callable | None = None
    span: bool = True
    timed: bool = True

    @property
    def key(self) -> str:
        return f"{self.module}.{self.name}"


_ESTIMATOR = "repro.runtime.estimator"
_CODEC = "repro.core.profiler.codec"
_ANALYZER = "repro.core.analyzer.analyzer"
_DISTANCE = "repro.core.analyzer.distance"
_SERVICE = "repro.serve.service"
_AUTOTUNE = "repro.core.optimizer.autotune"

SHIMS = (
    Shim("runtime.train", _ESTIMATOR, "TPUEstimator.train", _count_steps_from_summary),
    Shim("runtime.train", _ESTIMATOR, "TPUEstimator.train_steps", _count_steps),
    Shim("runtime.worker", "repro.runtime.worker", "TpuWorker.execute_step", span=False),
    Shim("runtime.worker", "repro.runtime.worker", "HostWorker.emit_batch_production", span=False),
    Shim("runtime.worker", "repro.runtime.worker", "HostWorker.emit_op", span=False),
    Shim(
        "runtime.events.steps_between", "repro.runtime.events", "EventLog.steps_between",
        _count_call("runtime.events.steps_between.calls"), span=False,
    ),
    Shim(
        "runtime.rpc.serve", "repro.runtime.rpc", "ProfileService.serve", _count_window,
        span=False,
    ),
    Shim("tpu.device", "repro.tpu.device", "TpuDevice.execute_step", _count_ops, span=False),
    Shim("graph.compile", _ESTIMATOR, "TPUEstimator.compile"),
    Shim(
        "profiler.record", "repro.core.profiler.record", "ProfileRecord.from_response",
        _count_call("profiler.records"), span=False,
    ),
    Shim(
        "profiler.journal.append", "repro.core.profiler.journal", "RecordJournal.append",
        _count_journal_bytes, _journal_bytes_before, span=False,
    ),
    Shim("profiler.journal.recover", "repro.core.profiler.journal", "recover_journal"),
    Shim("profiler.codec.encode", _CODEC, "encode_block", _count_encoded, span=False),
    Shim("profiler.codec.encode", _CODEC, "encode_frame", span=False),
    Shim("profiler.codec.decode", _CODEC, "decode_payload", _count_decoded, span=False),
    Shim("profiler.codec.decode", _CODEC, "decode_frame", span=False),
    Shim("analyzer.load", "repro.core.profiler.serialize", "load_records"),
    Shim("analyzer.features", _ANALYZER, "TPUPointAnalyzer.features"),
    Shim("analyzer.pca", _ANALYZER, "TPUPointAnalyzer.reduced_matrix"),
    Shim("analyzer.kmeans", _ANALYZER, "TPUPointAnalyzer.kmeans_sweep"),
    Shim("analyzer.kmeans", _ANALYZER, "TPUPointAnalyzer.kmeans_phases"),
    Shim(
        "analyzer.kmeans", "repro.core.analyzer.kmeans", "kmeans",
        _count_call("analyzer.kmeans.fits"),
    ),
    Shim(
        "analyzer.distance", _DISTANCE, "pairwise_sq_distances",
        _count_call("analyzer.distance.calls"),
    ),
    Shim(
        "analyzer.distance", _DISTANCE, "_sq_block", _count_call("analyzer.distance.blocks"),
        span=False,
    ),
    Shim("analyzer.dbscan", _ANALYZER, "TPUPointAnalyzer.dbscan_sweep"),
    Shim("analyzer.dbscan", _ANALYZER, "TPUPointAnalyzer.dbscan_phases"),
    Shim("analyzer.ols", _ANALYZER, "TPUPointAnalyzer.ols_phases"),
    Shim(
        "analyzer.streaming", "repro.core.analyzer.streaming", "StreamingAnalyzer.fold_step",
        span=False,
    ),
    Shim("analyzer.streaming", "repro.core.analyzer.streaming", "StreamingAnalyzer.analyze"),
    Shim("serve.submit", _SERVICE, "FleetService.submit", _count_ack),
    Shim("serve.submit", _SERVICE, "FleetService.submit_many", _count_acks),
    Shim("serve.pump", _SERVICE, "FleetService.pump", _count_call("serve.pump.calls")),
    Shim(
        "serve.pump", "repro.serve.ingest", "IngestQueue.drain",
        _count_drain, _depth_before, timed=False,
    ),
    Shim("serve.live.ingest", "repro.serve.live", "LiveJobAnalysis.ingest"),
    Shim("serve.query", _SERVICE, "FleetService.phase_analysis"),
    Shim("optimizer.detect", _AUTOTUNE, "detect_phase_signature"),
    Shim("optimizer.trial", _AUTOTUNE, "EstimatorTrialEvaluator.evaluate", _count_trials),
    Shim("optimizer.surrogate", "repro.core.optimizer.surrogate", "SurrogateModel.rank"),
    Shim("optimizer.surrogate", "repro.core.optimizer.surrogate", "SurrogateModel.refit"),
)

# The shims each path must fire on every one of its operations. A shim
# that saw no call means an entry point was renamed or is now reached
# another way, and its layer would silently read zero.
_PROFILE = (
    "TPUEstimator.train", "TpuWorker.execute_step", "HostWorker.emit_batch_production",
    "HostWorker.emit_op", "EventLog.steps_between", "ProfileService.serve",
    "TpuDevice.execute_step", "TPUEstimator.compile", "ProfileRecord.from_response",
    "RecordJournal.append", "recover_journal", "encode_block", "decode_payload",
    "TPUPointAnalyzer.ols_phases",
)
_ANALYZE = (
    "load_records", "decode_payload", "TPUPointAnalyzer.features",
    "TPUPointAnalyzer.reduced_matrix", "TPUPointAnalyzer.kmeans_sweep",
    "TPUPointAnalyzer.kmeans_phases", "kmeans", "pairwise_sq_distances", "_sq_block",
    "TPUPointAnalyzer.dbscan_sweep", "TPUPointAnalyzer.dbscan_phases",
    "TPUPointAnalyzer.ols_phases",
)
_FLEET = (
    "TPUEstimator.train_steps", "TpuDevice.execute_step", "TPUEstimator.compile",
    "ProfileRecord.from_response", "encode_frame", "decode_frame", "FleetService.submit",
    "FleetService.pump", "IngestQueue.drain", "LiveJobAnalysis.ingest",
    "StreamingAnalyzer.fold_step", "StreamingAnalyzer.analyze",
    "FleetService.phase_analysis", "kmeans",
)
_TUNE = (
    "TPUEstimator.train_steps", "TpuDevice.execute_step", "TPUEstimator.compile",
    "detect_phase_signature", "EstimatorTrialEvaluator.evaluate", "SurrogateModel.rank",
    "SurrogateModel.refit",
)
EXPECTED = {"profile": _PROFILE, "analyze": _ANALYZE, "fleet": _FLEET, "tune": _TUNE}


class ShimError(RuntimeError):
    """An entry point named in SHIMS is missing from repro."""


class Work(Counter):
    """Per-layer work counts; ``max`` keeps a high-water mark instead."""

    def max(self, name: str, value: int) -> None:
        if value > self[name]:
            self[name] = value


@dataclass
class Tracer:
    """Spans and per-layer self time of the operations run while installed."""

    busy: Counter = field(default_factory=Counter)
    work: Work = field(default_factory=Work)
    calls: Counter = field(default_factory=Counter)
    spans: list = field(default_factory=list)
    keep_spans: bool = True
    root_s: float = 0.0
    op_id: int = 0
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    # --- recording -----------------------------------------------------------

    def call(self, shim: Shim, function, args, kwargs):
        self.calls[shim.name] += 1
        before = shim.before(args) if shim.before is not None else None
        if not shim.timed:
            result = function(*args, **kwargs)
        else:
            # frame: [time covered by child shims, span id, nearest kept span id]
            parent = self._stack[-1][2] if self._stack else None
            span_id = None
            if shim.span and self.keep_spans:
                span_id = len(self.spans)
                self.spans.append(None)
            frame = [0.0, span_id, parent if span_id is None else span_id]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                self.busy[shim.layer] += duration - frame[0]
                if self._stack:
                    self._stack[-1][0] += duration
                else:
                    self.root_s += duration
                if span_id is not None:
                    self.spans[span_id] = (
                        span_id, parent, self.op_id, shim.layer, shim.name, start, end
                    )
        if shim.count is not None:
            shim.count(self.work, args, result, before)
        return result

    def chrome_trace(self) -> dict:
        """The kept spans in chrome://tracing form (microseconds)."""
        spans = [span for span in self.spans if span is not None]
        origin = min((span[5] for span in spans), default=0.0)
        events = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"span": span_id, "parent": parent, "op": op_id},
            }
            for span_id, parent, op_id, layer, name, start, end in spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    # --- installing ----------------------------------------------------------

    def install(self) -> None:
        for shim in SHIMS:
            module = importlib.import_module(shim.module)
            owner_name, _, attribute = shim.name.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            if attribute not in vars(owner):
                raise ShimError(f"{shim.key} does not exist; update perfbench/shims.py")
            original = vars(owner)[attribute]
            replacement = self._wrap(shim, original)
            if owner is module:
                # Rebind every name, aliases included, that a repro module
                # bound to the function with ``from x import f``.
                for other in list(sys.modules.values()):
                    if not getattr(other, "__name__", "").startswith("repro"):
                        continue
                    for alias, value in list(vars(other).items()):
                        if value is original:
                            self._patch(other, alias, original, replacement)
            else:
                self._patch(owner, attribute, original, replacement)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def _patch(self, owner, attribute, original, replacement) -> None:
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def _wrap(self, shim: Shim, original):
        tracer = self

        def wrap(function):
            def shimmed(*args, **kwargs):
                return tracer.call(shim, function, args, kwargs)

            shimmed.__name__ = getattr(function, "__name__", shim.name)
            shimmed.__doc__ = getattr(function, "__doc__", None)
            return shimmed

        if isinstance(original, property):
            return property(wrap(original.fget), original.fset, original.fdel, original.__doc__)
        if isinstance(original, classmethod):
            return classmethod(wrap(original.__func__))
        if isinstance(original, staticmethod):
            return staticmethod(wrap(original.__func__))
        return wrap(original)
