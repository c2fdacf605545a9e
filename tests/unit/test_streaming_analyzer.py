"""Streaming phase analysis: online PCA + mini-batch k-means + serve wiring."""

import numpy as np
import pytest

from repro.core.analyzer import TPUPointAnalyzer
from repro.core.analyzer.streaming import (
    MiniBatchKMeans,
    StreamingAnalyzer,
    StreamingConfig,
)
from repro.core.profiler.record import ProfileRecord, StepStats
from repro.core.profiler.serialize import record_checksum
from repro.errors import AnalyzerError
from repro.faults import FaultPlan, RecordTransit
from repro.runtime.events import DeviceKind, StepKind
from repro.serve import (
    FleetService,
    FleetServiceOptions,
    LiveJobAnalysis,
    ShardedFleet,
    ShardedFleetOptions,
)


def _step(number, ops, duration_us=100.0, idle_us=20.0, mxu_flops=1e6):
    step = StepStats(step=number)
    for name in ops:
        step.observe(name, DeviceKind.TPU, 10.0)
    step.kind = StepKind.TRAIN
    step.start_us = number * duration_us
    step.end_us = (number + 1) * duration_us
    step.tpu_idle_us = idle_us
    step.mxu_flops = mxu_flops
    return step


def _record(index, steps):
    record = ProfileRecord(index=index, window_start_us=0.0, window_end_us=1.0)
    for step in steps:
        record.steps[step.step] = step
    return record


_PHASE_OPS = (
    ["matmul", "fusion", "relu"],
    ["conv", "pool", "softmax"],
    ["save", "embed", "gather"],
)


def _phased_records(block=8, phases=3, steps_per_record=4, scale=1):
    """Phase-contiguous stream: ``phases`` blocks of ``block * scale`` steps."""
    steps = []
    number = 0
    for phase in range(phases):
        for _ in range(block * scale):
            steps.append(_step(number, _PHASE_OPS[phase % len(_PHASE_OPS)]))
            number += 1
    return [
        _record(i, steps[i * steps_per_record : (i + 1) * steps_per_record])
        for i in range((len(steps) + steps_per_record - 1) // steps_per_record)
    ]


def _fold_all(analyzer, records):
    for record in records:
        analyzer.fold_record(record)
    analyzer.finish()
    return analyzer


def _same_partition(left, right):
    """Label sequences equal up to a renaming of the label alphabet."""
    mapping = {}
    for a, b in zip(left.tolist(), right.tolist()):
        if mapping.setdefault(a, b) != b:
            return False
    return len(set(mapping.values())) == len(mapping)


class TestStreamingConfig:
    def test_validation(self):
        with pytest.raises(AnalyzerError):
            StreamingConfig(mode="batch")
        with pytest.raises(AnalyzerError):
            StreamingConfig(max_pca_dims=0)
        with pytest.raises(AnalyzerError):
            StreamingConfig(k=0)
        with pytest.raises(AnalyzerError):
            StreamingConfig(minibatch_clusters=-1)

    def test_empty_analyzer_refuses_analysis(self):
        with pytest.raises(AnalyzerError):
            StreamingAnalyzer().analyze()


class TestMiniBatchKMeans:
    def test_deterministic_across_replays(self):
        rows = np.arange(24, dtype=float).reshape(8, 3) % 5
        first, second = MiniBatchKMeans(k=3), MiniBatchKMeans(k=3)
        for clusterer in (first, second):
            clusterer.fold(rows[:4])
            clusterer.fold(rows[4:])
        assert np.array_equal(first.assign(rows), second.assign(rows))
        assert first.num_centers == second.num_centers

    def test_centers_pad_as_vocabulary_grows(self):
        clusterer = MiniBatchKMeans(k=4)
        clusterer.fold(np.ones((2, 2)))
        clusterer.fold(np.ones((2, 5)))  # vocabulary grew mid-stream
        labels = clusterer.assign(np.ones((3, 5)))
        assert labels.shape == (3,)
        assert clusterer.state_bytes() > 0

    def test_invalid_k_rejected(self):
        with pytest.raises(AnalyzerError):
            MiniBatchKMeans(k=0)


class TestExactEquivalence:
    def test_labels_bit_identical_to_batch(self):
        records = _phased_records()
        batch = TPUPointAnalyzer(records).kmeans_phases()
        streaming = _fold_all(StreamingAnalyzer(), records).analyze()
        assert np.array_equal(streaming.labels, batch.labels)
        assert streaming.params["k"] == batch.params["k"]
        assert streaming.method == "kmeans-streaming-exact"

    def test_elbow_choice_reuses_the_sweep_fit(self, monkeypatch):
        from repro.core.analyzer import streaming

        records = _phased_records()
        batch = TPUPointAnalyzer(records).kmeans_phases()
        fits = []
        real = streaming.batch_kmeans

        def counting(matrix, k, *args, **kwargs):
            fits.append(k)
            return real(matrix, k, *args, **kwargs)

        monkeypatch.setattr(streaming, "batch_kmeans", counting)
        result = _fold_all(StreamingAnalyzer(), records).analyze()
        assert sorted(fits) == sorted(set(fits))  # no refit of the chosen k
        assert np.array_equal(result.labels, batch.labels)
        assert repr(result.params["inertia"]) == repr(batch.params["inertia"])

    def test_explicit_k_matches_batch(self):
        records = _phased_records()
        batch = TPUPointAnalyzer(records).kmeans_phases(k=2)
        streaming = _fold_all(
            StreamingAnalyzer(StreamingConfig(k=2)), records
        ).analyze()
        assert np.array_equal(streaming.labels, batch.labels)

    def test_analysis_is_non_destructive(self):
        records = _phased_records()
        analyzer = _fold_all(StreamingAnalyzer(), records)
        first = analyzer.analyze()
        second = analyzer.analyze()
        assert np.array_equal(first.labels, second.labels)
        # folding can continue after an analysis
        analyzer.fold_record(_record(len(records), [_step(999, _PHASE_OPS[0])]))
        analyzer.finish()
        assert analyzer.analyze().labels.shape[0] == first.labels.shape[0] + 1

    def test_phases_and_boundaries_tile_the_stream(self):
        records = _phased_records()
        analysis = _fold_all(StreamingAnalyzer(), records).analyze()
        total = analysis.labels.shape[0]
        assert sum(phase.num_steps for phase in analysis.phases) == total
        assert analysis.boundaries[0].start_position == 0
        assert analysis.boundaries[-1].end_position == total - 1
        position = 0
        for boundary in analysis.boundaries:
            assert boundary.start_position == position
            labels = analysis.labels[
                boundary.start_position : boundary.end_position + 1
            ]
            assert set(labels.tolist()) == {boundary.phase_id}
            position = boundary.end_position + 1
        # phase tables carry the operator attribution
        top = analysis.phases[0].top_operators(3, DeviceKind.TPU)
        assert top and all(stats.device is DeviceKind.TPU for stats in top)


class TestSketchMode:
    def test_deterministic(self):
        records = _phased_records()
        config = StreamingConfig(mode="sketch")
        first = _fold_all(StreamingAnalyzer(config), records).analyze()
        second = _fold_all(StreamingAnalyzer(config), records).analyze()
        assert np.array_equal(first.labels, second.labels)
        assert first.params == second.params

    def test_explicit_k_partition_matches_batch(self):
        records = _phased_records()
        batch = TPUPointAnalyzer(records).kmeans_phases(k=3)
        sketch = _fold_all(
            StreamingAnalyzer(StreamingConfig(mode="sketch", k=3)), records
        ).analyze()
        assert _same_partition(sketch.labels, batch.labels)
        assert sketch.method == "kmeans-streaming-sketch"


class TestStateFlatness:
    def test_state_is_flat_across_run_lengths(self):
        """4x the steps of the same phases => identical retained state."""
        small = _fold_all(StreamingAnalyzer(), _phased_records(scale=1))
        large = _fold_all(StreamingAnalyzer(), _phased_records(scale=4))
        assert large.steps_folded == 4 * small.steps_folded
        assert large.num_signatures == small.num_signatures
        assert large.num_runs == small.num_runs
        # The signature table, moments, and runs are byte-identical; only
        # the (k-bounded) mini-batch centroid set may differ, so the
        # total stays far below linear growth.
        assert large.state_bytes() < 1.5 * small.state_bytes()

    def test_provisional_labels_cover_every_step(self):
        analyzer = _fold_all(StreamingAnalyzer(), _phased_records())
        labels = analyzer.provisional_labels()
        assert labels.shape[0] == analyzer.steps_folded


class TestServeWiring:
    def test_live_job_answers_full_phase_analysis(self):
        live = LiveJobAnalysis()
        records = _phased_records()
        for record in records:
            live.ingest(record)
        live.finish()
        analysis = live.phase_analysis()
        batch = TPUPointAnalyzer(records).kmeans_phases()
        assert np.array_equal(analysis.labels, batch.labels)
        assert analysis.num_phases == batch.num_phases

    def test_service_phase_analysis_query(self):
        service = FleetService()
        service.register("bert-mrpc", job_id="t0")
        records = _phased_records()
        for record in records:
            service.submit("t0", record, checksum=record_checksum(record))
        service.pump()
        service.complete("t0")
        analysis = service.phase_analysis("t0")
        assert np.array_equal(
            analysis.labels, TPUPointAnalyzer(records).kmeans_phases().labels
        )

    def test_binary_sink_round_trips_records(self):
        service = FleetService()
        service.register("bert-mrpc", job_id="t0")
        sink = service.sink("t0")
        records = _phased_records()
        for record in records:
            sink(record)
        service.pump()
        service.complete("t0")
        assert service.metrics.records_quarantined == 0
        assert service.analysis("t0").steps_seen == sum(
            len(record.steps) for record in records
        )

    def test_binary_wire_corruption_is_quarantined(self):
        plan = FaultPlan.from_dict({"faults": [{"kind": "corrupt", "nth": [2]}]})
        service = FleetService()
        service.register("bert-mrpc", job_id="t0")
        sink = service.sink("t0", transit=RecordTransit(plan))
        records = _phased_records()
        for record in records:
            sink(record)
        service.pump()
        quarantined = service.quarantined("t0")
        assert len(quarantined) == 1
        assert quarantined[0].reason.startswith("binary frame refused")
        assert quarantined[0].record.index == records[1].index

    def test_binary_wire_truncation_is_quarantined(self):
        plan = FaultPlan.from_dict(
            {"faults": [{"kind": "truncate", "target": "ingest", "nth": [1]}]}
        )
        service = FleetService()
        service.register("bert-mrpc", job_id="t0")
        sink = service.sink("t0", transit=RecordTransit(plan))
        for record in _phased_records():
            sink(record)
        service.pump()
        assert service.metrics.records_quarantined == 1

    def test_json_wire_format_still_available(self):
        service = FleetService(options=FleetServiceOptions(wire_format="json"))
        service.register("bert-mrpc", job_id="t0")
        sink = service.sink("t0")
        records = _phased_records()
        for record in records:
            sink(record)
        service.pump()
        service.complete("t0")
        assert service.metrics.records_quarantined == 0
        assert np.array_equal(
            service.phase_analysis("t0").labels,
            TPUPointAnalyzer(records).kmeans_phases().labels,
        )

    def test_sharded_phase_analysis_matches_single_service(self):
        records = _phased_records()
        single = FleetService()
        single.register("bert-mrpc", job_id="t0")
        fleet = ShardedFleet(ShardedFleetOptions(shards=3))
        fleet.register("bert-mrpc", job_id="t0")
        for record in records:
            single.submit("t0", record, checksum=record_checksum(record))
            fleet.submit("t0", record, checksum=record_checksum(record))
        single.pump()
        fleet.pump()
        assert np.array_equal(
            fleet.phase_analysis("t0").labels, single.phase_analysis("t0").labels
        )
        fleet.close()

    def test_resize_replays_binary_frame_refusals(self):
        plan = FaultPlan.from_dict({"faults": [{"kind": "corrupt", "nth": [2]}]})
        fleet = ShardedFleet(ShardedFleetOptions(shards=2))
        fleet.register("bert-mrpc", job_id="t0")
        sink = fleet.sink("t0", transit=RecordTransit(plan))
        records = _phased_records()
        for record in records:
            sink(record)
        fleet.pump()
        assert fleet.metrics.records_quarantined == 1
        before = fleet.job_snapshot("t0")
        labels = fleet.phase_analysis("t0").labels
        fleet.resize(4)
        assert fleet.metrics.records_quarantined == 1
        assert fleet.job_snapshot("t0") == before
        assert np.array_equal(fleet.phase_analysis("t0").labels, labels)
        fleet.close()
