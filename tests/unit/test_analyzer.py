"""TPUPoint-Analyzer orchestration, exports, checkpoint association."""

import importlib
import json

import numpy as np
import pytest

from repro.core.analyzer.analyzer import AnalyzerMemoryError, TPUPointAnalyzer
from repro.core.analyzer.cache import AnalysisCache
from repro.core.analyzer.checkpoints import associate_checkpoints, fast_forward_cost_us
from repro.core.analyzer.visualize import chrome_trace
from repro.errors import AnalyzerError


@pytest.fixture
def analyzer(tiny_run):
    _, _, records = tiny_run
    return TPUPointAnalyzer(records)


class TestOrchestration:
    def test_requires_records(self):
        with pytest.raises(AnalyzerError):
            TPUPointAnalyzer([])

    def test_steps_merged_in_order(self, analyzer):
        steps = analyzer.steps
        assert [s.step for s in steps] == sorted(s.step for s in steps)

    def test_ols_three_phase_structure(self, analyzer):
        result = analyzer.ols_phases(0.7)
        # init + training body + shutdown
        assert result.num_phases == 3
        assert result.coverage().top(3) == pytest.approx(1.0)

    def test_kmeans_with_explicit_k(self, analyzer):
        result = analyzer.kmeans_phases(k=3)
        assert result.num_phases == 3
        assert result.method == "kmeans"
        assert "inertia" in result.params

    def test_elbow_phases_reuse_the_sweep_fit(self, analyzer, monkeypatch):
        kmeans_mod = importlib.import_module("repro.core.analyzer.kmeans")
        fits = []
        real = kmeans_mod.kmeans

        def counting(matrix, k, *args, **kwargs):
            fits.append(k)
            return real(matrix, k, *args, **kwargs)

        monkeypatch.setattr(kmeans_mod, "kmeans", counting)
        result = analyzer.kmeans_phases()
        k = result.params["k"]
        # One fit per swept k; the chosen k is not fit a second time.
        assert sorted(fits) == sorted(set(fits))
        refit = real(analyzer.reduced_matrix(), k, seed=analyzer.seed)
        assert np.array_equal(result.labels, refit.labels)
        assert repr(result.params["inertia"]) == repr(refit.inertia)

    def test_cached_sweep_still_fits_the_chosen_k(self, tiny_run):
        _, _, records = tiny_run
        cache = AnalysisCache()
        cold = TPUPointAnalyzer(records, cache=cache)
        sweep = cold.kmeans_sweep()
        # A second analyzer finds only the inertia table, not labels.
        warm = TPUPointAnalyzer(records, cache=cache)
        result = warm.kmeans_phases()
        assert warm.kmeans_sweep() == sweep
        plain = TPUPointAnalyzer(records).kmeans_phases()
        assert np.array_equal(result.labels, plain.labels)
        assert result.params == plain.params

    def test_kmeans_elbow_choice_in_range(self, analyzer):
        k = analyzer.choose_k(range(1, 10))
        assert 1 <= k <= 9

    def test_dbscan_phases(self, analyzer):
        result = analyzer.dbscan_phases(min_samples=5)
        assert result.num_phases >= 1
        assert 0.0 <= result.params["noise_ratio"] <= 1.0

    def test_dispatch(self, analyzer):
        assert analyzer.analyze("ols").method == "ols"
        assert analyzer.analyze("kmeans", k=2).method == "kmeans"
        assert analyzer.analyze("dbscan", min_samples=5).method == "dbscan"
        with pytest.raises(AnalyzerError):
            analyzer.analyze("spectral")

    def test_labels_cover_all_steps(self, analyzer):
        result = analyzer.ols_phases()
        assert len(result.labels) == len(analyzer.steps)
        assert sum(p.num_steps for p in result.phases) == len(analyzer.steps)

    def test_memory_budget_blocks_clustering_not_ols(self, tiny_run):
        _, _, records = tiny_run
        tight = TPUPointAnalyzer(records, memory_budget_bytes=10.0)
        with pytest.raises(AnalyzerMemoryError):
            tight.kmeans_phases(k=2)
        with pytest.raises(AnalyzerMemoryError):
            tight.dbscan_phases()
        # OLS holds only two steps of state and never hits the budget.
        assert tight.ols_phases().num_phases >= 1

    def test_pca_dimension_cap(self, tiny_run):
        _, _, records = tiny_run
        analyzer = TPUPointAnalyzer(records, max_pca_dims=3)
        assert analyzer.reduced_matrix().shape[1] <= 3


class TestExports:
    def test_chrome_trace_structure(self, analyzer):
        result = analyzer.ols_phases()
        trace = chrome_trace(analyzer.records, result.phases)
        events = trace["traceEvents"]
        names = {e.get("name") for e in events}
        assert "thread_name" in names  # metadata rows
        phase_events = [e for e in events if str(e.get("name", "")).startswith("phase")]
        profile_events = [e for e in events if str(e.get("name", "")).startswith("profile")]
        assert len(phase_events) == result.num_phases
        assert len(profile_events) == len(analyzer.records)
        assert all(e["ph"] == "X" for e in phase_events)

    def test_export_writes_files(self, analyzer, tmp_path):
        result = analyzer.ols_phases()
        paths = analyzer.export(tmp_path, result)
        trace = json.loads((tmp_path / "ols_trace.json").read_text())
        assert "traceEvents" in trace
        phases_csv = (tmp_path / "ols_phases.csv").read_text().splitlines()
        assert phases_csv[0].startswith("phase_id,")
        assert len(phases_csv) == 1 + result.num_phases
        operators_csv = (tmp_path / "ols_operators.csv").read_text().splitlines()
        assert len(operators_csv) > result.num_phases
        assert set(paths) == {"trace", "phases", "operators"}


class TestCheckpointAssociation:
    def test_every_phase_gets_a_checkpoint(self, tiny_run):
        estimator, _, records = tiny_run
        analyzer = TPUPointAnalyzer(records)
        result = analyzer.ols_phases()
        associations = associate_checkpoints(
            result.phases, estimator.checkpoint_store, analyzer.steps
        )
        assert set(associations) == {p.phase_id for p in result.phases}

    def test_training_phase_checkpoint_is_exact(self, tiny_run):
        estimator, _, records = tiny_run
        analyzer = TPUPointAnalyzer(records)
        result = analyzer.ols_phases()
        body = max(result.phases, key=lambda p: p.num_steps)
        association = associate_checkpoints(
            result.phases, estimator.checkpoint_store, analyzer.steps
        )[body.phase_id]
        # A checkpoint lands inside the training body (saved at step 15/30/40).
        assert association.exact

    def test_fast_forward_cost(self, tiny_run):
        estimator, _, records = tiny_run
        analyzer = TPUPointAnalyzer(records)
        result = analyzer.ols_phases()
        associations = associate_checkpoints(
            result.phases, estimator.checkpoint_store, analyzer.steps
        )
        any_assoc = next(iter(associations.values()))
        assert fast_forward_cost_us(any_assoc, estimator.checkpoint_store) > 0.0
