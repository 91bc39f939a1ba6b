"""Scalar/vectorized equivalence properties.

The batch epoch engine (``MetricMatrix`` + the batch paths through the
repository and warning system) must be a pure optimisation: for any
counter input, it has to produce results *element-wise identical* to the
scalar per-VM reference path.  These properties are what lets the batch
engine be DeepDive's only epoch path (the per-VM loop lives on as
``scalar_reference.reference_decisions``) — and what the fleet
benchmark's speedup claim rests on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DeepDiveConfig
from repro.core.repository import BehaviorRepository
from repro.core.warning import WarningSystem
from repro.metrics.counters import CounterSample
from repro.metrics.matrix import MetricMatrix
from repro.metrics.normalization import (
    aggregate_samples,
    normalize_counter_matrix,
    samples_to_counter_matrix,
    windows_to_counter_matrix,
)
from repro.metrics.sample import WARNING_METRICS, MetricVector

counter_strategy = st.builds(
    CounterSample,
    cpu_unhalted=st.floats(min_value=0.0, max_value=1e12),
    # Any real monitoring epoch retires many instructions; the per-kilo-
    # instruction normalisation is only meaningful above that floor.
    inst_retired=st.floats(min_value=1e4, max_value=1e12),
    l1d_repl=st.floats(min_value=0.0, max_value=1e10),
    l2_ifetch=st.floats(min_value=0.0, max_value=1e9),
    l2_lines_in=st.floats(min_value=0.0, max_value=1e10),
    mem_load=st.floats(min_value=0.0, max_value=1e11),
    resource_stalls=st.floats(min_value=0.0, max_value=1e12),
    bus_tran_any=st.floats(min_value=0.0, max_value=1e10),
    bus_trans_ifetch=st.floats(min_value=0.0, max_value=1e9),
    bus_tran_brd=st.floats(min_value=0.0, max_value=1e10),
    bus_req_out=st.floats(min_value=0.0, max_value=1e12),
    br_miss_pred=st.floats(min_value=0.0, max_value=1e9),
    disk_stall_cycles=st.floats(min_value=0.0, max_value=1e12),
    net_stall_cycles=st.floats(min_value=0.0, max_value=1e12),
)


# ----------------------------------------------------------------------
# Normalisation equivalence
# ----------------------------------------------------------------------
class TestNormalizationEquivalence:
    @given(samples=st.lists(counter_strategy, min_size=1, max_size=8))
    def test_batch_normalization_matches_scalar_bitwise(self, samples):
        """Each batch-normalised row equals the scalar MetricVector exactly."""
        raw = samples_to_counter_matrix(samples)
        batch = normalize_counter_matrix(raw)
        for i, sample in enumerate(samples):
            scalar = MetricVector.from_sample(sample).as_array()
            assert np.array_equal(batch[i], scalar), (
                f"row {i} differs: {batch[i]} vs {scalar}"
            )

    @given(
        windows=st.lists(
            st.lists(counter_strategy, min_size=1, max_size=5),
            min_size=1,
            max_size=5,
        )
    )
    def test_batch_window_aggregation_matches_scalar_bitwise(self, windows):
        """Window summation matches the aggregate_samples left fold exactly."""
        batch_raw = windows_to_counter_matrix(windows)
        batch = normalize_counter_matrix(batch_raw)
        for i, window in enumerate(windows):
            merged = aggregate_samples(window)
            scalar = MetricVector.from_sample(merged).as_array()
            assert np.array_equal(batch[i], scalar)

    @given(samples=st.lists(counter_strategy, min_size=1, max_size=6))
    def test_metric_matrix_round_trip(self, samples):
        """from_samples -> to_vectors reproduces the scalar vectors."""
        named = {f"vm{i}": s for i, s in enumerate(samples)}
        matrix = MetricMatrix.from_samples(named, labels="app")
        assert matrix.n_dimensions == len(WARNING_METRICS)
        vectors = matrix.to_vectors()
        for name, sample in named.items():
            assert vectors[name].values == MetricVector.from_sample(
                sample, label="app"
            ).values
            assert vectors[name].label == "app"
            assert np.array_equal(matrix.row(name), vectors[name].as_array())


# ----------------------------------------------------------------------
# Warning-system equivalence
# ----------------------------------------------------------------------
def _seeded_vector(rng, base_scale=1.0) -> MetricVector:
    values = {
        name: float(v)
        for name, v in zip(
            WARNING_METRICS,
            np.abs(rng.normal(1.0, 0.1, len(WARNING_METRICS))) * base_scale,
        )
    }
    return MetricVector(values=values, label="app")


@pytest.fixture(scope="module")
def fitted_warning_system() -> WarningSystem:
    """A warning system with a fitted model and interference signatures."""
    repository = BehaviorRepository(min_normal_behaviors=8, seed=3)
    rng = np.random.default_rng(42)
    # Two behaviour clusters (e.g. two load plateaus) ...
    for scale in (1.0, 3.0):
        for _ in range(20):
            repository.add_normal("app", _seeded_vector(rng, scale), refit=False)
    repository.fit("app")
    # ... and two diagnosed interference signatures.
    repository.add_interference("app", _seeded_vector(rng, 8.0))
    repository.add_interference("app", _seeded_vector(rng, 0.2))
    return WarningSystem(repository, DeepDiveConfig())


class TestWarningEquivalence:
    @given(samples=st.lists(counter_strategy, min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_evaluate_batch_matches_scalar(self, fitted_warning_system, samples):
        """Batch decisions equal scalar decisions field for field.

        The sibling pool is the same epoch's latest vectors (the
        smoothing window is one epoch), exactly as DeepDive wires it.
        """
        ws = fitted_warning_system
        named = {f"vm{i}": s for i, s in enumerate(samples)}
        matrix = MetricMatrix.from_samples(named, labels="app")
        vectors = matrix.to_vectors()

        batch = ws.evaluate_batch("app", matrix, sibling_pool=matrix)
        for vm_name in named:
            siblings = {n: v for n, v in vectors.items() if n != vm_name}
            scalar = ws.evaluate(
                vm_name=vm_name,
                app_id="app",
                vector=vectors[vm_name],
                sibling_vectors=siblings,
            )
            assert batch[vm_name] == scalar, (
                f"{vm_name}: batch={batch[vm_name]} scalar={scalar}"
            )

    @given(samples=st.lists(counter_strategy, min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_evaluate_batch_matches_scalar_conservative(
        self, fitted_warning_system, samples
    ):
        """Without a model both engines report conservative ANALYZE."""
        ws = fitted_warning_system
        named = {f"vm{i}": s for i, s in enumerate(samples)}
        matrix = MetricMatrix.from_samples(named, labels="unknown-app")
        vectors = matrix.to_vectors()
        batch = ws.evaluate_batch("unknown-app", matrix, sibling_pool=matrix)
        for vm_name in named:
            siblings = {n: v for n, v in vectors.items() if n != vm_name}
            scalar = ws.evaluate(
                vm_name=vm_name,
                app_id="unknown-app",
                vector=vectors[vm_name],
                sibling_vectors=siblings,
            )
            assert batch[vm_name] == scalar

    @given(samples=st.lists(counter_strategy, min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_repository_batch_distances_match_scalar(
        self, fitted_warning_system, samples
    ):
        """Batch Mahalanobis / interference distances equal scalar ones."""
        repository = fitted_warning_system.repository
        named = {f"vm{i}": s for i, s in enumerate(samples)}
        matrix = MetricMatrix.from_samples(named, labels="app")
        vectors = matrix.to_vectors()
        distances = repository.distance_batch("app", matrix.array)
        interference = repository.interference_distance_batch("app", matrix.array)
        for i, vm_name in enumerate(matrix.vm_names):
            assert distances[i] == repository.distance("app", vectors[vm_name])
            assert interference[i] == repository.interference_distance(
                "app", vectors[vm_name]
            )
