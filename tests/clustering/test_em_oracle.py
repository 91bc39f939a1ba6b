"""The EM fitter is bit-identical to its per-component, two-evaluation oracle.

``GaussianMixtureEM`` evaluates the mixture's log-density once per
iteration, all components in one broadcast.  The oracle below is the
earlier formulation kept verbatim: one component at a time, the
log-density of the new parameters evaluated twice per iteration (once
for the log-likelihood, again for the next responsibilities) and a
third time for the BIC.  Every fitted number must match bit for bit.
"""

from typing import Optional, Tuple

import numpy as np
import pytest

from repro.clustering.constraints import (
    CannotLinkConstraints,
    ConstrainedGaussianMixtureEM,
)
from repro.clustering.em import GaussianMixtureEM, GaussianMixtureModel
from repro.core.repository import BehaviorRepository
from repro.metrics.sample import WARNING_METRICS, MetricVector


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
def _oracle_logsumexp(a: np.ndarray, axis: int, keepdims: bool = False) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))
    if not keepdims:
        out = np.squeeze(out, axis=axis)
    return out


class _OracleModel(GaussianMixtureModel):
    """A fitted mixture whose scoring runs one component at a time."""

    def log_prob_per_component(self, data: np.ndarray) -> np.ndarray:
        data = np.atleast_2d(np.asarray(data, dtype=float))
        n, d = data.shape
        k = self.n_components
        out = np.empty((n, k))
        for j in range(k):
            var = self.variances[j]
            diff = data - self.means[j]
            out[:, j] = -0.5 * (
                np.sum(diff * diff / var, axis=1)
                + np.sum(np.log(2.0 * np.pi * var))
            )
        return out

    def responsibilities(self, data: np.ndarray) -> np.ndarray:
        log_prob = self.log_prob_per_component(data) + np.log(self.weights)
        log_norm = _oracle_logsumexp(log_prob, axis=1, keepdims=True)
        return np.exp(log_prob - log_norm)

    def predict(self, data: np.ndarray) -> np.ndarray:
        return np.argmax(self.responsibilities(data), axis=1)

    def score_samples(self, data: np.ndarray) -> np.ndarray:
        log_prob = self.log_prob_per_component(data) + np.log(self.weights)
        return _oracle_logsumexp(log_prob, axis=1)

    def bic(self, data: np.ndarray) -> float:
        data = np.atleast_2d(np.asarray(data, dtype=float))
        n, d = data.shape
        n_params = (self.n_components - 1) + 2 * self.n_components * d
        total_ll = float(np.sum(self.score_samples(data)))
        return n_params * np.log(max(n, 1)) - 2.0 * total_ll


class _OracleEM(GaussianMixtureEM):
    """EM with a per-component M-step and two E-step evaluations per
    iteration; shares only the k-means++ seeding with the fitter."""

    def fit(self, data: np.ndarray) -> GaussianMixtureModel:
        data = np.atleast_2d(np.asarray(data, dtype=float))
        n = data.shape[0]
        if n == 0:
            raise ValueError("cannot fit a mixture on an empty data set")
        if self.n_components is not None:
            return self._oracle_fit_k(data, min(self.n_components, n))
        best: Optional[GaussianMixtureModel] = None
        best_bic = np.inf
        for k in range(1, min(self.max_components, n) + 1):
            model = self._oracle_fit_k(data, k)
            bic = model.bic(data)
            if bic < best_bic - 1e-9:
                best, best_bic = model, bic
        assert best is not None
        return best

    def _oracle_fit_k(self, data: np.ndarray, k: int) -> GaussianMixtureModel:
        rng = np.random.default_rng(self.seed)
        means = self._init_means(data, k, rng)
        global_var = data.var(axis=0) + self.reg_covar
        variances = np.tile(global_var, (k, 1))
        weights = np.full(k, 1.0 / k)
        model = _OracleModel(weights, means, variances, -np.inf, 0, False)
        prev_ll = -np.inf
        for iteration in range(1, self.max_iter + 1):
            resp = model.responsibilities(data)
            weights, means, variances = self._oracle_m_step(data, resp)
            ll = float(
                np.mean(
                    _oracle_logsumexp(
                        _OracleModel(
                            weights, means, variances, 0.0, 0, False
                        ).log_prob_per_component(data)
                        + np.log(weights),
                        axis=1,
                    )
                )
            )
            model = _OracleModel(
                weights=weights,
                means=means,
                variances=variances,
                log_likelihood=ll,
                n_iter=iteration,
                converged=abs(ll - prev_ll) < self.tol,
            )
            if model.converged:
                break
            prev_ll = ll
        return model

    def _oracle_m_step(
        self, data: np.ndarray, resp: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        n, d = data.shape
        nk = resp.sum(axis=0) + 1e-12
        weights = nk / n
        means = (resp.T @ data) / nk[:, None]
        k = resp.shape[1]
        variances = np.empty((k, d))
        for j in range(k):
            diff = data - means[j]
            variances[j] = (resp[:, j][:, None] * diff * diff).sum(axis=0) / nk[j]
        variances += self.reg_covar
        return weights, means, variances


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


def _assert_bitwise(model, oracle) -> None:
    assert model.n_components == oracle.n_components
    for name in ("weights", "means", "variances"):
        got, want = getattr(model, name), getattr(oracle, name)
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert _bits(model.log_likelihood) == _bits(oracle.log_likelihood)
    assert model.n_iter == oracle.n_iter
    assert model.converged == oracle.converged


def _as_oracle(model: GaussianMixtureModel) -> _OracleModel:
    return _OracleModel(
        model.weights,
        model.means,
        model.variances,
        model.log_likelihood,
        model.n_iter,
        model.converged,
    )


def _random_data(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 300))
    d = int(rng.integers(1, 16))
    blobs = int(rng.integers(1, 4))
    centres = rng.normal(0.0, 4.0, size=(blobs, d))
    labels = rng.integers(0, blobs, size=n)
    return centres[labels] + rng.normal(0.0, rng.uniform(0.2, 1.5), size=(n, d))


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
class TestEMMatchesOracle:
    @pytest.mark.parametrize("seed", range(24))
    def test_random_data_bic_selection(self, seed):
        data = _random_data(seed)
        got = GaussianMixtureEM(max_components=5, seed=seed).fit(data)
        want = _OracleEM(max_components=5, seed=seed).fit(data)
        _assert_bitwise(got, want)

    @pytest.mark.parametrize(
        "n, d",
        [(1, 1), (1, 6), (2, 1), (3, 4), (5, 1), (40, 1), (200, 1), (7, 15)],
    )
    def test_edge_shapes(self, n, d):
        # Covers n < max_components, a single point and one dimension
        # (where the sums over points run pairwise, not row by row).
        data = np.random.default_rng(n * 31 + d).normal(size=(n, d))
        got = GaussianMixtureEM(max_components=6, seed=2).fit(data)
        want = _OracleEM(max_components=6, seed=2).fit(data)
        _assert_bitwise(got, want)
        # Every candidate the BIC compares, not only the one it selects.
        for k in range(1, min(6, n) + 1):
            _assert_bitwise(
                GaussianMixtureEM(n_components=k, seed=2).fit(data),
                _OracleEM(n_components=k, seed=2).fit(data),
            )

    def test_duplicate_rows_fall_back_on_reg_covar(self):
        rng = np.random.default_rng(7)
        rows = rng.normal(size=(3, 4))
        data = np.repeat(rows, [10, 1, 25], axis=0)
        got = GaussianMixtureEM(max_components=4, seed=5).fit(data)
        want = _OracleEM(max_components=4, seed=5).fit(data)
        _assert_bitwise(got, want)
        constant = np.ones((12, 3))
        _assert_bitwise(
            GaussianMixtureEM(max_components=3, seed=1).fit(constant),
            _OracleEM(max_components=3, seed=1).fit(constant),
        )

    @pytest.mark.parametrize("k", [1, 2, 4, 9])
    def test_fixed_component_count(self, k):
        data = _random_data(100 + k)
        got = GaussianMixtureEM(n_components=k, seed=k).fit(data)
        want = _OracleEM(n_components=k, seed=k).fit(data)
        _assert_bitwise(got, want)

    def test_iteration_cap_without_convergence(self):
        data = _random_data(3)
        got = GaussianMixtureEM(max_components=3, max_iter=2, tol=0.0, seed=4)
        want = _OracleEM(max_components=3, max_iter=2, tol=0.0, seed=4)
        _assert_bitwise(got.fit(data), want.fit(data))

    @pytest.mark.parametrize("seed", range(6))
    def test_constrained_fits_with_shrinking(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(0.0, 0.4, size=(40, 5))
        b = rng.normal(3.0, 0.4, size=(40, 5))
        data = np.vstack([a, b])
        constraints = CannotLinkConstraints()
        for point in (np.full(5, 1.5), a[0] + 0.2, b[3]):
            constraints.add(point)
        fitter = ConstrainedGaussianMixtureEM(max_components=4, seed=seed)
        oracle = ConstrainedGaussianMixtureEM(max_components=4, seed=seed)
        oracle._em = _OracleEM(max_components=4, seed=seed)
        got = fitter.fit(data, constraints)
        want = oracle.fit(data, constraints)
        unshrunk = fitter._em.fit(data)
        assert not np.array_equal(got.variances, unshrunk.variances)
        _assert_bitwise(got, want)

    @pytest.mark.parametrize("seed", range(8))
    def test_fitted_model_scoring(self, seed):
        data = _random_data(200 + seed)
        model = GaussianMixtureEM(max_components=4, seed=seed).fit(data)
        oracle = _as_oracle(model)
        probe = np.vstack([data, 1.7 * data + 0.3])
        for name in ("log_prob_per_component", "responsibilities", "score_samples"):
            got = getattr(model, name)(probe)
            want = getattr(oracle, name)(probe)
            assert got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
        assert np.array_equal(model.predict(probe), oracle.predict(probe))
        assert _bits(model.bic(data)) == _bits(oracle.bic(data))


class TestRepositoryFitMatchesOracle:
    def _populate(self, repository: BehaviorRepository) -> None:
        rng = np.random.default_rng(99)
        for scale in (1.0, 3.0, 6.0):
            for _ in range(14):
                values = np.abs(rng.normal(scale, 0.1 * scale, len(WARNING_METRICS)))
                repository.add_normal(
                    "app", MetricVector(dict(zip(WARNING_METRICS, values.tolist())))
                )
        for value in (2.0, 4.5):
            values = np.full(len(WARNING_METRICS), value)
            repository.add_interference(
                "app", MetricVector(dict(zip(WARNING_METRICS, values.tolist())))
            )

    def test_repository_fit_and_thresholds(self, monkeypatch):
        repository = BehaviorRepository(min_normal_behaviors=8, seed=11)
        self._populate(repository)
        model = repository.fit("app")
        with monkeypatch.context() as patch:
            patch.setattr("repro.clustering.constraints.GaussianMixtureEM", _OracleEM)
            oracle_repository = BehaviorRepository(min_normal_behaviors=8, seed=11)
            self._populate(oracle_repository)
            want = oracle_repository.fit("app")
        _assert_bitwise(model, want)
        got_thresholds = repository.thresholds("app").thresholds
        want_thresholds = oracle_repository.thresholds("app").thresholds
        assert list(got_thresholds) == list(want_thresholds)
        for name, value in got_thresholds.items():
            assert _bits(value) == _bits(want_thresholds[name])
