"""Gaussian-mixture expectation-maximisation clustering.

A small, dependency-free GMM/EM implementation with diagonal
covariances, model selection over the number of components via the
Bayesian information criterion, and the responsibilities / per-cluster
statistics the warning system needs to derive metric thresholds.
Diagonal covariances are a deliberate choice: the paper's thresholds MT
are per-metric, which corresponds exactly to an axis-aligned notion of
cluster spread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass
class GaussianMixtureModel:
    """A fitted diagonal-covariance Gaussian mixture."""

    weights: np.ndarray          # (k,)
    means: np.ndarray            # (k, d)
    variances: np.ndarray        # (k, d)
    log_likelihood: float
    n_iter: int
    converged: bool

    @property
    def n_components(self) -> int:
        return int(self.weights.shape[0])

    @property
    def n_dimensions(self) -> int:
        return int(self.means.shape[1])

    # ------------------------------------------------------------------
    def log_prob_per_component(self, data: np.ndarray) -> np.ndarray:
        """Log N(x | mu_k, Sigma_k) for every point and component: (n, k)."""
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
        """Posterior cluster membership probabilities, shape (n, k)."""
        log_prob = self.log_prob_per_component(data) + np.log(self.weights)
        log_norm = _logsumexp(log_prob, axis=1, keepdims=True)
        return np.exp(log_prob - log_norm)

    def predict(self, data: np.ndarray) -> np.ndarray:
        """Hard cluster assignment for every point."""
        return np.argmax(self.responsibilities(data), axis=1)

    def score_samples(self, data: np.ndarray) -> np.ndarray:
        """Per-point log-likelihood under the mixture."""
        log_prob = self.log_prob_per_component(data) + np.log(self.weights)
        return _logsumexp(log_prob, axis=1)

    def mahalanobis(self, data: np.ndarray) -> np.ndarray:
        """Per-point diagonal Mahalanobis distance to the *closest* component."""
        data = np.atleast_2d(np.asarray(data, dtype=float))
        # All components in one broadcast: each (point, component) sum
        # still runs over the contiguous metric axis, as a per-component
        # loop would, so every distance keeps the same bits.
        diff = data[:, None, :] - self.means[None, :, :]
        squares = diff * diff / self.variances[None, :, :]
        return np.sqrt(np.sum(squares, axis=2)).min(axis=1)

    def bic(self, data: np.ndarray) -> float:
        """Bayesian information criterion on ``data`` (lower is better)."""
        data = np.atleast_2d(np.asarray(data, dtype=float))
        n, d = data.shape
        # weights (k-1) + means (k*d) + variances (k*d)
        n_params = (self.n_components - 1) + 2 * self.n_components * d
        total_ll = float(np.sum(self.score_samples(data)))
        return n_params * np.log(max(n, 1)) - 2.0 * total_ll


def _logsumexp(a: np.ndarray, axis: int, keepdims: bool = False) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))
    if not keepdims:
        out = np.squeeze(out, axis=axis)
    return out


class GaussianMixtureEM:
    """EM fitter for diagonal-covariance Gaussian mixtures.

    Parameters
    ----------
    n_components:
        Number of mixture components, or ``None`` to select automatically
        with BIC over ``1..max_components``.
    max_components:
        Upper bound for automatic model selection.
    max_iter, tol:
        EM stopping criteria.
    reg_covar:
        Variance floor added to every dimension for numerical stability.
    seed:
        Seed for the k-means++-style initialisation.
    """

    def __init__(
        self,
        n_components: Optional[int] = None,
        max_components: int = 6,
        max_iter: int = 200,
        tol: float = 1e-5,
        reg_covar: float = 1e-6,
        seed: Optional[int] = 0,
    ) -> None:
        if n_components is not None and n_components < 1:
            raise ValueError("n_components must be positive")
        if max_components < 1:
            raise ValueError("max_components must be positive")
        self.n_components = n_components
        self.max_components = max_components
        self.max_iter = max_iter
        self.tol = tol
        self.reg_covar = reg_covar
        self.seed = seed

    # ------------------------------------------------------------------
    def fit(self, data: np.ndarray) -> GaussianMixtureModel:
        """Fit the mixture; selects the component count with BIC when unset."""
        data = np.atleast_2d(np.asarray(data, dtype=float))
        n = data.shape[0]
        if n == 0:
            raise ValueError("cannot fit a mixture on an empty data set")
        if self.n_components is not None:
            return self._fit_k(data, min(self.n_components, n))

        best: Optional[GaussianMixtureModel] = None
        best_bic = np.inf
        for k in range(1, min(self.max_components, n) + 1):
            model = self._fit_k(data, k)
            bic = model.bic(data)
            if bic < best_bic - 1e-9:
                best, best_bic = model, bic
        assert best is not None
        return best

    # ------------------------------------------------------------------
    def _fit_k(self, data: np.ndarray, k: int) -> GaussianMixtureModel:
        n, d = data.shape
        rng = np.random.default_rng(self.seed)
        means = self._init_means(data, k, rng)
        global_var = data.var(axis=0) + self.reg_covar
        variances = np.tile(global_var, (k, 1))
        weights = np.full(k, 1.0 / k)

        model = GaussianMixtureModel(
            weights=weights,
            means=means,
            variances=variances,
            log_likelihood=-np.inf,
            n_iter=0,
            converged=False,
        )
        prev_ll = -np.inf
        for iteration in range(1, self.max_iter + 1):
            resp = model.responsibilities(data)
            weights, means, variances = self._m_step(data, resp)
            ll = float(
                np.mean(
                    _logsumexp(
                        GaussianMixtureModel(
                            weights, means, variances, 0.0, 0, False
                        ).log_prob_per_component(data)
                        + np.log(weights),
                        axis=1,
                    )
                )
            )
            model = GaussianMixtureModel(
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

    def _m_step(
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

    def _init_means(
        self, data: np.ndarray, k: int, rng: np.random.Generator
    ) -> np.ndarray:
        """k-means++-style seeding of the component means."""
        n = data.shape[0]
        first = int(rng.integers(0, n))
        means = [data[first]]
        for _ in range(1, k):
            dist_sq = np.min(
                [np.sum((data - m) ** 2, axis=1) for m in means], axis=0
            )
            total = dist_sq.sum()
            if total <= 0:
                idx = int(rng.integers(0, n))
            else:
                idx = int(rng.choice(n, p=dist_sq / total))
            means.append(data[idx])
        return np.vstack(means)
