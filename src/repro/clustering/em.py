"""Gaussian-mixture expectation-maximisation clustering.

A small, dependency-free GMM/EM implementation with diagonal
covariances, model selection over the number of components via the
Bayesian information criterion, and the responsibilities / per-cluster
statistics the warning system needs to derive metric thresholds.
Diagonal covariances are a deliberate choice: the paper's thresholds MT
are per-metric, which corresponds exactly to an axis-aligned notion of
cluster spread.

Each EM iteration evaluates the mixture's log-density once, all
components in one ``(n, k, d)`` broadcast (:func:`_e_step`).  That
evaluation scores the new parameters (``ll = mean(log_norm)``) and is
also the next iteration's E-step (``resp = exp(log_prob - log_norm)``);
the final one feeds the BIC.  The fits are bit-identical to evaluating
each component separately and the log-density twice per iteration: the
same ufuncs run on the same operands, and every reduction runs along
the same axis in the same order (the metric sums over a contiguous
metric axis, the M-step's sums over points over each component's own
contiguous ``(n, d)`` slab).  ``tests/clustering/test_em_oracle.py``
keeps the per-component, two-evaluation loop as the oracle.
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
        return _component_log_prob(data, self.means, self.variances)

    def responsibilities(self, data: np.ndarray) -> np.ndarray:
        """Posterior cluster membership probabilities, shape (n, k)."""
        data = np.atleast_2d(np.asarray(data, dtype=float))
        log_prob, log_norm = _e_step(data, self.weights, self.means, self.variances)
        return np.exp(log_prob - log_norm[:, None])

    def predict(self, data: np.ndarray) -> np.ndarray:
        """Hard cluster assignment for every point."""
        return np.argmax(self.responsibilities(data), axis=1)

    def score_samples(self, data: np.ndarray) -> np.ndarray:
        """Per-point log-likelihood under the mixture."""
        data = np.atleast_2d(np.asarray(data, dtype=float))
        return _e_step(data, self.weights, self.means, self.variances)[1]

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
        return _bic(self.n_components, data.shape, self.score_samples(data))


def _component_log_prob(
    data: np.ndarray, means: np.ndarray, variances: np.ndarray
) -> np.ndarray:
    """Log N(x | mu_k, Sigma_k), shape (n, k), all components in one broadcast.

    Each (point, component) sum runs over the contiguous metric axis of
    the ``(n, k, d)`` block, exactly as the same sum over one
    component's ``(n, d)`` block would.
    """
    diff = data[:, None, :] - means[None, :, :]
    return -0.5 * (
        np.sum(diff * diff / variances[None, :, :], axis=2)
        + np.sum(np.log(2.0 * np.pi * variances), axis=1)
    )


def _e_step(
    data: np.ndarray, weights: np.ndarray, means: np.ndarray, variances: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Weighted component log-densities (n, k) and their per-point
    log-normaliser (n,): the responsibilities are ``exp(log_prob -
    log_norm)`` and the per-point log-likelihood is ``log_norm``."""
    log_prob = _component_log_prob(data, means, variances) + np.log(weights)
    return log_prob, _logsumexp(log_prob, axis=1)


def _bic(n_components: int, shape: Tuple[int, int], log_norm: np.ndarray) -> float:
    n, d = shape
    # weights (k-1) + means (k*d) + variances (k*d)
    n_params = (n_components - 1) + 2 * n_components * d
    total_ll = float(np.sum(log_norm))
    return n_params * np.log(max(n, 1)) - 2.0 * total_ll


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


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
            return self._fit_k(data, min(self.n_components, n))[0]

        best: Optional[GaussianMixtureModel] = None
        best_bic = np.inf
        for k in range(1, min(self.max_components, n) + 1):
            model, log_norm = self._fit_k(data, k)
            bic = _bic(k, data.shape, log_norm)
            if bic < best_bic - 1e-9:
                best, best_bic = model, bic
        assert best is not None
        return best

    # ------------------------------------------------------------------
    def _fit_k(
        self, data: np.ndarray, k: int
    ) -> Tuple[GaussianMixtureModel, np.ndarray]:
        """Fit ``k`` components; returns the model and its per-point
        log-likelihood (the final E-step's ``log_norm``)."""
        rng = np.random.default_rng(self.seed)
        means = self._init_means(data, k, rng)
        global_var = data.var(axis=0) + self.reg_covar
        variances = np.tile(global_var, (k, 1))
        weights = np.full(k, 1.0 / k)

        # One E-step per iteration: the log-density that scores the new
        # parameters is the one the next iteration's responsibilities use.
        log_prob, log_norm = _e_step(data, weights, means, variances)
        ll, n_iter, converged = -np.inf, 0, False
        prev_ll = -np.inf
        for iteration in range(1, self.max_iter + 1):
            resp = np.exp(log_prob - log_norm[:, None])
            weights, means, variances = self._m_step(data, resp)
            log_prob, log_norm = _e_step(data, weights, means, variances)
            ll = float(np.mean(log_norm))
            n_iter = iteration
            converged = abs(ll - prev_ll) < self.tol
            if converged:
                break
            prev_ll = ll
        model = GaussianMixtureModel(
            weights=weights,
            means=means,
            variances=variances,
            log_likelihood=ll,
            n_iter=n_iter,
            converged=converged,
        )
        return model, log_norm

    def _m_step(
        self, data: np.ndarray, resp: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = data.shape[0]
        nk = resp.sum(axis=0) + 1e-12
        weights = nk / n
        means = (resp.T @ data) / nk[:, None]
        # Components lead the (k, n, d) block, so each component's (n, d)
        # slab is contiguous and its sum over points runs in the order the
        # same sum over that slab alone would (row by row, or pairwise
        # when d == 1).  An (n, k, d) block would sum d == 1 row by row.
        diff = data[None, :, :] - means[:, None, :]
        variances = (resp.T[:, :, None] * diff * diff).sum(axis=1) / nk[:, None]
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
