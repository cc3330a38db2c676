"""Closed-form leave-one-out checks for the normal model with known variance.

With a flat prior on the common mean, every cross-validated quantity has an
exact expression, which makes this model the reference oracle for the
observable (PIT) and latent (difference-distribution) views of conflict and
for their two-sided combination.
"""

import math

import numpy as np
from scipy.special import ndtr

from .nodesplit import chisq_tail


class AnalyticNormalModel:
    """Observations y_1..y_n ~ N(mu, sigma2), sigma2 known, flat prior on mu."""

    def __init__(self, y, sigma2):
        self.y = np.asarray(y, dtype=float)
        if self.y.ndim != 1 or self.y.size < 2:
            raise ValueError("need at least two observations")
        if not np.all(np.isfinite(self.y)):
            raise ValueError("observations must be finite")
        if sigma2 <= 0:
            raise ValueError(f"variance must be positive, got {sigma2}")
        self.n = self.y.size
        self.sigma2 = float(sigma2)
        # predictive variance of y_i given the others
        self.sigma_tilde2 = self.sigma2 * self.n / (self.n - 1)
        self.sigma_tilde = math.sqrt(self.sigma_tilde2)
        self._total = float(self.y.sum())

    def _check(self, i):
        if not 0 <= i < self.n:
            raise IndexError(f"index {i} out of range for {self.n} observations")

    def loo_mean(self, i):
        """Mean of the others, (sum - y_i) / (n - 1)."""
        self._check(i)
        return (self._total - self.y[i]) / (self.n - 1)

    def mu_delta(self, i):
        """Mean of the difference of the two conditional posteriors of mu."""
        return self.loo_mean(i) - self.y[i]

    def pit(self, i):
        """Pr(Y_i <= y_i | the other observations)."""
        self._check(i)
        return float(ndtr((self.y[i] - self.loo_mean(i)) / self.sigma_tilde))

    def latent_tail(self, i):
        """Pr(delta <= 0) for delta = (mu | y_i) - (mu | y_-i)."""
        self._check(i)
        return float(ndtr(-self.mu_delta(i) / self.sigma_tilde))

    def two_sided_p(self, i):
        """Two-sided conflict p-value, 2 min(u, 1-u) at u = pit(i).

        Evaluated from the smaller tail directly, which avoids cancellation
        when the observation is many predictive deviations out.
        """
        self._check(i)
        z = (self.y[i] - self.loo_mean(i)) / self.sigma_tilde
        return 2.0 * float(ndtr(-abs(z)))

    def two_sided_p_chisq(self, i):
        """Same tail probability through the one-degree chi-squared form."""
        self._check(i)
        z2 = self.mu_delta(i) ** 2 / self.sigma_tilde2
        return chisq_tail(z2, 1)

    def pit_all(self):
        return np.array([self.pit(i) for i in range(self.n)])


def pit(model, i):
    return model.pit(i)


def latent_tail(model, i):
    return model.latent_tail(i)


def two_sided_p(model, i):
    return model.two_sided_p(i)
