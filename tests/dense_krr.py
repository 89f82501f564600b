"""Dense weighted kernel ridge regression: the reference for the low-rank fit.

:class:`DenseKrr` takes the arguments of :func:`ksib.kernel_ridge.fit` and
solves the same system ``(D K D + ridge I) z = D y`` with the full n x n
matrix, so tests can compare the fit's predictions, fitted values, leverages
and plug-in covariance with it, and can stand it in for ``fit`` inside the
policy: it takes the ``pivots`` hint, ignores it, and reports no pivots.  The
covariance quantities use the explicit inverse.
"""

import numpy as np
from scipy.linalg import cho_factor, cho_solve


class DenseKrr:
    def __init__(self, support_u, support_y, support_w, ridge, kernel,
                 pivots=()):
        self.u = np.asarray(support_u, dtype=float)
        self.y = np.asarray(support_y, dtype=float)
        self.w = np.asarray(support_w, dtype=float)
        self.kernel = kernel
        self.n = self.u.size
        self.ridge = ridge
        self.sqrt_w = np.sqrt(self.w)
        self.system = kernel.gram(self.u) * np.outer(self.sqrt_w, self.sqrt_w) + \
            self.ridge * np.eye(self.n)
        z = cho_solve(cho_factor(self.system, lower=True), self.sqrt_w * self.y)
        self.dual_coeffs = self.sqrt_w * z
        self.pivots = np.empty(0, dtype=np.intp)

    def predict(self, u):
        k = self.kernel(self.u, np.asarray(u, dtype=float))
        return k.T @ self.dual_coeffs if k.ndim == 2 else float(k @ self.dual_coeffs)

    def fitted(self):
        """In-sample values ``K c`` by the explicit Gram product."""
        return self.kernel.gram(self.u) @ self.dual_coeffs

    def one_minus_h(self):
        """``1 - h_s = ridge [M^{-1}]_ss`` for the system matrix ``M``."""
        return self.ridge * np.diag(np.linalg.inv(self.system))

    def d2(self, u, gamma=0.5, residual_mode="raw"):
        """``n^(2 gamma - 2) sum_s w_s^2 r_s^2 v_x[s]^2`` at a batch of points,
        with ``v_x = D^{-1} n M^{-1} D k_x``."""
        resid = self.y - self.fitted()
        if residual_mode == "loo":
            resid = resid / np.clip(self.one_minus_h(), 0.05, None)
        k = self.kernel(self.u, np.atleast_1d(np.asarray(u, dtype=float)))
        v = self.n * np.linalg.solve(self.system, self.sqrt_w[:, None] * k) / \
            self.sqrt_w[:, None]
        return self.n ** (2.0 * gamma - 2.0) * ((self.w * resid) ** 2 @ v ** 2)
