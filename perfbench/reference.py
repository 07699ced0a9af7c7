"""Independent references for linear systems, in the benchmark's own numpy.

For s_{t+1} = A_t s_t + B_t y_t with s_1 = 0, y_t = K_t s_t + eps_t,
eps_t ~ N(0, Sigma_t) and cost J = sum 0.5 s_t' Q_t s_t + 0.5 u_t' R_t u_t,
the risk-sensitive expectation is

    E[exp(alpha J)] = det(W)^(-1/2) / sqrt(prod det Sigma_t),
    W(K) = S - S K M - M' K' S - M' K' (alpha R - S) K M - alpha M' Q M,

with the block trajectory map M (x = M y), S = blockdiag(inv Sigma_t) and
K placed block-diagonally.  Nothing here imports riskconvex.synthesis:
the benchmark checks that module against this code.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sl
import scipy.optimize as so


class DetMax:
    """log det W(K) and its gradient for one system and risk factor."""

    def __init__(self, A, B, Q, R, sigma, alpha: float):
        N = len(Q)
        n, m = np.shape(B[0])
        self.N, self.n, self.m, self.alpha = N, n, m, float(alpha)
        M = np.zeros((N * n, (N - 1) * m))
        for j in range(1, N):
            block = np.asarray(B[j - 1], dtype=float)
            M[j * n:(j + 1) * n, (j - 1) * m:j * m] = block
            for i in range(j + 2, N + 1):
                block = np.asarray(A[i - 2], dtype=float) @ block
                M[(i - 1) * n:i * n, (j - 1) * m:j * m] = block
        self.M = M
        self.S = sl.block_diag(*[np.linalg.inv(s) for s in sigma])
        self.D = self.alpha * sl.block_diag(*R) - self.S
        self.MQM = self.alpha * M.T @ sl.block_diag(*Q) @ M
        self.log_det_sigma = float(sum(np.linalg.slogdet(s)[1] for s in sigma))

    def place(self, gains) -> np.ndarray:
        n, m, N = self.n, self.m, self.N
        K = np.zeros(((N - 1) * m, N * n))
        for t, k in enumerate(gains):
            K[t * m:(t + 1) * m, t * n:(t + 1) * n] = k
        return K

    def w_matrix(self, gains) -> np.ndarray:
        KM = self.place(gains) @ self.M
        SKM = self.S @ KM
        W = self.S - SKM - SKM.T - KM.T @ self.D @ KM - self.MQM
        return 0.5 * (W + W.T)

    def evaluate(self, gains, with_grad: bool = False):
        """(log det W or None when W is not positive definite, gradient blocks)."""
        try:
            c = sl.cho_factor(self.w_matrix(gains))
        except np.linalg.LinAlgError:
            return None, None
        logdet = 2.0 * float(np.sum(np.log(np.diag(c[0]))))
        if not with_grad:
            return logdet, None
        winv_mt = sl.cho_solve(c, self.M.T)
        K = self.place(gains)
        full = -2.0 * (self.S @ winv_mt + self.D @ K @ self.M @ winv_mt)
        n, m = self.n, self.m
        grads = np.stack([full[t * m:(t + 1) * m, t * n:(t + 1) * n]
                          for t in range(self.N - 1)])
        return logdet, grads

    def expectation(self, gains) -> float:
        """E[exp(alpha J)], +inf when W is not positive definite."""
        logdet, _ = self.evaluate(gains)
        if logdet is None:
            return math.inf
        return math.exp(-0.5 * (logdet + self.log_det_sigma))

    def expectation_grad(self, gains) -> np.ndarray:
        """d E[exp(alpha J)] / d K_t, shape (N-1, m, n)."""
        logdet, grads = self.evaluate(gains, with_grad=True)
        value = math.exp(-0.5 * (logdet + self.log_det_sigma))
        return -0.5 * value * grads

    def maximize(self, masks) -> float:
        """max log det W over gains with the masked entries held at zero.

        L-BFGS from K = 0 on -log det W; an infeasible trial point gets
        +inf, which the line search backs away from.
        """
        mask = np.stack([np.asarray(mk, dtype=bool) for mk in masks])
        free = np.nonzero(mask)

        def gains_of(x):
            g = np.zeros(mask.shape)
            g[free] = x
            return g

        def fun(x):
            logdet, grads = self.evaluate(gains_of(x), with_grad=True)
            if logdet is None:
                return math.inf, np.zeros_like(x)
            return -logdet, -grads[free]

        res = so.minimize(fun, np.zeros(free[0].size), jac=True, method="L-BFGS-B",
                          options={"maxiter": 20000, "maxcor": 30, "gtol": 1e-12,
                                   "ftol": 1e-15})
        return -float(res.fun)
