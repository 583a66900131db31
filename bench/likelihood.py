"""Homodyne log-likelihood and its certified gap, written directly in numpy.

The benchmark uses this to judge a reconstruction without trusting the
package's own POVM code: it rebuilds R(rho) from the written rho.json, the
raw records and the detection efficiency, then bounds the distance to the
maximum likelihood with

    logL* - logL(rho) <= N (lambda_max(R(rho)) - 1)

(Glancy, Knill and Girard, NJP 14, 095017, 2012), where
R(rho) = (1/N) sum_j Pi_j / Tr(Pi_j rho) and Tr(R rho) = 1, so the bound is
never negative. Efficiency enters through the binomial loss map in its
banded form, E(rho)[m, n] = sum_k B[m, k] B[n, k] rho[m+k, n+k], with
B[m, k] = sqrt(C(m+k, k) eta^m (1-eta)^k).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln


def wavefunctions(x: np.ndarray, dim: int) -> np.ndarray:
    """Oscillator eigenfunctions psi_n(x), n < dim, in shot-noise units
    (psi_0^2 is the standard normal density); rows indexed by n."""
    psi = np.empty((dim, x.size))
    psi[0] = (2.0 * np.pi) ** -0.25 * np.exp(-0.25 * x * x)
    if dim > 1:
        psi[1] = x * psi[0]
    for n in range(1, dim - 1):
        psi[n + 1] = (x * psi[n] - math.sqrt(n) * psi[n - 1]) / math.sqrt(n + 1)
    return psi


def _loss_weights(eta: float, dim: int) -> np.ndarray:
    m = np.arange(dim)[:, None]
    k = np.arange(dim)[None, :]
    return np.exp(
        0.5
        * (
            gammaln(m + k + 1.0)
            - gammaln(m + 1.0)
            - gammaln(k + 1.0)
            + m * math.log(eta)
            + k * math.log1p(-eta)
        )
    )


def apply_loss(rho: np.ndarray, eta: float) -> np.ndarray:
    """Schroedinger-picture loss map E(rho)."""
    d = rho.shape[0]
    b = _loss_weights(eta, d)
    out = np.zeros_like(rho)
    for k in range(d):
        w = b[: d - k, k]
        out[: d - k, : d - k] += np.outer(w, w) * rho[k:, k:]
    return out


def apply_loss_adjoint(op: np.ndarray, eta: float) -> np.ndarray:
    """Heisenberg-picture loss map E^dag(op)."""
    d = op.shape[0]
    b = _loss_weights(eta, d)
    out = np.zeros_like(op)
    for k in range(d):
        w = b[: d - k, k]
        out[k:, k:] += np.outer(w, w) * op[: d - k, : d - k]
    return out


def certify(
    rho: np.ndarray, theta: np.ndarray, x: np.ndarray, eta: float
) -> tuple[float, float]:
    """(logL(rho), N (lambda_max(R(rho)) - 1)) for records (theta_j, x_j)."""
    d = rho.shape[0]
    phi = np.exp(1j * np.outer(np.arange(d), theta)) * wavefunctions(x, d)
    probs = np.einsum("nj,nj->j", phi.conj(), apply_loss(rho, eta) @ phi).real
    if not np.all(probs > 0.0):
        raise ValueError("the state gives a record zero probability")
    loglik = math.fsum(np.log(probs))
    r = apply_loss_adjoint((phi / probs) @ phi.conj().T, eta) / x.size
    lam_max = float(np.linalg.eigvalsh(0.5 * (r + r.conj().T))[-1])
    return loglik, x.size * (lam_max - 1.0)
