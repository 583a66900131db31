"""Plain reference implementations that the optimized code is tested against.

dense_loss_kraus builds the loss channel as d dense Kraus matrices;
reference_maxlik is the R rho R loop written without tiles or the banded loss
map: one wavefunction block per phase, dense Kraus products, and the
log-likelihood summed exactly with math.fsum; reference_wigner_points
evaluates W pointwise by the Fock-basis Laguerre series.
"""

import math

import numpy as np
from scipy.special import gammaln

from nla import tomography
from nla.errors import ConvergenceError
from nla.homodyne import quadrature_wavefunctions


def dense_loss_kraus(eta: float, dim: int) -> list[np.ndarray]:
    """A_k[m, m+k] = sqrt(C(m+k, k) eta^m (1-eta)^k); k photons lost."""
    if eta == 1.0:
        return [np.eye(dim, dtype=np.complex128)]
    ops = []
    log_eta, log_loss = np.log(eta), np.log(1.0 - eta)
    for k in range(dim):
        m = np.arange(dim - k)
        log_amp = 0.5 * (
            gammaln(m + k + 1.0)
            - gammaln(m + 1.0)
            - gammaln(k + 1.0)
            + m * log_eta
            + k * log_loss
        )
        a = np.zeros((dim, dim), dtype=np.complex128)
        a[m, m + k] = np.exp(log_amp)
        ops.append(a)
    return ops


def dense_loss(rho: np.ndarray, eta: float) -> np.ndarray:
    return sum(a @ rho @ a.conj().T for a in dense_loss_kraus(eta, rho.shape[0]))


def reference_maxlik(data, settings, *, tag=None) -> tomography.ReconstructionResult:
    """maxlik_reconstruct with the same update, checks and stopping rules."""
    chosen = [block for name, block in data.records.items() if tag in (None, name)]
    x = np.concatenate(chosen, axis=1)
    n_samples = x.size
    d = settings.cutoff.dim
    kraus = dense_loss_kraus(settings.eta, d)
    n = np.arange(d)
    blocks = []
    for ph, xs in zip(data.phases, x):
        psi = quadrature_wavefunctions(xs, settings.cutoff.n_max)
        blocks.append((np.exp(1j * ph * n), psi))

    rho = np.eye(d, dtype=np.complex128) / d
    ll_trace = []
    converged = False
    for iterations in range(1, settings.max_iters + 1):
        rho_eta = rho
        if settings.eta < 1.0:
            rho_eta = sum(a @ rho @ a.conj().T for a in kraus)
        s = np.zeros((d, d), dtype=np.complex128)
        log_terms = []
        for phase, psi in blocks:
            rotated = (rho_eta * np.outer(phase.conj(), phase)).real
            probs = np.maximum(np.einsum("nj,nj->j", psi, rotated @ psi), 1e-300)
            log_terms.append(np.log(probs))
            s += ((psi / probs) @ psi.T) * np.outer(phase, phase.conj())
        ll = math.fsum(np.concatenate(log_terms))
        if ll_trace and ll < ll_trace[-1] - 1e-9:
            raise ConvergenceError(f"log-likelihood decreased at iteration {iterations}")
        stop_ll = bool(ll_trace) and (ll - ll_trace[-1]) < settings.ll_tol * n_samples
        ll_trace.append(ll)

        if settings.eta < 1.0:
            s = sum(a.conj().T @ s @ a for a in kraus)
        r = 0.5 * (s + s.conj().T) / n_samples
        rho_new = r @ rho @ r
        rho_new = 0.5 * (rho_new + rho_new.conj().T)
        rho_new /= np.trace(rho_new).real
        if np.linalg.eigvalsh(rho_new)[0] < -1e-10:
            raise ConvergenceError(f"non-physical intermediate at iteration {iterations}")
        diag_change = float(np.max(np.abs(np.diag(rho_new) - np.diag(rho)).real))
        rho = rho_new
        if stop_ll or diag_change < settings.diag_tol:
            converged = True
            break

    return tomography.ReconstructionResult(
        rho=tomography.DensityMatrix(rho, settings.cutoff),
        log_likelihood_trace=np.array(ll_trace),
        iterations_used=iterations,
        converged=converged,
    )


def reference_wigner_points(rho: np.ndarray, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """W of the normalized rho at arbitrary points by the Laguerre series,
    run through three-term recurrences in beta = (x + i p)/2 (the QuTiP-style
    iterative scheme), so no factorials appear at any order.

    The recurrence runs in np.longdouble (64-bit mantissa on x86-64). In
    double precision its rounding grows with d: for random full-rank rho it
    is off by up to 3e-11 at d 38, where the position-space sum agrees with a
    40-digit quadrature to 1e-17."""
    d = rho.shape[0]
    rho = np.asarray(rho, dtype=np.clongdouble)
    two_a = np.asarray(x, dtype=np.longdouble) + 1j * np.asarray(p, dtype=np.longdouble)
    two_ac = two_a.conj()
    root = np.sqrt(np.arange(d, dtype=np.longdouble))
    wlist = np.empty((d,) + two_a.shape, dtype=np.clongdouble)
    wlist[0] = np.exp(-0.5 * np.abs(two_a) ** 2) / np.pi
    w = rho[0, 0].real * wlist[0].real
    for n in range(1, d):
        wlist[n] = two_a * wlist[n - 1] / root[n]
        w = w + 2.0 * (rho[0, n] * wlist[n]).real
    for m in range(1, d):
        temp = wlist[m].copy()
        wlist[m] = (two_ac * temp - root[m] * wlist[m - 1]) / root[m]
        w = w + (rho[m, m] * wlist[m]).real
        for n in range(m + 1, d):
            temp2 = (two_a * wlist[n - 1] - root[m] * temp) / root[n]
            temp = wlist[n].copy()
            wlist[n] = temp2
            w = w + 2.0 * (rho[m, n] * wlist[n]).real
    return (0.5 * w).astype(np.float64)
