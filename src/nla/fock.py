"""Truncated Fock-space states, ladder operators, expectations, and overlaps.

Quadrature convention (fixed for the whole package):

    x_theta = a e^{-i theta} + a^dag e^{i theta}

so the vacuum variance of every x_theta is exactly 1 (one shot-noise unit),
a coherent state |alpha> has <x_0> = 2 Re(alpha), and the phase quadrature
p = x_{pi/2} of |alpha e^{i theta}> has mean 2 |alpha| sin(theta).

States are immutable after construction; all operations are pure functions.
Unnormalized kets are first class: herald weights carry physics, so
normalization is always explicit and never implicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import gammainc

from .errors import CutoffError, ZeroNormError

# Maximum probability weight allowed beyond the cutoff for constructed states.
TAIL_TOL = 1e-12

_ZERO_NORM = 1e-30


@dataclass(frozen=True)
class FockCutoff:
    """Highest retained Fock number; the basis is |0>, ..., |n_max>."""

    n_max: int

    def __post_init__(self):
        if not isinstance(self.n_max, (int, np.integer)) or self.n_max < 1:
            raise ValueError(f"n_max must be an integer >= 1, got {self.n_max!r}")

    @property
    def dim(self) -> int:
        return self.n_max + 1


def poisson_tail(n_max: int, mu: float) -> float:
    """P(N > n_max) for N ~ Poisson(mu)."""
    if mu <= 0.0:
        return 0.0
    return float(gammainc(n_max + 1, mu))


def default_cutoff(alpha: complex, g: float = 2.0) -> FockCutoff:
    """Cutoff policy: smallest n_max whose Poisson tail for the amplified
    target |g*alpha> is below 1e-12, floored at 20.

    The amplified target is the widest state handled, so a cutoff chosen for
    it admits the input and every intermediate state as well.
    """
    mu = (abs(g) * abs(alpha)) ** 2
    n = 20
    while poisson_tail(n, mu) >= TAIL_TOL:
        n += 1
    return FockCutoff(n)


@dataclass(frozen=True)
class PureState:
    """Ket over the truncated Fock basis, possibly unnormalized.

    The squared norm is meaningful (e.g. a herald success weight) and is
    never silently rescaled; use :meth:`normalized` when a unit vector is
    wanted.
    """

    amplitudes: np.ndarray
    cutoff: FockCutoff

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128, copy=True)
        if amps.shape != (self.cutoff.dim,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected ({self.cutoff.dim},)"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.cutoff.dim

    @property
    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "PureState":
        n = self.norm
        if n < _ZERO_NORM:
            raise ZeroNormError("cannot normalize a zero-norm state")
        return PureState(self.amplitudes / n, self.cutoff)

    def to_density(self) -> "DensityMatrix":
        """Projector onto the normalized ket (unit trace)."""
        v = self.normalized().amplitudes
        return DensityMatrix(np.outer(v, v.conj()), self.cutoff)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian positive-semidefinite operator with trace in (0, 1].

    Trace below 1 is allowed: conditional states may carry their herald
    weight explicitly.
    """

    elements: np.ndarray
    cutoff: FockCutoff

    _HERM_TOL = 1e-12
    _EIG_TOL = -1e-10
    _TRACE_TOL = 1e-12

    def __post_init__(self):
        mat = np.array(self.elements, dtype=np.complex128, copy=True)
        d = self.cutoff.dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix has shape {mat.shape}, expected ({d}, {d})")
        if not np.all(np.isfinite(mat)):
            raise ValueError("matrix entries must be finite")
        herm_defect = float(np.max(np.abs(mat - mat.conj().T)))
        if herm_defect > self._HERM_TOL:
            raise ValueError(f"matrix is not Hermitian: max defect {herm_defect:.3e}")
        tr = float(np.trace(mat).real)
        if not (_ZERO_NORM < tr <= 1.0 + self._TRACE_TOL):
            raise ValueError(f"trace must lie in (0, 1], got {tr!r}")
        min_eig = float(np.linalg.eigvalsh(mat)[0])
        if min_eig < self._EIG_TOL:
            raise ValueError(f"matrix is not PSD: min eigenvalue {min_eig:.3e}")
        mat.flags.writeable = False
        object.__setattr__(self, "elements", mat)

    @property
    def dim(self) -> int:
        return self.cutoff.dim

    @property
    def trace(self) -> float:
        return float(np.trace(self.elements).real)

    def normalized(self) -> "DensityMatrix":
        return DensityMatrix(self.elements / self.trace, self.cutoff)


State = Union[PureState, DensityMatrix]


def normalized_density(state: State) -> DensityMatrix:
    """Unit-trace density matrix of a ket or of a possibly subnormalized matrix.

    The one dispatch on the state type for everything that needs only the
    normalized state: expectations, fidelities, loss, densities and Wigner.
    """
    if isinstance(state, PureState):
        return state.to_density()
    if isinstance(state, DensityMatrix):
        return state.normalized()
    raise TypeError(f"expected PureState or DensityMatrix, got {type(state).__name__}")


def vacuum_state(cutoff: FockCutoff) -> PureState:
    return fock_state(0, cutoff)


def fock_state(n: int, cutoff: FockCutoff) -> PureState:
    if not 0 <= n <= cutoff.n_max:
        raise CutoffError(f"|{n}> does not fit below cutoff n_max={cutoff.n_max}")
    amps = np.zeros(cutoff.dim, dtype=np.complex128)
    amps[n] = 1.0
    return PureState(amps, cutoff)


def coherent_state(alpha: complex, cutoff: FockCutoff | None = None) -> PureState:
    """Coherent state |alpha> with amplitudes e^{-|a|^2/2} a^n / sqrt(n!).

    Amplitudes are built by the stable recurrence c_{n+1} = c_n alpha/sqrt(n+1)
    (no explicit factorials). Raises CutoffError if the Poisson tail beyond
    the cutoff is not below 1e-12.
    """
    if cutoff is None:
        cutoff = default_cutoff(alpha)
    tail = poisson_tail(cutoff.n_max, abs(alpha) ** 2)
    if tail >= TAIL_TOL:
        raise CutoffError(
            f"cutoff n_max={cutoff.n_max} too small for |alpha|={abs(alpha):.4g}: "
            f"tail probability {tail:.3e} >= {TAIL_TOL:g}"
        )
    amps = np.zeros(cutoff.dim, dtype=np.complex128)
    amps[0] = np.exp(-0.5 * abs(alpha) ** 2)
    for n in range(cutoff.n_max):
        amps[n + 1] = amps[n] * alpha / np.sqrt(n + 1.0)
    return PureState(amps, cutoff)


def annihilation_matrix(cutoff: FockCutoff) -> np.ndarray:
    """Matrix of a: a|n> = sqrt(n)|n-1>."""
    d = cutoff.dim
    mat = np.zeros((d, d), dtype=np.complex128)
    ns = np.arange(1, d)
    mat[ns - 1, ns] = np.sqrt(ns)
    return mat


def number_matrix(cutoff: FockCutoff) -> np.ndarray:
    return np.diag(np.arange(cutoff.dim, dtype=np.complex128))


def quadrature_matrix(theta: float, cutoff: FockCutoff) -> np.ndarray:
    """x_theta = a e^{-i theta} + a^dag e^{i theta} (vacuum variance 1)."""
    a = annihilation_matrix(cutoff)
    return a * np.exp(-1j * theta) + a.conj().T * np.exp(1j * theta)


def expectation(state: State, operator: np.ndarray) -> complex:
    """<O> = Tr(rho O) in the normalized density of a ket or a matrix."""
    return complex(np.trace(operator @ normalized_density(state).elements))


def mean_photon(state: State) -> float:
    return expectation(state, number_matrix(state.cutoff)).real


def var_x(state: State, theta: float = 0.0) -> float:
    """Variance of x_theta in shot-noise units (vacuum gives 1)."""
    x = quadrature_matrix(theta, state.cutoff)
    m1 = expectation(state, x).real
    m2 = expectation(state, x @ x).real
    return m2 - m1 * m1


def state_fidelity(a: State, b: PureState) -> float:
    """Normalized overlap <b|rho_a|b> / <b|b>, with rho_a the normalized
    density of a: |<b|a>|^2 for pure a.

    Both arguments are normalized internally, so unnormalized herald-weighted
    inputs are handled; symmetric and global-phase invariant for pure pairs.
    """
    if not isinstance(b, PureState):
        raise TypeError("second argument must be a PureState")
    if a.cutoff != b.cutoff:
        raise ValueError("states must share a cutoff")
    bn2 = b.norm_squared
    if bn2 < _ZERO_NORM:
        raise ZeroNormError("fidelity undefined against a zero-norm state")
    val = np.vdot(b.amplitudes, normalized_density(a).elements @ b.amplitudes).real
    return float(max(val, 0.0) / bn2)
