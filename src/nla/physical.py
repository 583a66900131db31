"""Heralded physical implementation of a a^dag: photon addition by a weak
two-mode squeezer with an on/off herald on the idler, photon subtraction by a
weak beam-splitter tap with an on/off herald on the reflected mode.

On/off detectors are ideal (unit efficiency, no dark counts): the click POVM
is 1 - |0><0| on the ancilla. Both stages are closed-form Kraus channels in
the banded form of homodyne.LossMap, on its binomial table: k photons in the
ancilla shift the signal by k levels, and a click keeps the bands k >= 1.

- Addition: exp[lambda (a^dag b^dag - a b)] maps |n>|0> to
  sum_k tanh^k(lambda) / cosh^{n+1}(lambda) sqrt(C(n+k, k)) |n+k>|k>, so the
  bands scatter up the diagonal; what leaves the cutoff is dropped, which the
  headroom check keeps negligible.
- Subtraction: the tap is the efficiency-(1-R) loss map, exact in the
  truncation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import amplifiers, fock
from .fock import DensityMatrix, FockCutoff, PureState, State
from .errors import ConvergenceError, TruncationError
from .homodyne import log_binomial_bands, lower_bands, raise_bands

_HEADROOM_TOL = 1e-10


@dataclass(frozen=True)
class HeraldedResult:
    """Conditional state after a successful herald, with its click probability."""

    state: DensityMatrix
    success_prob: float

    def __post_init__(self):
        if not 0.0 < self.success_prob <= 1.0:
            raise ValueError(f"success probability must lie in (0, 1], got {self.success_prob}")
        if abs(self.state.trace - 1.0) > 1e-10:
            raise ValueError("conditional state must be normalized")


def _check_headroom(state: PureState):
    # Addition raises photon number; demand negligible weight in the top levels.
    weight = float(np.sum(np.abs(state.amplitudes[-3:]) ** 2)) / state.norm_squared
    if weight > _HEADROOM_TOL:
        raise TruncationError(
            f"insufficient cutoff headroom for addition: top-level weight {weight:.3e}"
        )


def _clicked(rho: np.ndarray, p_click: float, cutoff: FockCutoff) -> HeraldedResult:
    if p_click <= 0.0:
        raise ConvergenceError("herald click probability vanished")
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real
    return HeraldedResult(DensityMatrix(rho, cutoff), p_click)


def heralded_addition(state: PureState, lam: float) -> HeraldedResult:
    """Single-photon addition heralded by an idler click.

    Band k >= 1 carries amplitude sqrt(C(n+k, k) sech^{2n+2} tanh^{2k}) from
    |n> to |n+k>. The click probability is the complement of the no-click
    weight sum_n |c_n|^2 sech^{2n+2}(lambda), taken over the whole space.
    """
    if not 0.0 < lam <= 0.3:
        raise ValueError(f"squeezing parameter must lie in (0, 0.3], got {lam}")
    _check_headroom(state)
    c = state.amplitudes
    tanh2 = np.tanh(lam) ** 2
    log_sech2, log_tanh2 = np.log1p(-tanh2), np.log(tanh2)
    bands = [
        np.exp(0.5 * (log_c + (np.arange(log_c.size) + 1.0) * log_sech2 + k * log_tanh2))
        for k, log_c in enumerate(log_binomial_bands(state.dim))
        if k
    ]
    weights = np.abs(c) ** 2
    p_click = float(np.sum(weights * -np.expm1((np.arange(state.dim) + 1.0) * log_sech2)))
    rho = raise_bands(bands, np.outer(c, c.conj()))
    return _clicked(rho, p_click / float(np.sum(weights)), state.cutoff)


def heralded_subtraction(state: State, reflectivity: float) -> HeraldedResult:
    """Single-photon subtraction by a weak beam-splitter tap with a click herald.

    The click state is the efficiency-(1-R) loss map without its k = 0 band,
    its band weights C(m+k, k) (1-R)^m R^k taken in the probability domain:
    they sum to the click probability over the diagonal, so |1> clicks with
    probability exactly R, and their square roots are the Kraus amplitudes.
    Coherent states stay exactly coherent with amplitude sqrt(1-R) alpha.
    """
    if not 0.0 < reflectivity < 0.5:
        raise ValueError(f"reflectivity must lie in (0, 0.5), got {reflectivity}")
    rho = fock.normalized_density(state)
    d = rho.dim
    log_keep = np.log(1.0 - reflectivity)
    probs = [
        np.exp(log_c + np.arange(d - k) * log_keep) * reflectivity**k
        for k, log_c in enumerate(log_binomial_bands(d))
        if k
    ]
    populations = rho.elements.diagonal().real
    p_click = sum(float(np.sum(populations[d - p.size :] * p)) for p in probs)
    rho_click = lower_bands([np.sqrt(p) for p in probs], rho.elements)
    return _clicked(rho_click, p_click, rho.cutoff)


def physical_amplifier(
    alpha: complex,
    lam: float,
    reflectivity: float,
    cutoff: FockCutoff | None = None,
) -> HeraldedResult:
    """Addition-then-subtraction on |alpha>, heralded by the coincidence of
    both clicks; the success probability is the product of the stagewise
    conditional click probabilities."""
    if cutoff is None:
        cutoff = fock.default_cutoff(alpha)
    psi = fock.coherent_state(alpha, cutoff)
    added = heralded_addition(psi, lam)
    subtracted = heralded_subtraction(added.state, reflectivity)
    return HeraldedResult(subtracted.state, added.success_prob * subtracted.success_prob)


def fidelity_to_ideal_amplifier(state: State, alpha: complex, g: float = 2.0) -> float:
    """Overlap of a conditional output with the normalized ideal-operator target."""
    target = amplifiers.amplify_ideal(fock.coherent_state(alpha, state.cutoff), g).normalized()
    return fock.state_fidelity(state, target)
