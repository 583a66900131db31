"""Ideal noiseless-amplifier operator, the quantum-scissors rival, and every
figure of merit: effective gain, fidelity to the amplified target, equivalent
input noise, the best deterministic-amplifier variance, and phase-estimation
variance reduction.

All closed forms depend on |alpha| only; metric sweeps therefore take a real
amplitude, while the state constructors accept full complex alpha.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fock
from .fock import FockCutoff, PureState, State

@dataclass(frozen=True)
class AmplifierReport:
    """Figures of merit of one amplifier at one input amplitude; variances
    are in shot-noise units."""

    g_eff: float
    n_eq: float
    var_x_amp: float
    var_p_amp: float

    def __post_init__(self):
        if self.var_x_amp <= 0.0 or self.var_p_amp <= 0.0:
            raise ValueError("variances must be positive")


def amplify_ideal(state: PureState, g: float) -> PureState:
    """Apply the diagonal amplification operator; output is unnormalized.

    The squared norm of the output relative to the input is the success
    weight <G^2>.
    """
    if g < 1.0:
        raise ValueError(f"gain must be >= 1, got {g}")
    weights = (g - 1.0) * np.arange(state.dim) + 1.0
    return PureState(state.amplitudes * weights, state.cutoff)


def effective_gain_analytic(g: float, alpha_abs: float) -> float:
    """Closed-form effective gain of the ideal operator on |alpha>."""
    a2 = alpha_abs * alpha_abs
    num = (g - 1.0) * (1.0 + (g - 1.0) * a2)
    den = 1.0 + (g * g - 1.0) * a2 + (g - 1.0) ** 2 * a2 * a2
    return 1.0 + num / den


def effective_gain_numeric(
    g: float, alpha_abs: float, cutoff: FockCutoff | None = None
) -> float:
    """Effective gain from the Fock-space mean-amplitude ratio <G a G>/(alpha <G^2>)."""
    if cutoff is None:
        cutoff = fock.default_cutoff(alpha_abs, g=g)
    if alpha_abs == 0.0:
        # alpha -> 0 limit of the ratio: only the n=0 -> n=1 matrix element
        # survives, giving G_1 / G_0 from the operator diagonal itself.
        diag = (g - 1.0) * np.arange(cutoff.dim) + 1.0
        return float(diag[1] / diag[0])
    out = amplify_ideal(fock.coherent_state(alpha_abs, cutoff), g)
    mean_a = fock.expectation(out, fock.annihilation_matrix(cutoff))
    return float(mean_a.real / alpha_abs)


def fidelity_analytic(g: float, alpha_abs: float) -> float:
    """Closed-form fidelity of the ideal-operator output against |g alpha>."""
    a2 = alpha_abs * alpha_abs
    num = (1.0 + g * (g - 1.0) * a2) ** 2 * np.exp(-((g - 1.0) ** 2) * a2)
    den = 1.0 + (g * g - 1.0) * a2 + (g - 1.0) ** 2 * a2 * a2
    return float(num / den)


def fidelity_numeric(
    g: float, alpha_abs: float, cutoff: FockCutoff | None = None
) -> float:
    """Fock-space overlap of the amplified state with the target |g alpha>."""
    if cutoff is None:
        cutoff = fock.default_cutoff(alpha_abs, g=g)
    out = amplify_ideal(fock.coherent_state(alpha_abs, cutoff), g)
    target = fock.coherent_state(g * alpha_abs, cutoff)
    return fock.state_fidelity(out, target)


def scissors_metrics(g: float, alpha_abs: float) -> tuple[float, float]:
    """(effective gain, fidelity) of the quantum-scissors amplifier."""
    if g < 1.0:
        raise ValueError(f"gain must be >= 1, got {g}")
    s = g * g * alpha_abs * alpha_abs
    return g / (1.0 + s), float((1.0 + s) * np.exp(-s))


def equivalent_input_noise(var_x_amp: float, g_eff: float, var_x_in: float) -> float:
    """Output quadrature noise referred to the input, minus the input noise.

    Negative values certify noiseless-amplifier behavior (a deterministic
    amplifier cannot reach N_eq < 0).
    """
    if g_eff <= 0.0:
        raise ValueError(f"effective gain must be positive, got {g_eff}")
    if var_x_amp <= 0.0 or var_x_in <= 0.0:
        raise ValueError("variances must be positive")
    return var_x_amp / (g_eff * g_eff) - var_x_in


def deterministic_noise_bounds(g: float) -> float:
    """Best output quadrature variance 2g^2 - 1 that a deterministic
    amplifier of gain g reaches on a coherent input, in shot-noise units."""
    if g < 1.0:
        raise ValueError(f"gain must be >= 1, got {g}")
    return 2.0 * (g * g) - 1.0


def phase_estimation_metrics(
    rho_out: State, alpha_abs: float, g_eff: float
) -> tuple[float, float]:
    """(V_SQL, R_V) for a coherent probe of amplitude |alpha|.

    V_SQL = 1/(4 |alpha|^2) is the standard-quantum-limit estimator variance;
    R_V = var_p(out) / g_eff^2 is the conditional reduction factor, with the
    input coherent phase-quadrature variance equal to 1 by convention.
    """
    if alpha_abs <= 0.0:
        raise ValueError("phase estimation undefined at zero probe amplitude")
    v_sql = 1.0 / (4.0 * alpha_abs * alpha_abs)
    r_v = fock.var_x(rho_out, np.pi / 2.0) / (g_eff * g_eff)
    return v_sql, r_v


def ideal_amplifier_report(
    g: float, alpha_abs: float, cutoff: FockCutoff | None = None
) -> AmplifierReport:
    """All figures of merit of the ideal operator on |alpha>, Fock-space route."""
    if cutoff is None:
        cutoff = fock.default_cutoff(alpha_abs, g=g)
    out = amplify_ideal(fock.coherent_state(alpha_abs, cutoff), g)
    g_eff = (
        effective_gain_numeric(g, alpha_abs, cutoff)
        if alpha_abs > 0.0
        else effective_gain_analytic(g, 0.0)
    )
    var_x_amp = fock.var_x(out, 0.0)
    var_p_amp = fock.var_x(out, np.pi / 2.0)
    return AmplifierReport(
        g_eff=g_eff,
        n_eq=equivalent_input_noise(var_x_amp, g_eff, 1.0),
        var_x_amp=var_x_amp,
        var_p_amp=var_p_amp,
    )
