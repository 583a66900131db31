"""Truncated Fock-space simulator of probabilistic noiseless amplification of
coherent light: amplifier figures of merit, a heralded physical model, lossy
homodyne detection, maximum-likelihood tomography, and Wigner-function
analysis, all in a single shot-noise-unit convention."""

__version__ = "0.1.0"

from .fock import (
    DensityMatrix,
    FockCutoff,
    PureState,
    coherent_state,
    default_cutoff,
    expectation,
    fock_state,
    mean_photon,
    state_fidelity,
    vacuum_state,
    var_x,
)
from .amplifiers import (
    AmplifierReport,
    amplify_ideal,
    deterministic_noise_bounds,
    effective_gain_analytic,
    effective_gain_numeric,
    equivalent_input_noise,
    fidelity_analytic,
    fidelity_numeric,
    ideal_amplifier_report,
    phase_estimation_metrics,
    scissors_metrics,
)
from .physical import (
    HeraldedResult,
    fidelity_to_ideal_amplifier,
    heralded_addition,
    heralded_subtraction,
    physical_amplifier,
)
from .homodyne import (
    GainEstimate,
    QuadratureDataset,
    gain_from_samples,
    loss_channel,
    quadrature_pdf,
    sample_quadratures,
    uniform_phases,
)
from .tomography import (
    ReconstructionResult,
    TomographySettings,
    amplified_fidelity_diagnostic,
    maxlik_reconstruct,
)
from .wigner import (
    WignerGrid,
    mixture,
    phase_shift,
    wigner_function,
    wigner_marginal,
    wigner_overlap,
)

__all__ = [
    "AmplifierReport",
    "DensityMatrix",
    "FockCutoff",
    "GainEstimate",
    "HeraldedResult",
    "PureState",
    "QuadratureDataset",
    "ReconstructionResult",
    "TomographySettings",
    "WignerGrid",
    "amplified_fidelity_diagnostic",
    "amplify_ideal",
    "coherent_state",
    "default_cutoff",
    "deterministic_noise_bounds",
    "effective_gain_analytic",
    "effective_gain_numeric",
    "equivalent_input_noise",
    "expectation",
    "fidelity_analytic",
    "fidelity_numeric",
    "fidelity_to_ideal_amplifier",
    "fock_state",
    "gain_from_samples",
    "heralded_addition",
    "heralded_subtraction",
    "ideal_amplifier_report",
    "loss_channel",
    "maxlik_reconstruct",
    "mean_photon",
    "mixture",
    "phase_estimation_metrics",
    "phase_shift",
    "physical_amplifier",
    "quadrature_pdf",
    "sample_quadratures",
    "scissors_metrics",
    "state_fidelity",
    "uniform_phases",
    "vacuum_state",
    "var_x",
    "wigner_function",
    "wigner_marginal",
    "wigner_overlap",
]
