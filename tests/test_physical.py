import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from nla import fock, homodyne, physical
from nla.errors import TruncationError
from nla.fock import FockCutoff


def two_mode_unitary(generator_scale, kind, dim):
    """Dense two-mode unitary on a dim x dim Fock grid via matrix exponential.

    kind "squeezer": exp[s (ad bd - a b)]; kind "beamsplitter": exp[t (ad b - a bd)].
    Independent oracle for the closed-form Kraus bands in nla.physical. The
    grid truncates the generator itself: the beam splitter conserves photon
    number and is exact on the states it reaches from an ancilla vacuum, but
    the squeezer is not, so its oracle runs at 3x the signal dimension.
    """
    a = np.diag(np.sqrt(np.arange(1, dim)), 1)
    ad = a.conj().T
    eye = np.eye(dim)
    if kind == "squeezer":
        gen = np.kron(ad, ad) - np.kron(a, a)
    else:
        gen = np.kron(ad, a) - np.kron(a, ad)
    return expm(generator_scale * gen)


def herald_on_ancilla(joint_rho, dim, click):
    """Partial projection of mode B onto click/no-click, then trace it out."""
    rho = joint_rho.reshape(dim, dim, dim, dim)  # (nA, nB, mA, mB)
    if click:
        reduced = np.einsum("ibjb->ij", rho[:, 1:, :, 1:])
    else:
        reduced = rho[:, 0, :, 0]
    prob = float(np.trace(reduced).real)
    return reduced / prob, prob


def addition_oracle(amplitudes, lam):
    """Squeezer click state on the first dim levels, renormalized, and the
    full click probability, from the unitary at 3x the signal dimension."""
    dim = amplitudes.size
    big = 3 * dim
    padded = np.zeros(big, dtype=complex)
    padded[:dim] = amplitudes / np.linalg.norm(amplitudes)
    joint = two_mode_unitary(lam, "squeezer", big) @ np.kron(padded, np.eye(big)[0])
    clicked, prob = herald_on_ancilla(np.outer(joint, joint.conj()), big, click=True)
    block = clicked[:dim, :dim]
    return block / np.trace(block).real, prob


def headroom_ket(alpha, dim):
    """Coherent amplitudes of |alpha> on all but the top three of dim levels."""
    amps = np.zeros(dim, dtype=complex)
    amps[0] = np.exp(-0.5 * alpha**2)
    for n in range(dim - 4):
        amps[n + 1] = amps[n] * alpha / np.sqrt(n + 1.0)
    return fock.PureState(amps, FockCutoff(dim - 1))


def purity(rho):
    """Tr(rho^2) of the normalized density matrix."""
    unit = rho.elements / rho.trace
    return float(np.trace(unit @ unit).real)


alphas = st.floats(0.0, 1.0)
squeezings = st.floats(1e-3, 0.3)
reflectivities = st.floats(1e-3, 0.5, exclude_max=True)
dims = st.integers(4, 10)


class TestHeraldedAddition:
    def test_vacuum_gives_single_photon(self):
        cut = FockCutoff(20)
        res = physical.heralded_addition(fock.vacuum_state(cut), 0.01)
        lam2 = 0.01**2
        assert abs(res.success_prob - lam2) < 2.0 * lam2**2
        assert fock.state_fidelity(res.state, fock.fock_state(1, cut)) > 1.0 - 2.0 * lam2

    def test_weak_limit_matches_creation_operator(self):
        cut = FockCutoff(25)
        psi = fock.coherent_state(0.5, cut)
        res = physical.heralded_addition(psi, 0.01)
        raised = fock.annihilation_matrix(cut).conj().T @ psi.amplitudes
        target = fock.PureState(raised, cut).normalized()
        assert fock.state_fidelity(res.state, target) >= 0.9999

    def test_against_matrix_exponential_oracle(self):
        dim = 12
        cut = FockCutoff(dim - 1)
        lam = 0.2
        psi = fock.coherent_state(0.4, cut)
        res = physical.heralded_addition(psi, lam)

        expected, prob = addition_oracle(psi.amplitudes, lam)
        assert abs(res.success_prob - prob) < 1e-10
        assert np.max(np.abs(res.state.elements - expected)) < 1e-9

    @settings(max_examples=20, deadline=None)
    @given(alphas, squeezings, dims)
    def test_matches_oracle_property(self, alpha, lam, dim):
        psi = headroom_ket(alpha, dim)
        res = physical.heralded_addition(psi, lam)
        expected, prob = addition_oracle(psi.amplitudes, lam)
        assert abs(res.success_prob - prob) < 1e-12
        assert np.max(np.abs(res.state.elements - expected)) < 1e-12

    def test_click_and_no_click_recombine(self):
        dim = 12
        cut = FockCutoff(dim - 1)
        lam = 0.15
        psi = fock.coherent_state(0.3, cut)
        res = physical.heralded_addition(psi, lam)
        u = two_mode_unitary(lam, "squeezer", dim)
        joint = u @ np.kron(psi.amplitudes, np.eye(dim)[0])
        joint_rho = np.outer(joint, joint.conj())
        noclick, p0 = herald_on_ancilla(joint_rho, dim, click=False)
        unconditional = np.einsum("ibjb->ij", joint_rho.reshape(dim, dim, dim, dim))
        unconditional /= np.trace(unconditional).real
        recombined = res.success_prob * res.state.elements + p0 * noclick
        assert abs(res.success_prob + p0 - 1.0) < 1e-10
        assert np.max(np.abs(recombined - unconditional)) < 1e-10

    def test_purity_penalty_is_second_order(self):
        cut = FockCutoff(25)
        psi = fock.coherent_state(0.5, cut)
        res = physical.heralded_addition(psi, 0.05)
        assert purity(res.state) > 1.0 - 10.0 * 0.05**2

    def test_parameter_validation(self):
        cut = FockCutoff(20)
        vac = fock.vacuum_state(cut)
        with pytest.raises(ValueError):
            physical.heralded_addition(vac, 0.0)  # no herald possible
        with pytest.raises(ValueError):
            physical.heralded_addition(vac, 0.5)

    def test_headroom_enforced(self):
        cut = FockCutoff(10)
        with pytest.raises(TruncationError):
            physical.heralded_addition(fock.fock_state(9, cut), 0.05)


class TestHeraldedSubtraction:
    def test_single_photon_reflects_exactly(self):
        cut = FockCutoff(20)
        for reflectivity in (0.05, 0.17, 0.3):
            res = physical.heralded_subtraction(fock.fock_state(1, cut), reflectivity)
            assert res.success_prob == reflectivity
            assert fock.state_fidelity(res.state, fock.vacuum_state(cut)) == 1.0

    def test_coherent_stays_coherent(self):
        cut = FockCutoff(25)
        psi = fock.coherent_state(0.5, cut)
        res = physical.heralded_subtraction(psi, 0.05)
        target = fock.coherent_state(np.sqrt(0.95) * 0.5, cut)
        assert abs(fock.state_fidelity(res.state, target) - 1.0) < 1e-10
        assert abs(res.success_prob - (1.0 - np.exp(-0.05 * 0.25))) < 1e-12
        assert purity(res.state) > 1.0 - 1e-12

    def test_weak_tap_approaches_annihilation(self):
        cut = FockCutoff(25)
        psi = fock.coherent_state(0.5, cut)
        res = physical.heralded_subtraction(psi, 1e-4)
        assert fock.state_fidelity(res.state, psi) > 1.0 - 1e-7

    def test_against_matrix_exponential_oracle(self):
        dim = 12
        cut = FockCutoff(dim - 1)
        reflectivity = 0.2
        mixing = np.arcsin(np.sqrt(reflectivity))
        psi = fock.coherent_state(0.4, cut)
        res = physical.heralded_subtraction(psi, reflectivity)

        u = two_mode_unitary(mixing, "beamsplitter", dim)
        joint = u @ np.kron(psi.amplitudes, np.eye(dim)[0])
        joint_rho = np.outer(joint, joint.conj())
        expected, prob = herald_on_ancilla(joint_rho, dim, click=True)
        assert abs(res.success_prob - prob) < 1e-10
        assert np.max(np.abs(res.state.elements - expected)) < 1e-9

    def test_mixed_input_against_oracle(self):
        dim = 10
        cut = FockCutoff(dim - 1)
        reflectivity = 0.1
        mixing = np.arcsin(np.sqrt(reflectivity))
        rho_in = 0.6 * fock.coherent_state(0.4, cut).to_density().elements
        rho_in = rho_in + 0.4 * fock.fock_state(2, cut).to_density().elements
        dm = fock.DensityMatrix(rho_in, cut)
        res = physical.heralded_subtraction(dm, reflectivity)

        u = two_mode_unitary(mixing, "beamsplitter", dim)
        big = np.zeros((dim * dim, dim * dim), dtype=complex)
        eye0 = np.eye(dim)[0]
        big = np.kron(rho_in, np.outer(eye0, eye0))
        joint_rho = u @ big @ u.conj().T
        expected, prob = herald_on_ancilla(joint_rho, dim, click=True)
        assert abs(res.success_prob - prob) < 1e-10
        assert np.max(np.abs(res.state.elements - expected)) < 1e-9

    def test_unconditional_map_is_loss_channel(self):
        cut = FockCutoff(20)
        psi = fock.coherent_state(0.6, cut)
        reflectivity = 0.15
        res = physical.heralded_subtraction(psi, reflectivity)
        # no-click branch has closed form: amplitudes scaled by (1-R)^{n/2}
        noclick = fock.PureState(
            psi.amplitudes * np.sqrt(1.0 - reflectivity) ** np.arange(21), cut
        )
        p_noclick = noclick.norm_squared
        assert abs(res.success_prob + p_noclick - 1.0) < 1e-12
        recombined = (
            res.success_prob * res.state.elements
            + p_noclick * noclick.to_density().elements
        )
        lossy = homodyne.loss_channel(psi, 1.0 - reflectivity)
        assert np.max(np.abs(recombined - lossy.elements)) < 1e-10

        # a random full-rank mixed input: the no-click branch is K rho K with
        # K = diag((1-R)^{n/2})
        rng = np.random.default_rng(5)
        z = rng.normal(size=(21, 21)) + 1j * rng.normal(size=(21, 21))
        rho = z @ z.conj().T
        mixed = fock.DensityMatrix(rho / np.trace(rho).real, cut)
        res = physical.heralded_subtraction(mixed, reflectivity)
        keep = np.sqrt(1.0 - reflectivity) ** np.arange(21)
        noclick = keep[:, None] * mixed.elements * keep
        assert abs(res.success_prob + np.trace(noclick).real - 1.0) < 1e-12
        recombined = res.success_prob * res.state.elements + noclick
        lossy = homodyne.loss_channel(mixed, 1.0 - reflectivity)
        assert np.max(np.abs(recombined - lossy.elements)) < 1e-12

    def test_parameter_validation(self):
        cut = FockCutoff(20)
        with pytest.raises(ValueError):
            physical.heralded_subtraction(fock.fock_state(1, cut), 0.0)
        with pytest.raises(ValueError):
            physical.heralded_subtraction(fock.fock_state(1, cut), 0.6)


class TestPhysicalAmplifier:
    @given(alphas, squeezings, reflectivities, dims)
    def test_click_and_no_click_probabilities_sum_to_one(self, alpha, lam, reflectivity, dim):
        psi = headroom_ket(alpha, dim)
        n = np.arange(dim)
        added = physical.heralded_addition(psi, lam)
        weights = np.abs(psi.amplitudes) ** 2
        no_click = np.sum(weights / np.cosh(lam) ** (2 * n + 2)) / np.sum(weights)
        assert abs(added.success_prob + no_click - 1.0) < 1e-12

        subtracted = physical.heralded_subtraction(added.state, reflectivity)
        populations = added.state.elements.diagonal().real
        no_click = np.sum(populations * (1.0 - reflectivity) ** n)
        assert abs(subtracted.success_prob + no_click - 1.0) < 1e-12

    def test_vacuum_input_returns_near_vacuum(self):
        res = physical.physical_amplifier(0.0, 0.01, 0.05)
        cut = res.state.cutoff
        assert fock.state_fidelity(res.state, fock.vacuum_state(cut)) >= 0.99

    def test_converges_to_ideal_operator(self):
        res = physical.physical_amplifier(0.5, 0.01, 0.01)
        assert physical.fidelity_to_ideal_amplifier(res.state, 0.5) >= 0.999

    def test_success_prob_is_stagewise_product(self):
        cut = fock.default_cutoff(0.5)
        psi = fock.coherent_state(0.5, cut)
        added = physical.heralded_addition(psi, 0.02)
        subtracted = physical.heralded_subtraction(added.state, 0.05)
        composed = physical.physical_amplifier(0.5, 0.02, 0.05, cut)
        product = added.success_prob * subtracted.success_prob
        assert abs(composed.success_prob - product) < 1e-12

    def test_success_prob_monotone_in_squeezing(self):
        probs = [
            physical.physical_amplifier(0.5, lam, 0.05).success_prob
            for lam in (0.01, 0.02, 0.05)
        ]
        assert probs[0] < probs[1] < probs[2]

    def test_fidelity_improves_as_parameters_shrink(self):
        coarse = physical.physical_amplifier(0.5, 0.1, 0.2)
        fine = physical.physical_amplifier(0.5, 0.01, 0.02)
        f_coarse = physical.fidelity_to_ideal_amplifier(coarse.state, 0.5)
        f_fine = physical.fidelity_to_ideal_amplifier(fine.state, 0.5)
        assert f_fine > f_coarse
