import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nla import fock, homodyne
from nla.errors import CutoffError, ZeroNormError
from nla.fock import FockCutoff


CUT30 = FockCutoff(30)


def mean_x(state, theta=0.0):
    return fock.expectation(state, fock.quadrature_matrix(theta, state.cutoff)).real


def raised(state):
    """a^dag applied to a ket, unnormalized."""
    a_dag = fock.annihilation_matrix(state.cutoff).conj().T
    return fock.PureState(a_dag @ state.amplitudes, state.cutoff)


def lowered(state):
    """a applied to a ket, unnormalized."""
    return fock.PureState(fock.annihilation_matrix(state.cutoff) @ state.amplitudes, state.cutoff)


def coherent_amplitudes_reference(alpha, n_max):
    """Independent construction from the explicit factorial formula."""
    return np.array(
        [
            np.exp(-0.5 * abs(alpha) ** 2) * alpha**n / math.sqrt(math.factorial(n))
            for n in range(n_max + 1)
        ],
        dtype=complex,
    )


class TestCoherentState:
    def test_vacuum_case(self):
        state = fock.coherent_state(0.0, CUT30)
        assert state.amplitudes[0] == 1.0
        assert np.all(state.amplitudes[1:] == 0.0)

    def test_mean_photon_against_series_sum(self):
        state = fock.coherent_state(1.0, CUT30)
        ref = coherent_amplitudes_reference(1.0, 30)
        oracle = sum(n * abs(c) ** 2 for n, c in enumerate(ref))
        assert abs(fock.mean_photon(state) - oracle) < 1e-12
        assert abs(fock.mean_photon(state) - 1.0) < 1e-10

    def test_agrees_with_higher_cutoff(self):
        lo = fock.coherent_state(0.65, CUT30)
        hi = fock.coherent_state(0.65, FockCutoff(60))
        assert np.max(np.abs(lo.amplitudes - hi.amplitudes[:31])) < 1e-12
        assert abs(lo.norm_squared - hi.norm_squared) < 1e-12

    def test_norm_close_to_one(self):
        for alpha in (0.3, 0.65 + 0.2j, 1.4):
            state = fock.coherent_state(alpha)
            assert abs(state.norm - 1.0) < 1e-12

    def test_cutoff_too_small_raises(self):
        with pytest.raises(CutoffError):
            fock.coherent_state(2.0, FockCutoff(20))

    def test_default_cutoff_floor_and_growth(self):
        assert fock.default_cutoff(0.0).n_max == 20
        big = fock.default_cutoff(1.5, g=3.0)
        assert big.n_max > 40
        assert fock.poisson_tail(big.n_max, (3.0 * 1.5) ** 2) < 1e-12


class TestLadder:
    def test_creation_on_vacuum(self):
        out = raised(fock.vacuum_state(CUT30))
        assert np.allclose(out.amplitudes, fock.fock_state(1, CUT30).amplitudes)

    def test_coherent_is_annihilation_eigenstate(self):
        state = fock.coherent_state(0.4 + 0.3j, CUT30)
        out = lowered(state)
        assert np.max(np.abs(out.amplitudes - (0.4 + 0.3j) * state.amplitudes)) < 1e-10

    def test_annihilation_on_vacuum_is_zero(self):
        out = lowered(fock.vacuum_state(CUT30))
        assert out.norm == 0.0

    def test_output_norms_match_expectations(self):
        state = fock.coherent_state(0.8, FockCutoff(40))
        n_op = fock.number_matrix(state.cutoff)
        up = raised(state)
        down = lowered(state)
        mean_n = fock.expectation(state, n_op).real
        assert abs(up.norm_squared - (mean_n + 1.0)) < 1e-9
        assert abs(down.norm_squared - mean_n) < 1e-10


class TestExpectation:
    def test_x0_on_coherent(self):
        assert abs(mean_x(fock.coherent_state(0.5, CUT30)) - 1.0) < 1e-12

    def test_vacuum_shot_noise_unit(self):
        assert abs(fock.var_x(fock.vacuum_state(CUT30)) - 1.0) < 1e-12

    def test_number_on_single_photon_projector(self):
        rho = fock.fock_state(1, CUT30).to_density()
        assert abs(fock.mean_photon(rho) - 1.0) < 1e-12

    def test_zero_norm_raises(self):
        dead = lowered(fock.vacuum_state(CUT30))
        with pytest.raises(ZeroNormError):
            fock.expectation(dead, fock.number_matrix(CUT30))

    def test_quadrature_mean_phase_dependence(self):
        alpha = 0.7 * np.exp(0.9j)
        state = fock.coherent_state(alpha, CUT30)
        for theta in np.linspace(0.0, 2.0 * np.pi, 9):
            expected = 2.0 * abs(alpha) * np.cos(np.angle(alpha) - theta)
            assert abs(mean_x(state, theta) - expected) < 1e-10

    def test_commutator_unit(self):
        a = fock.annihilation_matrix(CUT30)
        for alpha in (0.0, 0.5, 1.0 + 0.4j):
            state = fock.coherent_state(alpha, CUT30)
            aa_dag = fock.expectation(state, a @ a.conj().T).real
            n = fock.mean_photon(state)
            assert abs(aa_dag - n - 1.0) < 1e-9

    def test_cutoff_insensitivity(self):
        for alpha in (0.5, 1.0):
            small = fock.coherent_state(alpha, CUT30)
            large = fock.coherent_state(alpha, FockCutoff(40))
            for theta in (0.0, np.pi / 3):
                assert abs(mean_x(small, theta) - mean_x(large, theta)) < 1e-9
                assert abs(fock.var_x(small, theta) - fock.var_x(large, theta)) < 1e-9
            assert abs(fock.mean_photon(small) - fock.mean_photon(large)) < 1e-9


class TestFidelity:
    def test_self_fidelity(self):
        state = fock.coherent_state(0.6, CUT30)
        assert abs(fock.state_fidelity(state, state) - 1.0) < 1e-12

    def test_orthogonal_fock_states(self):
        assert fock.state_fidelity(fock.vacuum_state(CUT30), fock.fock_state(1, CUT30)) == 0.0

    def test_coherent_pair_closed_form(self):
        a = fock.coherent_state(0.3, CUT30)
        b = fock.coherent_state(0.6, CUT30)
        assert abs(fock.state_fidelity(a, b) - np.exp(-0.09)) < 1e-12

    def test_symmetry_and_global_phase(self):
        a = fock.coherent_state(0.3, CUT30)
        b = fock.coherent_state(0.6, CUT30)
        assert abs(fock.state_fidelity(a, b) - fock.state_fidelity(b, a)) < 1e-14
        rotated = fock.PureState(a.amplitudes * np.exp(0.7j), CUT30)
        assert abs(fock.state_fidelity(rotated, b) - fock.state_fidelity(a, b)) < 1e-14

    def test_unnormalized_inputs_are_normalized(self):
        a = fock.coherent_state(0.3, CUT30)
        scaled = fock.PureState(3.0 * a.amplitudes, CUT30)
        b = fock.coherent_state(0.6, CUT30)
        assert abs(fock.state_fidelity(scaled, b) - fock.state_fidelity(a, b)) < 1e-13

    def test_mixed_against_pure(self):
        rho = fock.fock_state(1, CUT30).to_density()
        vac = fock.vacuum_state(CUT30)
        assert fock.state_fidelity(rho, vac) < 1e-14


class TestOneDispatch:
    """A ket and its density matrix go through normalized_density to the same
    numbers, whatever the ket's norm."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(4, 12),
        st.floats(0.1, 3.0),
        st.floats(0.0, 2.0 * np.pi),
        st.integers(0, 2**32 - 1),
    )
    def test_ket_and_density_agree(self, dim, scale, theta, seed):
        rng = np.random.default_rng(seed)
        cut = FockCutoff(dim - 1)
        unit = fock.PureState(rng.normal(size=dim) + 1j * rng.normal(size=dim), cut).normalized()
        b = fock.PureState(rng.normal(size=dim) + 1j * rng.normal(size=dim), cut)
        operators = (fock.number_matrix(cut), fock.quadrature_matrix(theta, cut))
        for ket in (unit, fock.PureState(scale * unit.amplitudes, cut)):
            rho = ket.to_density()
            for op in operators:
                assert abs(fock.expectation(ket, op) - fock.expectation(rho, op)) < 1e-12
            assert abs(fock.state_fidelity(ket, b) - fock.state_fidelity(rho, b)) < 1e-12
            lossy_ket = homodyne.loss_channel(ket, 0.6).elements
            lossy_rho = homodyne.loss_channel(rho, 0.6).elements
            assert np.max(np.abs(lossy_ket - lossy_rho)) < 1e-12


class TestValueTypes:
    def test_states_are_immutable(self):
        state = fock.vacuum_state(CUT30)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.5

    def test_density_matrix_validation(self):
        bad = np.zeros((31, 31), dtype=complex)
        bad[0, 1] = 1.0  # not Hermitian
        with pytest.raises(ValueError):
            fock.DensityMatrix(bad, CUT30)
        overweight = np.eye(31, dtype=complex)
        with pytest.raises(ValueError):
            fock.DensityMatrix(overweight, CUT30)  # trace 31 > 1

    def test_subnormalized_density_allowed(self):
        rho = np.zeros((31, 31), dtype=complex)
        rho[0, 0] = 0.4
        dm = fock.DensityMatrix(rho, CUT30)
        assert abs(dm.trace - 0.4) < 1e-15
        assert abs(dm.normalized().trace - 1.0) < 1e-15
