import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_laguerre

from nla import amplifiers, fock, homodyne, wigner
from nla.errors import GridError
from nla.fock import FockCutoff
from reference_impl import reference_wigner_points


CUT = FockCutoff(25)
AXES = wigner.default_axes()


def coherent_wigner_closed_form(alpha, x, p):
    xg, pg = np.meshgrid(x, p, indexing="ij")
    dx = xg - 2.0 * alpha.real
    dp = pg - 2.0 * alpha.imag
    return np.exp(-(dx * dx + dp * dp) / 2.0) / (2.0 * np.pi)


class TestWignerFunction:
    def test_vacuum_peak_and_shape(self):
        grid = wigner.wigner_function(fock.vacuum_state(CUT))
        assert abs(grid.values.max() - 1.0 / (2.0 * np.pi)) < 1e-12
        expected = coherent_wigner_closed_form(0.0 + 0.0j, grid.x_axis, grid.p_axis)
        assert np.max(np.abs(grid.values - expected)) < 1e-12

    def test_single_photon_negative_dip(self):
        grid = wigner.wigner_function(fock.fock_state(1, CUT))
        i0 = np.argmin(np.abs(grid.x_axis))
        assert abs(grid.values[i0, i0] + 1.0 / (2.0 * np.pi)) < 1e-12

    def test_parity_rule_at_origin(self):
        # W(0,0) = (1/2 pi) <(-1)^n> for any state
        psi = fock.coherent_state(0.8, CUT)
        grid = wigner.wigner_function(psi)
        i0 = np.argmin(np.abs(grid.x_axis))
        parity = np.sum((-1.0) ** np.arange(26) * np.abs(psi.amplitudes) ** 2)
        assert abs(grid.values[i0, i0] - parity / (2.0 * np.pi)) < 1e-12

    def test_coherent_state_displaced_gaussian(self):
        alpha = 0.9 + 0.4j
        grid = wigner.wigner_function(fock.coherent_state(alpha, FockCutoff(35)))
        expected = coherent_wigner_closed_form(alpha, grid.x_axis, grid.p_axis)
        assert np.max(np.abs(grid.values - expected)) < 1e-10

    def test_normalization_and_bound(self):
        for state in (fock.fock_state(3, CUT), fock.coherent_state(1.2, FockCutoff(35))):
            grid = wigner.wigner_function(state)
            total = np.trapezoid(np.trapezoid(grid.values, grid.p_axis, axis=1), grid.x_axis)
            assert abs(total - 1.0) < 1e-4
            assert np.max(np.abs(grid.values)) <= 1.0 / np.pi

    def test_linearity(self):
        rho_a = fock.coherent_state(0.5, CUT).to_density()
        rho_b = fock.fock_state(1, CUT).to_density()
        mixed = wigner.mixture([rho_a, rho_b], [0.3, 0.7])
        w_mixed = wigner.wigner_values(mixed, AXES, AXES)
        w_sum = 0.3 * wigner.wigner_values(rho_a, AXES, AXES) + 0.7 * wigner.wigner_values(
            rho_b, AXES, AXES
        )
        assert np.max(np.abs(w_mixed - w_sum)) < 1e-12

    def test_grid_coverage_error(self):
        with pytest.raises(GridError):
            wigner.wigner_function(
                fock.coherent_state(1.5, FockCutoff(40)), np.linspace(-2, 2, 81)
            )

    def test_non_uniform_x_axis_rejected(self):
        psi = fock.coherent_state(0.5, CUT)
        x = np.array([-1.0, 0.0, 0.5, 1.0])
        with pytest.raises(ValueError, match="strictly increasing and uniform"):
            wigner.wigner_values(psi, x, AXES)
        with pytest.raises(ValueError, match="strictly increasing and uniform"):
            wigner.wigner_values(psi, AXES[::-1], AXES)

    def test_coarse_x_axis_is_exact(self):
        # 2 pi / spacing is below the state's p extent here, so the sum must
        # refine its step to keep the aliased copies of W off the grid.
        psi = fock.coherent_state(1.5 + 0.5j, FockCutoff(40))
        x = np.linspace(-8.0, 8.0, 5)
        expected = coherent_wigner_closed_form(1.5 + 0.5j, x, AXES)
        assert np.max(np.abs(wigner.wigner_values(psi, x, AXES) - expected)) < 1e-13


@st.composite
def random_densities(draw, max_dim=40):
    """A random full-rank density matrix on 2..max_dim levels (n_max >= 1)."""
    dim = draw(st.integers(2, max_dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return fock.DensityMatrix(rho / np.trace(rho).real, FockCutoff(dim - 1))


# The reference recurrence's own rounding grows with d: in extended precision
# it is off by up to 3e-14 at d 38 (the largest cutoff the pipeline uses, at
# alpha 1.5) but 7e-14 at d 40 and 1.3e-13 at d 41, while the position-space
# sum agrees with 40-digit quadratures to 1e-17. Comparisons at 1e-13 against
# it stop at d 38; the Fock-state closed form covers d up to 40.
REFERENCE_MAX_DIM = 38


class TestWignerProperties:
    @settings(max_examples=10, deadline=None)
    @given(random_densities(REFERENCE_MAX_DIM))
    def test_grid_matches_reference_on_default_axes(self, rho):
        xg, pg = np.meshgrid(AXES, AXES, indexing="ij")
        expected = reference_wigner_points(rho.elements, xg, pg)
        assert np.max(np.abs(wigner.wigner_values(rho, AXES, AXES) - expected)) < 1e-13

    @settings(max_examples=20, deadline=None)
    @given(random_densities(REFERENCE_MAX_DIM), st.integers(0, 2**32 - 1))
    def test_grid_matches_reference_on_non_uniform_p(self, rho, seed):
        x = np.linspace(-7.0, 9.0, 33)
        p = np.sort(np.random.default_rng(seed).uniform(-9.0, 9.0, 47))
        xg, pg = np.meshgrid(x, p, indexing="ij")
        expected = reference_wigner_points(rho.elements, xg, pg)
        assert np.max(np.abs(wigner.wigner_values(rho, x, p) - expected)) < 1e-13

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 39))
    def test_fock_state_matches_laguerre_closed_form(self, n):
        # W_n = ((-1)^n / 2 pi) e^{-r^2/2} L_n(r^2), r^2 = x^2 + p^2
        grid = wigner.wigner_values(fock.fock_state(n, FockCutoff(max(n, 1))), AXES, AXES)
        xg, pg = np.meshgrid(AXES, AXES, indexing="ij")
        r2 = xg * xg + pg * pg
        expected = (-1.0) ** n / (2.0 * np.pi) * np.exp(-r2 / 2.0) * eval_laguerre(n, r2)
        assert np.max(np.abs(grid - expected)) < 1e-13

    @settings(max_examples=10, deadline=None)
    @given(random_densities(), st.floats(0.0, 2.0 * np.pi))
    def test_marginal_matches_quadrature_pdf(self, rho, theta):
        u = np.arange(-16.0, 16.0001, 0.02)
        marg = wigner.wigner_marginal(rho, theta, u, np.linspace(-16.0, 16.0, 401))
        assert np.max(np.abs(marg - homodyne.quadrature_pdf(rho, theta, u))) < 1e-4

    @settings(max_examples=20, deadline=None)
    @given(random_densities(), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    def test_linear_over_mixtures(self, rho_a, seed, weight):
        g = np.random.default_rng(seed).normal(size=(2, rho_a.dim, rho_a.dim))
        g = g[0] + 1j * g[1]
        rho_b = g @ g.conj().T
        rho_b = fock.DensityMatrix(rho_b / np.trace(rho_b).real, rho_a.cutoff)
        mixed = wigner.mixture([rho_a, rho_b], [weight, 1.0 - weight])
        w_sum = weight * wigner.wigner_values(rho_a, AXES, AXES) + (
            1.0 - weight
        ) * wigner.wigner_values(rho_b, AXES, AXES)
        assert np.max(np.abs(wigner.wigner_values(mixed, AXES, AXES) - w_sum)) < 1e-12


class TestMarginals:
    def test_marginals_match_quadrature_pdf(self):
        psi = amplifiers.amplify_ideal(fock.coherent_state(0.65, CUT), 2.0).normalized()
        u = np.arange(-10.0, 10.0001, 0.02)
        for theta in (0.0, np.pi / 4, np.pi / 2):
            marg = wigner.wigner_marginal(psi, theta, u)
            pdf = homodyne.quadrature_pdf(psi, theta, u)
            assert np.max(np.abs(marg - pdf)) < 1e-4

    def test_non_uniform_s_axis_rejected(self):
        u = np.arange(-8.0, 8.0001, 0.02)
        s = np.concatenate([np.linspace(-8.0, 0.0, 101), np.linspace(0.1, 8.0, 50)])
        with pytest.raises(ValueError, match="s_axis must be strictly increasing and uniform"):
            wigner.wigner_marginal(fock.vacuum_state(CUT), 0.3, u, s)

    def test_fock_state_marginal(self):
        u = np.arange(-8.0, 8.0001, 0.02)
        marg = wigner.wigner_marginal(fock.fock_state(2, CUT), 1.1, u)
        pdf = homodyne.quadrature_pdf(fock.fock_state(2, CUT), 1.1, u)
        assert np.max(np.abs(marg - pdf)) < 1e-4


class TestPhaseShift:
    def test_identity_at_zero(self):
        rho = fock.coherent_state(0.5, CUT).to_density()
        out = wigner.phase_shift(rho, 0.0)
        assert np.max(np.abs(out.elements - rho.elements)) < 1e-15

    def test_quarter_turn_maps_alpha_to_i_alpha(self):
        psi = fock.coherent_state(0.7, CUT)
        rotated = wigner.phase_shift(psi, np.pi / 2.0)
        target = fock.coherent_state(0.7j, CUT)
        assert np.max(np.abs(rotated.amplitudes - target.amplitudes)) < 1e-12
        rho_rotated = wigner.phase_shift(psi.to_density(), np.pi / 2.0)
        assert np.max(np.abs(rho_rotated.elements - target.to_density().elements)) < 1e-12

    def test_wigner_rotation_covariance(self):
        psi = amplifiers.amplify_ideal(fock.coherent_state(0.5, CUT), 2.0).normalized()
        phi = np.pi / 3.0
        rotated = wigner.phase_shift(psi, phi)
        axes = np.linspace(-6.0, 6.0, 61)
        w_rotated = wigner.wigner_values(rotated, axes, axes)
        # W_phi(x, p) = W(x cos phi + p sin phi, -x sin phi + p cos phi)
        xg, pg = np.meshgrid(axes, axes, indexing="ij")
        xr = xg * np.cos(phi) + pg * np.sin(phi)
        pr = -xg * np.sin(phi) + pg * np.cos(phi)
        w_back = reference_wigner_points(psi.to_density().elements, xr, pr)
        assert np.max(np.abs(w_rotated - w_back)) < 1e-4


class TestMixture:
    def test_single_state_identity(self):
        rho = fock.coherent_state(0.5, CUT).to_density()
        out = wigner.mixture([rho], [1.0])
        assert np.max(np.abs(out.elements - rho.elements)) < 1e-15

    def test_weight_validation(self):
        rho = fock.coherent_state(0.5, CUT).to_density()
        with pytest.raises(ValueError):
            wigner.mixture([rho, rho], [0.7, 0.7])
        with pytest.raises(ValueError):
            wigner.mixture([rho], [-1.0])

    def test_two_lobe_structure_at_unit_amplitude(self):
        psi = fock.coherent_state(1.0, FockCutoff(30))
        rho_a = psi.to_density()
        rho_b = wigner.phase_shift(psi, np.pi / 2.0).to_density()
        mix = wigner.mixture([rho_a, rho_b], [0.5, 0.5])
        grid = wigner.wigner_function(mix)
        ix = np.argmin(np.abs(grid.x_axis - 2.0))
        i0 = np.argmin(np.abs(grid.x_axis))
        # lobes centered near (2, 0) and (0, 2), at half the single-state height
        assert abs(grid.values[ix, i0] - 0.5 / (2.0 * np.pi)) < 0.01
        assert abs(grid.values[i0, ix] - 0.5 / (2.0 * np.pi)) < 0.01

    def test_amplification_separates_the_lobes(self):
        psi = fock.coherent_state(1.0, FockCutoff(30))
        amp = amplifiers.amplify_ideal(psi, 2.0).normalized()
        before = [psi.to_density(), wigner.phase_shift(psi, np.pi / 2.0).to_density()]
        after = [amp.to_density(), wigner.phase_shift(amp, np.pi / 2.0).to_density()]
        w_before = [wigner.wigner_function(c) for c in before]
        w_after = [wigner.wigner_function(c) for c in after]
        overlap_before = wigner.wigner_overlap(w_before[0], w_before[1])
        overlap_after = wigner.wigner_overlap(w_after[0], w_after[1])
        assert overlap_after < overlap_before


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        grid = wigner.wigner_function(fock.coherent_state(0.5, CUT))
        path = wigner.save_wigner_json(grid, tmp_path / "w.json")
        payload = json.loads(path.read_text())
        x_axis = np.array(payload["x_axis"])
        values = np.array(payload["values"]).reshape(x_axis.size, len(payload["p_axis"]))
        assert np.array_equal(values, grid.values)
        assert np.array_equal(x_axis, grid.x_axis)
