import numpy as np
import pytest

from nla import amplifiers, fock, homodyne, tomography
from nla.fock import FockCutoff
from reference_impl import reference_maxlik


def make_roundtrip(state, cutoff, counts, eta, seed):
    data = homodyne.sample_quadratures(
        state, homodyne.uniform_phases(11), counts, eta, seed, tag="amplified"
    )
    settings = tomography.TomographySettings(cutoff=cutoff, eta=eta)
    return data, tomography.maxlik_reconstruct(data, settings)


@pytest.fixture(scope="module")
def amplified_roundtrip():
    """Shared medium-scale reconstruction of the amplified state at alpha=0.4."""
    cutoff = fock.default_cutoff(0.4)
    truth = amplifiers.amplify_ideal(fock.coherent_state(0.4, cutoff), 2.0).normalized()
    data, result = make_roundtrip(truth, cutoff, 2000, 0.6, 314)
    return cutoff, truth, data, result


def povm_element(theta, x, eta, cut):
    """Pi(theta, x) = E^dag(phi phi^dag) as MaxLik sees it: for one record the
    kernel returns logL = log p and E^dag(S) = Pi / p at any rho with p > 0."""
    kernel = tomography._Likelihood(np.array([theta]), np.array([[x]]), eta, cut)
    ll, grad = kernel(np.eye(cut.dim, dtype=complex) / cut.dim)
    return np.exp(ll) * grad


class TestMeasurementOperator:
    def test_lossless_vacuum_element_is_normal_density(self):
        cut = FockCutoff(12)
        for x in (-1.3, 0.0, 0.7):
            op = povm_element(0.4, x, 1.0, cut)
            expected = np.exp(-x * x / 2.0) / np.sqrt(2.0 * np.pi)
            assert abs(op[0, 0].real - expected) < 1e-12

    def test_completeness_by_quadrature(self):
        cut = FockCutoff(10)
        rho = amplifiers.amplify_ideal(
            fock.coherent_state(0.4, cut), 2.0
        ).to_density()
        grid = np.arange(-12.0, 12.0001, 0.02)
        ops = np.array([povm_element(0.7, x, 0.6, cut) for x in grid])
        probs = np.einsum("jmn,nm->j", ops, rho.elements).real
        assert abs(np.trapezoid(probs, grid) - 1.0) < 1e-6
        # the elements resolve the identity over x at a fixed phase
        assert np.max(np.abs(np.trapezoid(ops, grid, axis=0) - np.eye(cut.dim))) < 1e-6


class TestForwardModel:
    @pytest.mark.parametrize("eta", [0.6, 1.0])
    def test_likelihood_matches_quadrature_pdf(self, eta):
        # MaxLik fits the density that sampling draws from: its logL at rho is
        # the sum of log quadrature_pdf of the loss-mapped rho at the records
        cut = FockCutoff(12)
        rho = fock.normalized_density(
            amplifiers.amplify_ideal(fock.coherent_state(0.5 * np.exp(0.8j), cut), 2.0)
        )
        grid = np.arange(-10.0, 10.0001, 0.01)
        idx = np.arange(500, 1600, 37)
        phases = (0.0, 0.7, 2.1)
        expected = 0.0
        for theta in phases:
            pdf = homodyne.quadrature_pdf(homodyne.loss_channel(rho, eta), theta, grid)
            expected += float(np.sum(np.log(pdf[idx])))
        kernel = tomography._Likelihood(
            np.array(phases), np.tile(grid[idx], (len(phases), 1)), eta, cut
        )
        ll, _ = kernel(rho.elements)
        assert abs(ll - expected) <= 1e-12 * abs(expected)


class TestMaxlikReconstruct:
    def test_vacuum_roundtrip(self):
        cut = FockCutoff(10)
        data, result = make_roundtrip(fock.vacuum_state(cut), cut, 909, 1.0, 0)
        assert fock.state_fidelity(result.rho, fock.vacuum_state(cut)) >= 0.995
        assert result.converged

    def test_log_likelihood_nondecreasing(self, amplified_roundtrip):
        _, _, _, result = amplified_roundtrip
        diffs = np.diff(result.log_likelihood_trace)
        assert np.all(diffs >= -1e-9)

    def test_output_is_physical(self, amplified_roundtrip):
        _, _, _, result = amplified_roundtrip
        rho = result.rho.elements
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(rho)[0] >= -1e-10
        assert abs(np.trace(rho).real - 1.0) < 1e-10

    def test_fidelity_to_truth(self, amplified_roundtrip):
        _, truth, _, result = amplified_roundtrip
        assert fock.state_fidelity(result.rho, truth) >= 0.98

    def test_diagnostic_close_to_closed_form(self, amplified_roundtrip):
        _, _, _, result = amplified_roundtrip
        diag = tomography.amplified_fidelity_diagnostic(result.rho, 0.4)
        assert abs(diag - amplifiers.fidelity_analytic(2.0, 0.4)) < 0.02

    def test_seed_stable(self):
        cut = FockCutoff(8)
        data = homodyne.sample_quadratures(
            fock.coherent_state(0.3, cut),
            homodyne.uniform_phases(5),
            300,
            1.0,
            8,
            tag="input",
        )
        settings = tomography.TomographySettings(cutoff=cut, eta=1.0, max_iters=60)
        first = tomography.maxlik_reconstruct(data, settings)
        second = tomography.maxlik_reconstruct(data, settings)
        assert np.array_equal(first.rho.elements, second.rho.elements)
        assert np.array_equal(first.log_likelihood_trace, second.log_likelihood_trace)

    def test_single_phase_warns_but_converges(self):
        cut = FockCutoff(8)
        data = homodyne.sample_quadratures(
            fock.coherent_state(0.3, cut), np.array([0.0]), 2000, 1.0, 9, tag="input"
        )
        # flat likelihood directions make the degenerate problem converge slowly
        settings = tomography.TomographySettings(cutoff=cut, eta=1.0, max_iters=4000)
        with pytest.warns(UserWarning, match="single-phase"):
            result = tomography.maxlik_reconstruct(data, settings)
        assert result.converged
        # phase-averaged information only: the x-quadrature density must still
        # match, even though the phase-space orientation is unconstrained
        grid = np.arange(-8.0, 8.0001, 0.01)
        pdf_rec = homodyne.quadrature_pdf(result.rho, 0.0, grid)
        pdf_true = homodyne.quadrature_pdf(fock.coherent_state(0.3, cut), 0.0, grid)
        assert np.max(np.abs(pdf_rec - pdf_true)) < 0.05

    def test_empty_data_rejected(self):
        cut = FockCutoff(8)
        data = homodyne.sample_quadratures(
            fock.vacuum_state(cut), np.array([0.0]), 10, 1.0, 1, tag="vacuum"
        )
        settings = tomography.TomographySettings(cutoff=cut, eta=1.0)
        with pytest.raises(ValueError):
            tomography.maxlik_reconstruct(data, settings, tag="amplified")

    def test_settings_validation(self):
        cut = FockCutoff(8)
        with pytest.raises(ValueError):
            tomography.TomographySettings(cutoff=cut, eta=0.0)
        with pytest.raises(ValueError):
            tomography.TomographySettings(cutoff=cut, max_iters=0)

    def test_predicted_pdf_consistent_with_histogram(self, amplified_roundtrip):
        _, _, data, result = amplified_roundtrip
        x = data.select("amplified", theta=0.0)
        edges = np.linspace(-5.0, 6.0, 23)
        counts, _ = np.histogram(x, edges)
        centers = 0.5 * (edges[:-1] + edges[1:])
        fine = np.arange(-12.0, 12.0001, 0.01)
        lossy = homodyne.loss_channel(result.rho, 0.6)
        model = np.interp(centers, fine, homodyne.quadrature_pdf(lossy, 0.0, fine))
        expected = model * np.diff(edges) * x.size
        mask = expected > 5.0
        chi2 = float(np.sum((counts[mask] - expected[mask]) ** 2 / expected[mask]))
        dof = int(np.sum(mask))
        assert chi2 < dof + 3.0 * np.sqrt(2.0 * dof)


class TestLikelihoodKernel:
    @pytest.mark.parametrize("eta", [0.6, 1.0])
    def test_matches_untiled_reference_loop(self, eta):
        cut = FockCutoff(20)
        truth = amplifiers.amplify_ideal(fock.coherent_state(0.65, cut), 2.0).normalized()
        data = homodyne.sample_quadratures(
            truth, homodyne.uniform_phases(5), 2000, eta, 27, tag="amplified"
        )
        # d 21 gives 1560-column tiles, so each phase is one full and one ragged tile
        kernel = tomography._Likelihood(data.phases, data.records["amplified"], eta, cut)
        assert all(
            [psi.shape[1] for psi in tiles] == [1560, 440] for _, tiles in kernel._phases
        )
        settings = tomography.TomographySettings(cutoff=cut, eta=eta, max_iters=100)
        ours = tomography.maxlik_reconstruct(data, settings)
        ref = reference_maxlik(data, settings)
        assert ours.iterations_used == ref.iterations_used == 100
        assert np.max(np.abs(ours.rho.elements - ref.rho.elements)) < 1e-12
        ll_drift = np.abs(ours.log_likelihood_trace - ref.log_likelihood_trace)
        assert np.max(ll_drift) < 1e-9


class TestDiagnostic:
    def test_exact_target_gives_unity(self):
        cut = fock.default_cutoff(0.4)
        rho = fock.coherent_state(0.8, cut).to_density()
        assert abs(tomography.amplified_fidelity_diagnostic(rho, 0.4) - 1.0) < 1e-12
