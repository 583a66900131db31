import numpy as np
import pytest

from nla import amplifiers, fock
from nla.fock import FockCutoff


GRID_G = (1.5, 2.0, 3.0)
GRID_ALPHA = np.arange(0.0, 1.5001, 0.1)


class TestGOperator:
    """amplify_ideal applies the diagonal (g-1) n + 1, read off on Fock inputs."""

    def test_g2_is_photon_number_plus_one(self):
        cut = FockCutoff(5)
        for n in range(6):
            ket = fock.fock_state(n, cut)
            out = amplifiers.amplify_ideal(ket, 2.0)
            assert np.allclose(out.amplitudes, (n + 1.0) * ket.amplitudes)

    def test_g1_is_identity(self):
        cut = FockCutoff(5)
        for n in range(6):
            ket = fock.fock_state(n, cut)
            assert np.allclose(amplifiers.amplify_ideal(ket, 1.0).amplitudes, ket.amplitudes)

    def test_entry_value(self):
        out = amplifiers.amplify_ideal(fock.fock_state(2, FockCutoff(5)), 3.0)
        assert out.amplitudes[2].real == 5.0

    def test_invalid_gain(self):
        with pytest.raises(ValueError):
            amplifiers.amplify_ideal(fock.vacuum_state(FockCutoff(5)), 0.5)


class TestAmplifyIdeal:
    def test_vacuum_fixed_point(self):
        cut = FockCutoff(20)
        vac = fock.vacuum_state(cut)
        out = amplifiers.amplify_ideal(vac, 2.0)
        assert np.allclose(out.amplitudes, vac.amplitudes)
        assert abs(out.norm_squared / vac.norm_squared - 1.0) < 1e-15

    def test_weak_state_doubling(self):
        cut = FockCutoff(20)
        eps = 1e-4
        amps = np.zeros(21, dtype=complex)
        amps[0], amps[1] = 1.0, eps
        out = amplifiers.amplify_ideal(fock.PureState(amps, cut), 2.0)
        assert out.amplitudes[0] == 1.0
        assert abs(out.amplitudes[1] - 2.0 * eps) < eps**2

    def test_mean_amplitude_matches_closed_form(self):
        cut = FockCutoff(40)
        out = amplifiers.amplify_ideal(fock.coherent_state(0.65, cut), 2.0)
        gain = fock.expectation(out, fock.annihilation_matrix(cut)).real / 0.65
        assert abs(gain - amplifiers.effective_gain_analytic(2.0, 0.65)) < 1e-9


class TestEffectiveGain:
    def test_weak_limit(self):
        assert amplifiers.effective_gain_analytic(2.0, 0.0) == 2.0

    def test_benchmark_operating_point(self):
        assert abs(amplifiers.effective_gain_analytic(2.0, 0.65) - 1.582) < 1e-3

    def test_strong_limit_is_unity(self):
        for g in GRID_G:
            assert abs(amplifiers.effective_gain_analytic(g, 1e6) - 1.0) < 1e-9

    def test_analytic_matches_fock_ratio_on_grid(self):
        for g in GRID_G:
            cut = fock.default_cutoff(GRID_ALPHA[-1], g=g)
            for alpha in GRID_ALPHA:
                ana = amplifiers.effective_gain_analytic(g, float(alpha))
                num = amplifiers.effective_gain_numeric(g, float(alpha), cut)
                assert abs(ana - num) < 1e-9


class TestFidelity:
    def test_zero_amplitude(self):
        for g in GRID_G:
            assert amplifiers.fidelity_analytic(g, 0.0) == 1.0

    def test_benchmark_operating_point(self):
        assert abs(amplifiers.fidelity_analytic(2.0, 0.65) - 0.912) < 1e-3

    def test_analytic_matches_fock_overlap_on_grid(self):
        for g in GRID_G:
            cut = fock.default_cutoff(GRID_ALPHA[-1], g=g)
            for alpha in GRID_ALPHA:
                ana = amplifiers.fidelity_analytic(g, float(alpha))
                num = amplifiers.fidelity_numeric(g, float(alpha), cut)
                assert abs(ana - num) < 1e-9

    def test_monotone_decreasing_at_g2(self):
        values = [amplifiers.fidelity_analytic(2.0, a) for a in GRID_ALPHA[1:]]
        gains = [amplifiers.effective_gain_analytic(2.0, a) for a in GRID_ALPHA[1:]]
        assert all(x > y for x, y in zip(values, values[1:]))
        assert all(x > y for x, y in zip(gains, gains[1:]))


def scissors_output(alpha, g, cutoff):
    """Quantum-scissors output (|0> + g alpha |1>)/sqrt(1 + g^2 |alpha|^2)."""
    amps = np.zeros(cutoff.dim, dtype=np.complex128)
    norm = np.sqrt(1.0 + g * g * abs(alpha) ** 2)
    amps[0] = 1.0 / norm
    amps[1] = g * alpha / norm
    return fock.PureState(amps, cutoff)


class TestScissors:
    def test_vacuum_input(self):
        cut = FockCutoff(20)
        out = scissors_output(0.0, 2.0, cut)
        assert np.allclose(out.amplitudes, fock.vacuum_state(cut).amplitudes)

    def test_balanced_point(self):
        cut = FockCutoff(20)
        out = scissors_output(0.5, 2.0, cut)
        expected = np.zeros(21)
        expected[:2] = 1.0 / np.sqrt(2.0)
        assert np.allclose(out.amplitudes, expected)
        _, fid = amplifiers.scissors_metrics(2.0, 0.5)
        assert abs(fock.state_fidelity(out, fock.coherent_state(1.0, cut)) - fid) < 1e-14

    def test_gain_from_state_matches_closed_form(self):
        cut = FockCutoff(20)
        out = scissors_output(0.5, 2.0, cut)
        mean_a = fock.expectation(out, fock.annihilation_matrix(cut)).real
        assert abs(mean_a - 0.5) < 1e-14  # g_eff = 1 at g alpha = 1
        g_eff, _ = amplifiers.scissors_metrics(2.0, 0.5)
        assert abs(mean_a / 0.5 - g_eff) < 1e-14

    def test_metrics_anchors(self):
        assert amplifiers.scissors_metrics(2.0, 0.0) == (2.0, 1.0)
        g_eff, _ = amplifiers.scissors_metrics(2.0, 1.0)
        assert abs(g_eff - 0.4) < 1e-15
        _, fid = amplifiers.scissors_metrics(2.0, 0.5)
        assert abs(fid - 2.0 * np.exp(-1.0)) < 1e-15

    def test_addsub_dominates_scissors(self):
        for alpha in GRID_ALPHA[1:]:
            alpha = float(alpha)
            g_eff_qs, f_qs = amplifiers.scissors_metrics(2.0, alpha)
            assert amplifiers.effective_gain_analytic(2.0, alpha) > g_eff_qs
            assert amplifiers.fidelity_analytic(2.0, alpha) > f_qs

    def test_attenuation_threshold(self):
        for g in GRID_G:
            for alpha in GRID_ALPHA[1:]:
                g_eff_qs, _ = amplifiers.scissors_metrics(g, float(alpha))
                attenuates = g_eff_qs < 1.0
                assert attenuates == (g * g * alpha * alpha > g - 1.0)


class TestNoiseFigures:
    def test_vacuum_fixed_point_value(self):
        assert amplifiers.equivalent_input_noise(1.0, 2.0, 1.0) == -0.75

    def test_noiseless_by_definition(self):
        assert amplifiers.equivalent_input_noise(4.0, 2.0, 1.0) == 0.0

    def test_negative_for_ideal_amplifier_output(self):
        for alpha in np.arange(0.1, 2.01, 0.1):
            report = amplifiers.ideal_amplifier_report(2.0, float(alpha))
            assert report.n_eq < 0.0

    def test_noise_bound_across_amplitudes(self):
        for alpha in np.arange(0.1, 1.4001, 0.1):
            report = amplifiers.ideal_amplifier_report(2.0, float(alpha))
            assert report.n_eq < -0.48

    def test_variances_below_best_deterministic(self):
        for alpha in GRID_ALPHA:
            report = amplifiers.ideal_amplifier_report(2.0, float(alpha))
            bound = 2.0 * report.g_eff**2 - 1.0
            assert report.var_x_amp < bound
            assert report.var_p_amp < bound

    def test_deterministic_bounds(self):
        assert amplifiers.deterministic_noise_bounds(1.0) == 1.0
        assert amplifiers.deterministic_noise_bounds(2.0) == 7.0
        assert abs(amplifiers.deterministic_noise_bounds(1.582) - 4.005) < 1e-2


class TestPhaseEstimation:
    def test_sql_value(self):
        cut = FockCutoff(25)
        rho = fock.coherent_state(1.0, cut).to_density()
        v_sql, _ = amplifiers.phase_estimation_metrics(rho, 1.0, 1.4)
        assert v_sql == 0.25

    def test_perfect_amplifier_reduction(self):
        cut = FockCutoff(25)
        out = fock.coherent_state(0.8, cut)  # coherent output: var_p = 1
        for g_eff in (1.2, 1.6, 2.0):
            _, r_v = amplifiers.phase_estimation_metrics(out, 0.4, g_eff)
            assert abs(r_v - g_eff**-2) < 1e-12

    def test_theory_below_experimental_values(self):
        for alpha, measured in ((0.4, 0.45), (0.7, 0.64), (1.0, 0.76)):
            cut = fock.default_cutoff(alpha)
            out = amplifiers.amplify_ideal(fock.coherent_state(alpha, cut), 2.0)
            g_eff = amplifiers.effective_gain_analytic(2.0, alpha)
            _, r_v = amplifiers.phase_estimation_metrics(out, alpha, g_eff)
            assert r_v < 1.0
            assert r_v <= measured

    def test_zero_alpha_rejected(self):
        cut = FockCutoff(20)
        with pytest.raises(ValueError):
            amplifiers.phase_estimation_metrics(fock.vacuum_state(cut), 0.0, 2.0)


class TestValueTypes:
    def test_report_validation(self):
        with pytest.raises(ValueError):
            amplifiers.AmplifierReport(g_eff=2.0, n_eq=-0.5, var_x_amp=-1.0, var_p_amp=1.0)
