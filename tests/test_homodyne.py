import csv
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import eval_hermite, gammaln

from nla import amplifiers, fock, homodyne
from nla.errors import EstimationError, GridError
from nla.fock import FockCutoff
from reference_impl import dense_loss


CUT = FockCutoff(20)
GRID = np.arange(-12.0, 12.0001, 0.01)


def gaussian(x, mean, var):
    return np.exp(-((x - mean) ** 2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)


class TestWavefunctions:
    def test_recurrence_matches_hermite_evaluation(self):
        # psi_n(x) = (2 pi)^{-1/4} (2^n n!)^{-1/2} H_n(x/sqrt(2)) e^{-x^2/4}
        x = np.linspace(-12.0, 12.0, 401)
        psi = homodyne.quadrature_wavefunctions(x, 60)
        for n in (0, 1, 5, 20, 41, 60):
            log_norm = -0.25 * np.log(2.0 * np.pi) - 0.5 * (
                n * np.log(2.0) + gammaln(n + 1.0)
            )
            direct = np.exp(log_norm - 0.25 * x * x) * eval_hermite(n, x / np.sqrt(2.0))
            assert np.max(np.abs(psi[n] - direct)) < 1e-10

    def test_orthonormality(self):
        x = np.arange(-30.0, 30.0001, 0.01)
        psi = homodyne.quadrature_wavefunctions(x, 25)
        gram = np.trapezoid(psi[:, None, :] * psi[None, :, :], x, axis=2)
        assert np.max(np.abs(gram - np.eye(26))) < 1e-10


class TestLossChannel:
    def test_unit_efficiency_is_identity(self):
        rho = fock.coherent_state(0.7, CUT).to_density()
        out = homodyne.loss_channel(rho, 1.0)
        assert np.max(np.abs(out.elements - rho.elements)) < 1e-14

    def test_single_photon_bernoulli_split(self):
        out = homodyne.loss_channel(fock.fock_state(1, CUT), 0.6)
        diag = out.elements.real.diagonal()
        assert abs(diag[0] - 0.4) < 1e-12
        assert abs(diag[1] - 0.6) < 1e-12
        assert np.max(np.abs(out.elements - np.diag(diag))) < 1e-14

    def test_single_photon_against_beamsplitter_oracle(self):
        # explicit two-mode beam splitter + partial trace at tiny cutoff
        dim = 4
        eta = 0.6
        a = np.diag(np.sqrt(np.arange(1, dim)), 1)
        gen = np.kron(a.conj().T, a) - np.kron(a, a.conj().T)
        u = expm(np.arcsin(np.sqrt(1.0 - eta)) * gen)
        ket = u @ np.kron(np.eye(dim)[1], np.eye(dim)[0])
        joint = np.outer(ket, ket.conj()).reshape(dim, dim, dim, dim)
        reduced = np.einsum("ibjb->ij", joint)
        ours = homodyne.loss_channel(fock.fock_state(1, FockCutoff(dim - 1)), eta)
        assert np.max(np.abs(ours.elements - reduced)) < 1e-12

    def test_coherent_stays_coherent(self):
        for eta in (0.3, 0.6, 0.9):
            out = homodyne.loss_channel(fock.coherent_state(0.8, CUT), eta)
            target = fock.coherent_state(np.sqrt(eta) * 0.8, CUT)
            assert abs(fock.state_fidelity(out, target) - 1.0) < 1e-10

    def test_mean_photon_scaling_and_trace(self):
        rho = fock.coherent_state(1.0, FockCutoff(30)).to_density()
        out = homodyne.loss_channel(rho, 0.37)
        assert abs(out.trace - 1.0) < 1e-12
        assert abs(fock.mean_photon(out) - 0.37 * fock.mean_photon(rho)) < 1e-10

    def test_composition_law(self):
        rho = fock.coherent_state(0.9, FockCutoff(30)).to_density()
        twice = homodyne.loss_channel(homodyne.loss_channel(rho, 0.8), 0.7)
        once = homodyne.loss_channel(rho, 0.56)
        assert np.max(np.abs(twice.elements - once.elements)) < 1e-10

    def test_positivity_preserved(self):
        rho = fock.coherent_state(0.9, CUT).to_density()
        out = homodyne.loss_channel(rho, 0.5)
        assert np.linalg.eigvalsh(out.elements)[0] > -1e-12

    def test_range_error(self):
        with pytest.raises(ValueError):
            homodyne.loss_channel(fock.vacuum_state(CUT), 0.0)
        with pytest.raises(ValueError):
            homodyne.loss_channel(fock.vacuum_state(CUT), 1.2)


EFFICIENCIES = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


@st.composite
def random_states(draw, max_dim=12):
    """A random full-rank density matrix and a Hermitian observable."""
    dim = draw(st.integers(1, max_dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return rho / np.trace(rho).real, h + h.conj().T


class TestLossMapProperties:
    @settings(max_examples=60, deadline=None)
    @given(random_states(), EFFICIENCIES)
    def test_equals_dense_kraus_sum(self, state, eta):
        rho, _ = state
        banded = homodyne.LossMap(eta, rho.shape[0]).apply(rho)
        assert np.max(np.abs(banded - dense_loss(rho, eta))) < 1e-13

    @settings(max_examples=60, deadline=None)
    @given(random_states(), EFFICIENCIES)
    def test_adjoint_duality(self, state, eta):
        rho, obs = state
        loss = homodyne.LossMap(eta, rho.shape[0])
        lhs = np.trace(loss.apply(rho) @ obs)
        rhs = np.trace(rho @ loss.adjoint(obs))
        assert abs(lhs - rhs) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(random_states(), EFFICIENCIES)
    def test_trace_preserving(self, state, eta):
        rho, _ = state
        out = homodyne.LossMap(eta, rho.shape[0]).apply(rho)
        assert abs(np.trace(out) - 1.0) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(random_states(), EFFICIENCIES, EFFICIENCIES)
    def test_composition(self, state, eta1, eta2):
        assume(eta1 * eta2 > 0.0)
        rho, _ = state
        dim = rho.shape[0]
        twice = homodyne.LossMap(eta1, dim).apply(homodyne.LossMap(eta2, dim).apply(rho))
        once = homodyne.LossMap(eta1 * eta2, dim).apply(rho)
        assert np.max(np.abs(twice - once)) < 1e-12


class TestQuadraturePdf:
    def test_vacuum_is_standard_normal(self):
        for theta in (0.0, 0.7, np.pi / 2):
            pdf = homodyne.quadrature_pdf(fock.vacuum_state(CUT), theta, GRID)
            assert np.max(np.abs(pdf - gaussian(GRID, 0.0, 1.0))) < 1e-10

    def test_coherent_gaussian(self):
        pdf = homodyne.quadrature_pdf(fock.coherent_state(0.5, CUT), 0.0, GRID)
        assert np.max(np.abs(pdf - gaussian(GRID, 1.0, 1.0))) < 1e-10
        # mean 2|alpha| cos(theta - arg alpha) pins the sign of the rotation
        alpha, theta = 0.5 * np.exp(1.1j), 0.4
        pdf = homodyne.quadrature_pdf(fock.coherent_state(alpha, CUT), theta, GRID)
        mean = 2.0 * abs(alpha) * np.cos(theta - np.angle(alpha))
        assert np.max(np.abs(pdf - gaussian(GRID, mean, 1.0))) < 1e-10

    def test_single_photon_shape_and_variance(self):
        pdf = homodyne.quadrature_pdf(fock.fock_state(1, CUT), 0.3, GRID)
        expected = GRID**2 * np.exp(-(GRID**2) / 2.0) / np.sqrt(2.0 * np.pi)
        assert np.max(np.abs(pdf - expected)) < 1e-10
        assert abs(np.trapezoid(GRID**2 * pdf, GRID) - 3.0) < 1e-8

    def test_fock_variance_rule(self):
        for n in (0, 2, 5):
            pdf = homodyne.quadrature_pdf(fock.fock_state(n, CUT), 0.0, GRID)
            assert abs(np.trapezoid(GRID**2 * pdf, GRID) - (2 * n + 1)) < 1e-8

    def test_normalization(self):
        amplified = amplifiers.amplify_ideal(fock.coherent_state(0.4, FockCutoff(10)), 2.0)
        for state, theta in (
            (fock.coherent_state(1.2, FockCutoff(30)), 0.4),
            (homodyne.loss_channel(amplified, 0.6), 0.7),
        ):
            pdf = homodyne.quadrature_pdf(state, theta, GRID)
            assert abs(np.trapezoid(pdf, GRID) - 1.0) < 1e-6

    def test_grid_too_coarse(self):
        with pytest.raises(GridError):
            homodyne.quadrature_pdf(fock.vacuum_state(CUT), 0.0, np.linspace(-12, 12, 100))

    def test_grid_too_narrow(self):
        with pytest.raises(GridError):
            homodyne.quadrature_pdf(
                fock.coherent_state(1.4, FockCutoff(40)), 0.0, np.arange(-2, 2.001, 0.01)
            )


class TestSampling:
    def test_vacuum_variance_within_statistics(self):
        data = homodyne.sample_quadratures(
            fock.vacuum_state(CUT), np.array([0.0]), 100_000, 1.0, 11, tag="vacuum"
        )
        assert abs(np.var(data.x, ddof=1) - 1.0) < 0.015  # 3 sigma of var estimator

    def test_same_seed_bit_identical(self):
        kwargs = dict(
            state=fock.coherent_state(0.5, CUT),
            phases=homodyne.uniform_phases(3),
            counts_per_phase=500,
            eta=0.8,
            seed=99,
        )
        a = homodyne.sample_quadratures(tag="input", **kwargs)
        b = homodyne.sample_quadratures(tag="input", **kwargs)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.theta, b.theta)

    def test_lossy_coherent_mean(self):
        data = homodyne.sample_quadratures(
            fock.coherent_state(0.5, CUT), np.array([0.0]), 100_000, 0.6, 5, tag="input"
        )
        expected = 2.0 * np.sqrt(0.6) * 0.5
        assert abs(np.mean(data.x) - expected) < 3.0 / np.sqrt(100_000)

    def test_phase_streams_independent_of_order(self):
        psi = fock.coherent_state(0.5, CUT)
        full = homodyne.sample_quadratures(
            psi, homodyne.uniform_phases(4), 200, 1.0, 7, tag="input"
        )
        # phase k of a wider run equals phase k sampled alone under subseed (seed, k)
        lone = homodyne.sample_quadratures(
            psi, np.array([homodyne.uniform_phases(4)[2]]), 200, 1.0, 7, tag="input"
        )
        got = full.select("input", theta=float(homodyne.uniform_phases(4)[2]))
        # subseed index differs (2 vs 0), so streams differ; both must still be
        # deterministic and drawn from the same distribution
        assert got.size == lone.x.size == 200

    def test_dataset_invariants_enforced(self, tmp_path):
        with pytest.raises(ValueError):
            _load(tmp_path, [0.0, 0.1], ["a", "a"], phases=[0.0], counts=1)  # 0.1 off the grid


def _load(tmp_path, theta, tag, phases=(0.0, 0.5), counts=2):
    """Load theta,x,tag rows written in the given order, with x = 0."""
    path = tmp_path / "rows.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta", "x", "tag"])
        for t, name in zip(theta, tag):
            writer.writerow([repr(float(t)), "0.0", name])
    meta = {"eta": 1.0, "seed": 0, "counts_per_phase": counts, "phases": list(phases)}
    path.with_suffix(".csv.meta.json").write_text(json.dumps(meta))
    return homodyne.load_dataset_csv(path)


def _blocks(phases=(0.0, 0.5), counts=2, **records):
    return homodyne.QuadratureDataset(
        records=records, phases=np.array(phases), eta=1.0, seed=0, counts_per_phase=counts
    )


class TestDatasetValidation:
    def test_valid_layout_accepted(self, tmp_path):
        data = _load(tmp_path, [0.0, 0.5, 0.5, 0.0, 0.0, 0.5, 0.0, 0.5], ["a"] * 4 + ["b"] * 4)
        assert data.n_records == 8

    def test_phase_off_the_grid(self, tmp_path):
        with pytest.raises(ValueError, match=r"^tag 'a' contains phases outside the declared grid$"):
            _load(tmp_path, [0.0, 0.0, 0.5, 0.25], ["a"] * 4)

    def test_wrong_count(self, tmp_path):
        with pytest.raises(
            ValueError, match=r"^tag 'a' phase 0\.5 does not hold counts_per_phase records$"
        ):
            _load(tmp_path, [0.0, 0.0, 0.5], ["a"] * 3)

    def test_nan_theta(self, tmp_path):
        with pytest.raises(ValueError, match="tag 'a' contains phases outside the declared grid"):
            _load(tmp_path, [0.0, 0.0, 0.5, np.nan], ["a"] * 4)

    def test_first_bad_tag_in_sorted_order_is_named(self, tmp_path):
        theta = [0.0, 0.5, 0.5] + [0.0, 0.0, 0.5, 0.5] + [0.0, 0.5, 0.5]
        tag = ["z"] * 3 + ["m"] * 4 + ["b"] * 3
        with pytest.raises(ValueError, match=r"^tag 'b' phase 0\.0 does not hold"):
            _load(tmp_path, theta, tag)

    def test_missing_phase_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"^tag 'a' phase 0\.5 does not hold"):
            _load(tmp_path, [0.0, 0.0], ["a"] * 2)

    def test_block_of_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match=r"^tag 'a' block has shape \(2, 3\), expected"):
            _blocks(a=np.zeros((2, 3)))

    def test_merge_of_shared_tag_rejected(self):
        with pytest.raises(ValueError, match="both hold tag 'a'"):
            _blocks(a=np.zeros((2, 2))).merged_with(_blocks(a=np.ones((2, 2)), b=np.ones((2, 2))))

    def test_blocks_and_mapping_read_only(self):
        block = np.arange(4.0).reshape(2, 2)
        data = _blocks(a=block)
        block[0, 0] = 9.0  # the dataset holds its own copy
        assert data.records["a"][0, 0] == 0.0
        with pytest.raises(ValueError):
            data.records["a"][0, 0] = 1.0
        with pytest.raises(ValueError):
            data.phases[0] = 1.0
        with pytest.raises(TypeError):
            data.records["b"] = block

    def test_select_reads_block_rows(self):
        data = _blocks(a=[[1.0, 2.0], [3.0, 4.0]])
        assert data.select("a").tolist() == [1.0, 2.0, 3.0, 4.0]
        assert data.select("a", theta=0.5).tolist() == [3.0, 4.0]
        assert data.select("a", theta=0.25).size == data.select("b").size == 0
        assert data.theta.tolist() == [0.0, 0.0, 0.5, 0.5]


class TestGainFromSamples:
    def test_identical_records_give_unity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(1.0, 1.0, 50_000)
        est = homodyne.gain_from_samples(x, x)
        assert est.gain == 1.0

    def test_ideal_amplifier_gain_recovered(self):
        from nla import amplifiers

        cut = fock.default_cutoff(0.3)
        amplified = amplifiers.amplify_ideal(fock.coherent_state(0.3, cut), 2.0)
        a = homodyne.sample_quadratures(
            amplified, np.array([0.0]), 100_000, 0.6, 21, tag="amplified"
        )
        b = homodyne.sample_quadratures(
            fock.coherent_state(0.3, cut), np.array([0.0]), 100_000, 0.6, 22, tag="input"
        )
        est = homodyne.gain_from_samples(a.x, b.x)
        expected = amplifiers.effective_gain_analytic(2.0, 0.3)
        assert abs(est.gain - expected) < 3.0 * est.stderr

    def test_efficiency_cancels(self):
        from nla import amplifiers

        cut = fock.default_cutoff(0.3)
        amplified = amplifiers.amplify_ideal(fock.coherent_state(0.3, cut), 2.0)
        gains = []
        for k, eta in enumerate((0.3, 0.9)):
            a = homodyne.sample_quadratures(
                amplified, np.array([0.0]), 100_000, eta, 31 + k, tag="amplified"
            )
            b = homodyne.sample_quadratures(
                fock.coherent_state(0.3, cut), np.array([0.0]), 100_000, eta, 41 + k, tag="input"
            )
            gains.append(homodyne.gain_from_samples(a.x, b.x))
        assert abs(gains[0].gain - gains[1].gain) < 3.0 * np.hypot(
            gains[0].stderr, gains[1].stderr
        )

    def test_near_zero_input_mean_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(EstimationError):
            homodyne.gain_from_samples(rng.normal(1, 1, 1000), rng.normal(0, 1, 1000))


class TestSerialization:
    def test_csv_round_trip_bit_exact(self, tmp_path):
        data = homodyne.sample_quadratures(
            fock.coherent_state(0.5, CUT),
            homodyne.uniform_phases(3),
            200,
            0.6,
            17,
            tag="amplified",
            description="round trip check",
        )
        path = homodyne.save_dataset_csv(data, tmp_path / "records.csv")
        loaded = homodyne.load_dataset_csv(path)
        assert np.array_equal(loaded.x, data.x)
        assert np.array_equal(loaded.theta, data.theta)
        assert list(loaded.records) == list(data.records)
        assert loaded.eta == data.eta
        assert loaded.seed == data.seed
        assert loaded.counts_per_phase == data.counts_per_phase
        assert loaded.description == data.description

    def test_csv_bytes_match_csv_writer(self, tmp_path):
        data = homodyne.sample_quadratures(
            fock.coherent_state(0.5, CUT), homodyne.uniform_phases(3), 50, 0.6, 3, tag="plain"
        )
        for tag in ('in,"put', "", " spaced"):
            data = data.merged_with(
                homodyne.sample_quadratures(
                    fock.vacuum_state(CUT), homodyne.uniform_phases(3), 50, 0.6, 4, tag=tag
                )
            )
        path = homodyne.save_dataset_csv(data, tmp_path / "fast.csv")
        assert path.read_bytes() == _csv_writer_bytes(data, tmp_path / "writer.csv")
        assert list(homodyne.load_dataset_csv(path).records) == list(data.records)

    def test_row_shuffled_csv_loads_same_blocks(self, tmp_path):
        data = homodyne.sample_quadratures(
            fock.coherent_state(0.5, CUT), homodyne.uniform_phases(3), 40, 0.6, 5, tag="input"
        ).merged_with(
            homodyne.sample_quadratures(
                fock.vacuum_state(CUT), homodyne.uniform_phases(3), 40, 0.6, 6, tag="vacuum"
            )
        )
        path = homodyne.save_dataset_csv(data, tmp_path / "records.csv")
        header, *rows = path.read_text().splitlines(keepends=True)
        # Interleave the (theta, tag) groups at random; each keeps its own order.
        groups = {}
        for row in rows:
            theta, _, tag = row.split(",")
            groups.setdefault((theta, tag), []).append(row)
        keys = [key for key, group in groups.items() for _ in group]
        np.random.default_rng(0).shuffle(keys)
        queues = {key: iter(group) for key, group in groups.items()}
        shuffled = [next(queues[key]) for key in keys]
        assert shuffled != rows
        path.write_text(header + "".join(shuffled))
        loaded = homodyne.load_dataset_csv(path)
        assert sorted(loaded.records) == sorted(data.records)
        for tag, block in data.records.items():
            assert loaded.records[tag].tobytes() == block.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.text(alphabet='a,"', max_size=3), min_size=1, max_size=3, unique=True),
        st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=4, unique=True),
        st.integers(1, 30),
        st.randoms(use_true_random=False),
    )
    def test_round_trip_property(self, tmp_path_factory, tags, phases, counts, rnd):
        rng = np.random.default_rng(rnd.getrandbits(32))
        records = {tag: rng.standard_normal((len(phases), counts)) for tag in tags}
        data = homodyne.QuadratureDataset(
            records=records, phases=np.array(phases), eta=0.7, seed=3, counts_per_phase=counts
        )
        tmp = tmp_path_factory.mktemp("round_trip")
        path = homodyne.save_dataset_csv(data, tmp / "records.csv")
        assert path.read_bytes() == _csv_writer_bytes(data, tmp / "writer.csv")
        loaded = homodyne.load_dataset_csv(path)
        assert loaded.phases.tobytes() == data.phases.tobytes()
        assert list(loaded.records) == tags
        for tag in tags:
            assert loaded.records[tag].tobytes() == records[tag].tobytes()


def _csv_writer_bytes(data, path):
    """The dataset's rows as csv.writer writes them: tag by tag, phase by phase."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta", "x", "tag"])
        for tag, block in data.records.items():
            for theta, row in zip(data.phases, block):
                writer.writerows([repr(float(theta)), repr(float(x)), tag] for x in row)
    return path.read_bytes()
