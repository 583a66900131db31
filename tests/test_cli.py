import csv
import json
import shutil

import numpy as np
import pytest

from nla import cli, fock


def write_config(tmp_path, name="config.json", **overrides):
    payload = {
        "alphas": [0.3],
        "g": 2.0,
        "lambda": 0.05,
        "R": 0.05,
        "eta": 0.6,
        "phases": 11,
        "samples": 2200,
        "seed": 7,
        "output_dir": str(tmp_path / "out"),
        "max_iters": 400,
    }
    payload.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def load_rho(path):
    payload = json.loads(path.read_text())
    mat = np.array(payload["real"]) + 1j * np.array(payload["imag"])
    return fock.DensityMatrix(mat, fock.FockCutoff(payload["n_max"]))


def read_curves(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConfig:
    def test_rejects_zero_samples(self, tmp_path):
        path = write_config(tmp_path, samples=0)
        assert cli.main(["simulate", "--config", str(path)]) == 2

    def test_rejects_unknown_field(self, tmp_path):
        path = write_config(tmp_path, bogus=1)
        assert cli.main(["curves", "--config", str(path)]) == 2

    def test_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["curves", "--config", str(path)]) == 2

    def test_seed_mandatory_for_simulate(self, tmp_path):
        path = write_config(tmp_path, seed=None)
        assert cli.main(["simulate", "--config", str(path)]) == 2

    def test_pipeline_mismatch_detected(self, tmp_path):
        path = write_config(tmp_path, pipeline="curves")
        assert cli.main(["simulate", "--config", str(path)]) == 2

    def test_io_error_exit_code(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("plain file, not a directory")
        path = write_config(tmp_path, output_dir=str(blocker / "nested"))
        assert cli.main(["curves", "--config", str(path)]) == 4

    @pytest.mark.parametrize("value", [7.5, "7", True], ids=["float", "string", "true"])
    @pytest.mark.parametrize(
        "field", ["seed", "phases", "samples", "max_iters", "cutoff", "grid_points"]
    )
    def test_integer_fields_reject_other_types(self, tmp_path, capsys, field, value):
        path = write_config(tmp_path, **{field: value})
        assert cli.main(["simulate", "--config", str(path)]) == 2
        assert f"config error: {field} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [True, "x"], ids=["true", "string"])
    @pytest.mark.parametrize(
        "field",
        [
            "g", "lambda", "R", "eta", "ll_tol", "diag_tol", "grid_halfwidth", "alpha_step",
            "alphas",
        ],
    )
    def test_float_fields_reject_other_types(self, tmp_path, capsys, field, value):
        path = write_config(tmp_path, **{field: [0.3, value] if field == "alphas" else value})
        assert cli.main(["simulate", "--config", str(path)]) == 2
        assert f"config error: {field} must be a number" in capsys.readouterr().err

    def test_float_fields_accept_json_integers(self, tmp_path):
        path = write_config(tmp_path, alphas=[1], eta=1, grid_halfwidth=8)
        config = cli.load_config(path, "simulate")
        assert config.alphas == (1.0,)
        assert config.to_dict()["eta"] == 1 and isinstance(config.eta, int)

    def test_validation_happens_before_any_computation(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, samples=0, output_dir=str(out))
        assert cli.main(["simulate", "--config", str(path)]) == 2
        assert not out.exists()


class TestCurves:
    def test_curve_anchors(self, tmp_path):
        path = write_config(tmp_path, alphas=[1.5], alpha_step=0.05)
        assert cli.main(["curves", "--config", str(path)]) == 0
        rows = read_curves(tmp_path / "out" / "curves.csv")
        by_alpha = {float(r["alpha"]): r for r in rows}

        first = by_alpha[min(by_alpha)]
        assert float(first["g_eff_addsub"]) == 2.0
        assert float(first["F_addsub"]) == 1.0
        assert float(first["g_eff_qs"]) == 2.0
        assert float(first["F_qs"]) == 1.0

        key = min(by_alpha, key=lambda a: abs(a - 0.65))
        assert abs(key - 0.65) < 1e-9
        assert abs(float(by_alpha[key]["g_eff_addsub"]) - 1.582) < 1e-3
        assert abs(float(by_alpha[key]["F_addsub"]) - 0.912) < 1e-3

        for alpha, row in by_alpha.items():
            if alpha > 0.5:
                assert float(row["g_eff_qs"]) < 1.0
            assert float(row["n_eq"]) < 0.0
            assert float(row["var_x"]) < float(row["det_bound"])
            assert float(row["var_p"]) < float(row["det_bound"])

    def test_manifest_written(self, tmp_path):
        path = write_config(tmp_path)
        assert cli.main(["curves", "--config", str(path)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"]["pipeline"] == "curves"
        assert len(manifest["config_sha256"]) == 64
        assert "numpy" in manifest["versions"]

    def test_configured_cutoff_too_small(self, tmp_path, capsys):
        path = write_config(tmp_path, alphas=[1.5], alpha_step=0.05, cutoff=8)
        assert cli.main(["curves", "--config", str(path)]) == 3
        assert "cutoff n_max=8 too small" in capsys.readouterr().err
        assert not (tmp_path / "out" / "curves.csv").exists()


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("sim")
    path = write_config(tmp_path)
    assert cli.main(["simulate", "--config", str(path)]) == 0
    return tmp_path / "out" / "alpha_0.3000"


class TestSimulate:
    def test_expected_files(self, sim_dir):
        for name in (
            "quadratures.csv",
            "quadratures.csv.meta.json",
            "rho.json",
            "loglik.csv",
            "report.json",
            "wigner.json",
        ):
            assert (sim_dir / name).exists(), name

    def test_report_contents(self, sim_dir):
        report = json.loads((sim_dir / "report.json").read_text())
        assert len(report["config_sha256"]) == 64
        assert report["seed"] == 7
        assert abs(report["gain_estimate"] - report["gain_analytic"]) < 3.0 * report["gain_stderr"]
        assert report["fidelity_to_truth"] > 0.9
        assert abs(report["diagnostic_fidelity_2alpha"] - report["fidelity_analytic"]) < 0.05
        assert report["n_eq"] < 0.0
        assert 0.0 < report["success_prob"] < 1.0
        assert report["fidelity_to_ideal_operator"] > 0.99

    def test_loglik_nondecreasing(self, sim_dir):
        with open(sim_dir / "loglik.csv", newline="") as fh:
            values = [float(row["log_likelihood"]) for row in csv.DictReader(fh)]
        assert all(b - a >= -1e-9 for a, b in zip(values, values[1:]))

    def test_rho_loads_back_physical(self, sim_dir):
        rho = load_rho(sim_dir / "rho.json")
        assert abs(rho.trace - 1.0) < 1e-9

    def test_outputs_carry_provenance(self, sim_dir):
        for name in ("rho.json", "wigner.json", "report.json", "quadratures.csv.meta.json"):
            payload = json.loads((sim_dir / name).read_text())
            assert len(payload["config_sha256"]) == 64, name
            assert payload["seed"] == 7, name

    def test_same_seed_runs_are_byte_identical(self, tmp_path):
        path = write_config(tmp_path, samples=2200, max_iters=80)
        assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "b")]) == 0
        files_a = sorted(p for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert [p.relative_to(tmp_path / "a") for p in files_a] == [
            p.relative_to(tmp_path / "b") for p in files_b
        ]
        for pa, pb in zip(files_a, files_b):
            assert pa.read_bytes() == pb.read_bytes(), pa.name

    def test_manifest_reproduces_run(self, tmp_path):
        path = write_config(tmp_path, samples=2200, max_iters=80)
        assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
        manifest = tmp_path / "a" / "manifest.json"
        assert cli.main(["simulate", "--config", str(manifest), "--out", str(tmp_path / "c")]) == 0
        original = (tmp_path / "a" / "alpha_0.3000" / "report.json").read_bytes()
        replayed = (tmp_path / "c" / "alpha_0.3000" / "report.json").read_bytes()
        assert original == replayed


class TestReconstruct:
    def test_reconstruct_from_saved_dataset(self, tmp_path):
        config = write_config(tmp_path, samples=2200, max_iters=200)
        assert cli.main(["simulate", "--config", str(config)]) == 0
        dataset = tmp_path / "out" / "alpha_0.3000" / "quadratures.csv"
        config2 = write_config(
            tmp_path,
            name="rec.json",
            dataset=str(dataset),
            output_dir=str(tmp_path / "rec"),
            max_iters=200,
        )
        assert cli.main(["reconstruct", "--config", str(config2)]) == 0
        report = json.loads((tmp_path / "rec" / "report.json").read_text())
        assert report["tag"] == "amplified"
        assert 0.0 < report["diagnostic_fidelity_2alpha"] <= 1.0
        rho = load_rho(tmp_path / "rec" / "rho.json")
        assert abs(rho.trace - 1.0) < 1e-9

    @pytest.mark.parametrize(
        "damage",
        [
            "truncated", "short_row", "non_numeric", "open_quote",
            "bad_sidecar", "sidecar_key", "sidecar_type",
        ],
    )
    def test_malformed_dataset_is_io_error(self, sim_dir, tmp_path, capsys, damage):
        dataset = tmp_path / "quadratures.csv"
        sidecar = tmp_path / "quadratures.csv.meta.json"
        shutil.copyfile(sim_dir / dataset.name, dataset)
        shutil.copyfile(sim_dir / sidecar.name, sidecar)
        lines = dataset.read_text().splitlines(keepends=True)
        if damage == "truncated":
            dataset.write_text("".join(lines[:100]))
        elif damage == "short_row":
            dataset.write_text("".join(lines[:5] + ["0.0,1.5\r\n"] + lines[5:]))
        elif damage == "non_numeric":
            dataset.write_text("".join(lines[:5] + ["0.0,abc,amplified\r\n"] + lines[5:]))
        elif damage == "open_quote":
            dataset.write_text("".join(lines[:5] + ['0.0,1.5,"amplified\r\n'] + lines[5:]))
        elif damage == "bad_sidecar":
            sidecar.write_text("{not json")
        else:
            meta = json.loads(sidecar.read_text())
            if damage == "sidecar_key":
                del meta["phases"]
            else:
                meta["eta"] = "0.6"
            sidecar.write_text(json.dumps(meta))
        config2 = write_config(
            tmp_path, name="rec.json", dataset=str(dataset), output_dir=str(tmp_path / "rec")
        )
        assert cli.main(["reconstruct", "--config", str(config2)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("I/O error [reconstruct]: ")
        assert str(dataset) in err and err.count("\n") == 1

    def test_missing_dataset_is_config_error(self, tmp_path):
        config = write_config(tmp_path, name="rec.json", dataset=None)
        assert cli.main(["reconstruct", "--config", str(config)]) == 2


class TestFullScalePipeline:
    def test_reference_profile_run(self, tmp_path):
        """End-to-end pipeline at the reference profile: 1e5 samples, 11
        phases, eta = 0.6, alpha = 0.65, heralded amplifier at 5% tap."""
        path = write_config(
            tmp_path, alphas=[0.65], samples=100_000, seed=90210, max_iters=2000
        )
        assert cli.main(["simulate", "--config", str(path)]) == 0
        report = json.loads(
            (tmp_path / "out" / "alpha_0.6500" / "report.json").read_text()
        )
        assert (
            abs(report["gain_estimate"] - report["gain_analytic"])
            < 3.0 * report["gain_stderr"]
        )
        assert report["diagnostic_fidelity_2alpha"] > 0.88
        assert report["fidelity_to_truth"] > 0.98
        assert report["n_eq"] < -0.48
        assert report["var_x"] < report["best_det_variance"]
        assert report["var_p"] < report["best_det_variance"]


class TestWignerDemo:
    def test_overlap_shrinks_after_amplification(self, tmp_path):
        config = write_config(tmp_path, alphas=[1.0], grid_points=121)
        assert cli.main(["wigner-demo", "--config", str(config)]) == 0
        report = json.loads((tmp_path / "out" / "overlap_report.json").read_text())
        assert report["component_overlap_after"] < report["component_overlap_before"]
        assert (tmp_path / "out" / "wigner_mixture_before.json").exists()
        assert (tmp_path / "out" / "wigner_mixture_after.json").exists()
