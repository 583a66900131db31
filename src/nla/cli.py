"""Configuration-driven experiment runner.

    nla curves|simulate|reconstruct|wigner-demo --config FILE [--seed N] [--out DIR]

The config is a single JSON file; every run echoes it (plus its hash and the
library versions) into a provenance manifest, and identical config+seed runs
produce byte-identical outputs. A manifest itself is accepted as a config,
so any run can be reproduced from its own output directory.

Exit codes: 0 success, 2 config error, 3 numerical-convergence failure,
4 I/O error (including a dataset CSV or sidecar that does not parse).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__, amplifiers, fock, homodyne, physical, tomography, wigner
from .errors import ConfigError, ConvergenceError, EstimationError, SimulationError

_PIPELINES = ("curves", "simulate", "reconstruct", "wigner-demo")

_VACUUM_VARIANCE_SIGMAS = 6.0

_FLOAT_FIELDS = (
    "g", "lam", "reflectivity", "eta", "ll_tol", "diag_tol", "grid_halfwidth", "alpha_step"
)


def _is_number(value) -> bool:
    """A JSON number: an int or a float, but not a boolean."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Validated run parameters; defaults mirror the reference experiment
    profile (g = 2, 5% tap, eta = 0.6, 11 LO phases)."""

    pipeline: str
    alphas: tuple[float, ...] = (0.65,)
    g: float = 2.0
    lam: float = 0.05
    reflectivity: float = 0.05
    eta: float = 0.6
    phases: int = 11
    samples: int = 100_000
    seed: int | None = None
    output_dir: str = "out"
    cutoff: int | None = None
    max_iters: int = 2000
    ll_tol: float = 1e-10
    diag_tol: float = 1e-8
    grid_points: int = 201
    grid_halfwidth: float = 8.0
    alpha_step: float = 0.05
    dataset: str | None = None
    reconstruct_tag: str = "amplified"

    def __post_init__(self):
        for name in ("seed", "phases", "samples", "cutoff", "max_iters", "grid_points"):
            value = getattr(self, name)
            if value is None and name in ("seed", "cutoff"):
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if not _is_number(value):
                raise ConfigError(f"{_JSON_KEY.get(name, name)} must be a number, got {value!r}")
        if self.pipeline not in _PIPELINES:
            raise ConfigError(f"pipeline must be one of {_PIPELINES}, got {self.pipeline!r}")
        if not self.alphas:
            raise ConfigError("alphas must not be empty")
        if any(a < 0.0 for a in self.alphas):
            raise ConfigError("alpha values must be >= 0")
        if not self.g > 1.0:
            raise ConfigError(f"g must exceed 1, got {self.g}")
        if not 0.0 < self.lam <= 0.3:
            raise ConfigError(f"lambda must lie in (0, 0.3], got {self.lam}")
        if not 0.0 < self.reflectivity < 0.5:
            raise ConfigError(f"R must lie in (0, 0.5), got {self.reflectivity}")
        if not 0.0 < self.eta <= 1.0:
            raise ConfigError(f"eta must lie in (0, 1], got {self.eta}")
        if self.phases < 1:
            raise ConfigError(f"phases must be >= 1, got {self.phases}")
        if self.samples < 1:
            raise ConfigError(f"samples must be >= 1, got {self.samples}")
        if self.pipeline == "simulate" and self.seed is None:
            raise ConfigError("seed is mandatory for the stochastic simulate pipeline")
        if self.cutoff is not None and self.cutoff < 1:
            raise ConfigError(f"cutoff must be >= 1, got {self.cutoff}")
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.ll_tol <= 0 or self.diag_tol <= 0:
            raise ConfigError("ll_tol and diag_tol must be positive")
        if self.grid_points < 3 or self.grid_halfwidth <= 0:
            raise ConfigError("invalid Wigner grid parameters")
        if self.alpha_step <= 0:
            raise ConfigError(f"alpha_step must be positive, got {self.alpha_step}")
        if self.pipeline == "reconstruct" and not self.dataset:
            raise ConfigError("reconstruct pipeline needs a 'dataset' CSV path")

    @property
    def counts_per_phase(self) -> int:
        return max(1, self.samples // self.phases)

    def to_dict(self) -> dict:
        """The config under its JSON keys, as config_from_dict reads it."""
        fields = dataclasses.asdict(self)
        return {_JSON_KEY.get(name, name): value for name, value in fields.items()}


_KEY_MAP = {"lambda": "lam", "R": "reflectivity"}
_JSON_KEY = {name: key for key, name in _KEY_MAP.items()}


def config_from_dict(raw: dict, pipeline: str | None = None) -> ExperimentConfig:
    if "config" in raw and "config_sha256" in raw:
        raw = raw["config"]  # a manifest reproduces its own run
    known = set(ExperimentConfig.__dataclass_fields__) | set(_KEY_MAP)
    kwargs = {}
    for key, value in raw.items():
        if key not in known:
            raise ConfigError(f"unknown config field {key!r}")
        kwargs[_KEY_MAP.get(key, key)] = value
    if pipeline is not None:
        declared = kwargs.get("pipeline")
        if declared is not None and declared != pipeline:
            raise ConfigError(
                f"config declares pipeline {declared!r} but {pipeline!r} was requested"
            )
        kwargs["pipeline"] = pipeline
    if "alphas" in kwargs:
        alphas = kwargs["alphas"]
        if _is_number(alphas):
            alphas = [alphas]
        if not isinstance(alphas, (list, tuple)) or not all(map(_is_number, alphas)):
            raise ConfigError(f"alphas must be a number or a list of numbers, got {alphas!r}")
        kwargs["alphas"] = tuple(float(a) for a in alphas)
    try:
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path, pipeline: str | None = None) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return config_from_dict(raw, pipeline)


def _json_bytes(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def config_digest(config: ExperimentConfig) -> str:
    return hashlib.sha256(
        json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _provenance(config: ExperimentConfig) -> dict:
    return {"config_sha256": config_digest(config), "seed": config.seed}


def write_manifest(config: ExperimentConfig, out_dir: Path) -> Path:
    cfg = config.to_dict()
    digest = config_digest(config)
    manifest = {
        "config": cfg,
        "config_sha256": digest,
        "seed": config.seed,
        "versions": {
            "nla": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
    }
    path = out_dir / "manifest.json"
    path.write_text(_json_bytes(manifest))
    return path


def _write_csv(path: Path, header: list[str], rows: list[list]) -> Path:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return path


def _write_rho(rho: fock.DensityMatrix, path: Path, extra: dict) -> Path:
    payload = {
        "n_max": rho.cutoff.n_max,
        "real": rho.elements.real.tolist(),
        "imag": rho.elements.imag.tolist(),
        **extra,
    }
    path.write_text(_json_bytes(payload))
    return path


def _cutoff(config: ExperimentConfig, alpha: float) -> fock.FockCutoff:
    """The configured cutoff, or the default one for the amplified |g alpha>."""
    if config.cutoff is not None:
        return fock.FockCutoff(config.cutoff)
    return fock.default_cutoff(alpha, g=config.g)


def _reconstruct(
    config: ExperimentConfig,
    data: homodyne.QuadratureDataset,
    cutoff: fock.FockCutoff,
    tag: str,
    out_dir: Path,
) -> tuple[tomography.ReconstructionResult, list[Path]]:
    """MaxLik on one tag of the dataset, written as rho.json and loglik.csv."""
    settings = tomography.TomographySettings(
        cutoff=cutoff,
        eta=config.eta,
        max_iters=config.max_iters,
        ll_tol=config.ll_tol,
        diag_tol=config.diag_tol,
    )
    result = tomography.maxlik_reconstruct(data, settings, tag=tag)
    paths = [
        _write_rho(result.rho, out_dir / "rho.json", _provenance(config)),
        _write_csv(
            out_dir / "loglik.csv",
            ["iteration", "log_likelihood"],
            [[i, float(ll)] for i, ll in enumerate(result.log_likelihood_trace)],
        ),
    ]
    return result, paths


def run_curves(config: ExperimentConfig, out_dir: Path) -> list[Path]:
    """Figure-of-merit curves vs |alpha| for the addition/subtraction scheme
    and the quantum-scissors rival at the configured nominal gain."""
    alphas = np.arange(0.0, config.alphas[-1] + 0.5 * config.alpha_step, config.alpha_step)
    cutoff = _cutoff(config, alphas[-1])
    rows = []
    for alpha in alphas:
        alpha = float(alpha)
        report = amplifiers.ideal_amplifier_report(config.g, alpha, cutoff)
        g_eff_qs, f_qs = amplifiers.scissors_metrics(config.g, alpha)
        rows.append(
            [
                alpha,
                amplifiers.effective_gain_analytic(config.g, alpha),
                float(g_eff_qs),
                amplifiers.fidelity_analytic(config.g, alpha),
                float(f_qs),
                report.n_eq,
                report.var_x_amp,
                report.var_p_amp,
                amplifiers.deterministic_noise_bounds(report.g_eff),
            ]
        )
    path = _write_csv(
        out_dir / "curves.csv",
        [
            "alpha",
            "g_eff_addsub",
            "g_eff_qs",
            "F_addsub",
            "F_qs",
            "n_eq",
            "var_x",
            "var_p",
            "det_bound",
        ],
        rows,
    )
    return [path, write_manifest(config, out_dir)]


def _check_vacuum_normalization(dataset: homodyne.QuadratureDataset):
    """Shot-noise self-check: vacuum-tag variance must be 1 within statistics."""
    vac = dataset.select("vacuum")
    var = float(np.var(vac, ddof=1))
    tol = _VACUUM_VARIANCE_SIGMAS * np.sqrt(2.0 / vac.size)
    if abs(var - 1.0) > tol:
        raise ConvergenceError(
            f"vacuum samples variance {var:.4f} deviates from 1 beyond {tol:.4f}; "
            "shot-noise normalization is broken"
        )


def run_simulate(config: ExperimentConfig, out_dir: Path) -> list[Path]:
    """Full pipeline: heralded amplifier, homodyne sampling of amplified /
    input / vacuum states, MaxLik reconstruction, figure-of-merit report, and
    the Wigner grid of the reconstructed state."""
    paths = [write_manifest(config, out_dir)]
    for alpha in config.alphas:
        sub = out_dir / f"alpha_{alpha:.4f}"
        sub.mkdir(parents=True, exist_ok=True)
        paths.extend(_simulate_one(config, float(alpha), sub))
    return paths


def _simulate_one(config: ExperimentConfig, alpha: float, out_dir: Path) -> list[Path]:
    cutoff = _cutoff(config, alpha)
    phases = homodyne.uniform_phases(config.phases)
    counts = config.counts_per_phase

    amplified = physical.physical_amplifier(alpha, config.lam, config.reflectivity, cutoff)
    input_state = fock.coherent_state(alpha, cutoff)
    vacuum = fock.vacuum_state(cutoff)

    data = homodyne.sample_quadratures(
        amplified.state, phases, counts, config.eta, config.seed, tag="amplified",
        description=f"heralded amplifier output, alpha={alpha!r}",
    )
    data = data.merged_with(
        homodyne.sample_quadratures(
            input_state, phases, counts, config.eta, config.seed + 1, tag="input",
            description=f"coherent input, alpha={alpha!r}",
        )
    )
    data = data.merged_with(
        homodyne.sample_quadratures(
            vacuum, phases, counts, config.eta, config.seed + 2, tag="vacuum",
            description="blocked signal (vacuum) for shot-noise normalization",
        )
    )
    _check_vacuum_normalization(data)
    provenance = _provenance(config)
    paths = [homodyne.save_dataset_csv(data, out_dir / "quadratures.csv", provenance)]
    paths.append(out_dir / "quadratures.csv.meta.json")

    gain = homodyne.gain_from_samples(
        data.select("amplified", theta=0.0), data.select("input", theta=0.0)
    )

    result, written = _reconstruct(config, data, cutoff, "amplified", out_dir)
    paths.extend(written)

    truth = amplifiers.amplify_ideal(input_state, config.g).normalized()
    g_eff_analytic = amplifiers.effective_gain_analytic(config.g, alpha)
    var_x_rec = fock.var_x(result.rho, 0.0)
    var_p_rec = fock.var_x(result.rho, np.pi / 2.0)
    report = {
        **provenance,
        "alpha": alpha,
        "success_prob": amplified.success_prob,
        "fidelity_to_ideal_operator": physical.fidelity_to_ideal_amplifier(
            amplified.state, alpha, config.g
        ),
        "gain_estimate": gain.gain,
        "gain_stderr": gain.stderr,
        "gain_analytic": g_eff_analytic,
        "fidelity_analytic": amplifiers.fidelity_analytic(config.g, alpha),
        "diagnostic_fidelity_2alpha": tomography.amplified_fidelity_diagnostic(
            result.rho, alpha
        ),
        "fidelity_to_truth": fock.state_fidelity(result.rho, truth),
        "n_eq": amplifiers.equivalent_input_noise(var_x_rec, gain.gain, 1.0),
        "r_v_reconstructed": var_p_rec / gain.gain**2,
        "r_v_lossless_theory": amplifiers.phase_estimation_metrics(
            truth, alpha, g_eff_analytic
        )[1]
        if alpha > 0
        else None,
        "var_x": var_x_rec,
        "var_p": var_p_rec,
        "best_det_variance": amplifiers.deterministic_noise_bounds(g_eff_analytic),
        "iterations_used": result.iterations_used,
        "converged": result.converged,
    }
    (out_dir / "report.json").write_text(_json_bytes(report))
    paths.append(out_dir / "report.json")

    axes = wigner.default_axes(config.grid_halfwidth, config.grid_points)
    grid = wigner.wigner_function(result.rho, axes)
    paths.append(wigner.save_wigner_json(grid, out_dir / "wigner.json", provenance))
    return paths


def run_reconstruct(config: ExperimentConfig, out_dir: Path) -> list[Path]:
    """MaxLik reconstruction of an existing quadrature CSV; a dataset that
    does not parse is an I/O error."""
    try:
        data = homodyne.load_dataset_csv(config.dataset)
    except (ValueError, KeyError, TypeError, csv.Error) as exc:
        raise OSError(f"malformed dataset {config.dataset}: {type(exc).__name__}: {exc}") from exc
    alpha = config.alphas[0]
    cutoff = _cutoff(config, alpha)
    result, paths = _reconstruct(config, data, cutoff, config.reconstruct_tag, out_dir)
    provenance = _provenance(config)
    report = {
        **provenance,
        "alpha": alpha,
        "tag": config.reconstruct_tag,
        "diagnostic_fidelity_2alpha": tomography.amplified_fidelity_diagnostic(
            result.rho, alpha
        ),
        "mean_photon": fock.mean_photon(result.rho),
        "iterations_used": result.iterations_used,
        "converged": result.converged,
    }
    (out_dir / "report.json").write_text(_json_bytes(report))
    paths.append(out_dir / "report.json")
    paths.append(write_manifest(config, out_dir))
    return paths


def run_wigner_demo(config: ExperimentConfig, out_dir: Path) -> list[Path]:
    """Discrimination demo: the equal mixture of |alpha> and |i alpha> before
    and after ideal amplification, with the component-overlap report."""
    alpha = config.alphas[0]
    cutoff = _cutoff(config, alpha)
    axes = wigner.default_axes(config.grid_halfwidth, config.grid_points)

    psi = fock.coherent_state(alpha, cutoff)
    comp_before = [psi.to_density(), wigner.phase_shift(psi, np.pi / 2.0).to_density()]
    amp = amplifiers.amplify_ideal(psi, config.g).normalized()
    comp_after = [amp.to_density(), wigner.phase_shift(amp, np.pi / 2.0).to_density()]

    grids_before = [wigner.wigner_function(c, axes) for c in comp_before]
    grids_after = [wigner.wigner_function(c, axes) for c in comp_after]
    mix_before = wigner.wigner_function(wigner.mixture(comp_before, [0.5, 0.5]), axes)
    mix_after = wigner.wigner_function(wigner.mixture(comp_after, [0.5, 0.5]), axes)

    overlap_before = wigner.wigner_overlap(grids_before[0], grids_before[1])
    overlap_after = wigner.wigner_overlap(grids_after[0], grids_after[1])
    provenance = _provenance(config)
    report = {
        **provenance,
        "alpha": alpha,
        "g": config.g,
        "component_overlap_before": overlap_before,
        "component_overlap_after": overlap_after,
        "overlap_ratio": overlap_after / overlap_before,
    }
    paths = [
        wigner.save_wigner_json(mix_before, out_dir / "wigner_mixture_before.json", provenance),
        wigner.save_wigner_json(mix_after, out_dir / "wigner_mixture_after.json", provenance),
    ]
    (out_dir / "overlap_report.json").write_text(_json_bytes(report))
    paths.append(out_dir / "overlap_report.json")
    paths.append(write_manifest(config, out_dir))
    return paths


_RUNNERS = {
    "curves": run_curves,
    "simulate": run_simulate,
    "reconstruct": run_reconstruct,
    "wigner-demo": run_wigner_demo,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nla", description="Noiseless-amplifier simulation pipelines"
    )
    sub = parser.add_subparsers(dest="pipeline", required=True)
    for name in _PIPELINES:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config (or manifest) file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the config output_dir")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, args.pipeline)
        if args.seed is not None:
            config = config_from_dict({**config.to_dict(), "seed": args.seed})
        out_dir = Path(args.out) if args.out is not None else Path(config.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = _RUNNERS[args.pipeline](config, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, EstimationError) as exc:
        print(f"numerical failure [{args.pipeline}]: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error [{args.pipeline}]: {exc}", file=sys.stderr)
        return 4
    except SimulationError as exc:
        print(f"error [{args.pipeline}]: {exc}", file=sys.stderr)
        return 3
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
