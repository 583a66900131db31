"""The three benchmark workloads.

Each workload is built in a worker's set-up (inputs made from the seed),
runs one operation through the package's public entry points only
(`cli.main` and the public functions of fock, amplifiers, physical,
homodyne, tomography and wigner), and checks what that operation wrote with
code of its own. `check` returns the gate misses and the run's counters.

MaxLik runs under a fixed budget of `max_iters` RhoR iterations. Where the
package's stall heuristic stops depends on the data: over seeds 1-5 at the
reference profile it stopped after 536 to 1692 iterations (14 to 47 s), so a
converged run's wall time measures the seed more than the code. A budget
below every stop seen keeps the work per seed fixed, and the certified gap
(`likelihood.certify`) reports how close to the maximum the budget got.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import likelihood
from nla import amplifiers, cli, fock, homodyne, physical, tomography

G = 2.0
LAM = 0.05
TAP = 0.05
ETA = 0.6
PHASES = 11
FIDELITY_MIN = 0.98
DIAGNOSTIC_TOL = 0.02
LL_SLACK = 1e-9
VACUUM_SIGMAS = 6.0
TAGS = ("amplified", "input", "vacuum")
# The last logged logL is one RhoR step behind rho.json. That step may gain
# up to twice the previous logged gain (RhoR gains shrink as it converges);
# a wrong model of the detector shifts logL by orders of magnitude more.
LL_STEP_FACTOR = 2.0


@dataclass(frozen=True)
class Profile:
    alphas: tuple[float, ...]
    samples: int  # records per tag, split evenly over the phases
    max_iters: int = 300
    # Acceptance test 06's fidelity thresholds hold at 1e5 records; the
    # smoke profile's 2200 records cannot resolve them, so it skips them.
    gate_fidelity: bool = True


# The seconds-long profile of acceptance test 10, shared by every workload.
SMOKE = Profile(alphas=(0.3,), samples=2200, max_iters=120, gate_fidelity=False)


def _write_json(path: Path, payload: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _run_cli(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"nla {argv[0]} exited with code {code}")


def _read_rho(path: Path) -> np.ndarray:
    payload = json.loads(path.read_text())
    return np.array(payload["real"]) + 1j * np.array(payload["imag"])


def _read_loglik(path: Path) -> np.ndarray:
    rows = path.read_text().splitlines()[1:]
    return np.array([float(row.split(",")[1]) for row in rows])


def _read_records(path: Path, tag: str) -> tuple[np.ndarray, np.ndarray]:
    theta, x = [], []
    with path.open() as fh:
        next(fh)
        for line in fh:
            t, v, row_tag = line.rstrip("\r\n").split(",")
            if row_tag == tag:
                theta.append(float(t))
                x.append(float(v))
    return np.array(theta), np.array(x)


def _check_reconstruction(
    out: Path, theta: np.ndarray, x: np.ndarray, failures: list[str]
) -> tuple[np.ndarray, dict]:
    """Gates shared by both MaxLik workloads: a nondecreasing loglik.csv and a
    log-likelihood of rho.json, computed here, that continues that trace."""
    rho = _read_rho(out / "rho.json")
    trace = _read_loglik(out / "loglik.csv")
    if np.any(np.diff(trace) < -LL_SLACK):
        failures.append("loglik.csv decreases by more than 1e-9")
    loglik, gap = likelihood.certify(rho, theta, x, ETA)
    step = loglik - trace[-1]
    last_gain = trace[-1] - trace[-2] if trace.size > 1 else abs(trace[-1])
    if not -LL_SLACK * abs(loglik) <= step <= LL_STEP_FACTOR * max(last_gain, 0.0) + 1e-9:
        failures.append(
            f"benchmark logL {loglik!r} does not continue loglik.csv ({trace[-1]!r}, "
            f"last gain {last_gain:.3g})"
        )
    counters = {
        "N": x.size,
        "d": rho.shape[0],
        "iterations": trace.size,
        "loglik_gap": gap,
        "loglik_step": step,
    }
    return rho, counters


def _fingerprint(data) -> tuple:
    """Every record's bits, per tag and phase, with the acquisition metadata."""
    records = tuple(
        data.select(tag, theta=phase).tobytes() for tag in TAGS for phase in data.phases
    )
    meta = (data.phases.tobytes(), data.eta, data.seed, data.counts_per_phase, data.description)
    return records + meta


class SimulateRef:
    """`nla simulate` at the reference profile: every layer runs once and
    MaxLik on N = 1e5 records dominates."""

    FULL = Profile(alphas=(0.65,), samples=100_000)

    def __init__(self, profile: Profile, seed: int, workdir: Path):
        self.alpha = profile.alphas[0]
        self.gate_fidelity = profile.gate_fidelity
        self.config = _write_json(
            workdir / "simulate.json",
            {
                "alphas": [self.alpha],
                "g": G,
                "lambda": LAM,
                "R": TAP,
                "eta": ETA,
                "phases": PHASES,
                "samples": profile.samples,
                "seed": seed,
                "max_iters": profile.max_iters,
            },
        )
        # The reconstruction estimates the heralded (physical) output, whose
        # overlap with |2 alpha> sits 0.013 below the ideal-amplifier value at
        # alpha = 0.65, so the diagnostic is gated against the physical state.
        cutoff = fock.default_cutoff(self.alpha, g=G)
        heralded = physical.physical_amplifier(self.alpha, LAM, TAP, cutoff)
        self.diagnostic_target = tomography.amplified_fidelity_diagnostic(
            heralded.state, self.alpha
        )

    def run(self, out: Path) -> None:
        _run_cli(["simulate", "--config", str(self.config), "--out", str(out)])

    def check(self, out: Path, _state) -> tuple[list[str], dict]:
        failures: list[str] = []
        sub = out / f"alpha_{self.alpha:.4f}"
        report = json.loads((sub / "report.json").read_text())
        if self.gate_fidelity and not report["fidelity_to_truth"] >= FIDELITY_MIN:
            failures.append(f"fidelity_to_truth {report['fidelity_to_truth']:.4f} < {FIDELITY_MIN}")
        diagnostic = report["diagnostic_fidelity_2alpha"]
        if self.gate_fidelity and not abs(diagnostic - self.diagnostic_target) <= DIAGNOSTIC_TOL:
            failures.append(
                f"|alpha| diagnostic {diagnostic:.4f} is more than {DIAGNOSTIC_TOL} "
                f"from the heralded state's {self.diagnostic_target:.4f}"
            )
        csv_path = sub / "quadratures.csv"
        theta, x = _read_records(csv_path, "amplified")
        _, counters = _check_reconstruction(sub, theta, x, failures)
        counters.update(
            records=sum(1 for _ in csv_path.open()) - 1,
            herald_p=report["success_prob"],
            stop="converged" if report["converged"] else "max_iters",
            fidelity=report["fidelity_to_truth"],
        )
        return failures, counters


class ReconstructWide:
    """`nla reconstruct` on a CSV written in set-up: the ideal g = 2 output of
    |alpha = 1.5> (d = 38) seen at eta = 0.6, so MaxLik cost grows with d."""

    FULL = Profile(alphas=(1.5,), samples=33_000)

    def __init__(self, profile: Profile, seed: int, workdir: Path):
        alpha = profile.alphas[0]
        self.gate_fidelity = profile.gate_fidelity
        cutoff = fock.default_cutoff(alpha, g=G)
        truth = amplifiers.amplify_ideal(fock.coherent_state(alpha, cutoff), G).normalized()
        data = homodyne.sample_quadratures(
            truth, homodyne.uniform_phases(PHASES), profile.samples // PHASES, ETA, seed,
            tag="amplified",
        )
        dataset = homodyne.save_dataset_csv(data, workdir / "wide.csv")
        self.theta, self.x = _read_records(dataset, "amplified")
        self.truth = truth.amplitudes
        self.config = _write_json(
            workdir / "reconstruct.json",
            {
                "alphas": [alpha],
                "g": G,
                "eta": ETA,
                "phases": PHASES,
                "max_iters": profile.max_iters,
                "dataset": str(dataset),
            },
        )

    def run(self, out: Path) -> None:
        _run_cli(["reconstruct", "--config", str(self.config), "--out", str(out)])

    def check(self, out: Path, _state) -> tuple[list[str], dict]:
        failures: list[str] = []
        rho, counters = _check_reconstruction(out, self.theta, self.x, failures)
        fidelity = float(np.vdot(self.truth, rho @ self.truth).real / np.trace(rho).real)
        if self.gate_fidelity and not fidelity >= FIDELITY_MIN:
            failures.append(f"fidelity to the known truth {fidelity:.4f} < {FIDELITY_MIN}")
        report = json.loads((out / "report.json").read_text())
        counters.update(
            records=self.x.size,
            stop="converged" if report["converged"] else "max_iters",
            fidelity=fidelity,
        )
        return failures, counters


class AcquireWigner:
    """Acquisition and phase-space analysis without MaxLik, at two cutoffs:
    heralded amplifier, three sampled tags, two merges, the CSV round trip,
    the gain estimate, then `nla wigner-demo`."""

    FULL = Profile(alphas=(0.65, 1.5), samples=100_000)

    def __init__(self, profile: Profile, seed: int, workdir: Path):
        self.seed = seed
        self.counts = profile.samples // PHASES
        self.configs = {
            alpha: _write_json(workdir / f"wigner_{alpha:.4f}.json", {"alphas": [alpha], "g": G})
            for alpha in profile.alphas
        }

    def run(self, out: Path) -> list:
        acquired = []
        phases = homodyne.uniform_phases(PHASES)
        for alpha, config in self.configs.items():
            sub = out / f"alpha_{alpha:.4f}"
            sub.mkdir(parents=True)
            cutoff = fock.default_cutoff(alpha, g=G)
            heralded = physical.physical_amplifier(alpha, LAM, TAP, cutoff)
            states = (heralded.state, fock.coherent_state(alpha, cutoff), fock.vacuum_state(cutoff))
            data = None
            for k, (tag, state) in enumerate(zip(TAGS, states)):
                part = homodyne.sample_quadratures(
                    state, phases, self.counts, ETA, self.seed + k, tag=tag
                )
                data = part if data is None else data.merged_with(part)
            path = homodyne.save_dataset_csv(data, sub / "quadratures.csv")
            loaded = homodyne.load_dataset_csv(path)
            gain = homodyne.gain_from_samples(
                loaded.select("amplified", theta=0.0), loaded.select("input", theta=0.0)
            )
            _run_cli(["wigner-demo", "--config", str(config), "--out", str(sub)])
            acquired.append((alpha, sub, data, loaded, gain.gain, heralded.success_prob))
        return acquired

    def check(self, out: Path, acquired: list) -> tuple[list[str], dict]:
        failures: list[str] = []
        counters = {"records": 0, "herald_p": [], "gain": []}
        for alpha, sub, data, loaded, gain, herald_p in acquired:
            if _fingerprint(data) != _fingerprint(loaded):
                failures.append(f"alpha {alpha}: CSV round trip is not bit-exact")
            vacuum = loaded.select("vacuum")
            var = float(np.var(vacuum, ddof=1))
            if not abs(var - 1.0) <= VACUUM_SIGMAS * np.sqrt(2.0 / vacuum.size):
                failures.append(f"alpha {alpha}: vacuum variance {var:.4f} is not 1 within 6 sigma")
            ratio = json.loads((sub / "overlap_report.json").read_text())["overlap_ratio"]
            if not ratio < 1.0:
                failures.append(f"alpha {alpha}: overlap_ratio {ratio:.4f} is not below 1")
            counters["records"] += loaded.n_records
            counters["herald_p"].append(herald_p)
            counters["gain"].append(gain)
        return failures, counters


WORKLOADS = {
    "simulate_ref": SimulateRef,
    "reconstruct_wide": ReconstructWide,
    "acquire_wigner": AcquireWigner,
}
