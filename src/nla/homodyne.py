"""Lossy balanced homodyne simulation.

Detection efficiency eta is applied as a pre-measurement loss channel on the
state (beam splitter with vacuum, ancilla traced out); quadrature probability
densities come from the real oscillator wavefunctions scaled so that the
vacuum density is the standard normal, through one real contraction that
both sampling and MaxLik use; sampling is inverse-CDF on a dense grid built
once per state, deterministic under a seed with per-phase subseeds.
"""

from __future__ import annotations

import csv
import io
import json
from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

import numpy as np
from scipy.special import gammaln

from . import fock
from .fock import DensityMatrix, State
from .errors import EstimationError, GridError

_MAX_PDF_SPACING = 0.02
_PDF_NORM_TOL = 1e-6
_SAMPLING_SPACING = 0.01
_CSV_CHUNK = 2**14


def quadrature_wavefunctions(x: np.ndarray, n_max: int) -> np.ndarray:
    """psi_n(x) for n = 0..n_max, rows indexed by n.

    Three-term recurrence psi_{n+1} = (x psi_n - sqrt(n) psi_{n-1})/sqrt(n+1),
    stable far beyond n = 60; psi_0^2 is the standard normal density, matching
    the shot-noise-unit quadrature scaling.
    """
    x = np.asarray(x, dtype=np.float64)
    psi = np.zeros((n_max + 1, x.size), dtype=np.float64)
    psi[0] = (2.0 * np.pi) ** -0.25 * np.exp(-0.25 * x * x)
    if n_max >= 1:
        psi[1] = x * psi[0]
    for n in range(1, n_max):
        psi[n + 1] = (x * psi[n] - np.sqrt(n) * psi[n - 1]) / np.sqrt(n + 1.0)
    return psi


def log_binomial_bands(dim: int) -> list[np.ndarray]:
    """log C(m+k, k) for m = 0 .. dim-1-k, one array per band k = 0 .. dim-1.

    The one binomial table behind every banded channel in the package: the
    detection loss, the subtraction tap and the addition squeezer.
    """
    m = np.arange(dim)
    return [
        gammaln(m[: dim - k] + k + 1.0) - gammaln(m[: dim - k] + 1.0) - gammaln(k + 1.0)
        for k in range(dim)
    ]


def lower_bands(bands: list[np.ndarray], rho: np.ndarray) -> np.ndarray:
    """sum_k A_k rho A_k^T with A_k[m, m+k] = b_k[m]: band k removes k quanta.

    Band k holds dim - k weights, which fixes its offset, so a caller drops
    bands by leaving them out of the list.
    """
    dim = rho.shape[0]
    out = np.zeros((dim, dim), dtype=np.result_type(rho, np.float64))
    for b in bands:
        k = dim - b.size
        out[: dim - k, : dim - k] += b[:, None] * rho[k:, k:] * b
    return out


def raise_bands(bands: list[np.ndarray], operator: np.ndarray) -> np.ndarray:
    """sum_k A_k^T O A_k for the bands of :func:`lower_bands`: band k moves
    every entry k levels up the diagonal and drops what leaves the cutoff."""
    dim = operator.shape[0]
    out = np.zeros((dim, dim), dtype=np.result_type(operator, np.float64))
    for b in bands:
        k = dim - b.size
        out[k:, k:] += b[:, None] * operator[: dim - k, : dim - k] * b
    return out


class LossMap:
    """Efficiency-eta loss channel on a d-level truncation, kept banded.

    E(rho)[m, n] = sum_k b[m, k] b[n, k] rho[m+k, n+k] with
    b[m, k] = sqrt(C(m+k, k) eta^m (1-eta)^k), the amplitude for m photons
    to survive and k to be lost; the adjoint scatters the same bands back.
    Each map is d slice-adds instead of d dense Kraus products A_k rho A_k^dag
    (A_k[m, m+k] = b[m, k]). Each entry is rounded as (b_m rho) b_n and the
    bands are added in increasing k, the order of the dense Kraus sum, so
    both give the same bits. The map is exact in the truncation because loss
    only lowers the photon number.
    """

    def __init__(self, eta: float, dim: int):
        if not 0.0 < eta <= 1.0:
            raise ValueError(f"efficiency must lie in (0, 1], got {eta}")
        if eta == 1.0:
            self.bands = [np.ones(dim)]
            return
        log_eta, log_loss = np.log(eta), np.log(1.0 - eta)
        self.bands = [
            np.exp(0.5 * (log_c + np.arange(log_c.size) * log_eta + k * log_loss))
            for k, log_c in enumerate(log_binomial_bands(dim))
        ]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Schroedinger picture: the state seen after the loss."""
        return lower_bands(self.bands, rho)

    def adjoint(self, operator: np.ndarray) -> np.ndarray:
        """Heisenberg picture (unital): Tr(apply(rho) O) = Tr(rho adjoint(O))."""
        return raise_bands(self.bands, operator)


def loss_channel(state: State, eta: float) -> DensityMatrix:
    """Efficiency-eta loss of the normalized state: trace-preserving, maps
    |alpha> to |sqrt(eta) alpha>. A subnormalized input (a herald-weighted
    ket or matrix) loses its weight here, so the output has unit trace."""
    rho = fock.normalized_density(state)
    out = LossMap(eta, rho.dim).apply(rho.elements)
    out = 0.5 * (out + out.conj().T)
    return DensityMatrix(out, rho.cutoff)


def phase_rotated(rho: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """Re(rho_mn e^{i(n-m) theta}) for phase = e^{i n theta}.

    The real matrix R_theta with p(x|theta) = psi(x)^T R_theta psi(x): the
    imaginary part of the rotated rho is antisymmetric and drops out of the
    contraction with the real wavefunctions.
    """
    return (rho * np.outer(phase.conj(), phase)).real


def quadrature_pdf(state: State, theta: float, x_grid: np.ndarray) -> np.ndarray:
    """p(x|theta) of the normalized state on the given grid.

    p(x|theta) = sum_{mn} rho_mn e^{i(n-m) theta} psi_m(x) psi_n(x), the
    contraction of :func:`phase_rotated` that MaxLik fits. The grid must be
    dense (spacing <= 0.02) and wide enough that the density integrates to 1
    within 1e-6.
    """
    x_grid = np.asarray(x_grid, dtype=np.float64)
    if x_grid.size < 2:
        raise GridError("quadrature grid needs at least two points")
    spacing = np.diff(x_grid)
    if np.max(spacing) > _MAX_PDF_SPACING * (1.0 + 1e-9):
        raise GridError(
            f"quadrature grid too coarse: spacing {np.max(spacing):.4g} > {_MAX_PDF_SPACING}"
        )
    rho = fock.normalized_density(state)
    psi = quadrature_wavefunctions(x_grid, rho.cutoff.n_max)
    rotated = phase_rotated(rho.elements, np.exp(1j * theta * np.arange(rho.dim)))
    pdf = np.maximum(np.einsum("nj,nj->j", psi, rotated @ psi), 0.0)
    total = float(np.trapezoid(pdf, x_grid))
    if abs(total - 1.0) > _PDF_NORM_TOL:
        raise GridError(
            f"quadrature grid too narrow: density integrates to {total:.8f}"
        )
    return pdf


def default_x_grid(state: State, spacing: float = _SAMPLING_SPACING) -> np.ndarray:
    """Symmetric grid wide enough for the state's quadrature support."""
    half = 4.0 * np.sqrt(max(fock.mean_photon(state), 0.0)) + 8.0
    n = int(np.ceil(half / spacing))
    return np.linspace(-n * spacing, n * spacing, 2 * n + 1)


@dataclass(frozen=True)
class QuadratureDataset:
    """Homodyne records plus the acquisition metadata.

    records maps each tag to one read-only float64 block of shape
    (phases.size, counts_per_phase): row k holds the records taken at
    phases[k], in acquisition order.
    """

    records: Mapping[str, np.ndarray]
    phases: np.ndarray
    eta: float
    seed: int
    counts_per_phase: int
    description: str = ""

    def __post_init__(self):
        phases = np.array(self.phases, dtype=np.float64)
        records = {tag: np.array(block, dtype=np.float64) for tag, block in self.records.items()}
        if phases.ndim != 1 or phases.size == 0 or np.unique(phases).size != phases.size:
            raise ValueError("phases must be a non-empty 1-D grid of distinct values")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"efficiency must lie in (0, 1], got {self.eta}")
        if self.counts_per_phase < 1:
            raise ValueError("counts_per_phase must be >= 1")
        shape = (phases.size, self.counts_per_phase)
        for tag, block in records.items():
            if block.shape != shape:
                raise ValueError(f"tag {tag!r} block has shape {block.shape}, expected {shape}")
            block.flags.writeable = False
        phases.flags.writeable = False
        object.__setattr__(self, "records", MappingProxyType(records))
        object.__setattr__(self, "phases", phases)

    @property
    def n_records(self) -> int:
        return len(self.records) * self.phases.size * self.counts_per_phase

    @property
    def theta(self) -> np.ndarray:
        """Phase of every record, in the row order of :attr:`x`."""
        return np.tile(np.repeat(self.phases, self.counts_per_phase), len(self.records))

    @property
    def x(self) -> np.ndarray:
        """Every record flattened tag by tag, then phase by phase."""
        return np.concatenate([np.empty(0)] + [b.ravel() for b in self.records.values()])

    def select(self, tag: str, theta: float | None = None) -> np.ndarray:
        """x values of one tag, optionally restricted to one phase."""
        block = self.records.get(tag)
        if block is None:
            return np.empty(0)
        rows = slice(None) if theta is None else np.abs(self.phases - theta) <= 1e-12
        return block[rows].ravel()

    def merged_with(self, other: "QuadratureDataset") -> "QuadratureDataset":
        """Union of the records of two same-profile acquisitions (distinct tags)."""
        if other.eta != self.eta or other.counts_per_phase != self.counts_per_phase:
            raise ValueError("datasets must share eta and counts_per_phase to merge")
        if not np.array_equal(other.phases, self.phases):
            raise ValueError("datasets must share the phase grid to merge")
        shared = sorted(self.records.keys() & other.records.keys())
        if shared:
            raise ValueError(f"datasets to merge both hold tag {shared[0]!r}")
        return QuadratureDataset(
            records={**self.records, **other.records},
            phases=self.phases,
            eta=self.eta,
            seed=self.seed,
            counts_per_phase=self.counts_per_phase,
            description="; ".join(s for s in (self.description, other.description) if s),
        )


def _inverse_cdf_sample(pdf: np.ndarray, grid: np.ndarray, u: np.ndarray) -> np.ndarray:
    mids = 0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid)
    cdf = np.concatenate([[0.0], np.cumsum(mids)])
    cdf /= cdf[-1]
    keep = np.concatenate([[True], np.diff(cdf) > 0.0])
    return np.interp(u, cdf[keep], grid[keep])


def sample_quadratures(
    state: State,
    phases: np.ndarray,
    counts_per_phase: int,
    eta: float,
    seed: int,
    *,
    tag: str,
    description: str = "",
) -> QuadratureDataset:
    """Monte-Carlo homodyne record of the state seen through efficiency eta.

    The loss channel is applied first, then each phase is sampled by
    inverse-CDF lookup on one dense grid shared by all phases (spacing 0.01,
    linear interpolation). Per-phase streams are seeded by (seed, phase
    index), so the dataset is bit-reproducible and phase order independent.
    """
    if counts_per_phase < 1:
        raise ValueError("counts_per_phase must be >= 1")
    phases = np.asarray(phases, dtype=np.float64)
    lossy = loss_channel(state, eta)
    grid = default_x_grid(lossy)
    block = np.empty((phases.size, counts_per_phase))
    for k, theta in enumerate(phases):
        pdf = quadrature_pdf(lossy, theta, grid)
        rng = np.random.default_rng([seed, k])
        block[k] = _inverse_cdf_sample(pdf, grid, rng.random(counts_per_phase))
    return QuadratureDataset(
        records={tag: block},
        phases=phases,
        eta=eta,
        seed=seed,
        counts_per_phase=counts_per_phase,
        description=description,
    )


def uniform_phases(count: int) -> np.ndarray:
    """count LO phases uniform on [0, pi)."""
    if count < 1:
        raise ValueError("phase count must be >= 1")
    return np.arange(count) * np.pi / count


@dataclass(frozen=True)
class GainEstimate:
    gain: float
    stderr: float


def gain_from_samples(amplified: np.ndarray, input_: np.ndarray) -> GainEstimate:
    """Amplitude gain as the ratio of sample means at theta = 0.

    Both records must come through the same efficiency: detection loss scales
    both means by sqrt(eta) and factors out of the ratio. The standard error
    is propagated from the two sample means.
    """
    amplified = np.asarray(amplified, dtype=np.float64)
    input_ = np.asarray(input_, dtype=np.float64)
    if amplified.size < 2 or input_.size < 2:
        raise EstimationError("need at least two samples in each record")
    ma, mi = float(np.mean(amplified)), float(np.mean(input_))
    sa = float(np.std(amplified, ddof=1)) / np.sqrt(amplified.size)
    si = float(np.std(input_, ddof=1)) / np.sqrt(input_.size)
    if abs(mi) < 5.0 * si:
        raise EstimationError(
            f"input mean {mi:.4g} indistinguishable from zero (SE {si:.4g}); "
            "gain ratio is unstable"
        )
    gain = ma / mi
    stderr = float(np.hypot(sa / mi, ma * si / (mi * mi)))
    return GainEstimate(gain, stderr)


def _csv_tag_field(tag) -> str:
    """tag as csv.writer writes it in the last column of a row."""
    buf = io.StringIO()
    csv.writer(buf).writerow(["", tag])
    return buf.getvalue()[1:-2]


def save_dataset_csv(
    dataset: QuadratureDataset, path: str | Path, extra_meta: dict | None = None
) -> Path:
    """Write records as theta,x,tag rows plus a .meta.json sidecar; floats use
    repr so the round trip is bit-exact. extra_meta entries (e.g. provenance
    hashes) are merged into the sidecar.

    Rows run tag by tag, then phase by phase, and the bytes are those of
    csv.writer: each tag is quoted once by it, each phase's theta prefix is
    formatted once, and records are formatted in chunks of _CSV_CHUNK, which
    bounds the memory the formatted text holds."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.write("theta,x,tag\r\n")
        for tag, block in dataset.records.items():
            suffix = f",{_csv_tag_field(tag)}\r\n"
            for theta, row in zip(dataset.phases.tolist(), block):
                prefix = f"{theta!r},"
                for start in range(0, row.size, _CSV_CHUNK):
                    chunk = row[start : start + _CSV_CHUNK].tolist()
                    fh.write(prefix + (suffix + prefix).join(map(repr, chunk)) + suffix)
    meta = {
        "eta": dataset.eta,
        "seed": dataset.seed,
        "counts_per_phase": dataset.counts_per_phase,
        "phases": [float(p) for p in dataset.phases],
        "description": dataset.description,
    }
    if extra_meta:
        meta.update(extra_meta)
    meta_path = path.with_suffix(path.suffix + ".meta.json")
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return path


def load_dataset_csv(path: str | Path) -> QuadratureDataset:
    """Read a dataset written by :func:`save_dataset_csv`.

    Rows may come in any order; they are grouped stably by (tag, theta).
    Every tag must hold exactly counts_per_phase records at each declared
    phase and none elsewhere; tags are checked in sorted order and phases in
    ascending order, and the first violation raises ValueError.
    """
    path = Path(path)
    meta = json.loads(path.with_suffix(path.suffix + ".meta.json").read_text())
    phases = [float(p) for p in meta["phases"]]
    counts = meta["counts_per_phase"]
    groups: dict[str, dict[float, array]] = {}
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["theta", "x", "tag"]:
            raise ValueError(f"unexpected CSV header {header!r}")
        for theta, x, tag in reader:
            groups.setdefault(tag, {}).setdefault(float(theta), array("d")).append(float(x))
    for tag in sorted(groups):
        by_phase = groups[tag]
        if not by_phase.keys() <= set(phases):
            raise ValueError(f"tag {tag!r} contains phases outside the declared grid")
        for ph in sorted(phases):
            if len(by_phase.get(ph, ())) != counts:
                raise ValueError(
                    f"tag {tag!r} phase {ph!r} does not hold counts_per_phase records"
                )
    return QuadratureDataset(
        records={
            tag: np.stack([np.frombuffer(by_phase[ph]) for ph in phases])
            for tag, by_phase in groups.items()
        },
        phases=np.array(phases),
        eta=meta["eta"],
        seed=meta["seed"],
        counts_per_phase=counts,
        description=meta.get("description", ""),
    )
