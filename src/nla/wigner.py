"""Wigner functions over the shot-noise-unit phase plane, phase-space
rotations, and incoherent mixtures.

The convention is pinned to the package quadrature scaling: the vacuum gives
W(x, p) = (1/2 pi) e^{-(x^2+p^2)/2}, a coherent state |alpha> is the same
Gaussian centered at (2 Re alpha, 2 Im alpha), and rotated marginals of W
reproduce the homodyne quadrature densities.

W is evaluated from the position-space density matrix (Lvovsky and Raymer,
RMP 81, 299, 2009), which in these units reads

    W(x, p) = (1/2 pi) int rho(x + y, x - y) e^{-i p y} dy.

On a uniform x axis the integral is a sum over y = k h on an extended grid
aligned with the axis: rho(q, q') = Psi^T rho Psi is built once from the real
oscillator wavefunctions Psi, its anti-diagonals through each x are gathered,
and one matrix product with e^{-i p k h} gives every p at once. The sum is
exact to rounding once it spans the wavefunctions' support and its step is
fine enough that the copies W(x, p + 2 pi m / h) it adds for m != 0 lie
outside that support.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fock import DensityMatrix, PureState, State, normalized_density
from .errors import GridError
from .homodyne import quadrature_wavefunctions

_NORM_TOL = 1e-4
_BOUND = 1.0 / np.pi


@dataclass(frozen=True)
class WignerGrid:
    """W sampled on a rectangular (x, p) grid; values[i, j] = W(x_axis[i], p_axis[j])."""

    x_axis: np.ndarray
    p_axis: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        x = np.array(self.x_axis, dtype=np.float64, copy=True)
        p = np.array(self.p_axis, dtype=np.float64, copy=True)
        v = np.array(self.values, dtype=np.float64, copy=True)
        if v.shape != (x.size, p.size):
            raise ValueError(f"values shape {v.shape} does not match axes ({x.size}, {p.size})")
        for axis in (x, p):
            _check_uniform(axis, "axes")
        bound = float(np.max(np.abs(v)))
        if bound > _BOUND + 1e-12:
            raise GridError(f"|W| exceeds the convention bound 1/pi: {bound:.6g}")
        total = float(np.trapezoid(np.trapezoid(v, p, axis=1), x))
        if abs(total - 1.0) > _NORM_TOL:
            raise GridError(
                f"grid does not cover the state: integral of W is {total:.6f}"
            )
        for arr in (x, p, v):
            arr.flags.writeable = False
        object.__setattr__(self, "x_axis", x)
        object.__setattr__(self, "p_axis", p)
        object.__setattr__(self, "values", v)


def _check_uniform(axis: np.ndarray, name: str) -> None:
    steps = np.diff(axis)
    if axis.size < 2 or np.any(steps <= 0) or np.ptp(steps) > 1e-9 * steps[0]:
        raise ValueError(f"{name} must be strictly increasing and uniform")


def default_axes(halfwidth: float = 8.0, points: int = 201) -> np.ndarray:
    """Default phase-space axis: 201 points over +-8 shot-noise units."""
    return np.linspace(-halfwidth, halfwidth, points)


def _wigner_grid(rho: np.ndarray, x_axis: np.ndarray, p_axis: np.ndarray) -> np.ndarray:
    """W[i, j] = W(x_axis[i], p_axis[j]) for a uniform x_axis and any p_axis.

    Every psi_n with n < d is negligible beyond Q = 2 sqrt(d - 1/2) + 8, 8
    shot-noise units past the classical turning point of psi_{d-1}: there
    |psi_n| < 2e-10 at d 1, < 1.1e-15 from d 12 and < 1.3e-19 from d 40 on.
    Terms with |y| > Q vanish, because one of x +- y lies beyond Q, so k
    runs to ceil(Q / step). The step is the axis spacing, divided until the
    aliased copies W(x, p + 2 pi m / step) start beyond Q for every p.
    rho(q, q') is Hermitian, so the terms -k are the conjugates of the terms
    k and the sum keeps k >= 0 with weight 2 for k > 0.
    """
    n_x = x_axis.size
    support = 2.0 * np.sqrt(rho.shape[0] - 0.5) + 8.0
    spacing = (x_axis[-1] - x_axis[0]) / (n_x - 1)
    sub = int(np.ceil(spacing * (support + np.max(np.abs(p_axis))) / (2.0 * np.pi)))
    step = spacing / sub
    half = int(np.ceil(support / step))
    psi = quadrature_wavefunctions(
        x_axis[0] + step * np.arange(-half, (n_x - 1) * sub + half + 1), rho.shape[0] - 1
    )
    k = np.arange(half + 1)
    centers = half + sub * np.arange(n_x)[:, None]
    rows, cols = centers + k, centers - k
    weight = (np.where(k == 0, 1.0, 2.0) * step / (2.0 * np.pi))[:, None]
    phase = np.outer(k * step, p_axis)
    re = (psi.T @ (rho.real @ psi))[rows, cols]
    im = (psi.T @ (rho.imag @ psi))[rows, cols]
    return re @ (weight * np.cos(phase)) + im @ (weight * np.sin(phase))


def wigner_values(state: State, x_axis: np.ndarray, p_axis: np.ndarray) -> np.ndarray:
    """Raw W(x, p) array without grid-coverage validation. The x axis must be
    strictly increasing and uniform; the p axis may be any set of points."""
    x = np.asarray(x_axis, dtype=np.float64)
    _check_uniform(x, "x axis")
    rho = normalized_density(state).elements
    return _wigner_grid(rho, x, np.asarray(p_axis, dtype=np.float64))


def wigner_function(
    state: State,
    x_axis: np.ndarray | None = None,
    p_axis: np.ndarray | None = None,
) -> WignerGrid:
    """Wigner function of the normalized state on the given (or default) grid.

    Raises GridError when the grid fails to capture the state (integral of W
    off unity beyond 1e-4) or the convention bound |W| <= 1/pi is broken.
    """
    if x_axis is None:
        x_axis = default_axes()
    if p_axis is None:
        p_axis = x_axis
    return WignerGrid(x_axis, p_axis, wigner_values(state, x_axis, p_axis))


def phase_shift(state: State, phi: float):
    """Phase-space rotation e^{i phi n}: maps |alpha> to |alpha e^{i phi}>."""
    phase = np.exp(1j * phi * np.arange(state.dim))
    if isinstance(state, PureState):
        return PureState(state.amplitudes * phase, state.cutoff)
    if isinstance(state, DensityMatrix):
        return DensityMatrix(state.elements * np.outer(phase, phase.conj()), state.cutoff)
    raise TypeError(f"expected PureState or DensityMatrix, got {type(state).__name__}")


def mixture(rhos: list[DensityMatrix], weights: list[float]) -> DensityMatrix:
    """Incoherent mixture sum_i w_i rho_i; weights must be >= 0 and sum to 1."""
    if len(rhos) != len(weights) or not rhos:
        raise ValueError("need one weight per state")
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0.0) or abs(float(np.sum(w)) - 1.0) > 1e-12:
        raise ValueError("weights must be nonnegative and sum to 1")
    cutoff = rhos[0].cutoff
    if any(r.cutoff != cutoff for r in rhos):
        raise ValueError("all states must share a cutoff")
    out = np.zeros((cutoff.dim, cutoff.dim), dtype=np.complex128)
    for wi, ri in zip(w, rhos):
        out += wi * ri.elements / ri.trace
    return DensityMatrix(out, cutoff)


def wigner_overlap(a: WignerGrid, b: WignerGrid) -> float:
    """Phase-space overlap integral of two Wigner grids on identical axes."""
    if not (np.array_equal(a.x_axis, b.x_axis) and np.array_equal(a.p_axis, b.p_axis)):
        raise ValueError("grids must share axes")
    inner = np.trapezoid(a.values * b.values, a.p_axis, axis=1)
    return float(np.trapezoid(inner, a.x_axis))


def wigner_marginal(
    state: State,
    theta: float,
    x_values: np.ndarray,
    s_axis: np.ndarray | None = None,
) -> np.ndarray:
    """Marginal of W along the direction conjugate to x_theta.

    Integrates W over the line x cos(theta) + p sin(theta) = u by the
    trapezoid rule on the uniform s_axis, evaluating W at the exact rotated
    points (no interpolation), so the result is directly comparable to the
    homodyne quadrature density at LO phase theta.
    """
    s = default_axes() if s_axis is None else np.asarray(s_axis, dtype=np.float64)
    _check_uniform(s, "s_axis")
    u = np.asarray(x_values, dtype=np.float64)
    # W(u cos theta - s sin theta, u sin theta + s cos theta) is the W of the
    # state turned by pi/2 - theta, taken at x = -s, p = u.
    rho = normalized_density(phase_shift(state, np.pi / 2.0 - theta)).elements
    values = _wigner_grid(rho, -s[::-1], u)[::-1]
    return np.trapezoid(values, s, axis=0)


def save_wigner_json(grid: WignerGrid, path: str | Path, extra: dict | None = None) -> Path:
    path = Path(path)
    payload = {
        "x_axis": grid.x_axis.tolist(),
        "p_axis": grid.p_axis.tolist(),
        "values": grid.values.ravel().tolist(),
    }
    if extra:
        payload.update(extra)
    path.write_text(json.dumps(payload, sort_keys=True) + "\n")
    return path
