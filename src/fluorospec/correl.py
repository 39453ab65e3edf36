"""Two-time correlations of the scattered field via the quantum regression
theorem for block Lindblad rate equations.

A stationary correlation <O1(t) A(t+tau) O2(t)> is evaluated by seeding
each block with O2 rho_R^inf O1, propagating the full block state with the
one-time generator, and reading out Tr{A .} per destination block. The
field correlations carry sqrt(gamma_tilde) emission weights per block; all
results are reported in the dimensionless normalization where the
geometric far-field prefactor is 1.

The intensity correlation is C2(tau) = Tr J e^{tau L} J rho_inf and the
stationary intensity I_st = Tr J rho_inf, with J the detection jump.
Each result is an ObservableSeries: the values on their abscissa, with no
tag naming the observable.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (SIGMA, SIGMA_DAG, BlockState, ModelSpec, SuperOp, readout,
                    trace_functional)
from .steady import Prepared, expm, prepare


class ZeroIntensity(Exception):
    """Stationary intensity vanishes; normalized correlations undefined."""


@dataclass(frozen=True, eq=False)
class ObservableSeries:
    """The values of one observable on a strictly increasing abscissa."""

    abscissa: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.abscissa, dtype=float)
        v = np.asarray(self.values)
        if a.shape != (v.shape[0],):
            raise ValueError(f"abscissa length {a.shape} != values length {v.shape}")
        object.__setattr__(self, "abscissa", _increasing(a))
        object.__setattr__(self, "values", v)


def _increasing(grid) -> np.ndarray:
    """grid as a float array; ValueError unless it is strictly increasing.
    Every grid is checked here before its first point is computed."""
    grid = np.asarray(grid, dtype=float)
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ValueError("grid must be strictly increasing")
    return grid


def propagate_on_grid(generator: SuperOp, v0: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """e^{t L} v0 for every t in a strictly increasing grid, t >= 0.

    Sequential expm stepping in real arithmetic, on the real and imaginary
    parts of v0. The last step propagator is kept and reused while the next
    step lies within 1e-12 relative of its step; any other step takes a new
    expm. Returns shape (len(grid), dim); FloatingPointError, naming the
    first such t, when e^{t L} v0 is not finite (an overflow, unwarned).
    """
    grid = _increasing(grid)
    if grid.size and (grid[0] < 0 or not np.all(np.isfinite(grid))):
        raise ValueError("grid must be finite and nonnegative")
    m = generator.matrix
    out = np.empty((v0.size, grid.size), dtype=complex)
    v = np.column_stack([v0.real, v0.imag])    # real products with the propagators
    prop, step = None, 0.0
    with np.errstate(all="ignore"):            # an overflow shows as inf or NaN
        for i, dt in enumerate(np.diff(grid, prepend=0.0)):
            if dt > 0:
                if abs(dt - step) > 1e-12 * step:
                    prop, step = expm(dt * m), dt
                v = prop @ v
                if not np.isfinite(v).all():
                    raise FloatingPointError(f"e^(tL) v0 at t = {grid[i]} is not finite")
            out[:, i] = v[:, 0] + 1j * v[:, 1]
    return out.T


def _regression(p: Prepared, seed: np.ndarray, w: np.ndarray, tau_grid):
    """(tau, w . e^{tau L} seed) on a tau grid, vectors in the coordinates
    of BlockState.to_vector."""
    tau = np.asarray(tau_grid, float)
    return tau, propagate_on_grid(p.generator, seed, tau) @ w


def qrt_two_time(model: ModelSpec | Prepared, o1: np.ndarray, a: np.ndarray,
                 o2: np.ndarray, tau_grid) -> ObservableSeries:
    """Stationary <O1(t) A(t+tau) O2(t)> of a ModelSpec or Prepared on a tau
    grid (complex values)."""
    p = prepare(model)
    seeds = np.einsum("ij,rjk,kl->ril", np.asarray(o2, complex), p.steady.blocks,
                      np.asarray(o1, complex))
    w = readout(a, np.ones(p.spec.r_max))
    tau, vals = _regression(p, BlockState(seeds).to_vector(), w, tau_grid)
    return ObservableSeries(tau, vals)


def _c1_pieces(spec: ModelSpec, st: BlockState):
    """Seed blocks sqrt(gt_R') rho_R'^inf sigma† and the readout weight
    vector picking sqrt(gt_R) Tr{sigma .} = sqrt(gt_R) x_ba per block."""
    sq = np.sqrt(spec.effective_decays())
    seeds = sq[:, None, None] * (st.blocks @ SIGMA_DAG)
    return seeds, readout(SIGMA, sq)


def c1(model: ModelSpec | Prepared, tau_grid) -> ObservableSeries:
    """Dimensionless first-order field correlation C1(tau), tau >= 0, of a
    ModelSpec or Prepared.

    C1(-tau) is defined by conjugation; C1(0) equals the stationary
    intensity and C1(inf) the coherent spectral weight.
    """
    p = prepare(model)
    seeds, w = _c1_pieces(p.spec, p.steady)
    tau, vals = _regression(p, BlockState(seeds).to_vector(), w, tau_grid)
    return ObservableSeries(tau, vals)


def c2(model: ModelSpec | Prepared, tau_grid) -> ObservableSeries:
    """Dimensionless intensity correlation C2(tau) = Tr J e^{tau L} J rho_inf
    (real) of a ModelSpec or Prepared."""
    p = prepare(model)
    readout = trace_functional(p.spec.r_max) @ p.jump
    tau, vals = _regression(p, p.jump @ p.steady.to_vector(), readout, tau_grid)
    return ObservableSeries(tau, np.real(vals))


def stationary_intensity(model: ModelSpec | Prepared) -> float:
    """I_st = Tr J rho_inf = sum_R gamma_tilde_R <b|rho_R^inf|b> (ModelSpec
    or Prepared); one value per point of a stacked Prepared."""
    p = prepare(model)
    theta = trace_functional(p.generator.r_max)
    i_st = np.real((theta @ p.jump) @ p.steady.to_vector()[..., None])[..., 0]
    return i_st if i_st.ndim else float(i_st)


def g2(model: ModelSpec | Prepared, tau_grid) -> ObservableSeries:
    """Normalized intensity correlation g2(tau) = C2(tau)/I_st^2 (ModelSpec
    or Prepared)."""
    p = prepare(model)
    i_st = stationary_intensity(p)
    if i_st <= 1e-300:
        raise ZeroIntensity("stationary intensity is zero; g2 undefined")
    series = c2(p, tau_grid)
    return ObservableSeries(series.abscissa, series.values / i_st**2)
