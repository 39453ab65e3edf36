"""Optical spectrum of the scattered field.

The spectrum splits into a coherent delta peak at the laser frequency
(reported as a scalar weight, never discretized) and an incoherent
continuous part: the Laplace transform of the decaying portion of C1,
evaluated on the imaginary axis through resolvent solves. The frequency
axis is always omega - omega_L.
"""
from __future__ import annotations

import warnings

import numpy as np

from .correl import ObservableSeries, _c1_pieces, _increasing, stationary_intensity
from .model import BlockState, ModelSpec, trace_functional
from .steady import Prepared, prepare, resolve_deflated, resolve_krylov


def coherent_weight(model: ModelSpec | Prepared) -> float:
    """Weight of the delta peak at the laser frequency (ModelSpec or Prepared):
    |sum_R sqrt(gamma_tilde_R) <a|rho_R^inf|b>|^2."""
    p = prepare(model)
    amp = np.sqrt(p.spec.effective_decays()) @ p.steady.blocks[:, 0, 1]
    return float(np.abs(amp) ** 2)


def incoherent_spectrum(model: ModelSpec | Prepared, omega_grid) -> ObservableSeries:
    """S_inc of a ModelSpec or Prepared on a grid of omega - omega_L values.

    The coherent plateau is subtracted from the C1 seed (projection onto
    the steady state), which regularizes the u -> 0 pole; each frequency
    is then one trace-deflated resolvent solve at u = -i(omega - omega_L)
    and the two conjugate Laplace evaluations combine to 2 Re[...], real
    by construction. The whole grid is first solved from one shift-invert
    Krylov basis (``steady.resolve_krylov``), each omega accepted at a
    checkpoint set by the model and that omega alone. Every omega it
    leaves takes the bordered solve (``steady.resolve_deflated``), one LU
    at u = -i|omega| per distinct |omega|, for the columns
    [v_dec, conj v_dec]: L is real, so omega >= 0 reads the first column
    and -|omega| the conjugate of the second. Every column passes the
    bordered check of ``steady``. An omega near a purely imaginary
    eigenvalue gives the large value of the resolvent there; SingularShift
    is raised only when a solve fails (a shift on it to working precision).
    """
    omega = _increasing(omega_grid)
    p = prepare(model)
    seeds, w = _c1_pieces(p.spec, p.steady)
    v = BlockState(seeds).to_vector()
    theta = trace_functional(p.spec.r_max)
    v_dec = v - p.steady.to_vector() * (theta @ v)
    x, accepted = resolve_krylov(p.generator, -1j * omega, v_dec)
    rest = ~accepted
    if rest.any():
        mags, at = np.unique(np.abs(omega[rest]), return_inverse=True)
        neg = omega[rest] < 0
        y = resolve_deflated(p.generator, -1j * mags,
                             np.column_stack([v_dec, v_dec.conj()]))[at, :, neg.astype(int)]
        x[rest] = np.conjugate(y, out=y, where=neg[:, None])
    # each omega's column is a contiguous row: its dot sums as that of an
    # omega solved alone
    return ObservableSeries(omega, 2.0 * np.real([w @ col for col in x]))


def sum_rule_check(model: ModelSpec | Prepared, omega_grid) -> float:
    """| (1/2pi) int S_inc + S_coh - I_st | / I_st by trapezoid quadrature,
    for a ModelSpec or Prepared.

    Warns when the estimated out-of-grid tail (1/omega^2 extrapolation from
    the edge values) is itself larger than 1e-3 of I_st. Dark models
    (I_st = 0) return 0 by definition.
    """
    p = prepare(model)
    i_st = stationary_intensity(p)
    if i_st <= 1e-300:
        return 0.0
    series = incoherent_spectrum(p, omega_grid)
    integral = np.trapezoid(series.values, series.abscissa) / (2.0 * np.pi)
    tail = (abs(series.values[0] * series.abscissa[0])
            + abs(series.values[-1] * series.abscissa[-1])) / (2.0 * np.pi)
    if tail > 1e-3 * i_st:
        warnings.warn(
            f"spectrum grid may be too narrow: estimated tail {tail:.3e} "
            f"exceeds 1e-3 * I_st = {1e-3 * i_st:.3e}", stacklevel=2)
    return float(abs(integral + coherent_weight(p) - i_st) / i_st)
