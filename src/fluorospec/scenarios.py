"""Constructors and closed-form companions for the standard environment
scenarios: spectral diffusion, lifetime fluctuations, diffusing molecules,
and light-assisted (emission-gated) blinking."""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import ModelSpec
from .steady import expm


@dataclass(frozen=True, eq=False)
class BlinkingApprox:
    """Classical blinking approximation of a light-assisted model:
    effective transition rates big_gamma[R][R'] (R'->R) and per-state
    average intensities."""

    big_gamma: np.ndarray
    intensities: np.ndarray


def single_state(gamma: float, omega_rabi: float, detuning: float = 0.0) -> ModelSpec:
    """Markovian limit: one configurational state, no fluctuation tables."""
    return ModelSpec([0.0], [gamma], [omega_rabi], detuning=detuning)


def spectral_two_state(gamma: float, omega_rabi: float, delta_omega: float,
                       phi: float, detuning: float = 0.0) -> ModelSpec:
    """Symmetric two-state spectral diffusion: shifts +-delta_omega, equal
    decay and Rabi frequency, symmetric hopping rate phi."""
    return ModelSpec([+delta_omega, -delta_omega], [gamma] * 2, [omega_rabi] * 2,
                     phi=[[0.0, phi], [phi, 0.0]], detuning=detuning)


def lifetime_fluct(gammas, phi, omega_rabi: float, detuning: float = 0.0) -> ModelSpec:
    """Per-state decay rates, shared Rabi frequency, zero shifts, phi mixing."""
    return ModelSpec([0.0] * len(gammas), gammas, [omega_rabi] * len(gammas),
                     phi=np.asarray(phi, dtype=float), detuning=detuning)


def diffusion_chain(n_sites: int, omega_profile, phi_hop: float, gamma: float,
                    detuning: float = 0.0) -> ModelSpec:
    """Molecule diffusing through a laser profile: nearest-neighbour hopping
    at rate phi_hop with reflecting ends, per-site Rabi frequency."""
    if n_sites < 2:
        raise ValueError(f"n_sites must be >= 2, got {n_sites}")
    profile = np.asarray(omega_profile, dtype=float)
    if profile.shape != (n_sites,):
        raise ValueError(f"omega_profile must have length {n_sites}")
    hop = np.zeros((n_sites, n_sites))
    for i in range(n_sites - 1):
        hop[i, i + 1] = phi_hop
        hop[i + 1, i] = phi_hop
    return ModelSpec([0.0] * n_sites, [gamma] * n_sites, profile, phi=hop,
                     detuning=detuning)


def light_assisted(gammas, gamma_cross, omega_rabi: float,
                   detuning: float = 0.0) -> ModelSpec:
    """Emission-gated fluctuations: configurational transitions happen only
    through photon emission (cross table), no system-independent hopping."""
    return ModelSpec([0.0] * len(gammas), gammas, [omega_rabi] * len(gammas),
                     gamma_cross=np.asarray(gamma_cross, dtype=float), detuning=detuning)


def blinking_rates(spec: ModelSpec) -> BlinkingApprox:
    """Classical rates of the blinking approximation.

    Gamma[R'][R] = gamma_cross[R'][R] * Omega^2 / (gt_R^2 + 2 Omega^2 + 4 delta^2)
    and I_R = gt_R Omega^2 / (gt_R^2 + 2 Omega^2 + 4 delta^2). Valid when the
    cross rates are far from the radiative rates on either side; a warning is
    attached otherwise.
    """
    gtilde = spec.effective_decays()
    omegas = spec.omega_rabi
    denom = gtilde**2 + 2.0 * omegas**2 + 4.0 * spec.detuning**2
    intensities = gtilde * omegas**2 / denom
    big = spec.gamma_cross * (omegas**2 / denom)[None, :]
    cross = spec.gamma_cross[spec.gamma_cross > 0]
    if cross.size:
        ratio = cross.max() / max(spec.gamma.min(), 1e-300)
        if 0.1 < ratio < 10.0:
            warnings.warn(
                f"blinking approximation marginal: max gamma_cross / min gamma "
                f"= {ratio:.3g} is neither << 1 nor >> 1", stacklevel=2)
    return BlinkingApprox(big_gamma=big, intensities=intensities)


def classical_blinking_populations(approx: BlinkingApprox, p0, t: float) -> np.ndarray:
    """Populations of the classical master equation built from big_gamma,
    started from distribution p0, at time t."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    p0 = np.asarray(p0, dtype=float)
    gen = approx.big_gamma - np.diag(approx.big_gamma.sum(axis=0))
    return expm(t * gen) @ p0


def _require_two_state(spec: ModelSpec, what: str) -> None:
    if spec.r_max != 2 or np.any(spec.phi != 0):
        raise ValueError(f"{what} requires a two-state light-assisted spec")


def mandel_detuning_limit(spec: ModelSpec) -> float:
    """Large-detuning limit of the stationary Mandel factor for a two-state
    light-assisted model (independent of the drive)."""
    _require_two_state(spec, "closed form")
    g1, g2 = spec.gamma
    g21 = spec.gamma_cross[1, 0]
    g12 = spec.gamma_cross[0, 1]
    num = 2.0 * g12 * g21 * ((g1 + g21) - (g2 + g12)) ** 2
    den = (g12 + g21) ** 2 * (g1 * g12 + g2 * g21 + 2.0 * g12 * g21)
    return num / den


def mapped_self_fluct(spec: ModelSpec) -> ModelSpec:
    """Self-fluctuating twin of a two-state light-assisted model: decay rates
    promoted to the effective ones and the hopping table set to the classical
    blinking rates at the spec's detuning. Spectrum and g2 are (nearly)
    indistinguishable from the original; counting statistics are not."""
    _require_two_state(spec, "mapping")
    approx = blinking_rates(spec)
    gtilde = spec.effective_decays()
    return lifetime_fluct(gammas=gtilde, phi=approx.big_gamma,
                          omega_rabi=float(spec.omega_rabi[0]),
                          detuning=spec.detuning)


def scaled_triplet(base_spec: ModelSpec, detuning: float, delta0: float,
                   omega_bar: float, gamma12_bar: float) -> ModelSpec:
    """Detuning-compensated variant of a two-state light-assisted model:
    gamma_12 -> gamma_12 + gamma12_bar |delta|/delta0 and
    Omega -> Omega + omega_bar sqrt(|delta|/delta0), which keeps the dark-to-
    bright classical rate finite at large detuning (triplet-blinking-like).

    The stationary Mandel factor of the result follows
    `mandel_detuning_limit` evaluated at the scaled rates, up to a
    finite-detuning correction that shrinks as |delta| grows. It tends to
    2 gamma_21 / (gamma_1 + 2 gamma_21) ~ 2 gamma_21 / gamma_1 only once
    gamma12_bar |delta| / delta0 >> gamma_2 - gamma_1; before that the
    scaled gamma_12 still enters the limit."""
    _require_two_state(base_spec, "scaling")
    x = abs(detuning) / delta0
    cross = np.array(base_spec.gamma_cross)
    cross[0, 1] += gamma12_bar * x
    omega = float(base_spec.omega_rabi[0]) + omega_bar * np.sqrt(x)
    return light_assisted(gammas=base_spec.gamma, gamma_cross=cross,
                          omega_rabi=omega, detuning=detuning)
