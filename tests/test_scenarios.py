import contextlib
import dataclasses

import numpy as np
import pytest

import fluorospec as fs
from fluorospec.steady import NullSpaceDegenerate

from propagation_oracle import evolve
from util import fwhm


def test_all_fixture_constructors_validate(markovian, fig2a, fig2b, fig3a, fig3b, fig5):
    for spec in (markovian, fig2a, fig2b, fig3a, fig3b, fig5):
        assert fs.validate(spec) == []


def test_spectral_two_state_parameters(fig2a):
    assert fig2a.delta_omega[0] == +0.1
    assert fig2a.delta_omega[1] == -0.1
    assert fig2a.gamma[0] == fig2a.gamma[1] == 1.0
    assert fig2a.phi[0, 1] == fig2a.phi[1, 0] == 1.0 / 125.0
    assert np.all(fig2a.gamma_cross == 0.0)


def test_spectral_degenerate_shift_is_markovian(markovian):
    twin = fs.spectral_two_state(gamma=1.0, omega_rabi=2**-0.5,
                                 delta_omega=0.0, phi=0.3)
    assert fs.stationary_intensity(twin) == pytest.approx(
        fs.stationary_intensity(markovian), abs=1e-12)
    grid = np.linspace(-3.0, 3.0, 31)
    a = fs.incoherent_spectrum(twin, grid).values
    b = fs.incoherent_spectrum(markovian, grid).values
    assert np.abs(a - b).max() < 1e-10


def test_spectral_frozen_disorder_validates_but_is_reducible():
    frozen = fs.spectral_two_state(gamma=1.0, omega_rabi=0.7,
                                   delta_omega=0.2, phi=0.0)
    assert fs.validate(frozen) == []
    with pytest.raises(NullSpaceDegenerate):
        fs.steady_state(fs.build_generator(frozen))


def test_constructor_rejects_negative_rates():
    with pytest.raises(ValueError):
        fs.spectral_two_state(gamma=-1.0, omega_rabi=0.7, delta_omega=0.1, phi=0.01)
    with pytest.raises(ValueError):
        fs.light_assisted(gammas=[1.0, 1.0],
                          gamma_cross=[[0.0, -0.1], [0.1, 0.0]], omega_rabi=1.0)


def test_lifetime_equal_rates_is_markovian(markovian):
    twin = fs.lifetime_fluct(gammas=[1.0, 1.0], phi=[[0.0, 0.5], [0.5, 0.0]],
                             omega_rabi=2**-0.5)
    grid = np.linspace(-3.0, 3.0, 31)
    a = fs.incoherent_spectrum(twin, grid).values
    b = fs.incoherent_spectrum(markovian, grid).values
    assert np.abs(a - b).max() < 1e-10


def test_lifetime_fast_mixing_motional_average():
    # phi much faster than everything: spectrum approaches the single-state
    # model with the averaged decay rate
    gammas = [0.5, 1.5]
    fast = 300.0
    spec = fs.lifetime_fluct(gammas=gammas, phi=[[0.0, fast], [fast, 0.0]],
                             omega_rabi=2**-0.5)
    avg = fs.single_state(gamma=np.mean(gammas), omega_rabi=2**-0.5)
    grid = np.linspace(-4.0, 4.0, 801)
    w_spec = fwhm(grid, fs.incoherent_spectrum(spec, grid).values)
    w_avg = fwhm(grid, fs.incoherent_spectrum(avg, grid).values)
    assert w_spec == pytest.approx(w_avg, rel=0.05)


def test_diffusion_chain_structure():
    spec = fs.diffusion_chain(n_sites=5, omega_profile=np.full(5, 0.7),
                              phi_hop=0.2, gamma=1.0)
    phi = spec.phi
    assert phi[0, 1] == phi[1, 0] == 0.2
    assert phi[0, 2] == 0.0              # nearest neighbours only
    assert phi[4, 3] == 0.2
    assert phi.sum() == pytest.approx(0.2 * 8)   # reflecting ends: 4 bonds
    with pytest.raises(ValueError):
        fs.diffusion_chain(1, [0.7], 0.2, 1.0)


def test_diffusion_chain_rejects_profile_length():
    with pytest.raises(ValueError, match="omega_profile must have length 3"):
        fs.diffusion_chain(3, [1.0, 1.0], phi_hop=0.1, gamma=1.0)


def test_diffusion_uniform_profile_matches_single_state():
    spec = fs.diffusion_chain(n_sites=4, omega_profile=np.full(4, 0.7),
                              phi_hop=0.3, gamma=1.0)
    single = fs.single_state(gamma=1.0, omega_rabi=0.7)
    assert fs.stationary_intensity(spec) == pytest.approx(
        fs.stationary_intensity(single), abs=1e-12)
    pops = fs.config_populations(fs.steady_state(fs.build_generator(spec)))
    assert np.allclose(pops, 0.25, atol=1e-10)


def test_diffusion_gaussian_beam_average_intensity():
    n = 11
    x = np.linspace(-2.0, 2.0, n)
    profile = 1.2 * np.exp(-x**2)
    phi_hop = 0.01           # slow diffusion: per-site intensities average
    spec = fs.diffusion_chain(n, profile, phi_hop, gamma=1.0)
    per_site = 1.0 * profile**2 / (1.0 + 2.0 * profile**2)
    assert fs.stationary_intensity(spec) == pytest.approx(per_site.mean(), rel=0.05)


def test_light_assisted_single_state_is_markovian(markovian):
    spec = fs.light_assisted(gammas=[1.0], gamma_cross=np.zeros((1, 1)),
                             omega_rabi=2**-0.5)
    assert fs.stationary_intensity(spec) == pytest.approx(
        fs.stationary_intensity(markovian), abs=1e-14)


def test_light_assisted_disconnected_raises():
    spec = fs.light_assisted(gammas=[1.0, 2.0], gamma_cross=np.zeros((2, 2)),
                             omega_rabi=0.7)
    with pytest.raises(NullSpaceDegenerate):
        fs.steady_state(fs.build_generator(spec))


def test_blinking_rates_fig5(fig5):
    approx = fs.blinking_rates(fig5)
    assert approx.big_gamma[1, 0] == pytest.approx(4.995e-4, rel=1e-3)
    assert approx.big_gamma[0, 1] == pytest.approx(1.953e-4, rel=1e-3)
    assert approx.intensities[0] == pytest.approx(
        1.0015 / (1.0015**2 + 2.0), rel=1e-12)


def test_blinking_rates_vanish_without_drive_or_at_large_detuning(fig5):
    far = fs.blinking_rates(dataclasses.replace(fig5, detuning=1e6))
    assert far.big_gamma.max() < 1e-10
    dark = fs.light_assisted(gammas=[1.0, 10.0],
                             gamma_cross=[[0.0, 0.02], [0.0015, 0.0]],
                             omega_rabi=0.0)
    assert fs.blinking_rates(dark).big_gamma.max() == 0.0


def test_blinking_rates_marginal_warning():
    spec = fs.light_assisted(gammas=[1.0, 2.0],
                             gamma_cross=[[0.0, 0.5], [0.5, 0.0]], omega_rabi=1.0)
    with pytest.warns(UserWarning, match="marginal"):
        fs.blinking_rates(spec)


def test_classical_blinking_populations(fig5):
    approx = fs.blinking_rates(fig5)
    p0 = np.array([1.0, 0.0])
    assert np.array_equal(fs.classical_blinking_populations(approx, p0, 0.0), p0)
    g12, g21 = approx.big_gamma[0, 1], approx.big_gamma[1, 0]
    stationary = np.array([g12, g21]) / (g12 + g21)
    late = fs.classical_blinking_populations(approx, p0, 100.0 / (g12 + g21))
    assert np.abs(late - stationary).max() < 1e-12
    # full quantum populations track the classical ones
    quantum = fs.config_populations(fs.steady_state(fs.build_generator(fig5)))
    assert np.abs(quantum - stationary).max() / stationary.min() < 5e-2


def test_classical_blinking_populations_rejects_negative_time(fig5):
    with pytest.raises(ValueError, match="t must be >= 0"):
        fs.classical_blinking_populations(fs.blinking_rates(fig5), [1.0, 0.0], -1.0)


def test_blinking_approximation_converges():
    # the classical rates are exact for stationary populations (trace balance
    # makes each block's steady equation Markovian), so convergence shows up
    # in the transient: deviation shrinks as cross rates become small
    import warnings

    devs = []
    for scale in (0.1, 0.01, 0.001):
        spec = fs.light_assisted(
            gammas=[1.0, 3.0],
            gamma_cross=[[0.0, 2.0 * scale], [1.0 * scale, 0.0]],
            omega_rabi=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            approx = fs.blinking_rates(spec)
        gen = fs.build_generator(spec)
        gsum = approx.big_gamma[0, 1] + approx.big_gamma[1, 0]
        dev = 0.0
        for frac in (0.3, 1.0, 3.0):
            full = fs.config_populations(
                evolve(gen, fs.BlockState.ground(2), frac / gsum))
            classical = fs.classical_blinking_populations(
                approx, [1.0, 0.0], frac / gsum)
            dev = max(dev, np.abs(full - classical).max())
        devs.append(dev)
    assert devs[0] > devs[1] > devs[2]
    # stationary populations, by contrast, are reproduced exactly
    quantum = fs.config_populations(fs.steady_state(gen))
    g12, g21 = approx.big_gamma[0, 1], approx.big_gamma[1, 0]
    assert np.abs(quantum - np.array([g12, g21]) / (g12 + g21)).max() < 1e-12


def test_mandel_detuning_limit_cases(fig5):
    assert fs.mandel_detuning_limit(fig5) == pytest.approx(301.114, abs=0.01)
    no12 = fs.light_assisted(gammas=[1.0, 10.0],
                             gamma_cross=[[0.0, 0.0], [0.0015, 0.0]], omega_rabi=1.0)
    assert fs.mandel_detuning_limit(no12) == 0.0
    # equal effective decays kill the squared bracket
    balanced = fs.light_assisted(gammas=[1.0, 1.0],
                                 gamma_cross=[[0.0, 0.3], [0.3, 0.0]], omega_rabi=1.0)
    assert fs.mandel_detuning_limit(balanced) == 0.0


@pytest.mark.parametrize("closed_form, what", [
    (fs.mandel_detuning_limit, "closed form"),
    (fs.mapped_self_fluct, "mapping"),
    (lambda spec: fs.scaled_triplet(spec, 10.0, 1.0, 0.25, 0.007), "scaling")],
    ids=["mandel_detuning_limit", "mapped_self_fluct", "scaled_triplet"])
def test_two_state_closed_forms_reject_other_specs(closed_form, what, fig2a):
    """Each closed form holds for two light-assisted states only: three
    states, or hopping that needs no photon, is rejected in its own words."""
    three = fs.light_assisted(gammas=[1.0, 2.0, 3.0], omega_rabi=1.0,
                              gamma_cross=[[0.0, 0.1, 0.1], [0.1, 0.0, 0.1], [0.1, 0.1, 0.0]])
    for spec in (three, fig2a):
        with pytest.raises(ValueError, match=f"^{what} requires a two-state light-assisted spec$"):
            closed_form(spec)


def test_mapped_self_fluct_structure(fig5):
    mapped = fs.mapped_self_fluct(fig5)
    approx = fs.blinking_rates(fig5)
    assert mapped.gamma[0] == pytest.approx(1.0015)
    assert mapped.gamma[1] == pytest.approx(10.02)
    assert mapped.phi[1, 0] == pytest.approx(approx.big_gamma[1, 0])
    assert mapped.phi[0, 1] == pytest.approx(approx.big_gamma[0, 1])
    assert np.all(mapped.gamma_cross == 0.0)


def test_mapped_identity_when_cross_rates_vanish():
    base = fs.light_assisted(gammas=[1.0, 2.0],
                             gamma_cross=np.zeros((2, 2)), omega_rabi=0.7)
    mapped = fs.mapped_self_fluct(base)
    assert np.all(mapped.phi == 0.0)
    assert mapped.gamma.tolist() == [1.0, 2.0]


def test_mapping_fidelity_spectrum_and_g2(fig5):
    mapped = fs.mapped_self_fluct(fig5)
    grid = np.concatenate([-np.logspace(1, -5, 120), [0.0], np.logspace(-5, 1, 120)])
    s_orig = fs.incoherent_spectrum(fig5, grid).values
    s_map = fs.incoherent_spectrum(mapped, grid).values
    assert np.abs(s_orig - s_map).max() <= 0.02 * s_orig.max()
    tau = np.concatenate([[0.0], np.logspace(-1, 4, 60)])
    g_orig = fs.g2(fig5, tau).values
    g_map = fs.g2(mapped, tau).values
    assert np.abs(g_orig - g_map).max() <= 0.02 * g_orig.max()


def test_mapping_mandel_divergence(fig5):
    mapped = fs.mapped_self_fluct(fig5)
    q_orig = fs.stationary_mandel(dataclasses.replace(fig5, detuning=30.0))
    q_map = fs.stationary_mandel(dataclasses.replace(mapped, detuning=30.0))
    assert q_orig > 10.0
    assert q_orig / q_map > 10.0
    # far detuned, the self-fluctuating twin becomes Poissonian
    q_far = fs.stationary_mandel(dataclasses.replace(mapped, detuning=1000.0))
    assert q_far < 0.5


def test_scaled_triplet_zero_detuning_is_base(fig5):
    scaled = fs.scaled_triplet(fig5, detuning=0.0, delta0=1.0,
                               omega_bar=0.25, gamma12_bar=0.007)
    assert np.array_equal(scaled.gamma_cross, fig5.gamma_cross)
    assert scaled.omega_rabi[0] == fig5.omega_rabi[0]
    assert scaled.detuning == 0.0


def test_scaled_triplet_limit_behaviour(fig5):
    # the compensated model stays near-Poissonian: far below the uncompensated
    # super-Poissonian limit, approaching 2*g21/g1 for very large detuning
    q_1e3 = fs.stationary_mandel(
        fs.scaled_triplet(fig5, 1e3, delta0=1.0, omega_bar=0.25, gamma12_bar=0.007))
    assert q_1e3 == pytest.approx(0.015574, rel=1e-3)   # frozen regression
    q_1e6 = fs.stationary_mandel(
        fs.scaled_triplet(fig5, 1e6, delta0=1.0, omega_bar=0.25, gamma12_bar=0.007))
    assert 0.5 * 0.003 <= q_1e6 <= 2.0 * 0.003


def test_scaled_triplet_bright_rate_plateaus(fig5):
    # Gamma_12 stays finite as detuning grows (the uncompensated one vanishes)
    plateau = []
    for d in (1e3, 1e4, 1e5):
        scaled = fs.scaled_triplet(fig5, d, delta0=1.0, omega_bar=0.25,
                                   gamma12_bar=0.007)
        # at 1e3 the scaled gamma_12 = 7.02 is comparable to gamma_1 = 1
        with (pytest.warns(UserWarning, match="min gamma = 7.02 is neither")
              if d == 1e3 else contextlib.nullcontext()):
            plateau.append(fs.blinking_rates(scaled).big_gamma[0, 1])
        bare = fs.blinking_rates(dataclasses.replace(fig5, detuning=d))
        assert bare.big_gamma[0, 1] < 0.1 * plateau[-1]
    assert plateau[2] > 0.5 * plateau[0]
