import numpy as np
import pytest

import fluorospec as fs
from fluorospec import correl
from fluorospec.model import IDENTITY2, SIGMA, SIGMA_DAG

import markovian_oracle
from conftest import random_spec


def test_qrt_identity_operators_give_total_trace(fig2a):
    tau = np.array([0.0, 0.5, 3.0, 10.0])
    series = fs.qrt_two_time(fig2a, IDENTITY2, IDENTITY2, IDENTITY2, tau)
    assert np.abs(series.values - 1.0).max() < 1e-12


def test_qrt_tau_zero_identity(fig5):
    st = fs.steady_state(fs.build_generator(fig5))
    series = fs.qrt_two_time(fig5, SIGMA_DAG, SIGMA, IDENTITY2, np.array([0.0]))
    expected = st.blocks[:, 1, 1].sum()
    assert abs(series.values[0] - expected) < 1e-12


def test_qrt_matches_markovian_oracle(markovian):
    tau = np.linspace(0.0, 30.0, 91)
    series = fs.qrt_two_time(markovian, SIGMA_DAG, SIGMA, IDENTITY2, tau)
    ref = markovian_oracle.c1(1.0, 2**-0.5, tau) / 1.0   # gamma = 1 weight
    assert np.abs(series.values - ref).max() < 1e-8


def test_c1_at_zero_is_stationary_intensity(fig2a, fig5):
    for spec in (fig2a, fig5):
        val = fs.c1(spec, np.array([0.0])).values[0]
        assert abs(val - fs.stationary_intensity(spec)) < 1e-12
        assert abs(val.imag) < 1e-12


def test_c1_long_time_plateau_is_coherent_weight(fig2a):
    tau = np.array([0.0, 100.0 * 125.0])
    series = fs.c1(fig2a, tau)
    assert abs(abs(series.values[-1]) - fs.coherent_weight(fig2a)) < 1e-8


def test_c1_matches_markovian_oracle(markovian):
    tau = np.linspace(0.0, 30.0, 121)
    series = fs.c1(markovian, tau)
    ref = markovian_oracle.c1(1.0, 2**-0.5, tau)
    assert np.abs(series.values - ref).max() < 1e-8


def test_c1_real_for_symmetric_resonant_spec(fig2a):
    tau = np.linspace(0.0, 50.0, 60)
    series = fs.c1(fig2a, tau)
    assert np.abs(series.values.imag).max() < 1e-12


def test_c2_antibunching_at_zero(fig2a, fig5, markovian):
    for spec in (markovian, fig2a, fig5):
        assert fs.c2(spec, np.array([0.0])).values[0] == 0.0


def test_c2_factorizes_at_long_delay(markovian):
    i_st = fs.stationary_intensity(markovian)
    val = fs.c2(markovian, np.array([0.0, 100.0])).values[-1]
    assert abs(val - i_st**2) < 1e-10


def test_c2_matches_markovian_oracle(markovian):
    tau = np.linspace(0.0, 30.0, 121)
    ours = fs.c2(markovian, tau).values
    ref = markovian_oracle.c2(1.0, 2**-0.5, tau)
    assert np.abs(ours - ref).max() < 1e-8


def test_c2_nonnegative(fig2a, fig3a, fig5, markovian):
    tau = np.concatenate([[0.0], np.logspace(-2, 4, 80)])
    for spec in (markovian, fig2a, fig3a, fig5):
        vals = fs.c2(spec, tau).values
        assert vals.min() >= -1e-12 * max(vals.max(), 1.0)


def test_c2_bunching_fig5(fig5):
    i_st = fs.stationary_intensity(fig5)
    val = fs.c2(fig5, np.array([10.0])).values[0]
    assert val > i_st**2


def test_g2_contract(markovian, fig2a, fig5):
    for spec in (markovian, fig2a, fig5):
        series = fs.g2(spec, np.array([0.0]))
        assert series.values[0] == 0.0
    # ergodic long-time limit
    import scipy.linalg as la
    for spec in (markovian, fig2a, fig5):
        gen = fs.build_generator(spec)
        rates = la.eigvals(gen.matrix).real
        slow = np.min(np.abs(rates[np.abs(rates) > 1e-12]))
        tail = fs.g2(spec, np.array([0.0, 50.0 / slow])).values[-1]
        assert abs(tail - 1.0) < 1e-6


def test_g2_matches_markovian_oracle(markovian):
    tau = np.linspace(0.0, 30.0, 121)
    ours = fs.g2(markovian, tau).values
    ref = markovian_oracle.g2(1.0, 2**-0.5, tau)
    assert np.abs(ours - ref).max() < 1e-8


def _g2_within_cptp_bound(spec, tau):
    """e^{tau L} is CPTP and J rho_inf is positive with trace I_st, so
    C2(tau) = Tr J e^{tau L} J rho_inf <= max gamma_tilde I_st: every g2
    value lies in [0, max gamma_tilde / I_st], here to within 1e-12 of the
    bound. A run that raises FloatingPointError instead passes too."""
    try:
        values = fs.g2(spec, tau).values
    except FloatingPointError:
        return
    bound = spec.effective_decays().max() / fs.stationary_intensity(spec)
    tol = 1e-12 * bound
    assert np.all(values >= -tol) and np.all(values <= bound + tol), (values, bound)


def test_g2_within_cptp_bound(fig5):
    _g2_within_cptp_bound(fig5, np.linspace(0.0, 60.0, 31))
    _g2_within_cptp_bound(fs.diffusion_chain(5, [0.3, 1.0, 2.0, 1.0, 0.3], 0.5, 1.0),
                          np.linspace(0.0, 20.0, 21))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: an expm result that is finite but "
                          "wrong passes every check")
def test_g2_within_cptp_bound_at_huge_rabi_frequency():
    """A Rabi frequency of 1e20 on one site of a 3-site chain: the step
    propagator e^{(4/3) L} comes out with 1-norm 9.8e126 where the exact
    one is a contraction, and g2 reads 7.7e126 and 7.5e253 against the
    bound 3.08, with no error."""
    _g2_within_cptp_bound(fs.diffusion_chain(3, [1e20, 1.0, 0.5], 0.5, 1.0),
                          [0.0, 4.0 / 3.0, 8.0 / 3.0])


def test_g2_fig5_bunching_plateau_and_relaxation(fig5):
    approx = fs.blinking_rates(fig5)
    rate = approx.big_gamma[0, 1] + approx.big_gamma[1, 0]
    plateau = fs.g2(fig5, np.array([10.0, 50.0, 200.0])).values
    assert np.all(plateau > 1.0)
    assert np.ptp(plateau) / plateau.mean() < 0.05   # almost constant
    # relaxation toward 1 on the classical switching timescale
    tau = np.linspace(0.5 / rate, 2.5 / rate, 9)
    decay = fs.g2(fig5, tau).values - 1.0
    fitted = np.polyfit(tau, np.log(decay), 1)[0]
    assert -fitted == pytest.approx(rate, rel=0.2)


def test_stationary_intensity_values(markovian, fig5):
    assert fs.stationary_intensity(markovian) == pytest.approx(0.25, abs=1e-12)
    assert fs.stationary_intensity(fs.single_state(1.0, 0.0)) == pytest.approx(0.0, abs=1e-15)
    # blinking average of per-state intensities
    approx = fs.blinking_rates(fig5)
    g12, g21 = approx.big_gamma[0, 1], approx.big_gamma[1, 0]
    i1, i2 = approx.intensities
    predicted = (i1 * g12 + i2 * g21) / (g12 + g21)
    assert fs.stationary_intensity(fig5) == pytest.approx(predicted, rel=5e-2)


def test_g2_zero_intensity_error():
    dark = fs.single_state(gamma=1.0, omega_rabi=0.0)
    with pytest.raises(fs.ZeroIntensity):
        fs.g2(dark, np.array([0.0, 1.0]))


def test_observable_series_validation():
    with pytest.raises(ValueError):
        fs.ObservableSeries(np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        fs.ObservableSeries(np.array([1.0, 0.0]), np.array([1.0, 2.0]))


def test_propagate_on_grid_rejects_negative_time(fig2a):
    p = fs.prepare(fig2a)
    with pytest.raises(ValueError, match="nonnegative"):
        correl.propagate_on_grid(p.generator, p.steady.to_vector(), [-1.0, 0.0])


def test_conjugate_symmetry_under_detuning():
    # C1 computed for tau >= 0 only; detuned spec has genuinely complex C1
    spec = fs.spectral_two_state(1.0, 0.8, 0.3, 0.05, detuning=0.7)
    series = fs.c1(spec, np.linspace(0.0, 10.0, 21))
    assert np.abs(series.values.imag).max() > 1e-6


@pytest.mark.parametrize("tau, n_expm", [([0.5, 1.0, 1.5], 1),
                                         ([0.0, 0.1, 0.2, 1.0, 2.0, 3.0], 3)],
                         ids=["first_step_equal", "three_distinct_steps"])
def test_propagation_one_expm_per_distinct_step(tau, n_expm, fig2a, monkeypatch):
    """A step propagator is reused while the next step equals its step,
    the first step included, and C1 still equals one expm per point."""
    want = [fs.c1(fig2a, [t]).values[0] for t in tau]
    calls = []
    expm = correl.expm
    monkeypatch.setattr(correl, "expm", lambda a: calls.append(a) or expm(a))
    got = fs.c1(fig2a, tau).values
    assert len(calls) == n_expm
    assert np.allclose(got, want, rtol=1e-12, atol=1e-15)
