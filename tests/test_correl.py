import numpy as np
import pytest

import fluorospec as fs
from fluorospec import correl, steady
from fluorospec.model import IDENTITY2, SIGMA, SIGMA_DAG

import markovian_oracle
import propagation_oracle
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


def test_g2_within_cptp_bound_at_huge_rabi_frequency():
    """A Rabi frequency of 1e20 on one site of a 3-site chain: the step
    propagator e^{(4/3) L} comes out with 1-norm 9.8e126 where the exact
    one is a contraction, and g2 would read 7.7e126 and 7.5e253 against the
    bound 3.08; the trace check of the step propagator raises instead."""
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
    the first step included, and C1 still equals one expm per point.
    The tau basis is not tried: fig2a's generator is 8 x 8, no larger
    than the basis's first checkpoint, and C1's seed is complex. So every
    expm is one 8 x 8 step."""
    want = [fs.c1(fig2a, [t]).values[0] for t in tau]
    calls = []
    expm = correl.expm
    monkeypatch.setattr(correl, "expm", lambda a: calls.append(a) or expm(a))
    got = fs.c1(fig2a, tau).values
    assert len(calls) == n_expm
    assert all(a.shape == (8, 8) for a in calls)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-15)


def _seeds(p):
    """The C1 seed and readout (complex) and the C2 seed and readout (real)
    of a Prepared, as vectors."""
    seeds, w1 = correl._c1_pieces(p.spec, p.steady)
    w2 = fs.model.trace_functional(p.spec.r_max) @ p.jump
    return fs.BlockState(seeds).to_vector(), w1, p.jump @ p.steady.to_vector(), w2


_UNIFORM = np.linspace(0.0, 8.0, 12)
_LOG = np.concatenate([[0.0], np.logspace(-2.0, 2.0, 25)])


@pytest.mark.parametrize("tau", [_UNIFORM, _LOG], ids=["uniform", "log"])
def test_tau_basis_matches_the_expm_oracle(tau):
    """C2 and g2 of a random r_max = 40 model (dim 160), taken wholly from
    the tau basis on a uniform and on a log grid, and C1, whose complex
    seed the basis leaves to the stepping, equal w . e^{tL} v by scipy's
    expm point by point to 1e-12 of their largest value."""
    p = fs.prepare(random_spec(np.random.default_rng(40), 40))
    v1, w1, v2, w2 = _seeds(p)
    assert not correl._krylov_on_grid(p.generator, v1, tau)[1].any()
    assert correl._krylov_on_grid(p.generator, v2, tau)[1].all()
    i_st = fs.stationary_intensity(p)
    for got, v, w, scale in ((fs.c1(p, tau).values, v1, w1, 1.0),
                             (fs.c2(p, tau).values, v2, w2, 1.0),
                             (fs.g2(p, tau).values, v2, w2, i_st ** 2)):
        want = np.array([w @ propagation_oracle.evolve(
            p.generator, fs.BlockState.from_vector(v), t).to_vector() for t in tau]) / scale
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_tau_basis_takes_the_whole_spectral_grid(monkeypatch):
    """A random r_max = 60 model (dim 240) over 12 uniform tau in [0, 8],
    the grid of the benchmark's spectral workload: C2 and g2 are taken
    wholly from the basis, with no expm of the generator itself."""
    p = fs.prepare(random_spec(np.random.default_rng(1), 60))
    expm = correl.expm

    def small_only(a):
        assert a.shape[-1] < p.generator.dim, "an expm of the generator"
        return expm(a)

    monkeypatch.setattr(correl, "expm", small_only)
    for observable in (fs.c2, fs.g2):
        assert np.isfinite(observable(p, _UNIFORM).values).all()


def test_a_point_failing_its_check_takes_the_stepping_bit_for_bit(monkeypatch):
    """A point whose checks are made to fail takes expm stepping and equals
    the stepping of the whole grid bit for bit; every other point keeps
    its column from the basis."""
    p = fs.prepare(random_spec(np.random.default_rng(40), 40))
    v = _seeds(p)[2]
    stepping = correl._expm_on_grid(p.generator, v, _UNIFORM)
    basis, accepted = correl._krylov_on_grid(p.generator, v, _UNIFORM)
    assert accepted.all()
    accept = correl._tau_accept

    def fail_fifth(*args):
        ok, xs, failed = accept(*args)
        ok[5] = False
        return ok, xs, failed

    monkeypatch.setattr(correl, "_tau_accept", fail_fifth)
    got = correl.propagate_on_grid(p.generator, v, _UNIFORM)
    assert np.array_equal(got[5], stepping[5])
    rest = np.arange(_UNIFORM.size) != 5
    assert np.array_equal(got[rest], basis[rest])


def _real_basis(p, v, m, gamma):
    """I - gamma L, the first m + 1 Arnoldi vectors of (I - gamma L)^-1 from
    a real v, and H_m underlined, real, from the driver that
    ``_krylov_on_grid`` takes them from."""
    b = np.eye(p.generator.dim) - gamma * p.generator.matrix
    *_, (size, basis, hess, exact) = steady._arnoldi(np.linalg.inv(b), v, np.linalg.norm(v), m)
    assert size == m and not exact
    return b, basis.real, hess.real


def test_truncation_estimate_refuses_a_short_basis():
    """At m = 8 the basis of the random r_max = 40 model is far from
    converged: with the screen of ``_krylov_on_grid`` passed by, the
    truncation estimate of ``_tau_accept`` refuses every point t > 0,
    though the relation holds."""
    p = fs.prepare(random_spec(np.random.default_rng(40), 40))
    v = _seeds(p)[2].real
    m, gamma = 8, _UNIFORM[-1] / 10.0
    b, basis, hess = _real_basis(p, v, m, gamma)
    theta = fs.model.trace_functional(p.spec.r_max)
    beta = np.linalg.norm(v)
    l = p.generator.matrix
    c = correl._residual_constant(l, basis, theta, hess[m, m - 1], gamma, beta)
    tol_v = p.generator.dim * np.finfo(float).eps * np.abs(v).sum()
    steps, new = correl._steps(_UNIFORM)
    ok, _, failed = correl._tau_accept(l, np.abs(b).sum(axis=0).max(), basis, hess,
                                       np.linalg.inv(hess[:m]), c, beta, v, theta, _UNIFORM,
                                       steps, new, gamma, tol_v)
    assert not failed and ok[0] and not ok[1:].any()


def test_truncation_estimate_covers_a_fine_quadrature():
    """The premise of the truncation estimate, which samples |phi| at both
    ends and the midpoint of each step: on a random r_max = 60 model (dim
    240) over 12 uniform tau in [0, 8], the grid of the benchmark's spectral
    workload, at m = 24, where the basis takes that grid, the estimate of
    int_0^t |phi| exceeds a trapezoid quadrature of 400 samples per step at
    every point t > 0."""
    p = fs.prepare(random_spec(np.random.default_rng(1), 60))
    v = _seeds(p)[2].real
    m, gamma = 24, _UNIFORM[-1] / 10.0
    _, basis, hess = _real_basis(p, v, m, gamma)
    h_inv = np.linalg.inv(hess[:m])
    theta = fs.model.trace_functional(p.spec.r_max)
    _, estimate = correl._projected_propagation(basis, hess, h_inv, theta, gamma,
                                                *correl._steps(_UNIFORM))
    fine = np.linspace(0.0, 8.0, 11 * 400 + 1)
    psis, _ = correl._projected_propagation(basis, hess, h_inv, theta, gamma,
                                            *correl._steps(fine))
    phi = np.abs(psis[:, 1] @ h_inv[-1])
    quadrature = np.cumsum(np.append(0.0, (phi[1:] + phi[:-1]) / 2 * np.diff(fine)))[::400]
    assert (estimate[1:] >= quadrature[1:]).all()


def test_tau_basis_refuses_a_wrong_hessenberg_column(monkeypatch):
    """Each Hessenberg column of the basis off by 1e-8 relative: the
    relation check fails and nothing is accepted."""
    p = fs.prepare(random_spec(np.random.default_rng(40), 40))
    v = _seeds(p)[2]
    arnoldi = steady._arnoldi

    def off(*args):
        done = 0
        for m, basis, hess, exact in arnoldi(*args):
            for k in range(done, m):               # each column once, h_{k+1,k} kept
                hess[:k + 1, k] *= 1.0 + 1e-8
            done = m
            yield m, basis, hess, exact

    monkeypatch.setattr(correl, "_arnoldi", off)
    assert not correl._krylov_on_grid(p.generator, v, _UNIFORM)[1].any()


def test_tau_basis_refuses_a_wrong_projected_propagator(monkeypatch):
    """The basis's m x m step propagators off by 1e-9 in each entry of their
    first row: they no longer conserve the trace on the decaying part of
    psi, an error that neither the relation nor the truncation estimate
    sees (phi weighs that row by |phi(0)|, 1e-15 here). The trace check
    refuses the first points t > 0, where that part is large, and every
    point it passes agrees with the stepping within its tolerance."""
    p = fs.prepare(random_spec(np.random.default_rng(40), 40))
    v = _seeds(p)[2]
    stepping = correl._expm_on_grid(p.generator, v, _UNIFORM)
    expm = correl.expm

    def off(a):
        if a.ndim < 3:
            return expm(a)
        return expm(a) + 1e-9 * np.eye(a.shape[-1], 1)

    monkeypatch.setattr(correl, "expm", off)
    got, accepted = correl._krylov_on_grid(p.generator, v, _UNIFORM)
    assert accepted[0] and not accepted[1:3].any()
    tol = correl._BACKWARD_ERROR_FACTOR * p.generator.dim * np.finfo(float).eps
    assert np.abs(got - stepping)[accepted].max() <= tol * np.abs(stepping).max()


def test_tau_basis_conserves_the_trace_on_a_long_log_grid():
    """g2 of the 20-site chain over 40 log tau in [0.01, 1000], taken wholly
    from the basis: the trace-conserving projection keeps its tail within
    1e-14 of 1, as L conserves the trace exactly (a plain T_m, whose
    slow mode each m x m exponential rounds, left it 2.8e-13 off)."""
    spec = fs.diffusion_chain(20, [0.11, 0.19, 0.32, 0.5, 0.74, 1.03, 1.34, 1.63, 1.86, 1.98,
                                   1.98, 1.86, 1.63, 1.34, 1.03, 0.74, 0.5, 0.32, 0.19, 0.11],
                              2.0, 1.0)
    p = fs.prepare(spec)
    tau = np.logspace(-2.0, 3.0, 40)
    assert correl._krylov_on_grid(p.generator, _seeds(p)[2], tau)[1].all()
    assert np.abs(fs.g2(p, tau).values[-5:] - 1.0).max() <= 1e-14


def test_tau_basis_never_accepts_the_huge_rabi_chain(monkeypatch):
    """The 3-site chain with a Rabi frequency of 1e20 on one site, with
    the basis given the largest size below dim at any cost: no point t > 0
    of C2's seed passes its checks, on the grid of the huge-Rabi g2 test
    or a longer one, and the stepping's trace check raises."""
    spec = fs.diffusion_chain(3, [1e20, 1.0, 0.5], 0.5, 1.0)
    p = fs.prepare(spec)
    v = p.jump @ p.steady.to_vector()
    step = correl._KRYLOV_STEP
    monkeypatch.setattr(correl, "_tau_basis_size", lambda dim, n, s: (dim - 1) // step * step)
    for tau in ([0.0, 4.0 / 3.0, 8.0 / 3.0], np.linspace(0.0, 4.0, 4), _LOG):
        assert not correl._krylov_on_grid(p.generator, v, np.asarray(tau))[1][1:].any()
    with pytest.raises(FloatingPointError, match="t = 1.3333333333333333 fails the trace check"):
        fs.g2(p, [0.0, 4.0 / 3.0, 8.0 / 3.0])
