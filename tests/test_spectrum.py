import dataclasses
import json
import warnings

import numpy as np
import pytest

import fluorospec as fs
from fluorospec import cli, steady
from fluorospec.correl import _c1_pieces
from fluorospec.model import trace_functional
from fluorospec.steady import _EPS as EPS
from fluorospec.steady import _backward_failures, resolve_deflated, resolve_krylov

import markovian_oracle
import propagation_oracle
from conftest import random_spec
from util import fit_lorentzian, fwhm, log_symmetric_grid, peak_position


def test_coherent_weight_dark():
    assert fs.coherent_weight(fs.single_state(1.0, 0.0)) == 0.0


def test_coherent_weight_markovian_oracle(markovian):
    ref = markovian_oracle.coherent_weight(1.0, 2**-0.5)
    assert fs.coherent_weight(markovian) == pytest.approx(ref, rel=1e-12)


def test_coherent_weight_equals_c1_plateau(fig2a):
    plateau = abs(fs.c1(fig2a, np.array([0.0, 100.0 * 125.0])).values[-1])
    assert fs.coherent_weight(fig2a) == pytest.approx(plateau, abs=1e-8)


def test_incoherent_spectrum_matches_markovian_oracle(markovian):
    grid = np.linspace(-6.0, 6.0, 201)
    ours = fs.incoherent_spectrum(markovian, grid).values
    ref = markovian_oracle.incoherent_spectrum(1.0, 2**-0.5, grid)
    assert np.abs(ours - ref).max() < 1e-10


def test_fig2a_narrow_peak_width(fig2a):
    # narrow central feature: Lorentzian of half-width 2*phi on top of the
    # broad Rayleigh background (the fluctuation rates phi12 + phi21 add up)
    phi = 1.0 / 125.0
    window = np.linspace(-5.0 * phi, 5.0 * phi, 201)
    vals = fs.incoherent_spectrum(fig2a, window).values
    _, hwhm, _ = fit_lorentzian(window, vals, 2.0 * phi)
    assert hwhm == pytest.approx(2.0 * phi, rel=0.10)


def test_fig3_narrow_peaks_share_width(fig3a, fig3b):
    phi = 2.5e-5
    widths = []
    for spec in (fig3a, fig3b):
        window = np.linspace(-5.0 * phi, 5.0 * phi, 201)
        vals = fs.incoherent_spectrum(spec, window).values
        _, hwhm, _ = fit_lorentzian(window, vals, 2.0 * phi)
        widths.append(hwhm)
        assert hwhm == pytest.approx(2.0 * phi, rel=0.10)
    assert widths[0] == pytest.approx(widths[1], rel=0.10)


def test_fig2b_sidebands_at_rabi(fig2b):
    grid = np.linspace(1.0, 9.0, 1601)
    vals = fs.incoherent_spectrum(fig2b, grid).values
    assert peak_position(grid, vals, 2.5, 7.5) == pytest.approx(5.0, rel=0.05)


def test_fig3a_peaks_at_shift_and_suppressed_rayleigh(fig3a):
    grid = np.linspace(1.0, 9.0, 1601)
    vals = fs.incoherent_spectrum(fig3a, grid).values
    pos = peak_position(grid, vals, 2.5, 7.5)
    assert pos == pytest.approx(5.0, rel=0.05)
    peak = vals.max()
    # broad central (Rayleigh) region, outside the narrow feature
    center = fs.incoherent_spectrum(fig3a, np.array([0.3])).values[0]
    assert center < 0.2 * peak


def test_motional_narrowing_family():
    widths = []
    for phi in (10.0, 50.0, 125.0):
        spec = fs.spectral_two_state(gamma=1.0, omega_rabi=2**-0.5,
                                     delta_omega=5.0, phi=phi)
        grid = np.linspace(-20.0, 20.0, 2001)
        widths.append(fwhm(grid, fs.incoherent_spectrum(spec, grid).values))
    assert widths[0] > widths[1] > widths[2]


def test_spectrum_positivity(markovian, fig2a, fig3a, fig5):
    for spec in (markovian, fig2a, fig3a, fig5):
        grid = log_symmetric_grid(1e-6, 50.0, 200)
        vals = fs.incoherent_spectrum(spec, grid).values
        assert vals.min() >= -1e-10 * vals.max()


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 5: the dense resolvent loses the narrow "
                          "component of a slow hop to eps / (slow rate)")
def test_spectrum_nonnegative_at_zero_on_a_slow_one_way_hop():
    """S_inc(omega) >= 0, the spectrum of the stationary fluctuation
    (Wiener-Khinchin). With a one-way hop of 2.2e-10, S_inc(0) reads
    -5.77e-11 and passes every check; a 50-digit solve of the same double
    L gives +1.45e-10."""
    spec = fs.ModelSpec([11.659420742321373, -0.33413180298312234],
                        [0.44787421713225223, 0.09347482627091254],
                        [2.917604994735511, 0.3327869952719285],
                        phi=[[0.0, 0.0], [2.1951676569358567e-10, 0.0]],
                        detuning=10.185100425645969)
    gamma_max = max(spec.gamma)
    omega = np.linspace(-3.0 * gamma_max, 3.0 * gamma_max, 11)
    assert omega[5] == 0.0
    assert fs.incoherent_spectrum(spec, omega).values[5] >= 0.0


def test_spectrum_symmetry_resonant(fig2a):
    x = np.linspace(0.01, 10.0, 50)
    left = fs.incoherent_spectrum(fig2a, -x[::-1]).values[::-1]
    right = fs.incoherent_spectrum(fig2a, x).values
    assert np.abs(left - right).max() < 1e-9 * right.max()


def _count_solves(monkeypatch):
    """The argument tuples of every numpy.linalg.solve call from now on."""
    calls, solve = [], np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *args: calls.append(args) or solve(*args))
    return calls


def test_spectrum_rejects_grid_before_any_solve(markovian, monkeypatch):
    calls = _count_solves(monkeypatch)
    with pytest.raises(ValueError, match="strictly increasing"):
        fs.incoherent_spectrum(markovian, [1.0, 0.0, -1.0])
    with pytest.raises(ValueError, match="finite"):
        fs.incoherent_spectrum(markovian, [0.0, np.inf])
    assert calls == []
    # the count is live: a valid grid solves
    fs.incoherent_spectrum(markovian, [-1.0, 0.0, 1.0])
    assert calls


def _stiff(detuning=0.0):
    """A spectrum that the Krylov path leaves to resolve_deflated: slow
    switching at rates 1e-8 and 2e-8 makes |B_0|_1 |B_0^-1|_1 about 6e8,
    above _KRYLOV_CONDITION."""
    return fs.prepare(fs.lifetime_fluct([1.0, 3.0], 1e-8 * np.array([[0.0, 1.0], [2.0, 0.0]]),
                                        0.5, detuning))


def _no_krylov_column(p, grid):
    _, v_dec = _c1_seed(p)
    return not resolve_krylov(p.generator, -1j * np.asarray(grid), v_dec)[1].any()


def test_spectrum_one_lu_per_conjugate_pair(monkeypatch):
    """On the fallback, linspace(-15, 15, 24) has 16 points whose negation
    is exactly in the grid: 8 pairs share an LU and the other 8 points take
    one each, 16 LUs where one per point would be 24, each for the two
    columns [v_dec, conj v_dec]."""
    grid = np.linspace(-15.0, 15.0, 24)
    assert np.isin(grid, -grid).sum() == 16
    p = _stiff()
    p.steady
    assert _no_krylov_column(p, grid)
    calls = _count_solves(monkeypatch)
    fs.incoherent_spectrum(p, grid)
    assert len(calls) == 16
    assert sorted(b.shape[-1] for _, b in calls) == [2] * 16


@pytest.mark.parametrize("case", ["fig2a", "fig2a_detuned", "fig5_detuned", "random20"])
def test_paired_spectrum_matches_each_point_alone(case, fig2a, fig5):
    """S(-omega) from the conjugate column of the LU at omega equals a solve
    of -omega alone, on symmetric and asymmetric spectra."""
    spec = {"fig2a": fig2a,
            "fig2a_detuned": dataclasses.replace(fig2a, detuning=0.5),
            "fig5_detuned": dataclasses.replace(fig5, detuning=2.0),
            "random20": random_spec(np.random.default_rng(20), 20)}[case]
    p = fs.prepare(spec)
    for grid in (np.linspace(-15.0, 15.0, 24), log_symmetric_grid(1e-3, 20.0, 10)):
        vals = fs.incoherent_spectrum(p, grid).values
        alone = np.array([fs.incoherent_spectrum(p, [om]).values[0] for om in grid])
        assert np.abs(vals - alone).max() <= 1e-14 * np.abs(vals).max(), grid
    if case in ("fig2a_detuned", "random20"):
        assert np.abs(vals - vals[::-1]).max() > 1e-4 * np.abs(vals).max()


@pytest.mark.parametrize("grid, lus", [
    ([-2.0, -1.0, 0.0, 1.0, 2.0], 3),            # 0.0 is solved alone
    ([-1.0, -0.0, 1.0], 2),                      # and so is -0.0
    ([-0.3, -0.1, np.nextafter(0.1, 1.0), 0.1 + 0.2], 4),   # no exact negation
])
def test_spectrum_pairs_only_exact_negations(grid, lus, monkeypatch):
    p = _stiff(detuning=0.5)
    p.steady
    assert _no_krylov_column(p, grid)
    alone = [fs.incoherent_spectrum(p, [om]).values[0] for om in grid]
    calls = _count_solves(monkeypatch)
    vals = fs.incoherent_spectrum(p, grid).values
    assert len(calls) == lus
    assert np.abs(vals - alone).max() <= 1e-14 * np.abs(vals).max()


def _counted_bordered(monkeypatch):
    """The shifts and right-hand sides of every resolve_deflated call of the
    spectrum from now on."""
    calls, resolve = [], fs.spectrum.resolve_deflated
    monkeypatch.setattr(fs.spectrum, "resolve_deflated",
                        lambda gen, shifts, rhs, *args: calls.append((np.array(shifts), rhs))
                        or resolve(gen, shifts, rhs, *args))
    return calls


@pytest.mark.parametrize("grid", [
    np.linspace(-15.0, 15.0, 24),
    [-2.0, -1.0, 0.0, 1.0, 2.0],
    [-1.0, -0.0, 1.0],
    [-0.3, -0.1, np.nextafter(0.1, 1.0), 0.1 + 0.2],
])
def test_spectrum_one_bordered_solve_over_distinct_magnitudes(grid, monkeypatch):
    """On the fallback, one resolve_deflated call, at u = -i|omega| for
    each distinct |omega| of the grid in increasing order, for the columns
    [v_dec, conj v_dec]."""
    p = _stiff(detuning=0.5)
    p.steady
    assert _no_krylov_column(p, grid)
    calls = _counted_bordered(monkeypatch)
    fs.incoherent_spectrum(p, grid)
    [(shifts, rhs)] = calls
    assert np.array_equal(shifts, -1j * np.unique(np.abs(grid)))
    assert np.array_equal(rhs[:, 1], rhs[:, 0].conj())


def _lu_spectrum(p, grid):
    """S_inc from resolve_deflated alone, one shift per omega."""
    w, v_dec = _c1_seed(p)
    x = resolve_deflated(p.generator, -1j * np.asarray(grid), v_dec[:, None])[..., 0]
    return 2.0 * np.real(x @ w)


def test_spectrum_krylov_takes_one_inverse_and_no_lu(monkeypatch):
    """A random r_max = 20 model over linspace(-15, 15, 24) is solved from
    one Krylov basis: one dense inverse, no resolve_deflated call."""
    p = fs.prepare(random_spec(np.random.default_rng(20), 20))
    grid = np.linspace(-15.0, 15.0, 24)
    p.steady
    calls, inv = [], np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a.shape) or inv(a))
    monkeypatch.setattr(fs.spectrum, "resolve_deflated",
                        lambda *args: pytest.fail("resolve_deflated called"))
    vals = fs.incoherent_spectrum(p, grid).values
    assert calls == [(80, 80)]
    monkeypatch.undo()
    assert np.abs(vals - _lu_spectrum(p, grid)).max() <= 1e-14 * np.abs(vals).max()


def test_krylov_stops_at_a_converged_column_that_fails_the_check(monkeypatch):
    """With every projected solve off by a relative 1e-7, the converged
    columns fail the bordered check: none is accepted and the basis stops
    there, and every omega takes one resolve_deflated call."""
    p = fs.prepare(random_spec(np.random.default_rng(20), 20))
    grid = np.linspace(-15.0, 15.0, 24)
    _, v_dec = _c1_seed(p)
    solve, projected = steady._solve, []

    def off(what, a, b):
        x, failed = solve(what, a, b)
        if what == "projected solve":
            projected.append(len(a))
            x = x * (1.0 + 1e-7)
        return x, failed

    monkeypatch.setattr(steady, "_solve", off)
    assert not resolve_krylov(p.generator, -1j * grid, v_dec)[1].any()
    assert len(projected) == 1
    calls = _counted_bordered(monkeypatch)
    vals = fs.incoherent_spectrum(p, grid).values
    [(shifts, _)] = calls
    assert np.array_equal(shifts, -1j * np.unique(np.abs(grid)))
    monkeypatch.undo()
    assert np.abs(vals - _lu_spectrum(p, grid)).max() <= 1e-14 * np.abs(vals).max()


def test_fig2a_grid_split_between_basis_and_lu(fig2a, monkeypatch):
    """fig2a over linspace(-60, 60, 200): the basis accepts 170 omega, and
    the other 30 take one resolve_deflated call over their distinct
    |omega|; the spectrum equals the LU path's."""
    p = fs.prepare(fig2a)
    grid = np.linspace(-60.0, 60.0, 200)
    _, v_dec = _c1_seed(p)
    accepted = resolve_krylov(p.generator, -1j * grid, v_dec)[1]
    assert accepted.sum() == 170
    calls = _counted_bordered(monkeypatch)
    vals = fs.incoherent_spectrum(p, grid).values
    [(shifts, _)] = calls
    assert np.array_equal(shifts, -1j * np.unique(np.abs(grid[~accepted])))
    assert np.abs(vals - _lu_spectrum(p, grid)).max() <= 1e-14 * np.abs(vals).max()


@pytest.mark.parametrize("r_max, seed", [(20, 20), (60, 1)])
def test_krylov_columns_pass_the_bordered_check(r_max, seed):
    """Each accepted column passes resolve_deflated's backward-error check,
    on its residual in every row of u - L and in the border theta, with
    |[u - L; theta]|_1 and |v_dec|_1."""
    p = fs.prepare(random_spec(np.random.default_rng(seed), r_max))
    _, v_dec = _c1_seed(p)
    u = -1j * np.linspace(-15.0, 15.0, 24)
    x, accepted = resolve_krylov(p.generator, u, v_dec)
    assert accepted.all()
    l, theta = p.generator.matrix, trace_functional(r_max)
    resid = np.abs(u[:, None] * x - x @ l.T - v_dec).sum(axis=1) + np.abs(x @ theta)
    norm_a = np.array([(np.abs(s * np.eye(len(l)) - l).sum(axis=0) + theta).max() for s in u])
    scale = norm_a[:, None] * np.abs(x).sum(axis=1)[:, None] + np.abs(v_dec).sum()
    assert _backward_failures("bordered solve", x[..., None], resid[:, None], scale) == {}


def test_krylov_residual_identity(monkeypatch):
    """x = V_m H_m y with (I + u H_m) y = beta e_1 has the residual
    (u - L) x - v_dec = h_{m+1,m} y_m L v_{m+1} of exact arithmetic: its
    1-norm matches |h_{m+1,m} y_m| |L v_{m+1}|_1 to 1e-6 wherever it is
    above rounding (1e6 eps |[u - L; theta]|_1 |x|_1), here at m = 8 and
    12 of the basis that the first acceptance is made from."""
    p = fs.prepare(random_spec(np.random.default_rng(20), 20))
    _, v_dec = _c1_seed(p)
    u = -1j * np.linspace(-15.0, 15.0, 24)
    seen, accept = [], steady._krylov_accept
    monkeypatch.setattr(steady, "_krylov_accept",
                        lambda *args: seen.append(args) or accept(*args))
    resolve_krylov(p.generator, u, v_dec)
    (l, _, basis, hess, beta, rhs, *_), *_ = seen
    norm_a = np.abs(l).sum(axis=0).max() + np.abs(u)
    checked = 0
    for m in (8, 12):
        e1 = np.zeros((u.size, m, 1), complex)
        e1[:, 0] = beta
        y = np.linalg.solve(np.eye(m) + u[:, None, None] * hess[:m, :m], e1)
        x = (basis[:m].T @ (hess[:m, :m] @ y))[..., 0]
        resid = np.abs(u[:, None] * x - x @ l.T - rhs).sum(axis=1)
        identity = np.abs(hess[m, m - 1] * y[:, -1, 0]) * np.abs(l @ basis[m]).sum()
        above = resid >= 1e6 * EPS * norm_a * np.abs(x).sum(axis=1)
        assert np.allclose(identity[above], resid[above], rtol=1e-6, atol=0.0), m
        checked += above.sum()
    assert checked >= 24


def test_krylov_matches_lu_on_diffusion_chain():
    """A 20-site diffusion chain over 200 omega is taken by the Krylov path
    and agrees with resolve_deflated to 1e-14 of the maximum."""
    profile = 2.0 * np.exp(-((np.arange(20) - 9.5) / 5.0) ** 2)
    p = fs.prepare(fs.diffusion_chain(20, profile, 0.5, 1.0))
    grid = np.linspace(-15.0, 15.0, 200)
    _, v_dec = _c1_seed(p)
    assert resolve_krylov(p.generator, -1j * grid, v_dec)[1].all()
    vals = fs.incoherent_spectrum(p, grid).values
    assert np.abs(vals - _lu_spectrum(p, grid)).max() <= 1e-14 * np.abs(vals).max()


def test_krylov_takes_the_whole_ci_chain_grid():
    """The 20-site chain at hop 2 of the CI's console-script run, over its
    48-point CLI grid from -5 to 5 (24 distinct |omega|), is accepted whole
    by the Krylov basis, so that run exercises the basis through the CLI."""
    cfg = cli.parse_config(json.dumps({
        "schema": 1, "task": "spectrum",
        "model": {"scenario": "diffusion_chain", "params": {
            "n_sites": 20, "phi_hop": 2.0, "gamma": 1.0,
            "omega_profile": [0.11, 0.19, 0.32, 0.5, 0.74, 1.03, 1.34, 1.63, 1.86, 1.98,
                              1.98, 1.86, 1.63, 1.34, 1.03, 0.74, 0.5, 0.32, 0.19, 0.11]}},
        "grids": {"omega": {"start": -5.0, "stop": 5.0, "count": 48}}}))
    p = fs.prepare(cfg.spec)
    grid = cfg.grids["omega"].points
    assert np.array_equal(grid, cli.GridSpec(-5.0, 5.0, 48).points)
    _, v_dec = _c1_seed(p)
    assert resolve_krylov(p.generator, -1j * grid, v_dec)[1].all()


def test_krylov_with_singular_b0_accepts_nothing(monkeypatch):
    """L = 0 makes B_0 exactly singular: over 100 distinct shifts the basis
    is affordable, its inverse raises, nothing is accepted and no warning
    is drawn."""
    raised, inv = [], np.linalg.inv

    def recorded(a):
        try:
            return inv(a)
        except np.linalg.LinAlgError:
            raised.append(a.shape)
            raise

    monkeypatch.setattr(np.linalg, "inv", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, accepted = resolve_krylov(fs.SuperOp(np.zeros((4, 4))),
                                     -1j * np.linspace(0.1, 10.0, 100),
                                     np.array([0.0, 0.0, 1.0, 0.5]))
    assert raised == [(4, 4)]
    assert not accepted.any()
    assert not x.any()


def test_krylov_column_does_not_depend_on_the_grid():
    """A column is accepted at a checkpoint set by L, v_dec and its own u:
    on a grid and on every second point of it, the columns accepted on
    both are equal bit for bit."""
    p = fs.prepare(random_spec(np.random.default_rng(20), 20))
    _, v_dec = _c1_seed(p)
    u = -1j * np.linspace(-15.0, 15.0, 24)
    x, accepted = resolve_krylov(p.generator, u, v_dec)
    x2, accepted2 = resolve_krylov(p.generator, u[::2], v_dec)
    both = accepted[::2] & accepted2
    assert both.sum() >= 8
    assert np.array_equal(x[::2][both], x2[both])


def test_sum_rule_markovian(markovian):
    grid = log_symmetric_grid(1e-4, 40.0, 400)
    assert fs.sum_rule_check(markovian, grid) < 1e-3


def test_sum_rule_fig2a(fig2a):
    grid = log_symmetric_grid(1e-5, 50.0, 600)
    assert fs.sum_rule_check(fig2a, grid) < 1e-2


def test_sum_rule_dark():
    assert fs.sum_rule_check(fs.single_state(1.0, 0.0),
                             np.linspace(-5, 5, 101)) == 0.0


def test_sum_rule_warns_on_narrow_grid(markovian):
    with pytest.warns(UserWarning, match="too narrow"):
        fs.sum_rule_check(markovian, np.linspace(-1.0, 1.0, 101))


def test_laplace_vs_cosine_transform(markovian):
    # time-domain consistency: S_inc equals the Fourier cosine transform of
    # the plateau-subtracted C1 (real at resonance)
    tau = np.linspace(0.0, 60.0, 12001)
    c1_vals = np.real(fs.c1(markovian, tau).values) - fs.coherent_weight(markovian)
    for w in (0.0, 0.4, 1.0):
        ft = 2.0 * np.trapezoid(c1_vals * np.cos(w * tau), tau)
        s = fs.incoherent_spectrum(markovian, np.array([w])).values[0]
        assert s == pytest.approx(ft, rel=1e-4, abs=1e-8)


def _c1_seed(p):
    """The readout w and the trace-free C1 seed v_dec of S_inc."""
    seeds, w = _c1_pieces(p.spec, p.steady)
    v = fs.BlockState(seeds).to_vector()
    return w, v - p.steady.to_vector() * (trace_functional(p.spec.r_max) @ v)


@pytest.mark.parametrize("detuning", [1e2, 1e3, 1e4])
def test_fig5_detuned_spectrum_matches_laurent(fig5, detuning):
    """Far detuned light-assisted blinking: S_inc(0) = 2 Re(w R0 v_dec)
    with R0 the dense reduced resolvent of the Laurent decomposition."""
    p = fs.prepare(dataclasses.replace(fig5, detuning=detuning))
    w, v_dec = _c1_seed(p)
    r0 = fs.laurent_decomposition(p).reduced_resolvent.matrix
    ref = 2.0 * np.real(w @ r0 @ v_dec)
    assert fs.incoherent_spectrum(p, [0.0]).values[0] == pytest.approx(ref, rel=1e-12)


def test_fig5_detuned_spectrum_matches_plain_resolvent(fig5):
    """Away from the steady pole the trace-free solve equals the plain
    resolvent (u - L)^-1 v_dec of the dense oracle."""
    delta = 1e2
    p = fs.prepare(dataclasses.replace(fig5, detuning=delta))
    w, v_dec = _c1_seed(p)
    omega = np.array([-delta, -1.0, 1.0, delta])
    ref = [2.0 * np.real(w @ propagation_oracle.resolve(
        p.generator, -1j * om, fs.BlockState.from_vector(v_dec)).to_vector())
        for om in omega]
    assert fs.incoherent_spectrum(p, omega).values == pytest.approx(ref, rel=1e-9)


def test_stiff_lifetime_fluct_telegraph_peak():
    """Slow switching between gamma = 1 and 3 (rates phi and 2 phi): the
    zero-frequency S_inc is the telegraph peak 2 Var_p(c) / (3 phi) of the
    coherent amplitudes c_R = sqrt(gamma_R) <a|rho_R|b> of the isolated
    states, weighted by p = (1/3, 2/3)."""
    gammas = [1.0, 3.0]
    amps = np.array([np.sqrt(g) * fs.steady_state(fs.build_generator(
        fs.single_state(g, 0.5))).blocks[0, 0, 1] for g in gammas])
    weights = np.array([1.0, 2.0]) / 3.0
    telegraph = 2.0 * weights @ np.abs(amps - weights @ amps) ** 2
    assert telegraph == pytest.approx(0.00159209655093, rel=1e-10)
    for phi in (1e-8, 1e-10, 1e-12):
        spec = fs.lifetime_fluct(gammas, phi * np.array([[0.0, 1.0], [2.0, 0.0]]), 0.5)
        s0 = fs.incoherent_spectrum(spec, [0.0]).values[0]
        assert s0 * 3.0 * phi == pytest.approx(telegraph, rel=1e-5), phi
    spec = fs.lifetime_fluct(gammas, 1e-14 * np.array([[0.0, 1.0], [2.0, 0.0]]), 0.5)
    assert np.all(np.isfinite(fs.incoherent_spectrum(spec, [0.0, 0.01]).values))
