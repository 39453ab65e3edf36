import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg as la
from scipy.integrate import quad, solve_ivp

import fluorospec as fs
from fluorospec.model import trace_functional
from fluorospec.steady import NullSpaceDegenerate, SingularShift

from conftest import random_block_state, random_spec, total_trace
from propagation_oracle import evolve, resolve
from steady_oracle import dense_steady

EPS = np.finfo(float).eps


def test_evolve_t0_is_identity(fig2a):
    rng = np.random.default_rng(1)
    gen = fs.build_generator(fig2a)
    x = random_block_state(rng, 2)
    assert np.array_equal(evolve(gen, x, 0.0).blocks, x.blocks)


def test_evolve_pure_decay_exponential():
    spec = fs.single_state(gamma=1.0, omega_rabi=0.0)
    gen = fs.build_generator(spec)
    x0 = fs.BlockState(np.array([[[0.0, 0.0], [0.0, 1.0]]], dtype=complex))
    for t in (0.3, 1.0, 4.0):
        xt = evolve(gen, x0, t)
        assert abs(xt.blocks[0, 1, 1] - np.exp(-t)) < 1e-10
        assert abs(total_trace(xt) - 1.0) < 1e-12


def test_evolve_rejects_bad_inputs(fig2a):
    gen = fs.build_generator(fig2a)
    x = fs.BlockState.ground(2)
    with pytest.raises(ValueError):
        evolve(gen, x, -1.0)
    bad = fs.BlockState(np.full((2, 2, 2), np.nan, dtype=complex))
    with pytest.raises(ValueError):
        evolve(gen, bad, 1.0)


def test_evolve_matches_ode_oracle(fig2a):
    rng = np.random.default_rng(5)
    gen = fs.build_generator(fig2a)
    x0 = random_block_state(rng, 2, physical=True)
    t_end = 3.0
    sol = solve_ivp(lambda t, y: gen.matrix @ y, (0.0, t_end), x0.to_vector(),
                    method="DOP853", rtol=1e-11, atol=1e-13)
    ours = evolve(gen, x0, t_end).to_vector()
    assert np.abs(ours - sol.y[:, -1]).max() < 1e-8


@pytest.mark.parametrize("r_max", [1, 2, 4])
def test_evolve_preserves_trace_and_hermiticity(r_max):
    rng = np.random.default_rng(50 + r_max)
    spec = random_spec(rng, r_max, with_channels=True)
    gen = fs.build_generator(spec)
    x = random_block_state(rng, r_max, physical=True)
    for t in (0.1, 1.0, 10.0):
        xt = evolve(gen, x, t)
        assert abs(total_trace(xt) - 1.0) < 1e-10
        b = xt.blocks
        assert np.abs(b - b.conj().transpose(0, 2, 1)).max() < 1e-10


def test_steady_state_markovian(markovian):
    st = fs.steady_state(fs.build_generator(markovian))
    assert st.blocks[0, 1, 1].real == pytest.approx(0.25, abs=1e-12)
    # cross-check: long-time evolution from the ground state
    gen = fs.build_generator(markovian)
    xt = evolve(gen, fs.BlockState.ground(1), 50.0)
    assert np.abs(xt.to_vector() - st.to_vector()).max() < 1e-10


def test_steady_state_symmetric_two_state(fig2a):
    st = fs.steady_state(fs.build_generator(fig2a))
    pops = fs.config_populations(st)
    assert np.allclose(pops, [0.5, 0.5], atol=1e-12)


def test_steady_state_disconnected_raises():
    spec = fs.lifetime_fluct(gammas=[1.0, 2.0], phi=np.zeros((2, 2)), omega_rabi=0.7)
    with pytest.raises(NullSpaceDegenerate):
        fs.steady_state(fs.build_generator(spec))


def test_steady_equals_limit_of_evolve(fig5):
    gen = fs.build_generator(fig5)
    st = fs.steady_state(gen)
    rates = la.eigvals(gen.matrix).real
    slowest = np.min(np.abs(rates[np.abs(rates) > 1e-12]))
    xt = evolve(gen, fs.BlockState.ground(2), 50.0 / slowest)
    assert la.norm(xt.to_vector() - st.to_vector()) < 1e-6


def test_resolve_on_steady_state(fig2a):
    gen = fs.build_generator(fig2a)
    st = fs.steady_state(gen)
    x = resolve(gen, 1.0, st)
    assert np.abs(x.to_vector() - st.to_vector()).max() < 1e-10


def test_resolve_large_shift_asymptotics(fig2a):
    rng = np.random.default_rng(8)
    gen = fs.build_generator(fig2a)
    v = random_block_state(rng, 2)
    u = 1e6 * la.norm(gen.matrix, 2)
    x = resolve(gen, u, v).to_vector()
    assert np.abs(x - v.to_vector() / u).max() <= 1e-5 * np.abs(v.to_vector() / u).max()


def test_resolve_vs_time_domain_quadrature(markovian):
    gen = fs.build_generator(markovian)
    x0 = fs.BlockState.ground(1)
    for u in (0.1, 0.5, 2.0):
        t_max = -np.log(1e-10) / u
        got = resolve(gen, u, x0).to_vector()
        want = np.empty_like(got)
        for k in range(4):
            re = quad(lambda t: np.real(np.exp(-u * t) * (la.expm(t * gen.matrix) @ x0.to_vector())[k]),
                      0, t_max, limit=400)[0]
            im = quad(lambda t: np.imag(np.exp(-u * t) * (la.expm(t * gen.matrix) @ x0.to_vector())[k]),
                      0, t_max, limit=400)[0]
            want[k] = re + 1j * im
        assert np.abs(got - want).max() < 1e-6


def test_resolve_singular_shift_detected(markovian):
    gen = fs.build_generator(markovian)
    st = fs.steady_state(gen)
    with pytest.raises(SingularShift):
        resolve(gen, 0.0, fs.BlockState.ground(1))
    # deflated variant handles u=0 for trace-free right-hand sides
    rng = np.random.default_rng(3)
    v = random_block_state(rng, 1)
    vec = v.to_vector()
    vec = vec - st.to_vector() * (trace_functional(1) @ vec)
    x = fs.steady.resolve_deflated(gen, [0.0], vec[:, None])[0, :, 0]
    r0 = fs.laurent_decomposition(markovian).reduced_resolvent.matrix
    assert np.abs(x - r0 @ vec).max() < 1e-10


def test_laurent_defining_relations(fig2a):
    gen = fs.build_generator(fig2a)
    dec = fs.laurent_decomposition(fig2a)
    p = dec.projector.matrix
    r0 = dec.reduced_resolvent.matrix
    m = gen.matrix
    eye = np.eye(gen.dim)
    assert la.norm(p @ p - p, 2) < 1e-10
    assert la.norm(r0 @ m - (p - eye), 2) < 1e-9
    assert la.norm(m @ r0 - (p - eye), 2) < 1e-9
    assert la.norm(r0 @ p, 2) < 1e-10
    assert la.norm(p @ r0, 2) < 1e-10
    assert la.norm(m @ dec.steady.to_vector()) < 1e-10
    # P steady = steady, R0 steady = 0
    assert np.abs(p @ dec.steady.to_vector() - dec.steady.to_vector()).max() < 1e-10
    assert np.abs(r0 @ dec.steady.to_vector()).max() < 1e-10


def test_laurent_pure_decay_eigenmode():
    spec = fs.single_state(gamma=2.0, omega_rabi=0.0)
    gen = fs.build_generator(spec)
    dec = fs.laurent_decomposition(spec)
    # population excess mode decays at rate gamma; eigendecomposition oracle
    # predicts R0 e = e / gamma for L e = -gamma e
    e = np.array([[[-1.0, 0.0], [0.0, 1.0]]], dtype=complex)
    e_vec = fs.BlockState(e).to_vector()
    assert np.abs(gen.matrix @ e_vec - (-2.0) * e_vec).max() < 1e-14
    got = dec.reduced_resolvent.matrix @ e_vec
    assert np.abs(got - e_vec / 2.0).max() < 1e-12


def test_laurent_small_u_expansion(fig5):
    gen = fs.build_generator(fig5)
    dec = fs.laurent_decomposition(fig5)
    rng = np.random.default_rng(17)
    v = random_block_state(rng, 2)
    vv = v.to_vector()
    p, r0 = dec.projector.matrix, dec.reduced_resolvent.matrix
    rates = la.eigvals(gen.matrix).real
    slow = np.min(np.abs(rates[np.abs(rates) > 1e-12]))

    def defect(u):
        x = resolve(gen, u, v).to_vector()
        return la.norm(x - (p @ vv) / u - r0 @ vv)

    # linear-in-u remainder: one decade inside the convergence radius
    d1, d2 = defect(slow / 10.0), defect(slow / 100.0)
    assert d1 / d2 == pytest.approx(10.0, rel=0.25)
    # the spec's coarser pair still shrinks monotonically
    assert defect(1e-3) > defect(1e-4)


def test_config_populations(fig2a, fig5):
    st = fs.steady_state(fs.build_generator(fig2a))
    assert np.allclose(fs.config_populations(st), [0.5, 0.5], atol=1e-12)
    single = fs.steady_state(fs.build_generator(fs.single_state(1.0, 0.7)))
    assert np.allclose(fs.config_populations(single), [1.0], atol=1e-12)
    # light-assisted blinking: populations follow the classical rate balance
    approx = fs.blinking_rates(fig5)
    g12 = approx.big_gamma[0, 1]
    g21 = approx.big_gamma[1, 0]
    predicted = np.array([g12, g21]) / (g12 + g21)
    pops = fs.config_populations(fs.steady_state(fs.build_generator(fig5)))
    assert np.abs(pops - predicted).max() / predicted.min() < 5e-2


def test_exactly_singular_bordered_solve_raises_singular_shift():
    """With L = 0 the bordered matrix at u = 0 has a zero pivot; the solve
    reports SingularShift, without a warning."""
    gen = fs.build_generator(fs.single_state(gamma=0.0, omega_rabi=0.0))
    assert not gen.matrix.any()
    v = fs.BlockState(np.array([[[1.0, 0.0], [0.0, -1.0]]], dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularShift, match="bordered solve") as info:
            fs.steady.resolve_deflated(gen, [0.0], v.to_vector()[:, None])
    assert info.value.__cause__ is None and info.value.__suppress_context__


@pytest.mark.parametrize("bad, match", [({2: "off", 4: "zero"}, "backward error"),
                                        ({4: "zero"}, "bordered solve failed")],
                         ids=["off_then_zero", "zero"])
def test_bordered_solve_raises_its_first_failing_shift(bad, match, fig5, monkeypatch):
    """A zero pivot ends the loop of LUs, and the shifts solved before it
    are certified in one call after it: the first shift in order that
    fails raises, with the message it raises alone, from no other
    exception and without a warning. Shift 2 is off by a relative 1e-7 and
    shift 4 meets a zero pivot."""
    p = fs.prepare(fig5)
    v = p.steady.to_vector().real[:, None]
    w = np.random.default_rng(4).normal(size=v.shape)
    w = w - v * (trace_functional(2) @ w)        # trace-free: solvable
    shifts = 1j * np.arange(6.0)
    calls, solve = [], np.linalg.solve

    def patched(a, b):
        calls.append(bad.get(len(calls)))
        if calls[-1] == "zero":
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b) * (1.0 + 1e-7 if calls[-1] == "off" else 1.0)

    monkeypatch.setattr(np.linalg, "solve", patched)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularShift, match=match) as info:
            fs.steady.resolve_deflated(p.generator, shifts, w)
    assert len(calls) == 5                       # no LU after the zero pivot
    assert info.value.__cause__ is None and info.value.__suppress_context__
    first = min(bad)
    calls[:] = [None] * first                    # that shift alone, as patched
    with pytest.raises(SingularShift) as alone:
        fs.steady.resolve_deflated(p.generator, shifts[first:first + 1], w)
    assert str(info.value) == str(alone.value)


def test_chain_solve_failure_takes_one_point_dense(fig5, monkeypatch):
    """A chain solve off by a relative 1e-7 at one point of a stacked sweep
    fails only that point's final check on [L; theta]; that point alone
    takes the dense path, and its steady state and Q_st equal the point
    solved alone to 1e-13."""
    deltas, bad = np.array([-3.0, -1.0, 0.0, 1.0, 3.0]), 2
    alone = [fs.prepare(dataclasses.replace(fig5, detuning=float(d))) for d in deltas]
    want_st = np.array([a.steady.blocks for a in alone])
    want_q = np.array([fs.stationary_mandel(a) for a in alone])
    stack = fs.prepare(fig5).at_detuning(deltas)
    solve, bordered, dense = fs.steady._solve, fs.steady.resolve_deflated, []

    def off(what, a, b):
        x, failed = solve(what, a, b)
        if what == "chain solve":
            x[bad] *= 1.0 + 1e-7
        return x, failed

    monkeypatch.setattr(fs.steady, "_solve", off)
    monkeypatch.setattr(fs.steady, "resolve_deflated",
                        lambda g, *args: dense.append(g.matrix) or bordered(g, *args))
    failed = _null(stack.generator)[1]
    assert list(failed) == [bad] and "chain solve backward error" in str(failed[bad])
    st, q = stack.steady.blocks, fs.stationary_mandel(stack)
    assert dense and all(np.array_equal(g, stack.generator.matrix[bad]) for g in dense)
    assert np.abs(st - want_st).max() <= 1e-13
    assert np.abs(q - want_q).max() <= 1e-13 * np.abs(want_q).max()


def test_resolvent_certifies_the_dropped_row(fig5):
    """Row 0 of u - L, which the bordered matrix replaces by theta, is part
    of the certificate: with a right-hand side of trace 1, (u - L) x = rhs
    and Tr x = 0 have no solution, every other row is solved, and only
    row 0 shows it."""
    p = fs.prepare(fig5)
    v = p.steady.to_vector()[:, None]
    assert trace_functional(2) @ v == pytest.approx(1.0)
    with pytest.raises(SingularShift, match="backward error"):
        fs.steady.resolve_deflated(p.generator, [0.5j], v)
    w = np.random.default_rng(4).normal(size=v.shape)
    w = w - v * (trace_functional(2) @ w)        # trace-free: solved
    assert np.all(np.isfinite(fs.steady.resolve_deflated(p.generator, [0.5j], w)))


def test_resolve_deflated_takes_the_dtype_of_its_inputs(fig5):
    """A real shift with a real right-hand side is solved in real
    arithmetic, as the dense fallbacks solve; an imaginary shift in
    complex arithmetic, as the spectrum solves."""
    p = fs.prepare(fig5)
    w = np.random.default_rng(4).normal(size=(8, 1))
    w = w - p.steady.to_vector().real[:, None] * (trace_functional(2) @ w)
    assert fs.steady.resolve_deflated(p.generator, [0.0], w).dtype == np.float64
    assert fs.steady.resolve_deflated(p.generator, [0.5j], w).dtype == np.complex128


def test_resolve_deflated_rejects_rhs_shape(fig5):
    gen = fs.build_generator(fig5)
    for rhs in (np.zeros(8), np.zeros((4, 1))):
        with pytest.raises(ValueError, match="right-hand side shape"):
            fs.steady.resolve_deflated(gen, [0.0], rhs)


@pytest.mark.parametrize("which", ["fig5", "random20"])
def test_resolve_deflated_with_unit_trace_is_the_steady_state(which, fig5):
    """At the shift 0 with Tr x = 1 and a zero right-hand side, the
    bordered solve is the dense fallback of the steady state."""
    spec = fig5 if which == "fig5" else random_spec(np.random.default_rng(20), 20)
    gen = fs.build_generator(spec)
    x = fs.steady.resolve_deflated(gen, [0.0], np.zeros((gen.dim, 1)), 1.0)[0, :, 0]
    assert np.abs(x - dense_steady(gen).to_vector()).max() <= 1e-13


@pytest.mark.parametrize("caller", ["steady_state", "incoherent_spectrum",
                                    "stationary_mandel"])
def test_bordered_solve_certified(caller, fig5, monkeypatch):
    """Every caller of the bordered solve checks its backward error: a
    solution off by a relative 1e-7 is rejected."""
    p = fs.prepare(fig5)
    p.steady
    calls = {"steady_state": lambda: fs.steady_state(p.generator),
             "incoherent_spectrum": lambda: fs.incoherent_spectrum(p, [0.0, 0.5]),
             "stationary_mandel": lambda: fs.stationary_mandel(p)}
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) * (1.0 + 1e-7))
    with pytest.raises(SingularShift, match="backward error"):
        calls[caller]()


def _chain_complement(gen):
    """S = Z_tt - Z_tf Z_ff^-1 Z_ft of the generator taken to the
    coordinates (aa + bb, bb, Re ba, Im ba), by dense products and a scipy
    solve."""
    r = gen.r_max
    to_t = np.kron(np.eye(r), [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    z = to_t @ gen.matrix @ la.inv(to_t)
    t = np.arange(4 * r) % 4 == 0
    return z[np.ix_(t, t)] - z[np.ix_(t, ~t)] @ la.solve(z[np.ix_(~t, ~t)],
                                                         z[np.ix_(~t, t)])


def _recording_svd(monkeypatch):
    seen = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, **kwargs: seen.append(a.copy()) or svd(a, **kwargs))
    return seen


@pytest.mark.parametrize("eta", [False, True], ids=["no_eta", "eta"])
@pytest.mark.parametrize("r_max", [1, 3, 20, 60])
def test_nullity_certified_on_the_chain(r_max, eta, monkeypatch):
    """On a nullity-1 model steady_state and Q_st make no 4 r_max x 4 r_max
    SVD: nullity 1 rests on the singular values of the r_max x r_max
    stochastic complement S, scaled by a power of two, whose columns sum
    to zero and of which exactly one singular value vanishes."""
    spec = random_spec(np.random.default_rng(200 + r_max), r_max, with_channels=eta)
    gen = fs.build_generator(spec)
    seen = _recording_svd(monkeypatch)
    st = fs.steady_state(gen)
    fs.stationary_mandel(fs.prepare(spec))
    assert [m.shape for m in seen] == [(1, r_max, r_max)] * 2
    s = seen[0][0]
    assert np.abs(dense_steady(gen).to_vector() - st.to_vector()).max() <= 1e-13
    if r_max == 1:      # a single configuration: S = 0, nullity 1
        assert not s.any()
        return
    oracle = _chain_complement(gen)
    scale = 2.0 ** np.round(np.log2(np.abs(oracle).max() / np.abs(s).max()))
    assert np.abs(s * scale - oracle).max() <= 1e-12 * np.abs(oracle).max()
    assert 0.5 <= np.abs(s).max() < 1.0
    assert np.abs(s.sum(axis=0)).max() <= 4 * r_max * EPS
    svals = la.svdvals(s)
    assert svals[-1] <= 4 * r_max * EPS < 1e-6 < svals[-2]


@pytest.mark.parametrize("kind", list(fs.OperatorKind))
def test_steady_state_matches_dense_oracle(kind):
    """Every eta channel operator, a diffusion chain and random models up to
    r_max = 60: the elimination agrees with the dense solve."""
    rng = np.random.default_rng(11)
    specs = [random_spec(rng, r) for r in (2, 40, 60)]
    specs.append(fs.diffusion_chain(20, np.linspace(0.2, 1.5, 20), 0.05, 1.0, 0.3))
    eta = rng.uniform(0.0, 0.5, (5, 5))
    np.fill_diagonal(eta, 0.0)
    base = random_spec(rng, 5)
    specs.append(dataclasses.replace(base, extra_channels=(fs.GeneralJumpChannel(kind, eta),)))
    for spec in specs:
        gen = fs.build_generator(spec)
        x = fs.steady_state(gen).to_vector()
        oracle = dense_steady(gen).to_vector()
        assert np.abs(x - oracle).max() <= 1e-13 * np.abs(oracle).max(), spec.r_max


def test_disconnected_configurations_reported_by_the_chain(monkeypatch):
    """No hops between three configurations: S = 0, nullity 3, named
    without a dense SVD."""
    spec = fs.lifetime_fluct(gammas=[1.0, 2.0, 3.0], phi=np.zeros((3, 3)), omega_rabi=0.7)
    seen = _recording_svd(monkeypatch)
    with pytest.raises(NullSpaceDegenerate, match="nullity is 3"):
        fs.steady_state(fs.build_generator(spec))
    assert [m.shape for m in seen] == [(1, 3, 3)]
    assert not seen[0].any()


@pytest.mark.parametrize("spec", [
    fs.single_state(gamma=0.0, omega_rabi=0.7),
    fs.single_state(gamma=1e-17, omega_rabi=0.7, detuning=0.3),
    fs.lifetime_fluct([0.0, 0.0], [[0.0, 0.1], [0.1, 0.0]], 0.7, detuning=0.3)],
    ids=["undamped", "damped_below_eps", "undamped_pair"])
def test_singular_fast_block_falls_back_to_dense_nullity(spec, monkeypatch):
    """Undamped driven blocks have a fast block singular to working
    precision, exactly singular or not (a pair of them hopping between each
    other shares one undamped mode, which no backward error reveals): the
    elimination stops, and the dense SVD names the nullity, 2."""
    gen = fs.build_generator(spec)
    seen = _recording_svd(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NullSpaceDegenerate, match="nullity is 2"):
            fs.steady_state(gen)
    assert [m.shape for m in seen] == [(gen.dim, gen.dim)]


@pytest.mark.parametrize("rate", [1e-4, 1e-8, 1e-10, 1e-12, 1e-14])
def test_stiff_closed_forms(rate):
    """Configurational hops far slower than the fluorescence: populations to
    1e-12 relative against the closed forms, where the dense solve lost
    eps/rate (1.5e-4 at 1e-14 for lifetime_fluct)."""
    hops = rate * np.array([[0.0, 1.0], [2.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lifetime = fs.steady_state(fs.build_generator(fs.lifetime_fluct([1.0, 3.0], hops, 0.5)))
        spec = fs.light_assisted([1.0, 3.0], hops, 0.5)
        assisted = fs.steady_state(fs.build_generator(spec))
    assert np.abs(fs.config_populations(lifetime) / [1 / 3, 2 / 3] - 1).max() <= 1e-12
    # p proportional to (e_1, 2 e_0), e_R the excited fraction of block R
    decay = spec.effective_decays()
    e = (0.5**2 / 4) / (decay**2 / 4 + 0.5**2 / 2)
    expected = np.array([e[1], 2.0 * e[0]]) / (e[1] + 2.0 * e[0])
    assert np.abs(fs.config_populations(assisted) / expected - 1).max() <= 1e-12


@pytest.mark.parametrize("detuning", [1e2, 1e4, 2e4, 1e5, 1e6, 1e7])
def test_fig5_populations_at_large_detuning(fig5, detuning):
    """Detailed balance p0 g10 e0 = p1 g01 e1 of the light-assisted hops,
    with e_R = (W^2/4)/(delta^2 + gt_R^2/4 + W^2/2); the dense nullity
    tolerance swallowed these slow rates from delta = 2e4 on."""
    spec = dataclasses.replace(fig5, detuning=detuning)
    pops = fs.config_populations(fs.steady_state(fs.build_generator(spec)))
    e = 0.25 / (detuning**2 + spec.effective_decays() ** 2 / 4 + 0.5)
    cross = spec.gamma_cross
    expected = np.array([cross[0, 1] * e[1], cross[1, 0] * e[0]])
    assert np.abs(pops / (expected / expected.sum()) - 1).max() <= 1e-13


def _null(gen):
    """The trace-1 null columns (n, dim, 1) of each generator of gen and
    the failures, from its elimination's one solve, as the steady state
    takes them."""
    e = fs.steady.eliminate(gen)
    return e.resolve(np.zeros((*e.generator.shape[:2], 1)), 1.0)


def _chain_failure(gen):
    """The exception of the first check that the elimination of the steady
    state of gen alone (a stack of one) fails."""
    failed = _null(gen)[1]
    assert list(failed) == [0]
    return failed[0]


def test_fast_block_failure_names_its_backward_error(fig5, monkeypatch):
    """A fast solve that fails its backward error names the ratio it
    measured on X, not a NaN from the steady state's zero right-hand
    side."""
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) * (1.0 + 1e-7))
    message = str(_chain_failure(fs.build_generator(fig5)))
    assert message.startswith("fast block solve backward error ")
    assert np.isfinite(float(message.split()[5]))


def _two_blocks(kind, phi, eta, driven=(0.0, 1.0, 1.0), dark_shift=0.0, detuning=0.0):
    """A driven block 0 (delta_omega, gamma, omega_rabi) and a dark block 1
    (no decay, no drive) that hop by phi and by an eta channel of kind."""
    return fs.ModelSpec(*zip(driven, (dark_shift, 0.0, 0.0)), phi=phi,
                        extra_channels=(fs.GeneralJumpChannel(kind, np.array(eta)),),
                        detuning=detuning)


def _trapped():
    """Block 1 keeps its excited population forever: no decay, and the
    lower-projector channel drains only its ground state."""
    return _two_blocks(fs.OperatorKind.LOWER_PROJECTOR, [[0.0, 0.0], [0.01, 0.0]],
                       [[0.0, 0.3], [0.0, 0.0]])


def _counted_dense(monkeypatch, change=None):
    """The shapes of the generators of every ``resolve_deflated`` call of
    steady.py, whose returned columns ``change`` may alter in place."""
    shapes = []
    bordered = fs.steady.resolve_deflated

    def counted(generator, *args):
        shapes.append(generator.matrix.shape)
        x = bordered(generator, *args)
        if change:
            change(x)
        return x

    monkeypatch.setattr(fs.steady, "resolve_deflated", counted)
    return shapes


def test_trapped_excited_state_solved_densely(monkeypatch):
    """The trapped spec's fast block is singular while L has nullity 1:
    the dense solve takes over and finds the trap, bb_1 = 1."""
    gen = fs.build_generator(_trapped())
    with pytest.raises(SingularShift, match="fast block"):
        raise _chain_failure(gen)
    seen = _recording_svd(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        st = fs.steady_state(gen)
    assert [m.shape for m in seen] == [(8, 8)]
    expected = np.zeros((2, 2, 2))
    expected[1, 1, 1] = 1.0
    assert np.abs(st.blocks - expected).max() <= 1e-12


def test_trapped_mandel_checks_the_nullity_once(monkeypatch):
    """Q_st's column takes the dense path where the elimination failed, at
    the same point as the steady state, but only the steady state's dense
    check names the nullity: one dense SVD, two dense solves. Q_st, about
    200, agrees with the Laurent decomposition's."""
    spec = _trapped()
    p = fs.prepare(spec)
    laurent = fs.laurent_decomposition(p)
    rho = laurent.steady.to_vector().real
    tj = trace_functional(2) @ p.jump
    expected = 2.0 * tj @ laurent.reduced_resolvent.matrix @ p.jump @ rho / (tj @ rho)
    seen = _recording_svd(monkeypatch)
    shapes = _counted_dense(monkeypatch)
    q_st = fs.stationary_mandel(spec)
    assert [m.shape for m in seen] == [(8, 8)]
    assert shapes == [(8, 8)] * 2
    assert q_st == pytest.approx(expected, rel=1e-12)


def test_negative_block_eigenvalue_of_the_dense_solve_raises(monkeypatch):
    """A dense steady solve whose state has a negative block eigenvalue is
    a model or assembly bug, not a state: Re ba of block 0 shifted by 1
    in the trapped spec's dense column gives the eigenvalue -1."""
    def off(x):
        x[:, 2] += 1.0           # Re ba of block 0, whose populations are 0

    _counted_dense(monkeypatch, off)
    with pytest.raises(ValueError, match=r"^steady-state block eigenvalue -1\.000e\+00 "
                                         r"< -1e-10; model or assembly bug$"):
        fs.steady_state(fs.build_generator(_trapped()))


@pytest.mark.parametrize("observable", [
    pytest.param(
        lambda spec: fs.incoherent_spectrum(spec, np.linspace(-3.0, 3.0, 11)).values,
        marks=pytest.mark.xfail(
            strict=True, raises=SingularShift,
            reason="ROADMAP item 1: the bordered check counts the rounding of the "
                   "right-hand side's trace against the solve; the formation error "
                   "of the spectrum's seed as its data term changes which omega the "
                   "Krylov basis accepts, so it needs its own change"),
        id="spectrum"),
    pytest.param(fs.stationary_mandel, id="stationary_mandel")])
def test_weakly_driven_single_emitter_is_solved(observable):
    """A single emitter driven at a Rabi frequency 1e-4 of its decay rate,
    the paper's plainest case. Q_st's column is solved, its bordered check
    taking the formation error of its right-hand side as the data term
    (its accuracy against the closed form is asserted in test_counting);
    the spectrum is still refused by the bordered check. Only finiteness
    is asserted here."""
    assert np.isfinite(observable(fs.single_state(gamma=1.0, omega_rabi=1e-4))).all()


def _log_norm(z_ff):
    """The screen's mu for each Z_ff of a stack (see ``steady``), without
    its rounding term."""
    n, r = len(z_ff), z_ff.shape[-1] // 3
    blocks = z_ff.reshape(n, r, 3, r, 3).transpose(0, 1, 3, 2, 4)
    norms = np.sqrt(np.abs(blocks).sum(axis=-2).max(axis=-1)
                    * np.abs(blocks).sum(axis=-1).max(axis=-1))
    mu = np.empty((n, r))
    for j in range(r):
        sym = 0.5 * (blocks[:, j, j] + blocks[:, j, j].swapaxes(-1, -2))
        radius = np.abs(sym).sum(axis=-1) - np.abs(np.diagonal(sym, 0, -2, -1))
        mu[:, j] = ((np.diagonal(sym, 0, -2, -1) + radius).max(axis=-1)
                    + norms[:, :, j].sum(axis=-1) - norms[:, j, j])
    return mu.max(axis=-1)


_CHAIN_PROFILE = [0.11, 0.19, 0.32, 0.5, 0.74, 1.03, 1.34, 1.63, 1.86, 1.98,
                  1.98, 1.86, 1.63, 1.34, 1.03, 0.74, 0.5, 0.32, 0.19, 0.11]


def _screen_case(name, fig5):
    kind, _, arg = name.partition("_")
    if kind == "fig5":
        return dataclasses.replace(fig5, detuning=float(arg))
    if kind == "chain":
        sites, hop = arg.split("_")
        return fs.diffusion_chain(int(sites), _CHAIN_PROFILE[::20 // int(sites)],
                                  float(hop), 1.0)
    if kind == "stiff":
        return fs.lifetime_fluct([1.0, 3.0], float(arg) * np.array([[0.0, 1.0], [2.0, 0.0]]),
                                 0.5)
    if kind == "single":
        return fs.single_state(1.0, 1.0)
    r_max, eta, seed = (int(v) for v in arg.split("_"))
    return random_spec(np.random.default_rng(seed), r_max, with_channels=bool(eta))


@pytest.mark.parametrize("name", [
    *(f"random_{r}_{eta}_{seed}" for r in range(1, 8) for eta in (0, 1)
      for seed in (600 + r, 700 + r)),
    *(f"fig5_{d}" for d in ("0", "-30", "1e2", "1e4", "1e6", "1e7")),
    "chain_20_2", "chain_20_0.5", "chain_5_0.5",
    *(f"stiff_{rate}" for rate in ("1e-4", "1e-8", "1e-14"))])
def test_log_norm_screen_bounds_the_smallest_singular_value(name, fig5):
    """Wherever the screen certifies Z_ff, its mu is negative, the smallest
    singular value of D Z_ff, from a full SVD, is at least its bound -mu /
    (sqrt(r_max) max|Z_ff|), and it passes the check the screen stands for:
    above dim eps |D Z_ff|_F. Every model without eta channels is
    certified."""
    e = fs.steady.eliminate(fs.build_generator(_screen_case(name, fig5)))
    assert not e.failed
    z = e.z_ff
    r = z.shape[-1] // 3
    screened = fs.steady._log_norm_screen(z)
    mu = _log_norm(z)
    rows = np.abs(z).max(axis=-1)
    sigma = np.linalg.svd(z / rows[..., None], compute_uv=False)
    if not (name.startswith("random") and name.split("_")[2] == "1"):
        assert screened.all()
    for i in np.flatnonzero(screened):
        assert mu[i] < 0
        bound = -mu[i] / (np.sqrt(r) * rows[i].max())
        assert sigma[i, -1] >= bound - 3 * r * EPS * sigma[i, 0]
        assert sigma[i, -1] > 3 * r * EPS * np.linalg.norm(z[i] / rows[i, :, None])


def _recording_inv(monkeypatch):
    """The shapes of the stacks that numpy.linalg.inv inverts."""
    shapes = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: shapes.append(a.shape) or inv(a))
    return shapes


@pytest.mark.parametrize("name", ["random_60_0_3", "chain_20_2", "fig5_0", "single"])
def test_screened_elimination_forms_no_inverse(name, fig5, monkeypatch):
    """The steady state and Q_st of models the screen certifies form no
    Z_ff^-1: their fast solves are of [Z_ft] and of Q_st's c_f only."""
    p = fs.prepare(_screen_case(name, fig5))
    inverses = _recording_inv(monkeypatch)
    fs.steady_state(p.generator)
    fs.stationary_mandel(p)
    assert inverses == []


@pytest.mark.parametrize("spec", [
    fs.lifetime_fluct([0.0, 1.0], [[0.0, 0.1], [0.1, 0.0]], 0.7),
    random_spec(np.random.default_rng(604), 4, with_channels=True)], ids=["dark", "eta"])
def test_screen_fallback_forms_its_own_inverse(spec, monkeypatch):
    """A dark configuration (mu = 0) and an eta channel (mu > 0) are left
    by the screen: each elimination forms that
    point's Z_ff^-1 and takes the inverse's check, which passes, so no
    dense solve is made, and the steady state and Q_st agree with the
    dense oracles."""
    p = fs.prepare(spec)
    z_ff = fs.steady.eliminate(p.generator).z_ff
    assert (_log_norm(z_ff) >= 0).all() and not fs.steady._log_norm_screen(z_ff).any()
    inverses = _recording_inv(monkeypatch)
    dense = _counted_dense(monkeypatch)
    st = fs.steady_state(p.generator)
    q_st = fs.stationary_mandel(p)
    n = 3 * p.spec.r_max
    assert inverses == [(1, n, n)] * 2
    assert dense == []
    assert np.abs(st.to_vector() - dense_steady(p.generator).to_vector()).max() <= 1e-13
    laurent = fs.laurent_decomposition(p)
    rho = laurent.steady.to_vector().real
    tj = trace_functional(p.spec.r_max) @ p.jump
    expected = 2.0 * tj @ laurent.reduced_resolvent.matrix @ p.jump @ rho / (tj @ rho)
    assert q_st == pytest.approx(expected, rel=1e-12)


def test_cancelling_slow_rates_solved_densely():
    """Block 1 is entered and left only in its excited state, both fast,
    and its ground state is reached by nothing: the net slow rate into it
    is the difference of fast fluxes ~1e10 times larger. The elimination
    stops rather than lose it (it had p_1 17% and Q_st 0.011 off), and the
    dense solve takes over, for the state and for Q_st."""
    spec = _two_blocks(fs.OperatorKind.UPPER_PROJECTOR, [[0.0, 4e-11], [0.0, 0.0]],
                       [[0.0, 0.4], [0.4, 0.0]], driven=(0.0, 0.25, 1.5), detuning=-800.0)
    gen = fs.build_generator(spec)
    with pytest.raises(SingularShift, match="cancellation"):
        raise _chain_failure(gen)
    st = fs.steady_state(gen).to_vector()
    assert np.abs(st - dense_steady(gen).to_vector()).max() <= 1e-13
    # from a 50-digit solve of the generator assembled in exact rates
    assert fs.stationary_mandel(spec) == pytest.approx(-5.624916581075907e-06, rel=1e-6)


def test_dense_nullity_error_names_what_it_measured():
    """The spec above at detuning -2e4 is connected, but the dense SVD
    tolerance 7.1e-11 swallows the slow rate 4e-11 (singular value
    4.7e-11): the error names both, and says that a rate below the
    tolerance reads as a missing one."""
    spec = _two_blocks(fs.OperatorKind.UPPER_PROJECTOR, [[0.0, 4e-11], [0.0, 0.0]],
                       [[0.0, 0.4], [0.4, 0.0]], driven=(0.0, 0.25, 1.5), detuning=-2e4)
    with pytest.raises(NullSpaceDegenerate) as err:
        fs.steady_state(fs.build_generator(spec))
    message = str(err.value)
    assert "nullity is 2" in message
    assert "tolerance 7.1e-11" in message and "largest 4.7e-11" in message
    assert "a rate below the tolerance, which reads as a missing one" in message


def test_negative_block_eigenvalue_solved_densely(fig5, monkeypatch):
    """A state from the elimination with a negative block eigenvalue is
    provably off by as much: the dense solve takes over."""
    gen = fs.build_generator(fig5)
    resolve = fs.steady.Elimination.resolve

    def off(self, rhs, trace):
        y, failed = resolve(self, rhs, trace)
        y[:, 2] += 1.0           # Re ba of block 0: a coherence no state can have
        return y, failed

    monkeypatch.setattr(fs.steady.Elimination, "resolve", off)
    y, failed = _null(gen)
    assert not failed and fs.steady._block_state(y)[1][0] < -1e-10
    st = fs.steady_state(gen).to_vector()
    assert np.abs(st - dense_steady(gen).to_vector()).max() <= 1e-13


def _cancelling(phi=4e-11):
    """The spec of test_cancelling_slow_rates_solved_densely at detuning 0,
    with the slow rate phi from block 1 into block 0."""
    return _two_blocks(fs.OperatorKind.UPPER_PROJECTOR, [[0.0, phi], [0.0, 0.0]],
                       [[0.0, 0.4], [0.4, 0.0]], driven=(0.0, 0.25, 1.5))


@pytest.mark.parametrize("observable", [fs.line_shape, fs.stationary_mandel],
                         ids=["line_shape", "stationary_mandel"])
@pytest.mark.parametrize("phi, dense", [(4e-11, [0, 1, 2, 3, 4, 5]), (1e-7, [2, 4])],
                         ids=["cancelling", "mixed"])
def test_detuning_sweep_mixes_certified_and_dense_points(phi, dense, observable,
                                                         monkeypatch):
    """One stack holds the points whose elimination is certified and those
    that take the dense path, each of the latter on its own. At phi =
    4e-11 every slow rate is lost to cancellation, at every detuning; at
    1e-7 the elimination passes its checks but gives a negative block
    eigenvalue at delta = ±10. Each point equals the model prepared at its
    detuning bit for bit."""
    spec = _cancelling(phi)
    deltas = np.array([-1e4, -800.0, -10.0, 0.0, 10.0, 800.0])
    failed = _null(fs.prepare(spec).at_detuning(deltas).generator)[1]
    cancelling = phi < 1e-8
    assert sorted(failed) == (dense if cancelling else [])
    want = [observable(fs.prepare(dataclasses.replace(spec, detuning=float(d))))
            for d in deltas]
    shapes = []
    bordered = fs.steady.resolve_deflated
    monkeypatch.setattr(fs.steady, "resolve_deflated",
                        lambda g, *args: shapes.append(g.matrix.shape) or bordered(g, *args))
    series = fs.detuning_sweep(observable, spec, deltas)
    assert np.array_equal(series.values, want)
    # the steady state's dense solves, and on the cancelling spec Q_st's
    q_dense = dense if cancelling and observable is fs.stationary_mandel else []
    assert shapes == [(8, 8)] * (len(dense) + len(q_dense))


@pytest.mark.parametrize("observable", [fs.line_shape, fs.stationary_mandel],
                         ids=["line_shape", "stationary_mandel"])
def test_detuning_sweep_failing_point_raises_as_alone(observable):
    """From |delta| ~ 2e4 on, the dense check of the cancelling spec names
    nullity 2. A grid that holds such a point raises what its first such
    point raises alone."""
    spec = _cancelling()
    with pytest.raises(NullSpaceDegenerate) as alone:
        observable(fs.prepare(dataclasses.replace(spec, detuning=2.5e4)))
    with pytest.raises(NullSpaceDegenerate) as swept:
        fs.detuning_sweep(observable, spec, [-800.0, 0.0, 2.5e4, 1e5])
    assert str(swept.value) == str(alone.value)


@pytest.mark.parametrize("spec", [fs.single_state(gamma=0.0, omega_rabi=0.7), _cancelling(),
                                  _cancelling(1e-7)],
                         ids=["undamped", "cancelling", "mixed"])
def test_stacked_elimination_fails_each_point_as_alone(spec):
    """Each point of a stack fails the check it fails alone, with the same
    message, and a certified point gets the same y bit for bit; this holds
    also where exactly singular fast blocks make the stacked LU raise for
    the whole stack (undamped), and no failed point draws a warning."""
    deltas = np.array([-1e4, -10.0, 0.0, 10.0, 800.0])
    gen = fs.prepare(spec).at_detuning(deltas).generator.matrix
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y, failed = _null(fs.SuperOp(gen))
        for i in range(len(deltas)):
            alone_y, alone = _null(fs.SuperOp(gen[i:i + 1]))
            assert str(failed.get(i)) == str(alone.get(0)), deltas[i]
            if i not in failed:
                assert y[i].tobytes() == alone_y[0].tobytes(), deltas[i]
