import warnings

import numpy as np
import pytest
import scipy.linalg as la
from scipy.integrate import quad, solve_ivp

import fluorospec as fs
from fluorospec.model import trace_functional
from fluorospec.steady import NullSpaceDegenerate, SingularShift

from conftest import random_block_state, random_spec
from propagation_oracle import evolve, resolve


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
        assert abs(xt.total_trace() - 1.0) < 1e-12


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
        assert abs(xt.total_trace() - 1.0) < 1e-10
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
    x = fs.steady.resolve_deflated(gen, 0.0, fs.BlockState.from_vector(vec))
    r0 = fs.laurent_decomposition(markovian).reduced_resolvent.matrix
    assert np.abs(x.to_vector() - r0 @ vec).max() < 1e-10


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
            fs.steady.resolve_deflated(gen, 0.0, v)
    assert info.value.__cause__ is None and info.value.__suppress_context__


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
