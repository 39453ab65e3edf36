"""The real form of the generator: T L T^-1 in the coordinates
(aa, bb, Re ba, Im ba) per block, and the kernels that factor it."""
import numpy as np
import pytest
import scipy.linalg as la
from conftest import random_block_state, random_spec
from propagation_oracle import evolve, resolve
from steady_oracle import dense_steady

import fluorospec as fs
from fluorospec.correl import _c1_pieces
from fluorospec.model import SuperOp, from_real, real_form, to_real, trace_functional

# T per block, rows e_aa, e_bb, (e_ba + e_ab)/2, -i(e_ba - e_ab)/2 in the
# vec order (aa, ba, ab, bb); T^-1 columns e_aa, e_bb, e_ba + e_ab, i(e_ba - e_ab)
T = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0.5, 0.5, 0], [0, -0.5j, 0.5j, 0]])
T_INV = np.array([[1, 0, 0, 0], [0, 0, 1, 1j], [0, 0, 1, -1j], [0, 1, 0, 0]])
EPS = np.finfo(float).eps
R_MAX = [1, 3, 20, 60]


def _spec(r_max, eta):
    return random_spec(np.random.default_rng(200 + r_max), r_max, with_channels=eta)


@pytest.mark.parametrize("eta", [False, True], ids=["no_eta", "eta"])
@pytest.mark.parametrize("r_max", R_MAX)
def test_real_form_is_exact_dense_product(r_max, eta):
    gen = fs.build_generator(_spec(r_max, eta))
    eye = np.eye(r_max)
    dense = np.kron(eye, T) @ gen.matrix @ np.kron(eye, T_INV)
    assert not dense.imag.any()
    assert np.array_equal(real_form(gen), dense.real)


@pytest.mark.parametrize("kind", list(fs.OperatorKind))
def test_real_form_exact_for_every_channel_operator(kind):
    rng = np.random.default_rng(7)
    spec = random_spec(rng, 3)
    eta = rng.uniform(0.0, 0.5, (3, 3))
    np.fill_diagonal(eta, 0.0)
    gen = fs.build_generator(fs.ModelSpec(spec.space, spec.per_state, spec.rates,
                                          (fs.GeneralJumpChannel(kind, eta),),
                                          spec.detuning))
    dense = np.kron(np.eye(3), T) @ gen.matrix @ np.kron(np.eye(3), T_INV)
    assert not dense.imag.any()
    assert np.array_equal(real_form(gen), dense.real)


def test_real_form_rejects_non_hermiticity_preserving_matrix(fig2a):
    m = fs.build_generator(fig2a).matrix.copy()
    m[0, 1] += 1e-3j           # aa gains from ba but not from ab
    with pytest.raises(ValueError, match="Hermiticity"):
        real_form(SuperOp(m))


def test_coordinate_maps_round_trip():
    rng = np.random.default_rng(3)
    x = random_block_state(rng, 5).to_vector()
    assert np.allclose(from_real(to_real(x)), x, rtol=0, atol=4 * EPS)
    stack = np.column_stack([x, 2 * x])
    assert np.array_equal(to_real(stack)[:, 1], to_real(2 * x))
    b = random_block_state(rng, 5).blocks
    hermitian = fs.BlockState(b + b.conj().transpose(0, 2, 1)).to_vector()
    y = to_real(hermitian)
    assert not y.imag.any()
    assert np.array_equal(from_real(y.real), hermitian)


@pytest.mark.parametrize("eta", [False, True], ids=["no_eta", "eta"])
@pytest.mark.parametrize("r_max", R_MAX)
def test_nullity_singular_values_are_those_of_L(r_max, eta, monkeypatch):
    """The matrix whose singular values certify nullity 1 on the dense path
    (the oracle, and the library's error path) is unitarily similar to L:
    same singular values, same n eps |L|_F tolerance."""
    gen = fs.build_generator(_spec(r_max, eta))
    seen = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, **kwargs: seen.append(a) or svd(a, **kwargs))
    st = dense_steady(gen)
    (m,) = seen
    assert _close(fs.steady_state(gen).to_vector(), st.to_vector())
    svdvals = la.svdvals
    d = np.tile([1.0, 1.0, np.sqrt(2.0), np.sqrt(2.0)], r_max)
    assert np.array_equal(m, d[:, None] * real_form(gen) / d)
    norm = la.norm(gen.matrix, "fro")
    assert np.abs(svdvals(m) - svdvals(gen.matrix)).max() <= 16 * EPS * norm
    assert la.norm(m, "fro") == pytest.approx(norm, rel=16 * EPS)


@pytest.mark.parametrize("call", ["steady_state", "stationary_mandel", "c1"])
def test_factorizations_run_in_real_arithmetic(call, fig5, monkeypatch):
    dtypes = {}
    for owner, name in ((np.linalg, "svd"), (np.linalg, "solve"), (la, "expm")):
        fn = getattr(owner, name)

        def recorded(a, *args, _fn=fn, _name=name, **kwargs):
            arrays = (a, *args) if _name == "solve" else (a,)
            dtypes.setdefault(_name, set()).update(np.asarray(x).dtype for x in arrays)
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(owner, name, recorded)
    {"steady_state": lambda: fs.steady_state(fs.build_generator(fig5)),
     "stationary_mandel": lambda: fs.stationary_mandel(
         fig5, initial=fs.BlockState.ground(2)),
     "c1": lambda: fs.c1(fig5, np.linspace(0.0, 5.0, 6))}[call]()
    expected = {"steady_state": {"svd", "solve"},
                "stationary_mandel": {"svd", "solve"},
                "c1": {"svd", "solve", "expm"}}[call]
    assert set(dtypes) == expected
    assert all(d == {np.dtype(np.float64)} for d in dtypes.values()), dtypes


def _complex_oracle(spec):
    """Steady state, projector P and reduced resolvent R0 from complex LU
    solves of L in the (aa, ba, ab, bb) basis, with row 0 replaced by the
    trace functional."""
    m = fs.build_generator(spec).matrix
    theta = trace_functional(spec.r_max)
    a = m.copy()
    a[0] = theta
    e0 = np.zeros(m.shape[0], dtype=complex)
    e0[0] = 1.0
    rho = la.solve(a, e0)
    proj = np.outer(rho, theta)
    b = proj - np.eye(m.shape[0])
    b[0] = 0.0
    return m, rho, proj, la.solve(a, b)


def _mandel(j, theta, rho, proj, r0, x0):
    """Q_st = A/b - 4a of the Laurent expansion (stationary_mandel)."""
    tj = theta @ j
    b = 0.5 * np.real(tj @ proj @ x0)
    a = 0.5 * np.real(tj @ r0 @ x0)
    a_coef = np.real(tj @ proj @ (j @ (r0 @ x0))) + np.real(tj @ r0 @ (j @ rho))
    return a_coef / b - 4.0 * a


def _close(x, oracle):
    x, oracle = np.asarray(x), np.asarray(oracle)
    return np.abs(x - oracle).max() <= 1e-12 * np.abs(oracle).max()


@pytest.mark.parametrize("eta", [False, True], ids=["no_eta", "eta"])
@pytest.mark.parametrize("r_max", R_MAX)
def test_observables_match_complex_basis_oracles(r_max, eta):
    spec = _spec(r_max, eta)
    rng = np.random.default_rng(300 + r_max)
    m, rho, proj, r0 = _complex_oracle(spec)
    gen = SuperOp(m)
    p = fs.prepare(spec)
    theta = trace_functional(r_max)
    assert _close(p.steady.to_vector(), rho)

    j = p.jump
    assert _close(fs.stationary_mandel(p), _mandel(j, theta, rho, proj, r0, rho))
    init = random_block_state(rng, r_max)                 # complex, not Hermitian
    init = fs.BlockState(init.blocks / init.total_trace())
    assert _close(fs.stationary_mandel(p, initial=init),
                  _mandel(j, theta, rho, proj, r0, init.to_vector()))

    tau = np.linspace(0.0, 6.0, 5)
    st = fs.BlockState.from_vector(rho)
    seeds, w = _c1_pieces(spec, st)
    c1 = [w @ evolve(gen, fs.BlockState(seeds), t).to_vector() for t in tau]
    assert _close(fs.c1(p, tau).values, c1)
    c2 = np.real([theta @ j @ evolve(gen, fs.BlockState.from_vector(j @ rho),
                                     t).to_vector() for t in tau])
    assert _close(fs.c2(p, tau).values, c2)
    assert _close(fs.g2(p, tau).values, c2 / np.real(theta @ j @ rho) ** 2)

    omega = np.array([-7.5, -1.3, 0.4, 2.9])
    v = fs.BlockState(seeds).to_vector()
    v_dec = fs.BlockState.from_vector(v - rho * (theta @ v))
    s_inc = [2.0 * np.real(w @ resolve(gen, -1j * om, v_dec).to_vector())
             for om in omega]
    assert _close(fs.incoherent_spectrum(p, omega).values, s_inc)
