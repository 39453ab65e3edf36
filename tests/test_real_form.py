"""The generator in real coordinates: one real matrix T L T^-1 in the
coordinates (aa, bb, Re ba, Im ba) per block, and the kernels that factor
it, checked against the complex generator L in the vec order
(aa, ba, ab, bb)."""
import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg as la
from conftest import random_block_state, random_spec
from generator_oracle import T, T_INV, vec_generator
from steady_oracle import dense_steady

import fluorospec as fs
from fluorospec import correl, counting
from fluorospec.model import SIGMA, SIGMA_DAG, SuperOp, detection_jump

EPS = np.finfo(float).eps
R_MAX = [1, 3, 20, 60]


def _spec(r_max, eta):
    return random_spec(np.random.default_rng(200 + r_max), r_max, with_channels=eta)


def _similar(spec):
    """T L T^-1 of the vec-order generator L by dense products."""
    eye = np.eye(spec.r_max)
    return np.kron(eye, T) @ vec_generator(spec) @ np.kron(eye, T_INV)


@pytest.mark.parametrize("eta", [False, True], ids=["no_eta", "eta"])
@pytest.mark.parametrize("r_max", R_MAX)
def test_real_form_is_exact_dense_product(r_max, eta):
    spec = _spec(r_max, eta)
    dense = _similar(spec)
    assert not dense.imag.any()
    assert np.array_equal(fs.build_generator(spec).matrix, dense.real)


@pytest.mark.parametrize("kind", list(fs.OperatorKind))
def test_real_form_exact_for_every_channel_operator(kind):
    rng = np.random.default_rng(7)
    spec = random_spec(rng, 3)
    eta = rng.uniform(0.0, 0.5, (3, 3))
    np.fill_diagonal(eta, 0.0)
    spec = dataclasses.replace(spec, extra_channels=(fs.GeneralJumpChannel(kind, eta),))
    gen = fs.build_generator(spec)
    assert gen.matrix.dtype == np.float64
    assert detection_jump(spec).dtype == np.float64
    dense = _similar(spec)
    assert not dense.imag.any()
    assert np.array_equal(gen.matrix, dense.real)


def test_real_form_rejects_non_hermiticity_preserving_matrix(fig2a):
    m = fs.build_generator(fig2a).matrix.astype(complex)
    m[0, 2] += 1e-3j           # aa gains from Re ba with an imaginary rate
    with pytest.raises(ValueError, match="Hermiticity"):
        SuperOp(m)


def test_superop_takes_real_valued_complex_matrix(fig2a):
    m = fs.build_generator(fig2a).matrix
    with warnings.catch_warnings():
        warnings.simplefilter("error")     # no ComplexWarning on the way
        op = SuperOp(m.astype(complex))
    assert op.matrix.dtype == np.float64
    assert not op.matrix.flags.writeable
    assert np.array_equal(op.matrix, m)


def test_coordinate_maps_round_trip():
    rng = np.random.default_rng(3)
    x = random_block_state(rng, 5)
    again = fs.BlockState.from_vector(x.to_vector())
    assert np.allclose(again.blocks, x.blocks, rtol=0, atol=4 * EPS)
    assert np.array_equal(x.to_vector(), np.kron(np.eye(5), T) @ _vec(x.blocks))


@pytest.mark.parametrize("r_max", R_MAX)
def test_hermitian_states_round_trip_bit_for_bit(r_max):
    rng = np.random.default_rng(500 + r_max)
    for physical in (False, True):
        x = random_block_state(rng, r_max, physical=physical)
        h = fs.BlockState(x.blocks + x.blocks.conj().transpose(0, 2, 1))
        y = h.to_vector()
        assert not y.imag.any()
        for v in (y, y.real):
            assert fs.BlockState.from_vector(v).blocks.tobytes() == h.blocks.tobytes()
    st = fs.prepare(_spec(r_max, True)).steady
    again = fs.BlockState.from_vector(st.to_vector())
    assert again.blocks.tobytes() == st.blocks.tobytes()


@pytest.mark.parametrize("eta", [False, True], ids=["no_eta", "eta"])
@pytest.mark.parametrize("r_max", R_MAX)
def test_nullity_singular_values_are_those_of_L(r_max, eta, monkeypatch):
    """The matrix whose singular values certify nullity 1 on the dense path
    (the oracle, and the library's error path) is unitarily similar to the
    vec-order L: same singular values, same n eps |L|_F tolerance."""
    spec = _spec(r_max, eta)
    gen = fs.build_generator(spec)
    seen = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, **kwargs: seen.append(a) or svd(a, **kwargs))
    st = dense_steady(gen)
    (m,) = seen
    assert _close(fs.steady_state(gen).to_vector(), st.to_vector())
    svdvals = la.svdvals
    d = np.tile([1.0, 1.0, np.sqrt(2.0), np.sqrt(2.0)], r_max)
    assert np.array_equal(m, d[:, None] * gen.matrix / d)
    vec = vec_generator(spec)
    norm = la.norm(vec, "fro")
    assert np.abs(svdvals(m) - svdvals(vec)).max() <= 16 * EPS * norm
    assert la.norm(m, "fro") == pytest.approx(norm, rel=16 * EPS)


@pytest.mark.parametrize("call", ["steady_state", "stationary_mandel", "c1", "mean_counts"])
def test_factorizations_run_in_real_arithmetic(call, fig5, monkeypatch):
    dtypes = {}
    for owner, name in ((np.linalg, "svd"), (np.linalg, "solve"),
                        (correl, "expm"), (counting, "expm")):
        fn = getattr(owner, name)

        def recorded(a, *args, _fn=fn, _name=name, **kwargs):
            arrays = (a, *args) if _name == "solve" else (a,)
            dtypes.setdefault(_name, set()).update(np.asarray(x).dtype for x in arrays)
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(owner, name, recorded)
    {"steady_state": lambda: fs.steady_state(fs.build_generator(fig5)),
     "stationary_mandel": lambda: fs.stationary_mandel(fig5),
     "c1": lambda: fs.c1(fig5, np.linspace(0.0, 5.0, 6)),
     "mean_counts": lambda: fs.mean_counts(fig5, 3.0)}[call]()
    expected = {"steady_state": {"svd", "solve"},
                "stationary_mandel": {"svd", "solve"},
                "c1": {"svd", "solve", "expm"},
                "mean_counts": {"svd", "solve", "expm"}}[call]
    assert set(dtypes) == expected
    assert all(d == {np.dtype(np.float64)} for d in dtypes.values()), dtypes


def _vec(blocks):
    """Column-major (aa, ba, ab, bb) vector of (r_max, 2, 2) blocks."""
    return blocks.transpose(0, 2, 1).reshape(-1)


def _complex_oracle(spec):
    """The vec-order L and trace functional, and the steady state,
    projector P and reduced resolvent R0 from complex LU solves of L with
    row 0 replaced by the trace functional."""
    m = vec_generator(spec)
    theta = np.tile([1.0, 0.0, 0.0, 1.0], spec.r_max)
    a = m.copy()
    a[0] = theta
    e0 = np.zeros(m.shape[0], dtype=complex)
    e0[0] = 1.0
    rho = la.solve(a, e0)
    proj = np.outer(rho, theta)
    b = proj - np.eye(m.shape[0])
    b[0] = 0.0
    return m, theta, rho, proj, la.solve(a, b)


def _mandel(j, theta, rho, proj, r0, x0):
    """Q_st = A/b - 4a of the Laurent expansion from the initial state x0."""
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
    m, theta, rho, proj, r0 = _complex_oracle(spec)
    p = fs.prepare(spec)
    rho_blocks = rho.reshape(-1, 2, 2).transpose(0, 2, 1)
    assert _close(p.steady.blocks, rho_blocks)

    j = np.kron(np.diag(spec.gamma) + spec.gamma_cross,
                np.kron(SIGMA.conj(), SIGMA))
    q_st = fs.stationary_mandel(p)
    assert _close(q_st, _mandel(j, theta, rho, proj, r0, rho))
    # the limit forgets the initial state, even a non-Hermitian one of trace 1
    init = random_block_state(rng, r_max)
    init = fs.BlockState(init.blocks / init.total_trace())
    assert _close(q_st, _mandel(j, theta, rho, proj, r0, _vec(init.blocks)))

    tau = np.linspace(0.0, 6.0, 5)
    sq = np.sqrt(spec.effective_decays())
    seed = _vec(sq[:, None, None] * (rho_blocks @ SIGMA_DAG))
    w = np.zeros(4 * r_max)
    w[1::4] = sq                                          # sqrt(gt) x_ba
    c1 = [w @ la.expm(t * m) @ seed for t in tau]
    assert _close(fs.c1(p, tau).values, c1)
    c2 = np.real([theta @ j @ la.expm(t * m) @ (j @ rho) for t in tau])
    assert _close(fs.c2(p, tau).values, c2)
    assert _close(fs.g2(p, tau).values, c2 / np.real(theta @ j @ rho) ** 2)

    omega = np.array([-7.5, -1.3, 0.4, 2.9])
    v_dec = seed - rho * (theta @ seed)
    eye = np.eye(m.shape[0])
    s_inc = [2.0 * np.real(w @ la.solve(-1j * om * eye - m, v_dec)) for om in omega]
    assert _close(fs.incoherent_spectrum(p, omega).values, s_inc)
