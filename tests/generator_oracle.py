"""Representations of the block generator, kept to cross-check the dense
assembly of ``fluorospec.build_generator``: the same sum of Kronecker
products formed with ``np.kron``, both in the column-major vec order
(aa, ba, ab, bb) of each block and in the real coordinates
(aa, bb, Re ba, Im ba) of the package; the generator applied term by term
to the 2x2 blocks; and the generalized optical Bloch equations of the
counting-field-dressed generator."""
import numpy as np

from fluorospec.model import (SIGMA, SIGMA_DAG, BlockState, ModelSpec, SuperOp,
                              _anticommutator, _commutator, _H_DETUNING, _H_DRIVE,
                              _sandwich, require_valid)

# T per block, rows e_aa, e_bb, (e_ba + e_ab)/2, -i(e_ba - e_ab)/2 in the
# vec order (aa, ba, ab, bb); T^-1 columns e_aa, e_bb, e_ba + e_ab, i(e_ba - e_ab)
T = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0.5, 0.5, 0], [0, -0.5j, 0.5j, 0]])
T_INV = np.array([[1, 0, 0, 0], [0, 0, 1, 1j], [0, 0, 1, -1j], [0, 1, 0, 0]])


def to_real_coordinates(s: np.ndarray) -> np.ndarray:
    """T s T^-1 of a 4x4 superoperator s in vec order; its imaginary part
    must vanish."""
    out = T @ s @ T_INV
    assert not out.imag.any()
    return out.real


def _kron_sum(spec: ModelSpec, term) -> np.ndarray:
    """build_generator's sum of kron(table, term(S)) terms over the 4x4
    superoperators S in vec order, in the same order, every one formed by
    np.kron (the detection gains included)."""
    require_valid(spec)
    phi = spec.rates.phi
    m = (np.kron(np.diag(spec.detuning - spec.delta_omegas()),
                 term(_commutator(_H_DETUNING)))
         + np.kron(np.diag(spec.omega_rabis()), term(_commutator(_H_DRIVE)))
         - np.kron(np.diag(spec.effective_decays()),
                   term(_anticommutator(SIGMA_DAG @ SIGMA / 2)))
         + np.kron(np.diag(spec.gammas()) + spec.rates.gamma_cross,
                   term(_sandwich(SIGMA)))
         + np.kron(phi - np.diag(phi.sum(axis=0)), term(np.eye(4))))
    for ch in spec.extra_channels:
        op = ch.operator_kind.matrix()
        m += (np.kron(ch.eta, term(_sandwich(op)))
              - np.kron(np.diag(ch.eta.sum(axis=0)),
                        term(_anticommutator(op.conj().T @ op) / 2)))
    return m


def vec_generator(spec: ModelSpec) -> np.ndarray:
    """The complex generator on block states vectorized in vec order."""
    return _kron_sum(spec, lambda s: s)


def kron_generator(spec: ModelSpec) -> SuperOp:
    """The generator in real coordinates, with every term mapped to
    T S T^-1 before np.kron: the products and the order of build_generator."""
    return SuperOp(_kron_sum(spec, to_real_coordinates))


def block_hamiltonians(spec: ModelSpec) -> np.ndarray:
    """Rotating-frame Hamiltonians H_R, shape (r_max, 2, 2).

    H_R = -(delta_R/2) sigma_z + (Omega_R/2)(sigma + sigma†) with
    delta_R = detuning - delta_omega[R] and sigma_z = |b><b| - |a><a|.
    """
    deltas = spec.detuning - spec.delta_omegas()
    omegas = spec.omega_rabis()
    h = np.zeros((spec.r_max, 2, 2), dtype=complex)
    h[:, 0, 0] = 0.5 * deltas
    h[:, 1, 1] = -0.5 * deltas
    h[:, 0, 1] = 0.5 * omegas
    h[:, 1, 0] = 0.5 * omegas
    return h


def apply_generator(spec: ModelSpec, x: BlockState) -> BlockState:
    """Matrix-free generator application: the physics of build_generator
    evaluated term by term on the 2x2 blocks, kept as the independent
    cross-check of the dense assembly."""
    require_valid(spec)
    if x.r_max != spec.r_max:
        raise ValueError(f"state has {x.r_max} blocks, spec has {spec.r_max}")
    blocks = x.blocks
    ham = block_hamiltonians(spec)
    gtilde = spec.effective_decays()
    phi = spec.rates.phi
    out = -1j * (ham @ blocks - blocks @ ham)
    # radiative dissipator: anticommutator with sigma†sigma/2 = diag(0, 1/2)
    out[:, 0, 1] -= 0.5 * gtilde * blocks[:, 0, 1]
    out[:, 1, 0] -= 0.5 * gtilde * blocks[:, 1, 0]
    out[:, 1, 1] -= gtilde * blocks[:, 1, 1]
    bb = blocks[:, 1, 1]
    out[:, 0, 0] += spec.gammas() * bb + spec.rates.gamma_cross @ bb
    # system-independent mixing
    out += np.einsum("rs,sij->rij", phi, blocks)
    out -= phi.sum(axis=0)[:, None, None] * blocks
    for ch in spec.extra_channels:
        a = ch.operator_kind.matrix()
        ada = a.conj().T @ a
        loss = 0.5 * ch.eta.sum(axis=0)
        out -= loss[:, None, None] * (ada @ blocks + blocks @ ada)
        out += np.einsum("rs,sij->rij", ch.eta, a @ blocks @ a.conj().T)
    return BlockState(out)


def optical_bloch_rhs(spec: ModelSpec, s: float, state):
    """Right-hand side of the generalized optical Bloch equations.

    state is a 4-tuple of length-r_max arrays (U, V, W, Y): the rotating-
    frame coherence quadratures, half population inversion and half trace
    of each conditional generating-operator block. Provided as an
    independent representation for cross-validating the counting split.
    Specs with extra (eta) channels are rejected: this representation does
    not include them.
    """
    require_valid(spec)
    if spec.extra_channels:
        raise ValueError("optical Bloch form does not cover extra jump channels")
    u, v, w, y = (np.asarray(c, dtype=complex) for c in state)
    r = spec.r_max
    if not (u.shape == v.shape == w.shape == y.shape == (r,)):
        raise ValueError(f"state components must all have shape ({r},)")
    deltas = spec.detuning - spec.delta_omegas()
    omegas = spec.omega_rabis()
    gammas = spec.gammas()
    gtilde = spec.effective_decays()
    phi = spec.rates.phi
    gcross = spec.rates.gamma_cross
    phi_loss = phi.sum(axis=0)
    wy = w + y
    du = deltas * v - (0.5 * gtilde + phi_loss) * u + phi @ u
    dv = -deltas * u - omegas * w - (0.5 * gtilde + phi_loss) * v + phi @ v
    dw = (omegas * v - 0.5 * (gtilde + s * gammas) * wy - 0.5 * s * (gcross @ wy)
          - phi_loss * w + phi @ w)
    dy = (-0.5 * (gtilde - s * gammas) * wy + 0.5 * s * (gcross @ wy)
          - phi_loss * y + phi @ y)
    return du, dv, dw, dy
