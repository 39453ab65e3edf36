"""Linear-algebra kernels on the block generator.

Steady state, trace-free resolvent solves, and the dense Laurent
decomposition (steady projector + reduced resolvent). The stationary
counting moments do not form the dense reduced resolvent: they apply it to
one or two vectors by deflated solves (``counting.stationary_mandel``),
and ``laurent_decomposition`` is their dense cross-check.

Everything is dense: dimensions are 4*r_max with r_max expected well below
a few hundred, so LU/SVD exactness beats any iterative machinery.

Deflated solves (steady state, trace-free resolvent, reduced resolvent)
replace the fixed row 0 of the system, the aa entry of block 0, by the
trace functional theta. This is safe for every generator of this package:
theta is its left null vector (theta L = 0, trace preservation), so row 0
is minus the sum of the other aa and bb rows and dropping it loses no
equation; and with nullity 1 (certified by an SVD) theta is nonzero on the
null vector, so the bordered matrix is nonsingular. All nonzero entries of
theta equal 1, so no aa or bb row is better conditioned to sacrifice than
another and no row search is needed.
"""
from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .model import (BlockState, ModelSpec, SuperOp, build_generator,
                    detection_jump, trace_functional)


class NullSpaceDegenerate(Exception):
    """Generator nullity != 1 (disconnected configurational space)."""


class SingularShift(Exception):
    """Resolvent shift u is (numerically) on the spectrum of the generator."""


@dataclass(frozen=True, eq=False)
class SteadyDecomposition:
    """Steady state, its spectral projector P = |steady><trace|, and the
    reduced resolvent R0 with R0 L = L R0 = P - Id, R0 P = P R0 = 0,
    normalized so that (u - L)^-1 = P/u + R0 + O(u)."""

    steady: BlockState
    projector: SuperOp
    reduced_resolvent: SuperOp


@dataclass(frozen=True, eq=False)
class Prepared:
    """A spec with its generator L and detection jump J, built once, and its
    steady state, solved on first use; every observable accepts one."""

    spec: ModelSpec
    generator: SuperOp
    jump: np.ndarray

    @functools.cached_property
    def steady(self) -> BlockState:
        return steady_state(self.generator)


def prepare(model: ModelSpec | Prepared) -> Prepared:
    """The Prepared form of a model; a Prepared is returned unchanged."""
    if isinstance(model, Prepared):
        return model
    return Prepared(model, build_generator(model), detection_jump(model))


def _trace_row(a: np.ndarray, r_max: int) -> np.ndarray:
    """Copy of a with its row 0 replaced by the trace functional."""
    out = a.copy()
    out[0, :] = trace_functional(r_max)
    return out


def _check_nullity(m: np.ndarray) -> None:
    svals = la.svdvals(m)
    tol = m.shape[0] * np.finfo(float).eps * la.norm(m, "fro")
    nullity = int(np.sum(svals < tol))
    if nullity != 1:
        raise NullSpaceDegenerate(
            f"generator nullity is {nullity}, expected 1 "
            "(disconnected configurational space?)")


def steady_state(generator: SuperOp) -> BlockState:
    """Unique trace-1 null state of the generator.

    Solved with row 0 of L replaced by the trace functional and right-hand
    side e_0, i.e. L x = 0 with Tr x = 1 (see the module docstring for why
    the fixed row is safe); an SVD certifies nullity 1.
    """
    m = generator.matrix
    _check_nullity(m)
    b = np.zeros(generator.dim, dtype=complex)
    b[0] = 1.0
    x = la.solve(_trace_row(m, generator.r_max), b)
    st = BlockState.from_vector(x)
    blocks = 0.5 * (st.blocks + st.blocks.conj().transpose(0, 2, 1))
    blocks = blocks / np.real(blocks[:, 0, 0].sum() + blocks[:, 1, 1].sum())
    eigmin = min(la.eigvalsh(blk).min() for blk in blocks)
    if eigmin < -1e-10:
        raise ValueError(
            f"steady-state block eigenvalue {eigmin:.3e} < -1e-10; "
            "model or assembly bug")
    return BlockState(blocks)


def resolve_deflated(generator: SuperOp, u: complex, v: BlockState) -> BlockState:
    """Resolvent solve restricted to the trace-zero complement.

    Valid only for trace-free right-hand sides; pins the trace of the
    solution to zero, which also regularizes u = 0 (the steady pole) where
    the plain resolvent is singular but the complement solve is not. Row 0
    of (u - L) becomes the trace functional: for trace-free v that row's
    equation follows from the others, since theta (u - L) = u theta. The
    residual is checked against the full, undeflated system.
    """
    rhs = v.to_vector()
    if rhs.size != generator.dim:
        raise ValueError(f"state dim {rhs.size} != generator dim {generator.dim}")
    a = u * np.eye(generator.dim) - generator.matrix
    rhs_defl = rhs.copy()
    rhs_defl[0] = 0.0
    x = _checked_solve(_trace_row(a, generator.r_max), a, rhs, u,
                       rhs_defl=rhs_defl)
    return BlockState.from_vector(x)


def _checked_solve(a_solve, a_resid, rhs, u, rhs_defl=None):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", la.LinAlgWarning)
            lu, piv = la.lu_factor(a_solve)
            x = la.lu_solve((lu, piv), rhs if rhs_defl is None else rhs_defl)
    except la.LinAlgError as exc:
        raise SingularShift(f"factorization failed at u={u}") from exc
    if not np.all(np.isfinite(x)):
        raise SingularShift(f"resolvent solve diverged at u={u}")
    resid = la.norm(a_resid @ x - rhs)
    if resid > 1e-10 * max(la.norm(rhs), 1e-300):
        raise SingularShift(
            f"residual {resid:.3e} exceeds tolerance at u={u} "
            "(shift too close to the spectrum)")
    return x


def laurent_decomposition(model: ModelSpec | Prepared) -> SteadyDecomposition:
    """Steady state plus projector P and reduced resolvent R0 of a ModelSpec
    or Prepared, reusing the Prepared's steady state.

    R0 is obtained from the deflated solve L X = P - Id with the trace of
    every column pinned to zero, which lands exactly on the reduced
    resolvent (the trace functional is the only left null vector)."""
    prepared = prepare(model)
    st, generator = prepared.steady, prepared.generator
    m = generator.matrix
    dim = generator.dim
    theta = trace_functional(generator.r_max)
    p = np.outer(st.to_vector(), theta)
    a = _trace_row(m, generator.r_max)
    b = p - np.eye(dim)
    b[0, :] = 0.0
    lu, piv = la.lu_factor(a)
    r0 = la.lu_solve((lu, piv), b)
    r0 += la.lu_solve((lu, piv), b - a @ r0)   # one refinement step
    # achievable accuracy for a backward-stable solve is eps*|L|*|R0|,
    # which dominates 1e-9 for stiff models (|R0| ~ 1/slowest rate)
    scale = max(1.0, la.norm(m, 2) * la.norm(r0, 2))
    defect = max(
        la.norm(r0 @ m - (p - np.eye(dim)), 2),
        la.norm(m @ r0 - (p - np.eye(dim)), 2),
        la.norm(r0 @ p, 2),
        la.norm(p @ r0, 2),
    )
    if defect > 1e-9 * scale:
        raise NullSpaceDegenerate(
            f"reduced resolvent defect {defect:.3e} exceeds 1e-9*|L||R0|; "
            "steady decomposition unreliable")
    return SteadyDecomposition(steady=st, projector=SuperOp(p),
                               reduced_resolvent=SuperOp(r0))


def config_populations(x: BlockState) -> np.ndarray:
    """P_R = Tr rho_R (real part; physical states sum to 1)."""
    return np.real(x.blocks[:, 0, 0] + x.blocks[:, 1, 1])
