"""Linear-algebra kernels on the block generator.

Every solve of a model is one bordered solve, ``_bordered_solve``: the
steady state (L x = 0, Tr x = 1), the spectrum's trace-free resolvent
((u - L) x = v, Tr x = 0) and the reduced resolvent of the stationary
counting moments (L x = (P - Id) v, Tr x = 0). Each factors its own
bordered matrix; no factorization is kept between solves. The dense
Laurent decomposition (steady projector + reduced resolvent) is their
cross-check.

Everything is dense: dimensions are 4*r_max with r_max expected well below
a few hundred, so LU/SVD exactness beats any iterative machinery. The
kernels are numpy's: ``numpy.linalg.solve`` (LAPACK gesv, one LU) for the
bordered solves and ``numpy.linalg.svd`` (gesdd, singular values only) for
the nullity check. scipy.linalg, which takes longer to import than numpy
itself, is imported only where a matrix exponential is needed and by the
Laurent cross-check.

The steady state and the reduced resolvent are factorized in real
arithmetic, on the real form L_T = T L T^-1 of the generator in the
coordinates (aa, bb, Re ba, Im ba) per block (see ``model``); right-hand
sides map into these coordinates and solutions map back without rounding,
complex ones with complex coordinates. The resolvent at a complex shift u stays in
the (aa, ba, ab, bb) basis.

The bordered solve replaces row 0 of a, the aa entry of block 0 in both
bases, by the trace functional theta and takes one LU for all right-hand
sides; on the real form a complex right-hand side is solved as its real
and imaginary columns, so that the LU stays real. Dropping that row loses
no equation: theta a = c theta (c = 0 for a = L, trace preservation;
c = u for a = u - L) and theta rhs = c Tr x, so row 0's equation is minus
the sum of the other aa and bb rows'. With nullity 1 theta is nonzero on
the null vector of L, so the bordered matrix is nonsingular. All nonzero
entries of theta equal 1, so no row is better conditioned to sacrifice
and no row search is needed. Each solution is certified by its normwise
backward error on the system actually factored, [a; theta] undeflated,
the ratio LAPACK's tests check (xGET02). Nullity 1 is certified by the
singular values of D L_T D^-1, D = diag(1, 1, sqrt 2, sqrt 2) per block:
D T is unitary, so these are the singular values of L.
"""
from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from .model import (BlockState, ModelSpec, SuperOp, build_generator,
                    detection_jump, from_real, real_form, real_trace_functional,
                    shift_detuning, trace_functional)


class NullSpaceDegenerate(Exception):
    """Generator nullity != 1 (disconnected configurational space)."""


class SingularShift(ArithmeticError):
    """A bordered solve is singular to working precision: its solution is
    not finite or fails the backward-error check. A resolvent shift u near
    the spectrum gives a large, accurate solution, not this error."""


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
    steady state, solved on first use; every observable accepts one. No
    factorization is kept: each solve on it factors its own bordered
    matrix by ``numpy.linalg.solve``."""

    spec: ModelSpec
    generator: SuperOp
    jump: np.ndarray

    @functools.cached_property
    def steady(self) -> BlockState:
        return steady_state(self.generator)

    def at_detuning(self, detuning: float) -> Prepared:
        """The same model at laser detuning ``detuning``, from L shifted by
        detuning - spec.detuning (``model.shift_detuning``), neither rebuilt
        nor validated again; J does not depend on the detuning and is
        shared, and the steady state is solved anew on first use. From a
        spec at detuning 0 the result equals ``prepare`` of the spec at
        ``detuning`` bit for bit. ValueError when the shift is not finite.
        """
        return Prepared(dataclasses.replace(self.spec, detuning=detuning),
                        shift_detuning(self.generator, detuning - self.spec.detuning),
                        self.jump)


def prepare(model: ModelSpec | Prepared) -> Prepared:
    """The Prepared form of a model; a Prepared is returned unchanged."""
    if isinstance(model, Prepared):
        return model
    return Prepared(model, build_generator(model), detection_jump(model))


def _trace_row(a: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Copy of a with its row 0 replaced by the trace functional theta."""
    out = a.copy()
    out[0, :] = theta
    return out


def _check_nullity(real: np.ndarray) -> None:
    """Nullity 1 of L from the singular values of D L_T D^-1 (the module
    docstring), with the tolerance dim * eps * |L|_F."""
    d = np.tile([1.0, 1.0, np.sqrt(2.0), np.sqrt(2.0)], real.shape[0] // 4)
    m = d[:, None] * real / d
    svals = np.linalg.svd(m, compute_uv=False)
    # |M|_F = s |M/s|_F with s = max|M|, so that entries above 1e154 do not
    # overflow the tolerance to inf; M = 0 has |M|_F = 0
    s = np.abs(m).max()
    tol = m.shape[0] * np.finfo(float).eps * (s * np.linalg.norm(m / s) if s else 0.0)
    # a singular value at the tolerance counts as zero (the convention of
    # numpy's matrix_rank), so that L = 0 has full nullity, not nullity 0
    nullity = int(np.sum(svals <= tol))
    if nullity != 1:
        raise NullSpaceDegenerate(
            f"generator nullity is {nullity}, expected 1 "
            "(disconnected configurational space?)")


def steady_state(generator: SuperOp) -> BlockState:
    """Unique trace-1 null state of the generator.

    The bordered solve L x = 0 with Tr x = 1 on the real form (see the
    module docstring for why the fixed row is safe), so the blocks are
    exactly Hermitian; an SVD certifies nullity 1.
    """
    real = real_form(generator)
    _check_nullity(real)
    theta = real_trace_functional(generator.r_max)
    y = _bordered_solve(real, np.zeros(generator.dim), 1.0, theta)
    st = BlockState.from_vector(from_real(y / (theta @ y)))
    eigmin = np.linalg.eigvalsh(st.blocks).min()
    if eigmin < -1e-10:
        raise ValueError(
            f"steady-state block eigenvalue {eigmin:.3e} < -1e-10; "
            "model or assembly bug")
    return st


def resolve_deflated(generator: SuperOp, u: complex, v: BlockState) -> BlockState:
    """Resolvent solve restricted to the trace-zero complement.

    Valid only for trace-free right-hand sides: the bordered solve
    (u - L) x = v with Tr x = 0, which also regularizes u = 0 (the steady
    pole) where the plain resolvent is singular but the complement solve
    is not.
    """
    rhs = v.to_vector()
    if rhs.size != generator.dim:
        raise ValueError(f"state dim {rhs.size} != generator dim {generator.dim}")
    a = u * np.eye(generator.dim) - generator.matrix
    return BlockState.from_vector(
        _bordered_solve(a, rhs, 0.0, trace_functional(generator.r_max)))


# Bound on |b - A x|_1 / ((|A|_1 |x|_1 + |b|_1) dim eps) for a bordered
# solve: LAPACK's test suite accepts an LU solve when |b - A x|_1 /
# (|A|_1 |x|_1 n eps) < 30 (xGET02); |b|_1 <= |A|_1 |x|_1 up to rounding,
# so the extra term changes the ratio by at most a factor 2.
_BACKWARD_ERROR_FACTOR = 30.0


def _bordered_solve(a: np.ndarray, rhs: np.ndarray, trace: complex,
                    theta: np.ndarray) -> np.ndarray:
    """The columns x with a x = rhs and theta x = trace, by one LU of a with
    row 0 replaced by theta, the trace functional in the coordinates of a
    (see the module docstring). Each column's 1-norm backward error on
    [a; theta] x = [rhs; trace] must stay below
    _BACKWARD_ERROR_FACTOR * dim * eps; SingularShift if it does not, or if
    the LU meets an exactly zero pivot."""
    dim = a.shape[0]
    b = rhs.copy()
    b[0] = trace
    bordered = _trace_row(a, theta)
    try:
        if np.iscomplexobj(b) and not np.iscomplexobj(a):
            cols = b.reshape(dim, -1)
            k = cols.shape[1]
            y = np.linalg.solve(bordered, np.hstack([cols.real, cols.imag]))
            x = (y[:, :k] + 1j * y[:, k:]).reshape(b.shape)
        else:
            x = np.linalg.solve(bordered, b)
    except np.linalg.LinAlgError as exc:   # a zero pivot, or NaN in the LU
        raise SingularShift(f"bordered solve failed: {exc}") from None
    if not np.all(np.isfinite(x)):
        raise SingularShift("bordered solve diverged: backward error not finite")
    resid = np.abs(a @ x - rhs).sum(axis=0) + np.abs(theta @ x - trace)
    norm_a = (np.abs(a).sum(axis=0) + theta).max()
    backward = resid / (norm_a * np.abs(x).sum(axis=0)
                        + np.abs(rhs).sum(axis=0) + abs(trace))
    bound = _BACKWARD_ERROR_FACTOR * dim * np.finfo(float).eps
    if not np.all(backward <= bound):
        raise SingularShift(
            f"bordered solve backward error {np.max(backward):.3e} exceeds "
            f"{bound:.3e} (dim {dim})")
    return x


def laurent_decomposition(model: ModelSpec | Prepared) -> SteadyDecomposition:
    """Steady state plus projector P and reduced resolvent R0 of a ModelSpec
    or Prepared, reusing the Prepared's steady state.

    R0 is obtained from the deflated solve L X = P - Id with the trace of
    every column pinned to zero, which lands exactly on the reduced
    resolvent (the trace functional is the only left null vector)."""
    import scipy.linalg as la

    prepared = prepare(model)
    st, generator = prepared.steady, prepared.generator
    m = generator.matrix
    dim = generator.dim
    theta = trace_functional(generator.r_max)
    p = np.outer(st.to_vector(), theta)
    a = _trace_row(m, theta)
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
