"""Linear-algebra kernels on the block generator.

The steady state (L x = 0, Tr x = 1) and the reduced resolvent of the
stationary counting moments (L x = (P - Id) v, Tr x = 0) are solved by
elimination onto the r_max-state configurational chain, with the dense
bordered solve, ``resolve_deflated``, as the fallback where the
elimination is not certified; the spectrum's trace-free resolvent
((u - L) x = v, Tr x = 0) from one shift-invert Krylov basis for all its
shifts (``resolve_krylov``), with the bordered solve for each shift that
basis leaves. The elimination (``eliminate``) is an ``Elimination``
record that lives only inside the call that makes it. Every right-hand
side is solved against it by ``Elimination.resolve``: the steady state
is rhs = 0 with trace 1 and takes no second LU of the fast block, and
Q_st solves both the steady state and its own column against one record,
the column with one more LU of the fast block. The dense Laurent
decomposition (steady projector + reduced resolvent) is their
cross-check.

Everything is dense: dimensions are 4*r_max with r_max expected well below
a few hundred. The kernels are numpy's: ``numpy.linalg.solve`` (LAPACK
gesv, one LU) and ``numpy.linalg.svd`` (gesdd, singular values only).
The matrix exponential of every propagation, ``expm``, is built on them
too, and takes a leading stack axis like the elimination kernels; its
squaring count (``_squarings``) also sets the bound of the stepping's
trace check in ``correl``.

Elimination. On the generator L, real in the coordinates (aa, bb, Re ba,
Im ba) per block (see ``model``), one more exact per-block change of
coordinates, aa -> t = aa + bb, gives Z: add each bb row to its aa row
and subtract each aa column from its bb column. The trace functional
reads 1 on every t and 0 elsewhere, so theta L = 0 says that the columns
of the t rows of Z sum to zero. With t the r_max trace coordinates and f
the 3 r_max others, one LU of the fast block Z_ff gives X = Z_ff^-1 Z_ft
(r_max columns) and so the r_max x r_max stochastic complement S = Z_tt -
Z_tf X (Meyer, SIAM Rev. 31, 240 (1989)), the generator of the slow hops
between configurations. 1^T S = 0 exactly, so the diagonal of S is reset
to minus its off-diagonal column sums (as in Grassmann, Taksar & Heyman,
Oper. Res. 33, 1107 (1985)); that drops the rounding of the fast decay
rates, which the dense path carried as an error eps |L| / (slow rate).
For a right-hand side c in these coordinates the t part of the solution
solves S x_t = c_t - Z_tf w, w = Z_ff^-1 c_f, with sum x_t = Tr x, as a
bordered solve of S (row 0 replaced by ones, which drops no equation
since 1^T S = 0), and back-substitution gives x_f = w - X x_t. w is one
more stacked solve with Z_ff, certified by its backward error as the
LU's X is (a solve is backward stable; a product with an inverse is
not); for the steady state (c = 0) it is exactly 0 and takes no solve.
S is scaled by a power of two before
it is factored, so tiny slow rates neither lose bits nor draw warnings.
Where S is nonnegative off its diagonal it generates a Markov chain,
whose stationary vector is well conditioned in the off-diagonal rates:
the populations then carry the error of those rates, not
eps / (slow rate), as long as every block relaxes fast (Z_ff well
conditioned) and no rate is the difference of much larger fluxes. The
rates are then as accurate as the excited populations X that the fast
solve gives per unit trace, which is backward stable but not
componentwise accurate (5e-10 relative on a far-detuned block damped only
at 0.13). A rate that cancels more than half its digits stops the
elimination (``_CANCELLATION``). Coherent coupling can make off-diagonal
entries of S slightly negative; for such S no accuracy is claimed beyond
the backward errors below.

Stacks. The elimination kernels take a leading stack axis: the
generators of a detuning sweep's points, (n, 4 r_max, 4 r_max), are
solved in one pass of stacked numpy calls, and a single model is a stack
of one on the same path. Stacked ``numpy.linalg.solve``, ``svd`` and
``eigvalsh`` and stacked matmul give each matrix the result of a call on
it alone, and every reduction runs within a point, so no point's result
depends on the other points of its stack. Every certificate below is made
per point. A point that fails one is reported with the exception of its
first failed check, goes on through the stacked arithmetic with the
others (its overflows and NaNs silenced), and then takes the dense
fallback alone, in stack order (``Elimination.dense``); the first point
whose fallback fails raises what it raises alone.

Certificates. Each solve with Z_ff (X, and w) and every solution of the
full system are checked by their normwise backward error, the ratio
LAPACK's tests check (xGET02). The full system is [u - L; theta] x =
[rhs; trace] at a shift u, L y = rhs taken as (0 - L) y = -rhs, with the
same backward error (|-L| = |L|). Its one check, the bordered check
(``_bordered_residual``), gives each column's residual 1-norm over every
row of u - L, row 0 included, and the border theta, and its scale
|[u - L; theta]|_1 |x|_1 + |[rhs; trace]|_1. A solve passes within
_BACKWARD_ERROR_FACTOR dim eps of the scale (``_backward_failures``), a
Krylov column below only within dim eps. The data term |rhs|_1 gives
way to |f|_1 where rhs is known only within eps times a bound f >= |rhs|:
|r|_1 / (|A|_1 |x|_1 + |f|_1) is the least eps such that (A + dA) x =
b + db with |dA|_1 <= eps |A|_1 and |db|_1 <= eps |f|_1 (Rigal & Gaches,
J. ACM 14, 543 (1967)). Q_st's right-hand side I_st rho - J rho, with
I_st = theta J rho, is formed in floating point, so each entry carries a
rounding of up to a few eps (I_st |rho| + |J rho|), and its trace, 0 in
exact arithmetic, one of that size, which no x can absorb: theta L = 0,
so the residual's trace is theta rhs whatever x is. Where the drive is
weak the two terms cancel, |rhs|_1 << I_st |rho|_1 + |J rho|_1, and that
rounding alone failed the check. So Q_st's column takes f = I_st |rho| +
|J rho|, on the elimination and on the dense path alike: a residual of
the size of the data's own rounding says no more than the data did.
Nullity 1 of
L rests on rank L = rank Z_ff + rank S, which holds when Z_ff is
nonsingular. The elimination shows that Z_ff is nonsingular to working
precision by the log-norm screen below, or where the screen fails from
the norm of Z_ff^-1 (``_require_nonsingular``), and counts the nullity
of S by the singular values of the scaled r_max x r_max S against a
bound on the error of the computed S (``_chain_nullity``). A point that
the failure record of the elimination
or of a resolve against it names (a fast block singular to working
precision, such as one that traps its excited population, a slow rate
lost to cancellation, a failed backward error), or for the steady state
a negative block eigenvalue, takes the dense path: ``_check_nullity``
(singular values of the whole 4 r_max x 4 r_max L) names the nullity of
L, and with nullity 1 the bordered solve on the whole L takes over. Q_st's
column takes that solve alone: the steady state named the nullity.

Screen. "Nonsingular to working precision" means sigma_min(D Z_ff) >
dim eps |D Z_ff|_F, D scaling each row of Z_ff to max 1. Let A_IJ be the
3 x 3 blocks of Z_ff, rows of configuration I and columns of J, in the
coordinates (bb, Re ba, Im ba), and |v| = sum_J |v_J|_2. Since
|A_JJ u|_2 |u|_2 >= -u^T A_JJ u >= -lambda_max(sym A_JJ) |u|_2^2,
|Z_ff v| = sum_I |sum_J A_IJ v_J|_2 >= sum_J |v_J|_2 (-lambda_max(sym
A_JJ) - sum_{I != J} |A_IJ|_2) >= -mu |v|, with mu = max_J
[lambda_max(sym A_JJ) + sum_{I != J} |A_IJ|_2], the bound on the
logarithmic norm of Z_ff in this norm (Strom, SIAM J. Numer. Anal. 12,
741 (1975); Soderlind, BIT 46, 631 (2006)). lambda_max is bounded by
Gershgorin's row sums a_ii + sum_{k != i} |(a_ik + a_ki)/2|, and
|A_IJ|_2 by sqrt(|A_IJ|_1 |A_IJ|_inf). With |v|_2 <= |v| <= sqrt(r_max)
|v|_2, and D shrinking no vector by more than 1/max|Z_ff|, mu < 0 gives
sigma_min(D Z_ff) >= -mu / (sqrt(r_max) max|Z_ff|). No entry of D Z_ff
exceeds 1, so |D Z_ff|_F <= dim = 3 r_max, and the screen
(``_log_norm_screen``) passes a point when -mu exceeds sqrt(r_max)
max|Z_ff| dim^2 eps plus 3 r_max (r_max + 5) eps max|Z_ff|, a bound on
the rounding of the computed mu: each mu_J is at most r_max + 4 rounded
operations deep, so its error is at most gamma_{r_max+4} < (r_max + 5)
eps / 2 times the same sums taken in modulus, at most 3 max|Z_ff| for
the Gershgorin row and 3 (r_max - 1) max|Z_ff| for the off-diagonal
blocks; the factor 2 over gamma covers the rounding of the bound itself.
After the t = aa + bb fold the drive and detuning terms of each A_JJ are
antisymmetric, and a hop's loss from J equals the sum of its gains into
the other I, so on the paper's models mu = -min_J gammat_J / 2, half the
least effective decay rate, and every point passes. The screen leaves
undamped or dark configurations (mu >= 0), eta channels, whose hops mix
populations and coherences, and Rabi frequencies so large that the
bound falls below the tolerance. Only those points form their own
Z_ff^-1 and take its check, 1/|Z_ff^-1 D^-1|_F > dim eps |D Z_ff|_F:
one more LU of the fast block per point.

The dense bordered solve, ``resolve_deflated``, gives the x with
(u - L) x = rhs and Tr x = trace at each shift u of a 1-d array, on vectors
in the coordinates of ``BlockState.to_vector``. Its callers are the
spectrum, at u = -i omega with trace 0, and the dense fallback at u = 0
(``Elimination.dense``): the steady state (rhs = 0, trace 1) and Q_st. One
workspace of the dtype of L, the shifts and rhs (real for the fallbacks,
complex for the spectrum) holds -L with row 0, the aa entry of block 0,
replaced by theta; each shift refills only its diagonal, u - L_jj, and
takes one LU for all right-hand sides. Dropping that row loses no
equation: theta (u - L) = u theta and theta rhs = u Tr x, so row 0's
equation is minus the sum of the other aa and bb rows'; all nonzero
entries of theta equal 1, so no row search is needed. A zero pivot ends
the loop of LUs; the shifts solved take the bordered check in one
stacked call, and the first failing shift in order raises. L and theta
are real, so the bordered matrix at conj(u) is the complex conjugate of
the one at u; every rounding is symmetric under conjugation, so its LU is
the conjugate one, with the same pivots: x at conj(u) is conj(y), y the
solve at u with the right-hand side conj(rhs), with the backward error
the solve at conj(u) would have. The spectrum pairs each frequency with
its negation that way.

Krylov. ``resolve_krylov`` takes the spectrum's columns, (u - L) x = v
with Tr x = 0 for the trace-free seed v at every u = -i omega of a grid,
from one Arnoldi basis of A = B_0^-1, B_0 the bordered matrix above at
u = 0, inverted once (``numpy.linalg.inv``). On a trace-free z, A z is
B_0^-1 of z with z_0 replaced by 0: theta A z = 0, rows 1.. of -L A z are
z's, and row 0 follows from theta L = 0, so -L A = I there. The bordering
regularizes the steady pole u = 0, so the shift needs no tuning.

Arnoldi. One driver, ``_arnoldi``, builds this basis and the tau basis of
``correl``, of a real A that acts on the trailing coordinates of a vector
(here rows 1.., the columns of B_0^-1 past the first). Each step takes one
product of A with the real view of v_k, its real and imaginary parts at
once, and orthogonalizes w = A v_k against v_1 .. v_k by classical
Gram-Schmidt, twice. That gives A V_m = V_m H_m + h_{m+1,m} v_{m+1}
e_m^T with v_1 = v / beta (van den Eshof & Hochbruck, SIAM J. Sci.
Comput. 27, 1438 (2006); Guettel, GAMM-Mitt. 36, 8 (2013)). The subspace
is invariant, and the process ends, once the basis spans all that A
reaches (dim - 1 vectors here, the whole trace-free space) or at a
breakdown: w lost to rounding against |A v_k|_2^2 = |h_{1..k,k}|_2^2 +
h_{k+1,k}^2. Its caller reads the basis only at a checkpoint: every
_KRYLOV_STEP vectors, at the cap the caller sets, and at an invariant
subspace; each caller keeps its own budget and acceptance.

For each u, y solves (I + u H_m) y = beta e_1 and x = V_m H_m y; in exact
arithmetic its residual is (u - L) x - v = h_{m+1,m} y_m L v_{m+1}, whose
1-norm costs O(1) per shift once L v_{m+1} is made. H_m is Hessenberg, so
y_m = beta / c_m with c_m from the left vector l of I + u H_m that zeroes
its first m - 1 columns (l_1 = 1): one recurrence step per basis vector,
c_k = l_k + u sum_{i<=k} l_i H_ik and l_{k+1} = -c_k / (u h_{k+1,k}),
with no m x m solve, taken at each checkpoint over the vectors added since
the last. At each checkpoint a shift whose estimate is within 2 dim eps
|v|_1 is solved from its own LU of I + u H_m, and accepted only if its
estimate and its residual are both within dim eps of the bordered check's
scale. The checkpoint at which a shift is accepted depends only on L, v
and u, so a column never depends on the rest of the grid. Every shift not
accepted, and every shift where the basis would not pay or B_0 is too
ill-conditioned for it, takes ``resolve_deflated``, paired with its
negation as above.
"""
from __future__ import annotations

import dataclasses
import functools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .model import (BlockState, ModelSpec, SuperOp, build_generator,
                    detection_jump, shift_detuning, trace_functional)


class NullSpaceDegenerate(Exception):
    """Generator nullity != 1 (disconnected configurational space, or a
    rate too slow to resolve)."""


class SingularShift(ArithmeticError):
    """A solve is singular to working precision: its solution is not finite
    or fails the backward-error check. A resolvent shift u near
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
class Elimination:
    """The elimination onto the configurational chain of a generator, or of
    each generator of a stack (see the module docstring), against which
    every right-hand side, the steady state's included, is solved
    (``resolve``; ``solve`` adds the dense loop, ``dense``). It holds
    about 16 r_max^2 floats per point (Z_ff 9, X and Z_tf 3 each, S 1;
    0.46 MB at r_max = 60, against 25 r_max^2 with Z_ff^-1) and lives only
    in the call that made it, never a Prepared.

    Per point, on a leading stack axis: L, Z_ff, X = Z_ff^-1 Z_ft, Z_tf,
    and S scaled by 2^exp with row 0 replaced by ones; ``failed`` maps each
    point that failed a check of ``eliminate`` to its first failure, and
    its entries are stand-ins (Z_ff = I and S = I)."""

    generator: np.ndarray
    z_ff: np.ndarray
    x: np.ndarray
    z_tf: np.ndarray
    s: np.ndarray
    exp: np.ndarray
    failed: dict

    def resolve(self, rhs: np.ndarray, trace: float,
                data: np.ndarray | None = None) -> tuple[np.ndarray, dict]:
        """The real columns y with L y = rhs (n, 4 r_max, k) and theta y =
        trace for each point: w = Z_ff^-1 c_f (one stacked solve, none
        where c_f = 0, as for the steady state, whose w is exactly 0), the
        chain solve of S for x_t and back-substitution for x_f. ``data``
        (n, k), the 1-norm of the bound on the formation error of rhs,
        takes the place of |rhs|_1 in the bordered check (see the module
        docstring). The failures map each failed point to the first of
        these checks it fails: those of the elimination, a zero pivot or
        the backward error of the solve for w, a zero pivot of the chain
        solve, the bordered check of y at u = 0. The columns of a failed
        point are stand-ins."""
        n, r, k = len(self.s), self.s.shape[-1], rhs.shape[-1]
        c = rhs.reshape(n, r, 4, k)
        c_f = c[:, :, 1:].reshape(n, 3 * r, k)
        failed = self.failed
        with np.errstate(all="ignore"):
            if c_f.any():
                w, singular = _solve("fast block solve", self.z_ff, c_f)
                failed = _certify("fast block solve", self.z_ff, w, c_f) | singular | failed
            else:
                w = c_f
            g = np.ldexp(c[:, :, 0] + c[:, :, 1] - self.z_tf @ w,
                         self.exp[:, None, None])
            g[list(failed)] = 0.0              # a stand-in for a g that may be NaN
            g[:, 0] = trace
            x_t, singular = _solve("chain solve", self.s, g)
            failed = singular | failed
            y = np.empty((n, r, 4, k))
            y[:, :, 1:] = (w - self.x @ x_t).reshape(n, r, 3, k)
            y[:, :, 0] = x_t - y[:, :, 1]
            y = y.reshape(n, 4 * r, k)
        l = self.generator                     # L y = rhs as (0 - L) y = -rhs
        return y, _backward_failures("chain solve", y, *_bordered_residual(
            l, _off_diagonal_sums(l), np.zeros(n), y, -rhs, trace, data)) | failed

    def solve(self, rhs: np.ndarray, trace: float,
              data: np.ndarray | None = None) -> np.ndarray:
        """The real columns of ``resolve``, with the dense path (``dense``)
        at each point where it fails."""
        return self.dense(*self.resolve(rhs, trace, data), rhs, trace, data)

    def dense(self, y: np.ndarray, failed: dict, rhs: np.ndarray, trace: float,
              data: np.ndarray | None = None) -> np.ndarray:
        """y, the columns of ``resolve``, with the column of each point of
        ``failed`` replaced in stack order by the dense path: the point's
        recorded NullSpaceDegenerate raises, the null vector (trace 1) takes
        the dense check (``_check_nullity``), and ``resolve_deflated`` at
        the shift 0 solves (0 - L) y = -rhs on the point alone, with the
        point's ``data`` term."""
        for i in sorted(failed):
            if isinstance(failed[i], NullSpaceDegenerate):
                raise failed[i]
            if trace:                          # Q_st's column: checked by the steady state
                _check_nullity(self.generator[i])
            y[i] = resolve_deflated(SuperOp(self.generator[i]), [0.0], -rhs[i], trace,
                                    None if data is None else data[i:i + 1])[0]
        return y


@dataclass(frozen=True, eq=False)
class Prepared:
    """A spec with its generator L and detection jump J, built once, and its
    steady state, solved on first use; every observable accepts one. No
    factorization is kept: the steady solve's elimination onto the
    configurational chain is let go once the steady state is solved against
    it, and Q_st makes its own (``stationary_mandel``).

    A stack of models that differ only in their laser detuning is one
    Prepared too (``at_detuning`` of an array): it keeps the unshifted spec,
    whose detuning no observable of a stack reads; its generator carries a
    leading stack axis and its steady state one block state per point.
    ``stationary_intensity`` (``line_shape``) and ``stationary_mandel``
    return one value per point of a stack."""

    spec: ModelSpec
    generator: SuperOp
    jump: np.ndarray

    @functools.cached_property
    def steady(self) -> BlockState:
        return steady_state(self.generator)

    def at_detuning(self, detuning) -> Prepared:
        """The same model at laser detuning ``detuning``, from L shifted by
        detuning - spec.detuning (``model.shift_detuning``), not rebuilt;
        for a 1-d array of detunings, the stack of these models, which keeps
        the unshifted spec. J does not depend on the detuning and is shared,
        and the steady state is solved anew on first use. From a spec at
        detuning 0 each model equals ``prepare`` of the spec at its detuning
        bit for bit. ValueError when a shift is not finite.
        """
        generator = shift_detuning(self.generator, detuning - self.spec.detuning)
        spec = (self.spec if np.ndim(detuning)
                else dataclasses.replace(self.spec, detuning=detuning))
        return Prepared(spec, generator, self.jump)


def prepare(model: ModelSpec | Prepared) -> Prepared:
    """The Prepared form of a model; a Prepared is returned unchanged."""
    if isinstance(model, Prepared):
        return model
    return Prepared(model, build_generator(model), detection_jump(model))


def _check_nullity(gen: np.ndarray) -> None:
    """Nullity 1 of L from the singular values of D L D^-1 with
    D = diag(1, 1, sqrt 2, sqrt 2) per block (D T is unitary, so these are
    the singular values of L in vec order), with the tolerance
    dim * eps * |L|_F; the error names the tolerance and the largest
    singular value counted as zero."""
    d = np.tile([1.0, 1.0, np.sqrt(2.0), np.sqrt(2.0)], gen.shape[0] // 4)
    m = d[:, None] * gen / d
    svals = np.linalg.svd(m, compute_uv=False)
    tol = m.shape[0] * _EPS * _frobenius(m)
    # a singular value at the tolerance counts as zero (the convention of
    # numpy's matrix_rank), so that L = 0 has full nullity, not nullity 0
    nullity = int(np.sum(svals <= tol))
    if nullity != 1:
        counted = (f"the largest {svals[-nullity]:.2g}" if nullity
                   else f"the least above it {svals[-1]:.2g}")
        raise NullSpaceDegenerate(
            f"generator nullity is {nullity}, expected 1: {nullity} singular values "
            f"at or below the tolerance {tol:.2g} (dim eps |L|_F), {counted}; a "
            "disconnected configurational space, or a rate below the tolerance, "
            "which reads as a missing one")


def _frobenius(m: np.ndarray) -> np.ndarray:
    """|M|_F of each matrix of a stack as s |M/s|_F with s = max|M|, so
    that entries above 1e154 do not overflow it to inf; M = 0 has
    |M|_F = 0, and M with a NaN has NaN."""
    s = np.abs(m).max(axis=(-2, -1), keepdims=True)
    v = (m / (s + (s == 0))).reshape(*m.shape[:-2], 1, -1)
    return (s * np.sqrt(v @ v.swapaxes(-1, -2)))[..., 0, 0]


def steady_state(generator: SuperOp | Elimination) -> BlockState:
    """Unique trace-1 null state of the generator, or of each generator of
    a stack, in one stacked elimination; of an Elimination from its
    ``resolve`` of rhs = 0 with trace 1, one block state per point of its
    stack.

    Solved by elimination onto the configurational chain in real
    arithmetic (see the module docstring), so the blocks are exactly
    Hermitian; the singular values of the stochastic complement certify
    nullity 1. Each point where the elimination is not certified (a
    failure of its record, or a negative block eigenvalue) takes the dense
    path of ``Elimination.dense`` in stack order. NullSpaceDegenerate when
    the nullity is not 1, SingularShift when a solve fails its
    backward-error check; the first such point of the stack raises.
    ValueError when a block of a dense solution has a negative eigenvalue,
    checked once after every dense solve of the stack.
    """
    e = generator if isinstance(generator, Elimination) else eliminate(generator)
    zero = np.zeros((*e.generator.shape[:2], 1))
    y, failed = e.resolve(zero, 1.0)
    y[list(failed)] = np.eye(y.shape[1], 1)    # a trace-1 stand-in
    blocks, eigmin = _block_state(y)
    # the elimination is not certified where a block eigenvalue is negative
    dense = dict.fromkeys(np.flatnonzero(eigmin < -1e-10)) | failed
    if dense:
        blocks, eigmin = _block_state(e.dense(y, dense, zero, 1.0))
        if (low := eigmin[eigmin < -1e-10]).size:
            raise ValueError(f"steady-state block eigenvalue {low[0]:.3e} < -1e-10; "
                             "model or assembly bug")
    single = isinstance(generator, SuperOp) and generator.matrix.ndim == 2
    return BlockState(blocks[0] if single else blocks)


def _block_state(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The blocks of each real column y (n, dim, 1) scaled to trace 1,
    (n, r_max, 2, 2), and the least eigenvalue of each point's blocks."""
    v = y[..., 0]
    v = v / (v[:, None, :] @ trace_functional(v.shape[-1] // 4)[:, None])[:, 0]
    blocks = BlockState.from_vector(v).blocks.copy()
    return blocks, np.linalg.eigvalsh(blocks).min(axis=(-2, -1))


def resolve_deflated(generator: SuperOp, shifts, rhs: np.ndarray,
                     trace: float = 0.0, data: np.ndarray | None = None) -> np.ndarray:
    """The bordered solve (see the module docstring), on vectors in the
    coordinates of ``BlockState.to_vector``: for each shift u of the 1-d
    ``shifts``, the columns x (dim, k) with (u - L) x = rhs and Tr x =
    trace, (len(shifts), dim, k) of the dtype of L, the shifts and rhs.
    Valid only where theta rhs = u trace; at trace 0 it regularizes u = 0,
    the steady pole. ``data`` (len(shifts), k), the 1-norm of the bound on
    the formation error of rhs, takes the place of |rhs|_1 in the bordered
    check. SingularShift for the first shift in order that fails the
    bordered check or whose LU meets an exactly zero pivot."""
    l, dim = generator.matrix, generator.dim
    if rhs.ndim != 2 or rhs.shape[0] != dim:
        raise ValueError(f"right-hand side shape {rhs.shape} != (generator dim {dim}, k)")
    shifts = np.asarray(shifts)
    dtype = np.result_type(l, shifts, rhs)
    theta = trace_functional(generator.r_max)
    work = np.negative(l, out=np.empty(l.shape, dtype))
    work[0] = theta
    diag = work.reshape(-1)[::dim + 1]          # a view: refilled per shift
    l_diag = np.diagonal(l)
    b = rhs.astype(dtype)
    b[0] = trace
    out = np.empty((shifts.size, dim, rhs.shape[1]), dtype)
    solved, failed = shifts.size, {}
    for i, u in enumerate(shifts):
        np.subtract(u, l_diag, out=diag)
        diag[0] = theta[0]
        try:
            out[i] = np.linalg.solve(work, b)
        except np.linalg.LinAlgError as exc:
            solved, failed = i, {i: SingularShift(f"bordered solve failed: {exc}")}
            break
    failed = _backward_failures("bordered solve", out[:solved], *_bordered_residual(
        l, _off_diagonal_sums(l), shifts[:solved], out[:solved], rhs, trace,
        None if data is None else data[:solved])) | failed
    if failed:
        raise failed[min(failed)] from None
    return out


def resolve_krylov(generator: SuperOp, shifts,
                   rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The trace-free bordered solve of ``resolve_deflated`` for one
    trace-free right-hand side rhs (dim,), (u - L) x = rhs with Tr x = 0,
    at every shift u of the 1-d ``shifts``, from one Arnoldi basis of
    B_0^-1 (``_arnoldi``, see the module docstring): the columns x
    (len(shifts), dim),
    complex, and the mask of the shifts whose column was accepted; every
    other column is zeros, left to ``resolve_deflated``.

    Past each checkpoint the basis is extended only if the budget of
    ``_krylov_affordable`` reaches the checkpoint at which the closest
    pending column would converge at the rate of its last stretch, and not
    at all once a converged column fails the bordered check. Nothing is
    accepted for rhs = 0 or where B_0 is singular or too ill-conditioned
    (``_KRYLOV_CONDITION``).
    """
    l, dim = generator.matrix, generator.dim
    u = np.asarray(shifts, dtype=complex)
    x, accepted = np.zeros((u.size, dim), complex), np.zeros(u.size, bool)
    lu_all = np.unique(np.abs(u)).size * _lu_flops(dim)
    m_next = min(_KRYLOV_STEP, dim - 1)
    beta = np.sqrt(np.vdot(rhs, rhs).real)
    if not _krylov_affordable(dim, u.size, lu_all, lu_all, 0.0, 0, m_next) or beta == 0.0:
        return x, accepted
    spent = _krylov_cost(dim, u.size, 0, m_next)
    b0 = np.negative(l)
    b0[0] = trace_functional(generator.r_max)
    try:
        inv = np.linalg.inv(b0)
    except np.linalg.LinAlgError:
        return x, accepted
    if not (np.abs(b0).sum(axis=0).max() * np.abs(inv).sum(axis=0).max()
            <= _KRYLOV_CONDITION):                 # NaN fails too
        return x, accepted
    abs_off = _off_diagonal_sums(l)
    norm_b = np.abs(rhs).sum()
    tol = dim * _EPS
    # per pending shift: its index, u, -1/u, the row l of the recurrence and
    # its ratio est / (2 dim eps |rhs|_1) at the last checkpoint, which is
    # 1 / (2 dim eps) for x = 0 before the basis
    pending, up = np.arange(u.size), u
    last = np.full(u.size, 0.5 / tol)
    left = np.zeros((u.size, dim), complex)
    left[:, 0] = 1.0
    done = 0                               # the vectors the recurrence has taken
    with np.errstate(all="ignore"):        # overflow and u = 0 give inf or NaN
        neg_inv = -1.0 / u
        # on z: B_0^-1 of z with z_0 = 0; room for the whole trace-free space
        for m, basis, hess, exact in _arnoldi(inv[:, 1:], rhs, beta, dim - 1):
            for k in range(done, m):
                c = left[:, k] + up * (left[:, :k + 1] @ hess[:k + 1, k])
                if k + 1 < m or not exact:
                    np.multiply(c, neg_inv / hess[k + 1, k].real, out=left[:, k + 1])
            done = m
            h = hess[m, m - 1].real
            lv = 0.0 if exact else np.abs((l @ basis[m].view(float).reshape(dim, 2))
                                          .view(complex)).sum()
            ratio = h * lv * np.abs(beta / c) / (2.0 * tol * norm_b)
            if m > 1:
                ratio[up == 0.0] = 0.0             # x = A rhs exactly
            cand = np.flatnonzero(ratio <= 1.0)  # NaN is not a candidate
            failed = False
            if cand.size:
                ok, xs, failed = _krylov_accept(l, abs_off, basis[:m], hess, beta, rhs,
                                                up[cand], lv)
                idx = pending[cand[ok]]
                x[idx], accepted[idx] = xs[ok], True
            keep = ~accepted[pending]
            if failed or exact or not keep.any():
                break
            pending, up, neg_inv, left = pending[keep], up[keep], neg_inv[keep], left[keep]
            ratio, last = ratio[keep], last[keep]
            # the checkpoint at which the closest column is due, had each
            # kept the rate of its last stretch (Krylov convergence tends to
            # speed up, so this tends to be late)
            due = np.where(last > ratio, np.log(ratio) / np.log(last / ratio), np.inf)
            m_next = min(m + _KRYLOV_STEP, dim - 1)
            target = min(m + _KRYLOV_STEP * max(1.0, np.ceil(due.min())), dim - 1)
            lu_pending = np.unique(np.abs(up)).size * _lu_flops(dim)
            if not _krylov_affordable(dim, up.size, lu_all, lu_pending, spent, m, int(target)):
                break
            spent += _krylov_cost(dim, up.size, m, m_next)
            last = ratio
    return x, accepted


def _arnoldi(a: np.ndarray, v: np.ndarray, beta: float,
             m_max: int) -> Iterator[tuple[int, np.ndarray, np.ndarray, bool]]:
    """The Arnoldi process of the module docstring: a real A (dim, n), n <=
    dim, acting on the trailing n coordinates of each vector, from v_1 = v /
    beta, up to m_max vectors. Each step is one product of A with the real
    view of v_k and two classical Gram-Schmidt passes; the process ends at
    an invariant subspace: n vectors, or w lost to rounding against
    |A v_k|_2^2 = |h_{1..k,k}|_2^2 + h_{k+1,k}^2. At each checkpoint (every
    _KRYLOV_STEP vectors, at m_max, and at an invariant subspace) it yields
    (m, basis, hess, exact): the vectors v_1 .. v_{m+1} (m + 1, dim),
    complex, H_m underlined (m + 1, m), and whether the subspace is
    invariant, where h_{m+1,m} = 0 and v_{m+1} is not set. Both are views
    of its storage that later steps leave as they are; only the rows and
    columns reached are touched."""
    dim = v.size
    basis = np.empty((m_max + 1, dim), complex)
    # conj(basis), for V^H w: a real v makes the basis real, its own conjugate
    conj = np.empty_like(basis) if np.iscomplexobj(v) else basis
    hess = np.zeros((m_max + 1, m_max), complex)
    np.divide(v, beta, out=basis[0])
    real = basis.view(float).reshape(m_max + 1, dim, 2)[:, dim - a.shape[1]:]
    w_real = np.empty((dim, 2))
    w = w_real.view(complex).ravel()
    tol = dim * _EPS
    for k in range(m_max):
        m = k + 1
        if conj is not basis:
            np.conjugate(basis[k], out=conj[k])
        np.matmul(a, real[k], out=w_real)
        col = conj[:m] @ w
        w -= col @ basis[:m]
        c = conj[:m] @ w
        w -= c @ basis[:m]
        col += c
        hess[:m, k] = col
        h = np.sqrt(np.vdot(w, w).real)
        exact = m == a.shape[1] or h * h <= tol * tol * np.vdot(col, col).real
        if not exact:
            hess[m, k] = h
            np.divide(w, h, out=basis[m])
        if exact or m == m_max or not m % _KRYLOV_STEP:
            yield m, basis[:m + 1], hess[:m + 1, :m], exact
        if exact:
            return


def _krylov_accept(l, abs_off, basis, hess, beta, rhs, u,
                   lv) -> tuple[np.ndarray, np.ndarray, bool]:
    """For the candidate shifts u at basis size m = len(basis), with
    lv = |L v_{m+1}|_1: the mask of those accepted, the columns x of all,
    and whether a converged column failed the bordered check (see the
    module docstring). Each projected solve is its own LU; a singular one
    gives NaN, which is not converged."""
    m, dim = basis.shape
    h_m = hess[:m]
    a = u[:, None, None] * h_m
    a.reshape(u.size, -1)[:, ::m + 1] += 1.0    # I + u H_m, built in place
    y, _ = _solve("projected solve", a, np.broadcast_to(beta * np.eye(m, 1), (u.size, m, 1)))
    x = basis.T @ (h_m @ y)
    resid, scale = _bordered_residual(l, abs_off, u, x, rhs[:, None], 0.0)
    with np.errstate(all="ignore"):            # NaN is not converged
        scale = dim * _EPS * scale[:, 0]
        converged = abs(hess[m, m - 1]) * lv * np.abs(y[:, -1, 0]) <= scale
        certified = resid[:, 0] <= scale
    return converged & certified, x[..., 0], bool((converged & ~certified).any())


# Bound on |b - A x|_1 / ((|A|_1 |x|_1 + |b|_1) dim eps) for a solve:
# LAPACK's test suite accepts an LU solve when |b - A x|_1 /
# (|A|_1 |x|_1 n eps) < 30 (xGET02); |b|_1 <= |A|_1 |x|_1 up to rounding,
# so the extra term changes the ratio by at most a factor 2.
_BACKWARD_ERROR_FACTOR = 30.0
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).smallest_subnormal
# a slow rate may be formed from fluxes up to 1/sqrt(eps) times larger
_CANCELLATION = 2.0 ** 26
# the Krylov basis is checked every _KRYLOV_STEP vectors
_KRYLOV_STEP = 8
# resolve_krylov is not tried above this |B_0|_1 |B_0^-1|_1: the ratio of
# its columns' computed residuals to their bound grows with it (measured
# 6e-3 at 1e2, 0.6 at 5.9e3, 44 at 6e4 and 18 at 7.5e4)
_KRYLOV_CONDITION = 2.0 ** 14
# one numpy call's overhead, counted as flops by _krylov_cost
_CALL_FLOPS = 2.0 ** 14


def _lu_flops(dim: int) -> float:
    """The cost of one shift of ``resolve_deflated``: a complex LU of
    8/3 dim^3 flops and 24 numpy calls (see ``_krylov_cost``)."""
    return 8 / 3 * dim ** 3 + 24 * _CALL_FLOPS


def _krylov_cost(dim: int, n: int, m: int, m_next: int) -> float:
    """The flops of extending ``resolve_krylov``'s basis from m to the
    checkpoint m_next for n pending shifts, each numpy call counted as
    _CALL_FLOPS: before the basis (m = 0), the inverse (8/3 dim^3, 12
    calls); for each basis vector k, the product with A, two Gram-Schmidt
    passes and the recurrence of each shift (4 dim^2 + 32 dim k + 8 n k, 24
    calls); for each checkpoint, L v_{m+1} and its tests (4 dim^2, 36
    calls)."""
    checkpoints = -(-(m_next - m) // _KRYLOV_STEP)
    cost = ((m_next - m) * (4 * dim ** 2 + 24 * _CALL_FLOPS)
            + (32 * dim + 8 * n) * (m_next * (m_next + 1) - m * (m + 1)) / 2
            + checkpoints * (4 * dim ** 2 + 36 * _CALL_FLOPS))
    if m == 0:
        cost += 8 / 3 * dim ** 3 + 12 * _CALL_FLOPS
    return cost


def _krylov_affordable(dim: int, n: int, lu_all: float, lu_pending: float,
                       spent: float, m: int, m_next: int) -> bool:
    """Whether ``resolve_krylov``, having spent ``spent`` flops up to basis
    size m, may extend its basis to m_next for n pending shifts. The LU
    path costs lu_all for all shifts and lu_pending for the pending ones
    (``_lu_flops`` per distinct |u|). Should nothing more be accepted, the
    attempt and that fallback may cost at most 3/2 lu_all; should every
    pending shift be accepted at m_next, the extension and their acceptance
    (a projected solve, column and residual each, 8/3 m^3 + 8 m^2 + 8 dim m
    + 8 dim^2 flops and 3 calls) must cost no more than their fallback.
    """
    cost = _krylov_cost(dim, n, m, m_next)
    accept = (8 / 3 * m_next ** 3 + 8 * m_next ** 2 + 8 * dim * m_next + 8 * dim ** 2
              + 3 * _CALL_FLOPS)
    return 2 * (spent + cost + lu_pending) <= 3 * lu_all and cost + n * accept <= lu_pending


def _certify(what: str, a: np.ndarray, x: np.ndarray, b: np.ndarray) -> dict:
    """The failures of a stacked solve a x = b by ``_backward_failures``."""
    with np.errstate(all="ignore"):     # a point that is not finite fails
        resid = np.abs(a @ x - b).sum(axis=-2)
        scale = (np.abs(a).sum(axis=-2).max(axis=-1)[:, None] * np.abs(x).sum(axis=-2)
                 + np.abs(b).sum(axis=-2))
    return _backward_failures(what, x, resid, scale)


def _off_diagonal_sums(l: np.ndarray) -> np.ndarray:
    """The column sums of |L| off its diagonal, of L or of each L of a
    stack: the part of |u - L|_1 that no shift u changes."""
    a = np.abs(l)
    a.reshape(*l.shape[:-2], -1)[..., ::l.shape[-1] + 1] = 0.0
    return a.sum(axis=-2)


def _bordered_residual(l: np.ndarray, abs_off: np.ndarray, u: np.ndarray, x: np.ndarray,
                       rhs: np.ndarray, trace: float,
                       data: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The bordered check (see the module docstring) of the columns x
    (n, dim, k) at the shifts u (n,), L real, one matrix or a stack of n,
    abs_off its ``_off_diagonal_sums``: the residual 1-norms and scales.
    The data term of the scale is |rhs|_1, or ``data`` (n, k) if given."""
    theta = trace_functional(l.shape[-1] // 4)
    with np.errstate(all="ignore"):     # a column that is not finite fails
        lx = (l @ x.view(float)).view(x.dtype)    # Re x and Im x at once
        resid = np.abs(u[:, None, None] * x - lx - rhs).sum(axis=-2) + np.abs(theta @ x - trace)
        norm_a = (abs_off + np.abs(u[:, None] - np.diagonal(l, 0, -2, -1)) + theta).max(axis=-1)
        if data is None:
            data = np.abs(rhs).sum(axis=-2)
        return resid, norm_a[:, None] * np.abs(x).sum(axis=-2) + (data + abs(trace))


def _backward_failures(what: str, x: np.ndarray, resid: np.ndarray,
                       scale: np.ndarray) -> dict:
    """For each point of a stacked solve whose columns x (n, dim, k) are
    not finite, or whose residual 1-norm resid (n, k) of a column exceeds
    _BACKWARD_ERROR_FACTOR * dim * eps times its scale |A|_1 |x|_1 + |b|_1
    (n, k), its index and its SingularShift."""
    dim = x.shape[-2]
    bound = _BACKWARD_ERROR_FACTOR * dim * _EPS
    with np.errstate(all="ignore"):
        finite = np.isfinite(x).all(axis=(-2, -1))
        ok = finite & (resid <= bound * scale).all(axis=-1)
        if ok.all():
            return {}
        return {i: SingularShift(
            f"{what} backward error {np.max(resid[i] / scale[i]):.3e} exceeds "
            f"{bound:.3e} (dim {dim})" if finite[i] else
            f"{what} diverged: backward error not finite") for i in np.flatnonzero(~ok)}


def _solve(what: str, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, dict]:
    """numpy.linalg.solve of each matrix of the stack a, and the failures:
    the index and SingularShift of each point whose LU meets an exactly
    zero pivot (or NaN), whose x is NaN. On such a failure the stack is
    solved again one matrix at a time, which gives each the same x."""
    try:
        return np.linalg.solve(a, b), {}
    except np.linalg.LinAlgError:
        pass
    x, failed = np.full(b.shape, np.nan, dtype=np.result_type(a, b)), {}
    for i in range(len(a)):
        try:
            x[i] = np.linalg.solve(a[i], b[i])
        except np.linalg.LinAlgError as exc:
            failed[i] = SingularShift(f"{what} failed: {exc}")
    return x, failed


def eliminate(generator: SuperOp) -> Elimination:
    """The elimination of a generator, or of each generator of a stack,
    onto its trace coordinates (see the module docstring); a single model
    is a stack of one.

    One LU of each fast block solves for Z_ft alone: X. Its checks, each
    made per point, in this order: the LU (SingularShift), Z_ff
    nonsingular to working precision (``_require_nonsingular``, by the
    log-norm screen or, where that fails, by Z_ff^-1; SingularShift), the
    backward error of X (SingularShift), no slow rate lost to cancellation
    (``_CANCELLATION``; SingularShift), and nullity 1 of S
    (``_chain_nullity``; NullSpaceDegenerate), so that L has nullity 1. A
    point that fails goes on through the stacked arithmetic with the
    others, so its overflows and NaNs draw no warning.
    """
    gen = generator.matrix.reshape(-1, *generator.matrix.shape[-2:])
    n, r = len(gen), gen.shape[-1] // 4
    blocks = gen.reshape(n, r, 4, r, 4)
    z_t = blocks[:, :, 0] + blocks[:, :, 1]    # t rows: aa + bb, (n, r, r, 4)
    z_t[..., 1] -= z_t[..., 0]                 # bb columns: bb - aa
    z_ff = blocks[:, :, 1:, :, 1:].copy()      # fast rows and columns
    z_ff[..., 0] -= blocks[:, :, 1:, :, 0]
    z_ff = z_ff.reshape(n, 3 * r, 3 * r)
    z_ft = blocks[:, :, 1:, :, 0].reshape(n, 3 * r, r)
    with np.errstate(all="ignore"):
        x, failed = _solve("fast block solve", z_ff, z_ft)
        failed = _require_nonsingular(z_ff, failed) | failed
        failed = _certify("fast block solve", z_ff, x, z_ft) | failed
        z_tf = z_t[..., 1:].reshape(n, r, 3 * r)
        s = z_t[..., 0] - z_tf @ x
        # a slow rate that is the difference of much larger fluxes has lost
        # digits to cancellation; beyond half of them the elimination stops
        lost = np.abs(z_t[..., 0]) + np.abs(z_tf) @ np.abs(x) > _CANCELLATION * np.abs(s)
        lost.reshape(n, -1)[:, ::r + 1] = False
        failed = {i: SingularShift("chain solve failed: a slow rate is lost to "
                                   "cancellation of faster fluxes")
                  for i in np.flatnonzero(lost.any(axis=(-2, -1)))} | failed
        diag = s.reshape(n, -1)[:, ::r + 1]   # a view: the reset diagonal
        diag[:] = 0.0
        diag[:] = -s.sum(axis=-2)
        # scale by a power of two, exactly, so that max |S| lies in [1/2, 1)
        exp = -np.frexp(np.abs(s).max(axis=(-2, -1)))[1]
        s = np.ldexp(s, exp[:, None, None])
        if failed:                             # stand-ins for an S that may be NaN
            s[list(failed)] = np.eye(r)        # and a Z_ff that may be singular
            z_ff[list(failed)] = np.eye(3 * r)
        if len(failed) < n:
            nullity = _chain_nullity(blocks, x, s, exp)
            failed = {i: NullSpaceDegenerate(f"generator nullity is {nullity[i]}, "
                                             "expected 1 (disconnected configurational space?)")
                      for i in np.flatnonzero(nullity != 1)} | failed
        s[:, 0] = 1.0
    return Elimination(gen, z_ff, x, z_tf, s, exp, failed)


def _require_nonsingular(z_ff: np.ndarray, skip: dict) -> dict:
    """The index and SingularShift of each point of the stack but those of
    ``skip`` (whose LU failed) unless its D Z_ff is nonsingular to working
    precision, D scaling each row to max 1 (so that a strong drive or
    detuning counts relative to its own row): its smallest singular value
    must exceed dim eps |D Z_ff|_F, the tolerance of the dense check. A
    backward error alone does not show this: blocks sharing an undamped
    mode make Z_ff singular and still give a small one.

    A point passes on the log-norm screen (``_log_norm_screen``). Only the
    points that the screen leaves form their own Z_ff^-1, and pass if
    1/|Z_ff^-1 D^-1|_F, a lower bound on the smallest singular value,
    exceeds the tolerance.
    """
    left = [i for i in np.flatnonzero(~_log_norm_screen(z_ff)) if i not in skip]
    if not left:
        return {}
    z_ff = z_ff[left]
    inv = np.linalg.inv(z_ff)
    rows = np.abs(z_ff).max(axis=-1)
    ok = np.isfinite(inv).all(axis=(-2, -1)) & (
        z_ff.shape[-1] * _EPS * _frobenius(z_ff / rows[..., None])
        * _frobenius(inv * rows[:, None, :]) < 1.0)
    return {left[i]: SingularShift("fast block solve failed: the fast block is "
                                   "singular to working precision")
            for i in np.flatnonzero(~ok)}


def _log_norm_screen(z_ff: np.ndarray) -> np.ndarray:
    """The mask of the points of the stack whose Z_ff the log-norm screen
    of the module docstring certifies: mu, from the 3 x 3 blocks A_IJ of
    Z_ff, is max_J of the Gershgorin bound on lambda_max(sym A_JJ) plus
    sum_{I != J} sqrt(|A_IJ|_1 |A_IJ|_inf), and must lie below
    -eps max|Z_ff| (9 r^(5/2) + 3 r (r + 5)), r = r_max: the first term is
    sqrt(r) max|Z_ff| dim eps dim, dim eps |D Z_ff|_F at most, and the
    second bounds the rounding of mu."""
    n, r = len(z_ff), z_ff.shape[-1] // 3
    z = z_ff.reshape(n, r, 3, r, 3)
    a = np.abs(z)
    off = np.sqrt(a.sum(axis=2).max(axis=-1) * a.sum(axis=-1).max(axis=2))
    off.reshape(n, -1)[:, ::r + 1] = 0.0
    d = np.diagonal(z, axis1=1, axis2=3)       # A_JJ as (n, 3, 3, r)
    s = np.abs(d + d.swapaxes(1, 2))           # 2 |sym A_JJ|
    i = np.arange(3)
    s[:, i, i] = 2.0 * d[:, i, i]              # Gershgorin rows, doubled
    mu = (0.5 * s.sum(axis=2).max(axis=1) + off.sum(axis=1)).max(axis=-1)
    return -mu > _EPS * a.max(axis=(1, 2, 3, 4)) * (9 * r ** 2.5 + 3 * r * (r + 5))


def _chain_nullity(blocks: np.ndarray, x: np.ndarray, s: np.ndarray,
                   exp: np.ndarray) -> np.ndarray:
    """For every point of the stack, the number of singular values of the
    scaled S = 2^exp S_computed at or below the bound on the error of the
    computed S; a point that failed an earlier check has the stand-in
    S = I, and its count is not read.

    S_computed is the exact stochastic complement of L with Z_ff and Z_ft
    perturbed within the certified backward error of the fast solve, plus
    an error F. With B = |Z_tt| + |Z_tf| |X|, |Z| taken as |M| |L| |M^-1|
    (M the map to the t coordinates), and u = eps/2: off the diagonal
    |F_ij| <= (3 r + 3) u B_ij (two roundings in forming Z, 3 r in the
    product, one in the subtraction); the reset diagonal adds
    |F_jj| <= sum_i |F_ij| + r u sum_i B_ij. So |F|_2 <= sum |F_ij| <=
    (7 r + 6) u sum_{i != j} B_ij to first order, and the bound is
    (7 r + 7) (eps sum_{i != j} B_ij + r^2 eta), where the eta term (the
    smallest subnormal) covers the absolute error of gradual underflow. A
    singular value at the bound counts as zero, so that S = 0 (no hops
    between configurations) has full nullity.
    """
    r = s.shape[-1]
    abs_t = np.abs(blocks[:, :, 0]) + np.abs(blocks[:, :, 1])
    abs_t[..., 1] += abs_t[..., 0]
    bound = abs_t[..., 0] + abs_t[..., 1:].reshape(-1, r, 3 * r) @ np.abs(x)
    bound.reshape(len(bound), -1)[:, ::r + 1] = 0.0
    tol = np.ldexp((7 * r + 7) * (_EPS * bound.sum(axis=(-2, -1)) + r * r * _TINY), exp)
    return (np.linalg.svd(s, compute_uv=False) <= tol[:, None]).sum(axis=-1)


# theta_13 of Higham (2005): the largest 1-norm at which the [13/13] Pade
# approximant of e^A has a relative backward error of at most 2^-53
_THETA_13 = 5.371920351148152
# b_0 .. b_13 of the [13/13] Pade approximant q(A)^-1 p(A) of e^A, with
# p(A) = sum_k b_k A^k and q(A) = p(-A), scaled to b_0 = 1 so that e^0 is
# the identity exactly
_PADE_13 = np.array([64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
                     1187353796428800.0, 129060195264000.0, 10559470521600.0,
                     670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
                     960960.0, 16380.0, 182.0, 1.0]) / 64764752532480000.0


def expm(a: np.ndarray) -> np.ndarray:
    """e^A of a real or complex matrix, or of each matrix of a stack
    (..., dim, dim).

    Scaling and squaring with the [13/13] Pade approximant (Higham, SIAM
    J. Matrix Anal. Appl. 26, 1179 (2005)): each A is scaled exactly by
    2^-s, s = max(0, ceil(log2(|A|_1 / theta_13))), the approximant is one
    stacked solve q(A) R = p(A), and R is squared s times, on the matrices
    of the stack whose s exceeds the squarings made so far. Stacked matmul
    and solve give each matrix the result of a call on it alone. Overflow
    gives inf or NaN, with no warning.
    """
    b = _PADE_13
    stack = a.reshape(-1, *a.shape[-2:])
    diag = (slice(None), *np.diag_indices(a.shape[-1]))
    with np.errstate(all="ignore"):
        s = _squarings(np.abs(stack).sum(axis=-2).max(axis=-1))
        # one workspace for every intermediate, each sum of terms made in
        # place: a fresh array per intermediate costs more than its work
        work = np.empty((7, *stack.shape), np.result_type(stack, 1.0))
        x, x2, x4, x6, u, v, t = work
        np.multiply(stack, (2.0 ** -s)[:, None, None], out=x)
        np.matmul(x, x, out=x2)
        np.matmul(x2, x2, out=x4)
        np.matmul(x4, x2, out=x6)
        _add_terms(np.multiply(x6, b[13], out=u), t, (b[11], x4), (b[9], x2))
        _add_terms(np.matmul(x6, u, out=v), t, (b[7], x6), (b[5], x4), (b[3], x2))
        v[diag] += b[1]
        np.matmul(x, v, out=u)                     # u: the odd part of p(A)
        _add_terms(np.multiply(x6, b[12], out=v), t, (b[10], x4), (b[8], x2))
        _add_terms(np.matmul(x6, v, out=t), x, (b[6], x6), (b[4], x4), (b[2], x2))
        t[diag] += 1.0                             # t: the even part of p(A)
        r = np.linalg.solve(np.subtract(t, u, out=x), np.add(t, u, out=t))
        for k in range(s.max(initial=0)):
            if s.min() > k:
                r, x2 = np.matmul(r, r, out=x2), r
            else:
                live = s > k
                r[live] = r[live] @ r[live]
    # a copy, not a view that would keep the whole workspace alive
    return (r.copy() if r.base is work else r).reshape(a.shape)


def _squarings(norm) -> np.ndarray:
    """The squaring count s = max(0, ceil(log2(|A|_1 / theta_13))) that
    ``expm`` takes for a matrix of 1-norm ``norm`` (an array of them),
    exactly."""
    mant, exp = np.frexp(np.asarray(norm) / _THETA_13)
    return np.maximum(0, exp - (mant == 0.5))


def _add_terms(out: np.ndarray, scratch: np.ndarray, *terms) -> np.ndarray:
    """out + the sum of c p over the terms (c, p), added to out in place in
    their order, through scratch."""
    for c, p in terms:
        out += np.multiply(p, c, out=scratch)
    return out


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
    p = np.outer(st.to_vector().real, theta)
    a = m.copy()
    a[0] = theta
    b = p - np.eye(dim)
    b[0, :] = 0.0
    r0 = np.linalg.solve(a, b)
    r0 += np.linalg.solve(a, b - a @ r0)   # one refinement step
    # achievable accuracy for a backward-stable solve is eps*|L|*|R0|,
    # which dominates 1e-9 for stiff models (|R0| ~ 1/slowest rate)
    scale = max(1.0, np.linalg.norm(m, 2) * np.linalg.norm(r0, 2))
    defect = max(
        np.linalg.norm(r0 @ m - (p - np.eye(dim)), 2),
        np.linalg.norm(m @ r0 - (p - np.eye(dim)), 2),
        np.linalg.norm(r0 @ p, 2),
        np.linalg.norm(p @ r0, 2),
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
