"""Two-time correlations of the scattered field via the quantum regression
theorem for block Lindblad rate equations.

A stationary correlation <O1(t) A(t+tau) O2(t)> is evaluated by seeding
each block with O2 rho_R^inf O1, propagating the full block state with the
one-time generator, and reading out Tr{A .} per destination block. The
field correlations carry sqrt(gamma_tilde) emission weights per block; all
results are reported in the dimensionless normalization where the
geometric far-field prefactor is 1.

The intensity correlation is C2(tau) = Tr J e^{tau L} J rho_inf and the
stationary intensity I_st = Tr J rho_inf, with J the detection jump.
Each result is an ObservableSeries: the values on their abscissa, with no
tag naming the observable.

Every tau grid is one ``propagate_on_grid``: e^{t L} v0 at each t of the
grid, from one shift-invert Krylov basis where it pays, and by expm
stepping at every point the basis leaves.

Contraction. e^{t L} is a positive, trace-preserving map of the
block-diagonal operators, so ||e^{t L} X||_tr <= ||X||_tr for every X,
Hermitian or not: its adjoint is positive and unital, so of operator norm
1 (Russo-Dye). In one block x with coordinates y = (aa, bb, Re ba, Im ba)
(complex for a block that is not Hermitian), the diagonal and the
off-diagonal part of x each have trace norm at most ||x||_tr, so |y|_1 <=
|aa| + |bb| + |ab| + |ba| <= 2 ||x||_tr, and ||x||_tr <= |aa| + |bb| + |ab|
+ |ba| <= 2 |y|_1. Hence |e^{t L}|_1 <= _CONTRACTION = 4 in the real
coordinates, for every t >= 0.

Stepping (``_expm_on_grid``). Each distinct step dt takes E = expm(dt L)
(``steady.expm``), reused while the next step lies within 1e-12 relative
of it. theta L = 0, so theta E = theta exactly, and the trace check bounds
the computed d = theta E - theta. The [13/13] Pade approximant R of the
scaled X = 2^-s dt L has theta p(X) = theta q(X) = theta, so theta R =
theta; computed, d_0 lies within the backward error of the solve q R = p,
_BACKWARD_ERROR_FACTOR dim eps (|X|_1 <= theta_13). A squaring E' =
fl(E E) gives d' = d (I + E) + theta D with |D| <= dim u |E| |E|, u =
eps/2, and |E|_1 <= _CONTRACTION, so |d'|_inf <= (1 + _CONTRACTION)
|d|_inf + 2 _CONTRACTION dim eps, and after s squarings |d|_inf <=
(_BACKWARD_ERROR_FACTOR + 2) dim eps (1 + _CONTRACTION)^s. A step beyond
that raises FloatingPointError. On the tau grids of the tier-1 tests
every healthy step lies within 7.8e-3 of its bound; the step e^{(4/3) L}
of a 3-site chain at Rabi frequency 1e20 reads 9.8e126, 8.4e93 times it.

Krylov (``_krylov_on_grid``). One Arnoldi basis of A = (I - gamma L)^-1,
inverted once (``numpy.linalg.inv``), from the driver of the spectrum's
basis (``steady._arnoldi``; the Arnoldi paragraph of ``steady`` describes
the process and its checkpoints): from v_1 = v0 / beta, A V_m = V_{m+1}
H_m underlined, with h = h_{m+1,m}. The pole is gamma = t_max / 10,
so the grid sets it and no knob does: the convergence of the basis does
not depend on |L| (|L|_1 = 90 on the benchmark's random r_max = 60 model,
whose 12 uniform points to t_max = 8 it takes at m = 24). Multiplied by
I - gamma L, the relation reads (I - gamma L) V_{m+1} H_m underlined =
V_m, so L V_m = V_m T_m + (h / gamma) u e_m^T H_m^-1, with T_m = (I -
H_m^-1) / gamma and u = (I - gamma L) v_{m+1}.

Trace. theta L = 0, so theta (I - gamma L) = theta, and theta times the
relation gives z T_m = -(h / gamma) (theta v_{m+1}) e_m^T H_m^-1 with z
= theta V_m: T_m conserves the trace only up to that term, and the
rounding of each m x m exponential moves its slow mode (on the 20-site
chain over 40 log tau to 1000, g2's tail came out 2.8e-13 off 1, against
3e-14 for the stepping, and 4.9e-14 with each e^{t T_m} e_1 of the same
T_m to 30 digits). So the basis takes T = T_m + (h / gamma) (theta
v_{m+1}) y e_m^T H_m^-1, y = z^T / (z z^T), which has z T = 0, its null
vector r (``_null_vector``, z r = 1), and e^{s T} = r z + e^{s T} (I - r
z): each step propagates the trace-free part of psi and adds the
conserved part (z e_1) r back as it is (that tail: within 7.8e-16 of 1).
Then L V_m = V_m T + (h / gamma) u' e_m^T H_m^-1 with u' = u - (theta
v_{m+1}) V_m y, theta u' = 0, and x_m(t) = beta V_m e^{t T} e_1 has
x_m(0) = v0 and the residual x_m' - L x_m = -(beta h / gamma) u' phi(t),
phi(t) = e_m^T H_m^-1 e^{t T} e_1, so the error e = x - x_m solves e' =
L e + (beta h / gamma) u' phi, e(0) = 0, and

    |e(t)|_1 <= _CONTRACTION (beta h / gamma) |u'|_1 int_0^t |phi(s)| ds.

This needs z z^T well away from 0: the basis takes only a seed whose trace
does not cancel, |v0|_1 <= 2 |theta v0| (every positive seed, whose
blocks have |y|_1 <= 2 Tr), so that |z|_2 >= |z_1| >= 1/2.

The m x m propagation steps with the same reuse rule as the stepping, by
the full step, and takes the midpoint of each step from its start by the
half step. The integral is estimated step by step, as the step's length
times the largest |phi| of its two ends and its midpoint. That is an
estimate, not a bound: |phi| is a sum of exponentials of T and may peak
between samples, and it lies far below |e_m^T H_m^-1|_2 |psi(s)|_2
(1e-21 against 28 at t = 0.73 on the spectral model at m = 24), so no
norm of e^{s T} bounds it usefully. On two random r_max = 60 models over
the spectral grid the estimate exceeds a quadrature of 400 samples per
step at every point, by 10 to 60 times, most of it from the first step;
on one later step of the second it fell short by 3.5e-7 relative. A
point is accepted only if it passes three checks:
- the relation: each column of (I - gamma L) V_{m+1} H_m underlined - V_m,
  formed from the real L and the basis, within _BACKWARD_ERROR_FACTOR
  dim eps of |I - gamma L|_1 |V_{m+1} H_m e_j|_1 + |v_j|_1, the ratio
  that the solves of ``steady`` are checked by (measured 0.003 to 0.005
  dim eps on the benchmark's spectral models), so that the derivation
  above holds for the computed basis;
- the truncation estimate above within dim eps |v0|_1;
- the trace: theta x(t) = theta v0 exactly, and theta x_m(t) = theta v0
  as z T = 0; the computed column passes within the truncation estimate
  plus _BACKWARD_ERROR_FACTOR dim eps |v0|_1 for the rounding of the m x
  m propagation, whose propagators must keep z E = z on the trace-free
  part, and of beta V_m psi.
The first check costs O(dim^2 m) once per checkpoint, the others O(m^2)
and O(dim m) per point. A checkpoint makes them only once a screen
passes: the estimate at the last pending point, were |phi| nowhere larger
than at 0.

A complex v0 is not tried. The basis rounds every coordinate of x at
about eps |x|_1, the stepping each at the rounding of its own terms, so a
readout that cancels keeps its digits only from the stepping. The
imaginary part of C1, whose seed rho sigma^+ is complex, is such a
readout: on the spectral model it is 1/200 of each of its two halves,
read from the propagations of Re v0 and Im v0, and against a long-double
reference the basis is 2.5e-13 of its largest value off (a real basis for
each part 1.2e-12), the stepping 2e-14. C2 and g2 (seed J rho, positive)
take the basis: on the spectral model at four seeds it is 5e-15 to 1e-14
of a column's largest value off that reference, the stepping 1.5e-15 to
5.4e-15, and the two agree within 1.3e-14.

Before its first vector the basis is given the largest checkpoint m < dim
at which its flops (``_krylov_cost``) and those of one acceptance's m x m
propagations cost at most half those of the stepping (``_expm_flops`` per
new step, one product per point), so that should nothing be accepted,
the attempt and the stepping cost at most 3/2 of the stepping alone; on
small models that attempt can be wasted. Every point not accepted, and
every grid where the basis is not tried, takes the stepping, run over
the grid up to the last such point, so that it equals the stepping of
the whole grid bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (SIGMA, SIGMA_DAG, BlockState, ModelSpec, SuperOp, readout,
                    trace_functional)
from .steady import (_BACKWARD_ERROR_FACTOR, _CALL_FLOPS, _EPS, _KRYLOV_STEP, Prepared,
                     _arnoldi, _krylov_cost, _squarings, expm, prepare)


# |e^{tL}|_1 <= 4 in the real coordinates, for every t >= 0 (see the
# module docstring)
_CONTRACTION = 4.0


class ZeroIntensity(Exception):
    """Stationary intensity vanishes; normalized correlations undefined."""


@dataclass(frozen=True, eq=False)
class ObservableSeries:
    """The values of one observable on a strictly increasing abscissa."""

    abscissa: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.abscissa, dtype=float)
        v = np.asarray(self.values)
        if a.shape != (v.shape[0],):
            raise ValueError(f"abscissa length {a.shape} != values length {v.shape}")
        object.__setattr__(self, "abscissa", _increasing(a))
        object.__setattr__(self, "values", v)


def _increasing(grid) -> np.ndarray:
    """grid as a float array; ValueError unless it is finite and strictly
    increasing. Every grid is checked here before its first point is
    computed."""
    grid = np.asarray(grid, dtype=float)
    if not (np.isfinite(grid).all() and (grid.size < 2 or (np.diff(grid) > 0).all())):
        raise ValueError("grid must be finite and strictly increasing")
    return grid


def propagate_on_grid(generator: SuperOp, v0: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """e^{t L} v0 for every t in a strictly increasing grid, t >= 0.

    For a real v0 whose trace does not cancel (|v0|_1 <= 2 |theta v0|, as
    for every positive seed), first from one Arnoldi basis of A = (I -
    gamma L)^-1 for the whole grid, with the pole gamma = t_max / 10, where
    the basis pays (``_krylov_on_grid``): x_m(t) = beta V_m e^{t T} e_1,
    with T the projection (I - H_m^-1) / gamma of L made to conserve the
    trace. A point is taken from it only if the relation (I - gamma L)
    V_{m+1} H_m underlined = V_m holds within the backward error of a
    solve, the truncation estimate _CONTRACTION (beta h_{m+1,m} / gamma)
    |u'|_1 int_0^t |phi|, its integral sampled at both ends and the
    midpoint of each step, lies within dim eps |v0|_1, and theta x(t) =
    theta v0 within that estimate and the rounding (see the module
    docstring for the derivations). Every other point, every grid where
    the basis would not pay and every other v0 take sequential expm
    stepping in real arithmetic, on the real and imaginary parts of v0,
    with the trace check of each step propagator (``_expm_on_grid``), run
    over the grid up to the last such point so that each equals the
    stepping of the whole grid bit for bit. Returns shape (len(grid),
    dim); FloatingPointError, naming the first such t, when e^{t L} v0 is
    not finite (an overflow, unwarned) or a step propagator fails the
    trace check.
    """
    grid = _increasing(grid)
    if grid.size and grid[0] < 0:
        raise ValueError("grid must be nonnegative")
    out, accepted = _krylov_on_grid(generator, v0, grid)
    if not accepted.any():
        # as it is, in its own memory order, which sets the rounding of a
        # product with a readout
        return _expm_on_grid(generator, v0, grid)
    if not accepted.all():
        rest = ~accepted[:np.flatnonzero(~accepted)[-1] + 1]
        out[:rest.size][rest] = _expm_on_grid(generator, v0, grid[:rest.size])[rest]
    return out


def _steps(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The step of each grid point from the one before (from t = 0 for the
    first), and whether it takes a new step propagator: the last one is
    reused while a step lies within 1e-12 relative of its step."""
    steps = np.diff(grid, prepend=0.0)
    new, step = [], 0.0
    for dt in steps.tolist():                  # Python floats: the same arithmetic, faster
        new.append(dt > 0 and abs(dt - step) > 1e-12 * step)
        step = dt if new[-1] else step
    return steps, np.array(new, bool)


def _expm_on_grid(generator: SuperOp, v0: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """e^{t L} v0 on the grid by expm stepping (``_steps``), each new step
    propagator E = e^{dt L} with the trace check of ``_trace_check``, made
    on all of them at the end, or before the first point that is not
    finite on those before it, so that the first failure raises."""
    m = generator.matrix
    theta = trace_functional(generator.r_max)
    out = np.empty((v0.size, grid.size), dtype=complex)
    v = np.column_stack([v0.real, v0.imag])    # real products with the propagators
    steps, new = _steps(grid)
    firsts = np.flatnonzero(new)               # the first point of each new step
    rows = np.empty((firsts.size, theta.size))  # theta E of each new step
    k = 0
    with np.errstate(all="ignore"):            # an overflow shows as inf or NaN
        for i, (dt, fresh) in enumerate(zip(steps.tolist(), new.tolist())):
            if fresh:
                prop = expm(dt * m)
                np.matmul(theta, prop, out=rows[k])
                k += 1
            if dt > 0:
                v = prop @ v
                if not np.isfinite(v).all():
                    _trace_check(generator, grid, firsts[:k - fresh], rows[:k - fresh])
                    raise FloatingPointError(f"e^(tL) v0 at t = {grid[i]} is not finite")
            out[:, i] = v[:, 0] + 1j * v[:, 1]
        _trace_check(generator, grid, firsts, rows)
    return out.T


def _trace_check(generator: SuperOp, grid: np.ndarray, firsts: np.ndarray,
                 rows: np.ndarray) -> None:
    """FloatingPointError naming the first point t = grid[i] of firsts
    whose step propagator E, theta E in rows, fails |theta E - theta|_inf
    <= (_BACKWARD_ERROR_FACTOR + 2) dim eps (1 + _CONTRACTION)^s, s its
    squaring count (see the module docstring)."""
    tol = (_BACKWARD_ERROR_FACTOR + 2) * generator.dim * _EPS
    resid = np.abs(rows - trace_functional(generator.r_max)).max(axis=1, initial=0.0)
    # the bound at s = 0 passes most steps without their s
    for j in np.flatnonzero(~(resid <= tol)):
        i = firsts[j]
        s = _squarings(np.abs((grid[i] - grid[i - 1] if i else grid[0]) * generator.matrix)
                       .sum(axis=0).max())
        bound = tol * (1.0 + _CONTRACTION) ** np.float64(s)
        if not resid[j] <= bound:
            raise FloatingPointError(
                f"e^(tL) at t = {grid[i]} fails the trace check: |theta E - "
                f"theta| = {resid[j]:.3e} exceeds {bound:.3e} ({s} squarings)")


def _krylov_on_grid(generator: SuperOp, v0: np.ndarray,
                    grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """e^{t L} v0 on the grid from one Arnoldi basis of A = (I - gamma
    L)^-1, gamma = t_max / 10 (see the module docstring): the columns
    (len(grid), dim), complex, and the mask of the points accepted; every
    other point is left to ``_expm_on_grid``.

    The basis of ``steady._arnoldi`` is checked at each of its
    checkpoints, on the points up to the last one not yet accepted, once the
    ratio of the truncation estimate there, were |phi| no larger than at
    0, to dim eps |v0|_1 is at most 1. It stops at the largest size that
    ``_tau_basis_size`` allows, and once the relation check fails. Nothing
    is accepted for a v0 that is zero, not real or whose trace cancels
    (|v0|_1 > 2 |theta v0|), t_max = 0, or where I - gamma L is
    singular."""
    l, dim = generator.matrix, generator.dim
    x, accepted = np.zeros((grid.size, dim), complex), np.zeros(grid.size, bool)
    theta = trace_functional(generator.r_max)
    with np.errstate(all="ignore"):
        beta = np.sqrt(np.vdot(v0, v0).real)
    v0, is_real = np.real(v0), not np.imag(v0).any()
    # its first checkpoint, _KRYLOV_STEP vectors, must lie below dim
    if not (is_real and dim > _KRYLOV_STEP and grid.size and grid[-1] > 0
            and 0 < beta < np.inf and np.abs(v0).sum() <= 2.0 * abs(theta @ v0)):
        return x, accepted
    steps, new = _steps(grid)
    with np.errstate(all="ignore"):
        m_max = _tau_basis_size(dim, grid.size,
                                _squarings(steps[new] * np.abs(l).sum(axis=0).max()))
    if not m_max:
        return x, accepted
    gamma = grid[-1] / 10.0
    b = np.multiply(l, -gamma)
    b.reshape(-1)[::dim + 1] += 1.0                # I - gamma L
    norm_b = np.abs(b).sum(axis=0).max()
    try:
        a = np.linalg.inv(b)
    except np.linalg.LinAlgError:
        return x, accepted
    # the checks form (I - gamma L) X as X - gamma L X: one dim x dim array
    # less held through the basis
    del b
    tol_v = dim * _EPS * np.abs(v0).sum()
    # A and v0 are real, so the basis and H_m are: the checks take the real parts
    with np.errstate(all="ignore"):        # a basis that overflows is not accepted
        for m, basis, hess, exact in _arnoldi(a, v0, beta, m_max):
            n = np.flatnonzero(~accepted)[-1] + 1
            try:
                h_inv = np.linalg.inv(hess[:m].real)
            except np.linalg.LinAlgError:
                break
            rows = m if exact else m + 1           # H_m underlined, or H_m alone
            basis, hess = basis[:rows].real, hess[:rows].real
            c = 0.0 if exact else _residual_constant(l, basis, theta, hess[m, m - 1], gamma, beta)
            # the screen: the estimate at t_n, were |phi| no larger than at 0
            if c * grid[n - 1] * abs(h_inv[-1, 0]) <= tol_v:
                ok, xs, failed = _tau_accept(l, norm_b, basis, hess, h_inv, c, beta, v0, theta,
                                             grid[:n], steps[:n], new[:n], gamma, tol_v)
                idx = np.flatnonzero(ok & ~accepted[:n])
                x[idx], accepted[idx] = xs[idx], True
                if failed:
                    break
            if exact or accepted.all():
                break
    if grid[0] == 0.0 and accepted[0]:
        x[0] = v0                                  # e^{0 L} v0, exactly
    return x, accepted


def _residual_constant(l, basis, theta, h, gamma, beta) -> float:
    """_CONTRACTION beta h_{m+1,m} / gamma |u'|_1 for the basis (m + 1, dim),
    real, with u' = (I - gamma L) v_{m+1} - (theta v_{m+1}) V_m y, y = z^T /
    (z z^T), z = theta V_m, the residual of the trace-conserving projection
    (see the module docstring)."""
    z = basis[:-1] @ theta
    u = basis[-1] - gamma * (l @ basis[-1]) - (theta @ basis[-1]) * ((z / (z @ z)) @ basis[:-1])
    return _CONTRACTION * beta * h / gamma * np.abs(u).sum()


def _tau_accept(l, norm_b, basis, hess, h_inv, c, beta, v0, theta, grid, steps, new, gamma,
                tol_v) -> tuple[np.ndarray, np.ndarray, bool]:
    """For the generator l, norm_b = |I - gamma l|_1, at basis size m =
    hess.shape[1], with basis (m + 1, dim) and hess the (m + 1, m)
    Hessenberg matrix H_m underlined (at an invariant subspace, basis
    (m, dim) and H_m alone), all real, h_inv = H_m^-1 and c the
    residual's constant (``_residual_constant``): the mask of the grid
    points that pass the three checks (see the module docstring), the
    columns beta V_m psi(t) (k, dim) of the first k points, k up to the
    last one passed, and whether the relation check failed. tol_v is
    dim eps |v0|_1."""
    m, dim, n = hess.shape[1], l.shape[0], grid.size
    psis, integral = _projected_propagation(basis, hess, h_inv, theta, gamma, steps, new)
    estimate = c * integral
    ok = estimate <= tol_v
    if not ok.any():
        return ok, np.empty((0, dim)), False
    # the relation (I - gamma L) V_{m+1} H_m = V_m, columnwise
    vh = basis.T @ hess
    resid = np.abs(vh - gamma * (l @ vh) - basis[:m].T).sum(axis=0)
    scale = norm_b * np.abs(vh).sum(axis=0) + np.abs(basis[:m]).sum(axis=1)
    if not (resid <= _BACKWARD_ERROR_FACTOR * dim * _EPS * scale).all():
        return np.zeros(n, bool), np.empty((0, dim)), True
    k = np.flatnonzero(ok)[-1] + 1
    xs = beta * (psis[:k, 1] @ basis[:m])
    ok[:k] &= np.abs(xs @ theta - theta @ v0) <= estimate[:k] + _BACKWARD_ERROR_FACTOR * tol_v
    return ok, xs, False


def _projected_propagation(basis, hess, h_inv, theta, gamma, steps,
                           new) -> tuple[np.ndarray, np.ndarray]:
    """psi(s) = e^{s T} e_1, with T the trace-conserving projection of L
    on the basis (see the module docstring; arguments as for
    ``_tau_accept``), at the midpoint and at the end of each step (n, 2,
    m), and the estimate of int_0^t |phi| at each point: each step's length
    times the largest |phi| of its two ends and its midpoint."""
    m, n = hess.shape[1], steps.size
    # T = T_m + (h / gamma) (theta v_{m+1}) y e_m^T H_m^-1 has z T = 0, z =
    # theta V_m, y = z^T / (z z^T); r spans its null space, z r = 1
    z = basis[:m] @ theta
    t = (np.eye(m) - h_inv) / gamma
    if hess.shape[0] > m:
        t += np.multiply.outer(z / (z @ z),
                               hess[m, m - 1] / gamma * (theta @ basis[m]) * h_inv[-1])
    r = _null_vector(t, z)
    # e^{s T} = r z + e^{s T} (I - r z): the half and the full step of each
    # new step on the trace-free part, in one call, and the conserved part
    # z psi = z e_1 added back as it is
    dts = steps[new]
    props = expm(np.concatenate([dts / 2, dts])[:, None, None] * t)
    props -= np.matmul(props, r[:, None]) * z
    a0r = z[0] * r
    which = np.cumsum(new) - 1
    psi, psis = np.eye(m, 1)[:, 0], np.empty((n, 2, m))
    for i in range(n):
        if steps[i] > 0:
            np.add(props[which[i]] @ psi, a0r, out=psis[i, 0])
            psi = np.add(props[dts.size + which[i]] @ psi, a0r, out=psis[i, 1])
        else:
            psis[i] = psi
    # |phi(s)| = |e_m^T H_m^-1 psi(s)| at each midpoint and point
    phi = np.abs(psis @ h_inv[-1])
    start = np.append(abs(h_inv[-1, 0]), phi[:-1, 1])
    return psis, np.cumsum(steps * np.maximum(start, phi.max(axis=1)))


def _null_vector(t: np.ndarray, z: np.ndarray) -> np.ndarray:
    """r with t r = 0 and z r = 1, for t with the left null vector z and a
    simple zero eigenvalue: (t + y z) r = y, y = z^T / (z z^T), gives z r =
    1 from z t = 0 and z y = 1, and then t r = y (1 - z r) = 0."""
    return np.linalg.solve(t + np.multiply.outer(z / (z @ z), z), z / (z @ z))


def _expm_flops(dim: int, s) -> np.ndarray:
    """The flops of ``steady.expm`` on a real dim x dim matrix with s
    squarings, for each of an array of s: the [13/13] Pade approximant's six
    products and one solve (44/3 dim^3) and 2 dim^3 per squaring, with its
    45 numpy calls and one per squaring counted as _CALL_FLOPS each, as
    ``steady._krylov_cost`` counts them."""
    return (44 / 3 + 2 * s) * dim ** 3 + (45 + s) * _CALL_FLOPS


def _tau_basis_size(dim: int, n: int, s) -> int:
    """The largest multiple m of _KRYLOV_STEP below dim (or 0) at which the
    tau basis of a grid of n points, whose new steps take s squarings each
    in the stepping, costs at most half the stepping: the basis and its
    checkpoints (``_krylov_cost``) plus one acceptance's two m x m
    propagators per new step, against one dim x dim propagator per new step
    and one product with it per point (4 dim^2 flops and 6 calls)."""
    stepping = _expm_flops(dim, s).sum() + n * (4 * dim ** 2 + 6 * _CALL_FLOPS)
    m = 0
    while (m + _KRYLOV_STEP < dim
           and 2 * (_krylov_cost(dim, 0, 0, m + _KRYLOV_STEP)
                    + 2 * _expm_flops(m + _KRYLOV_STEP, s).sum()) <= stepping):
        m += _KRYLOV_STEP
    return m


def _regression(p: Prepared, seed: np.ndarray, w: np.ndarray, tau_grid):
    """(tau, w . e^{tau L} seed) on a tau grid, vectors in the coordinates
    of BlockState.to_vector."""
    tau = np.asarray(tau_grid, float)
    return tau, propagate_on_grid(p.generator, seed, tau) @ w


def qrt_two_time(model: ModelSpec | Prepared, o1: np.ndarray, a: np.ndarray,
                 o2: np.ndarray, tau_grid) -> ObservableSeries:
    """Stationary <O1(t) A(t+tau) O2(t)> of a ModelSpec or Prepared on a tau
    grid (complex values)."""
    p = prepare(model)
    seeds = np.einsum("ij,rjk,kl->ril", np.asarray(o2, complex), p.steady.blocks,
                      np.asarray(o1, complex))
    w = readout(a, np.ones(p.spec.r_max))
    tau, vals = _regression(p, BlockState(seeds).to_vector(), w, tau_grid)
    return ObservableSeries(tau, vals)


def _c1_pieces(spec: ModelSpec, st: BlockState):
    """Seed blocks sqrt(gt_R') rho_R'^inf sigma† and the readout weight
    vector picking sqrt(gt_R) Tr{sigma .} = sqrt(gt_R) x_ba per block."""
    sq = np.sqrt(spec.effective_decays())
    seeds = sq[:, None, None] * (st.blocks @ SIGMA_DAG)
    return seeds, readout(SIGMA, sq)


def c1(model: ModelSpec | Prepared, tau_grid) -> ObservableSeries:
    """Dimensionless first-order field correlation C1(tau), tau >= 0, of a
    ModelSpec or Prepared.

    C1(-tau) is defined by conjugation; C1(0) equals the stationary
    intensity and C1(inf) the coherent spectral weight.
    """
    p = prepare(model)
    seeds, w = _c1_pieces(p.spec, p.steady)
    tau, vals = _regression(p, BlockState(seeds).to_vector(), w, tau_grid)
    return ObservableSeries(tau, vals)


def c2(model: ModelSpec | Prepared, tau_grid) -> ObservableSeries:
    """Dimensionless intensity correlation C2(tau) = Tr J e^{tau L} J rho_inf
    (real) of a ModelSpec or Prepared."""
    p = prepare(model)
    readout = trace_functional(p.spec.r_max) @ p.jump
    tau, vals = _regression(p, p.jump @ p.steady.to_vector(), readout, tau_grid)
    return ObservableSeries(tau, np.real(vals))


def stationary_intensity(model: ModelSpec | Prepared) -> float:
    """I_st = Tr J rho_inf = sum_R gamma_tilde_R <b|rho_R^inf|b> (ModelSpec
    or Prepared); one value per point of a stacked Prepared."""
    p = prepare(model)
    theta = trace_functional(p.generator.r_max)
    i_st = np.real((theta @ p.jump) @ p.steady.to_vector()[..., None])[..., 0]
    return i_st if i_st.ndim else float(i_st)


def g2(model: ModelSpec | Prepared, tau_grid) -> ObservableSeries:
    """Normalized intensity correlation g2(tau) = C2(tau)/I_st^2 (ModelSpec
    or Prepared)."""
    p = prepare(model)
    i_st = stationary_intensity(p)
    if i_st <= 1e-300:
        raise ZeroIntensity("stationary intensity is zero; g2 undefined")
    series = c2(p, tau_grid)
    return ObservableSeries(series.abscissa, series.values / i_st**2)
