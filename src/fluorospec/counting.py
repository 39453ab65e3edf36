"""Photon-counting statistics via the generating-operator evolution.

Writing the block state conditioned on n detections as rho^(n), the
generating operator G(t,s) = sum_n s^n rho^(n) evolves under L0 + s J,
where J collects exactly the detection gains (the own-block gamma_R and
cross gamma_RR' recycling terms) and L0 everything else, L0 + J = L.

P_n(t) follows by inverting the probability generating function
g(s) = theta e^{t(L0 + s J)} x0 = sum_n P_n s^n: one small matrix
exponential at each of N points s_k = r e^{2 pi i k/N} on a circle and one
inverse FFT (Abate & Whitt, ORSA J. Comput. 4, 5 (1992); s is the counting
field of full counting statistics). The inversion folds the mass at n >= N
onto P_0..P_{N-1}; a Chernoff bound P(n >= N) <= g(z) z^-N at one real
z > 1 bounds that aliased mass and is reported next to the truncation
remainder. Factorial moments come from the exact s-derivative chain at
s = 1 (never finite-differenced). The stationary Mandel factor comes from
the Laurent expansion (u - L)^-1 = P/u + R0 + O(u) of the Laplace-domain
resolvent, applied to one vector: R0 J rho_inf is the trace-free solution
of L x = (P - Id) J rho_inf, one real column solved against the
elimination onto the configurational chain (``steady.eliminate``) that
rho_inf is solved against too, by the same ``Elimination.resolve``: one
product with its Z_ff^-1, no second LU of the fast block, then the
r_max x r_max stochastic complement S with sum x_t = 0, so that slow
configurational hops enter Q_st only through S, as they enter the
steady state; the product and the result on the full
system are certified by their backward errors. ``detuning_sweep``
evaluates Q_st or the line shape over a grid of laser detunings: it
prepares the model once, at detuning 0 (the spec is replaced only when
its detuning is not +0.0), and cuts the grid into contiguous chunks, at
least one per worker of the package's one thread map, ``_parallel_map``
(which the CLI's counting task uses as well), and more where a chunk's
stack of generators would exceed the byte cap ``_STACK_BYTES``. Each chunk is one stacked
Prepared (``Prepared.at_detuning`` of its array of detunings, one broadcast
of ``model.shift_detuning`` that keeps the spec at detuning 0), whose
steady states and Q_st columns are solved against one stacked elimination;
every point is certified on its own, a point that fails takes the dense
fallback on its own, and a chunk that raises is evaluated again point by
point, so that the first failing point in grid order raises what it
raises alone.

Counting convention: unit detector efficiency over the full solid angle,
so the stationary count rate equals the stationary intensity. General
(eta) jump channels are never counted as detections, whatever their
operator; extending detection to eta channels with a lowering operator
would be a behavioural change, not a bug fix.
"""
from __future__ import annotations

import dataclasses
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .correl import ObservableSeries, _increasing, stationary_intensity
from .model import BlockState, ModelSpec, SuperOp, trace_functional
from .steady import Prepared, eliminate, expm, prepare, steady_state


class ZeroCounts(Exception):
    """Mean count vanishes; Mandel factor undefined."""


@dataclass(frozen=True, eq=False)
class CountingSplit:
    """L(s) = drift + s * jump with L(1) the full generator; jump holds the
    detection gains only (pure completely-positive gain terms)."""

    drift: SuperOp
    jump: SuperOp


@dataclass(frozen=True, eq=False)
class CountingRecord:
    """Counting distribution and moments at one time.

    remainder = 1 - sum(pn) is the probability mass beyond the truncation
    n_max; aliasing bounds the mass that the FFT inversion folded onto pn.
    Both are reported, never silently renormalized away.
    """

    t: float
    pn: np.ndarray
    mean: float
    second_factorial: float
    mandel_q: float
    remainder: float
    aliasing: float


def counting_split(model: ModelSpec | Prepared) -> CountingSplit:
    """Split L of a ModelSpec or Prepared into detection gains J and L0 = L - J."""
    p = prepare(model)
    return CountingSplit(drift=SuperOp(p.generator.matrix - p.jump),
                         jump=SuperOp(p.jump))


def _counting_inputs(model: ModelSpec | Prepared, t: float, initial: BlockState | None):
    """(L, J, x0) for the counting hierarchy; x0 is the steady state unless
    an initial state is given."""
    if not np.isfinite(t) or t < 0:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    p = prepare(model)
    if initial is None:
        x0 = p.steady.to_vector()
    elif initial.r_max != p.spec.r_max:
        raise ValueError(f"initial state has {initial.r_max} blocks, spec has {p.spec.r_max}")
    else:
        x0 = initial.to_vector()
    return p.generator.matrix, p.jump, x0


def _check_n_max(n_max: int) -> None:
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")


_LOG_EPS = np.log(np.finfo(float).eps)


def _log_chernoff(g) -> tuple[float, float]:
    """(log g(z), log z) at the largest z = 1 + 2^-k with g(z) finite and
    positive, so that P(n >= N) <= exp(log g(z) - N log z). g(z) grows
    like e^{t lambda(z)} and overflows for long times, and decreases to
    g(1) = 1 as k grows: k is probed at 0, 1, 2, 4, ..., 32, 52 and then
    bisected between the last failing probe and the first passing one, at
    most 13 evaluations of g. (0, 0) is the trivial bound P(n >= N) <= 1
    when no such z is found."""
    def at(k):
        z = 1.0 + 2.0**-k
        with np.errstate(all="ignore"):
            gz = g(z).real
        if np.isfinite(gz) and gz > 0:
            return float(np.log(gz)), float(np.log(z))
        return None

    lo = -1                                    # the largest k known to fail
    for hi in (0, 1, 2, 4, 8, 16, 32, 52):
        found = at(hi)
        if found:
            break
        lo = hi
    else:
        return 0.0, 0.0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        probe = at(mid)
        if probe:
            hi, found = mid, probe
        else:
            lo = mid
    return found


def _pn(full, j, x0, t, n_max) -> tuple[np.ndarray, float]:
    """(P_0..P_nmax, bound on the aliased mass) by FFT inversion of
    g(s) = theta e^{t(L0 + s J)} x0 at s_k = r e^{2 pi i k/N}.

    The inversion returns P_n + sum_{m>=1} P_{n+mN} r^{mN}, so the aliased
    mass on P_0..P_nmax is at most r^N P(n >= N). N is the smallest power
    of two >= 2(n_max+1) at which that bound reaches double-precision
    rounding with a radius r <= 1 whose amplification r^-n_max of rounding
    errors stays <= 2; r = 1 unless the mean count far exceeds n_max, where
    the unit circle would need N of the order of the mean count. g is
    evaluated at all points of the circle in stacked ``expm`` calls of at
    most _STACK_BYTES of matrices each; every value is computed per point,
    so P_n does not depend on the stacking. FloatingPointError when P_n is
    not finite (an overflow, unwarned).
    """
    theta = trace_functional(j.shape[0] // 4)
    drift = full - j
    per_chunk = max(1, _STACK_BYTES // (np.dtype(complex).itemsize * full.size))

    def g(s):
        """g at each point of the 1-d array s."""
        return np.concatenate(
            [(expm(t * (drift + s[i:i + per_chunk, None, None] * j)) @ x0) @ theta
             for i in range(0, s.size, per_chunk)])

    log_g, log_z = _log_chernoff(lambda z: g(np.array([z]))[0])
    n = 1 << (2 * n_max + 1).bit_length()
    while True:
        log_tail = min(0.0, log_g - n * log_z)
        log_r = min(0.0, (_LOG_EPS - log_tail) / n)
        if -n_max * log_r <= np.log(2.0):
            break
        n *= 2
    radius = np.exp(log_r)
    with np.errstate(all="ignore"):            # an overflow shows as inf or NaN
        # P_n is real, so g(conj s) = conj g(s): the half circle suffices
        vals = g(radius * np.exp(2j * np.pi * np.arange(n // 2 + 1) / n))
        probs = np.fft.irfft(np.conj(vals), n)[:n_max + 1] / radius ** np.arange(n_max + 1)
    if not np.isfinite(probs).all():
        raise FloatingPointError(f"P_n at t = {t} is not finite")
    missing = 1.0 - probs.sum()
    if missing > 1e-6:
        warnings.warn(f"P_n truncation at n_max={n_max} leaves mass {missing:.3e}",
                      stacklevel=3)
    return probs, float(np.exp(n * log_r + log_tail))


def _moments(full, j, x0, t) -> tuple[float, float]:
    """Traces of x' and x'' in the chain of ``_factorial_moments`` from
    (x0, 0, 0): one block-bidiagonal matrix exponential. FloatingPointError
    when they are not finite (an overflow, unwarned)."""
    dim = full.shape[0]
    big = np.kron(np.eye(3), full) + np.kron(np.diag([1.0, 2.0], k=-1), j)
    x = np.zeros(3 * dim, dtype=complex)
    x[:dim] = x0
    with np.errstate(all="ignore"):            # an overflow shows as inf or NaN
        y = expm(t * big) @ x
    if not np.isfinite(y).all():
        raise FloatingPointError(f"factorial moments at t = {t} are not finite")
    traces = np.real(y.reshape(3, dim) @ trace_functional(dim // 4))
    return float(traces[1]), float(traces[2])


def _mandel(mean, second, t) -> float:
    """Q(t) = (N2f + N - N^2)/N - 1; Q(0) = 0 is the t -> 0 limit, since
    N2f = O(t^2) and N = O(t)."""
    if t == 0:
        return 0.0
    if mean <= 1e-300:
        raise ZeroCounts(f"mean count {mean} at t={t}; Mandel factor undefined")
    return (second + mean - mean**2) / mean - 1.0


def pn(model: ModelSpec | Prepared, t: float, n_max: int,
       initial: BlockState | None = None) -> np.ndarray:
    """P_0(t) .. P_nmax(t) of a ModelSpec or Prepared, from its steady state
    by default.

    FFT inversion of the generating function theta e^{t(L0 + s J)} x0 from
    one 4r_max x 4r_max matrix exponential per point on a circle, with the
    aliased mass held at double-precision rounding (``counting_record``
    reports its bound); warns when the truncated mass 1 - sum P_n exceeds
    1e-6. FloatingPointError when the matrix exponentials overflow.
    """
    _check_n_max(n_max)
    return _pn(*_counting_inputs(model, t, initial), t, n_max)[0]


def _factorial_moments(model: ModelSpec | Prepared, t: float,
                       initial: BlockState | None = None) -> tuple[float, float]:
    """Exact (N_bar, N_bar^(2)) via the augmented s-derivative chain at s=1:
    d/dt (x, x', x'') = ((L,0,0), (J,L,0), (0,2J,L)) (x, x', x'')."""
    return _moments(*_counting_inputs(model, t, initial), t)


def mean_counts(model: ModelSpec | Prepared, t: float,
                initial: BlockState | None = None) -> float:
    """Mean number of detections up to time t (ModelSpec or Prepared)."""
    return _factorial_moments(model, t, initial)[0]


def second_factorial(model: ModelSpec | Prepared, t: float,
                     initial: BlockState | None = None) -> float:
    """Second factorial moment <N(N-1)> up to time t (ModelSpec or Prepared)."""
    return _factorial_moments(model, t, initial)[1]


def mandel_q(model: ModelSpec | Prepared, t: float,
             initial: BlockState | None = None) -> float:
    """Q(t) = (<N^2> - <N>^2)/<N> - 1 = (N2f + N - N^2)/N - 1 (ModelSpec or
    Prepared); 0 at t = 0, ZeroCounts when the mean count vanishes at t > 0."""
    return _mandel(*_factorial_moments(model, t, initial), t)


# The stationary count rate lim dN/dt is the stationary intensity.
line_shape = stationary_intensity


def _parallel_map(fn, items: list, threads: int) -> list:
    """[fn(x) for x in items], in order, on at most ``threads`` worker
    threads and never more than there are items or CPUs; inline when that
    leaves one worker (or none, for no items)."""
    workers = min(threads, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# The most bytes of stacked generators that one chunk of a detuning sweep
# holds (8192 points at r_max = 1, 20 at r_max = 20, one from r_max = 65
# on), and of complex matrices that one ``expm`` call of P_n takes (1024
# points of the circle at r_max = 2, 163 at r_max = 5, one from r_max = 46
# on), so that memory does not grow with the grid or the circle; the other
# arrays of the elimination and of ``expm`` take a few times as much.
_STACK_BYTES = 1 << 20


def detuning_sweep(observable, spec: ModelSpec, delta_grid,
                   threads: int = 1) -> ObservableSeries:
    """observable(model at detuning delta) for each delta of a strictly
    increasing grid, in grid order, from spec prepared once at detuning 0,
    replaced there only when its detuning is not +0.0, so that not even
    the sign of a zero depends on spec's own detuning.

    The grid is cut into contiguous chunks, at least min(threads, points,
    CPUs) of them and more where a chunk's stack of generators would exceed
    _STACK_BYTES, and the chunks are spread over up to ``threads`` worker
    threads. ``observable`` is called once per chunk, on the stacked
    Prepared of its points (``Prepared.at_detuning`` of the chunk's array,
    each point bit for bit the model built there), and returns one value
    per point, as ``line_shape`` and ``stationary_mandel`` do. Every point
    is solved and certified on its own, so no value depends on the
    chunking. When a chunk raises, its points are evaluated again one at a
    time, each as a stack of one, so the first failing point in grid order
    raises what it raises alone. ValueError, before any point, when the
    grid is not increasing."""
    grid = _increasing(delta_grid)
    at_zero = spec.detuning == 0 and not np.signbit(spec.detuning)
    base = prepare(spec if at_zero else dataclasses.replace(spec, detuning=0.0))
    per_chunk = max(1, _STACK_BYTES // base.generator.matrix.nbytes)
    count = max(min(threads, grid.size, os.cpu_count() or 1), -(-grid.size // per_chunk))
    chunks = np.array_split(grid, count) if grid.size else []

    def values(deltas):
        try:
            return observable(base.at_detuning(deltas))
        except Exception:
            for i in range(deltas.size):     # the first failing point raises
                observable(base.at_detuning(deltas[i:i + 1]))
            raise

    return ObservableSeries(grid, np.concatenate(
        [np.empty(0), *_parallel_map(values, chunks, threads)]))


def counting_record(model: ModelSpec | Prepared, t: float, n_max: int,
                    initial: BlockState | None = None) -> CountingRecord:
    """The full counting snapshot at time t (ModelSpec or Prepared); raises
    ZeroCounts, like ``mandel_q``, when the mean count vanishes at t > 0,
    and FloatingPointError when a matrix exponential overflows."""
    _check_n_max(n_max)
    full, j, x0 = _counting_inputs(model, t, initial)
    probs, aliasing = _pn(full, j, x0, t, n_max)
    mean, second = _moments(full, j, x0, t)
    return CountingRecord(t=t, pn=probs, mean=mean, second_factorial=second,
                          mandel_q=_mandel(mean, second, t),
                          remainder=float(1.0 - probs.sum()), aliasing=aliasing)


def stationary_mandel(model: ModelSpec | Prepared) -> float:
    """Exact stationary Mandel factor Q_st = 2 theta J x / I_st of a
    ModelSpec or Prepared, the t -> infinity limit of Q(t).

    x = R0 J rho_inf, with R0 the reduced resolvent of the Laurent expansion
    (u - L)^-1 = P/u + R0 + O(u), P = rho_inf theta, is the trace-free
    solution of L x = (P - Id) J rho_inf = I_st rho_inf - J rho_inf: one
    real column. Both rho_inf (``steady_state`` of the record) and this
    column are solved against one elimination onto the configurational
    chain (``steady.eliminate``) by ``Elimination.resolve``, each with one
    product with its Z_ff^-1 and one r_max x r_max LU, and at each point
    where a check fails, the dense bordered solve at the shift 0
    (``Elimination.solve``; SingularShift if its backward error fails).
    The record is let go on return, and a Prepared's solved steady state
    is not read. The limit does not depend on the initial state x0 of
    trace 1: the asymptotes 2(a + b t) of the mean count and
    2(C + A t + B t^2) of the second factorial moment give
    Q_st = A/b - 4a with b = I_st / 2, a = theta J R0 x0 / 2 and
    A = 2 I_st a + theta J R0 J rho_inf, so that
    Q_st = 2 theta J R0 J rho_inf / I_st + 4a - 4a. ZeroCounts when I_st
    vanishes. A stacked Prepared gives one Q_st per point, from one stacked
    solve (``detuning_sweep``).
    """
    p = prepare(model)
    theta = trace_functional(p.generator.r_max)
    tj = theta @ p.jump
    e = eliminate(p.generator)
    rho_inf = steady_state(e).to_vector().real[..., None]
    i_st = tj @ rho_inf
    if (i_st <= 1e-300).any():
        raise ZeroCounts("stationary intensity is zero; Mandel factor undefined")
    j_rho = p.jump @ rho_inf
    x = e.solve(rho_inf * (theta @ j_rho)[..., None] - j_rho, 0.0)
    q_st = (2.0 * (tj @ x) / i_st)[:, 0]
    return q_st if p.generator.matrix.ndim == 3 else float(q_st[0])
