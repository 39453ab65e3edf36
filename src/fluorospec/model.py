"""Domain types and assembly of the block Lindblad rate generator.

A laser-driven two-level fluorophore (ground ``|a>``, excited ``|b>``) is
coupled to ``r_max`` configurational macrostates of its nano-environment.
The model is one flat value, :class:`ModelSpec`: per-state parameter
arrays and R'->R rate tables, each indexed by R. The joint state is the
tuple of auxiliary 2x2 density matrices ``rho_R`` (one per macrostate,
:class:`BlockState`); the physical system state is their sum and the
environment populations are their traces.

Everything is expressed in the frame rotating at the laser frequency, so
the generator is time independent. Per block ``R`` the effective detuning
is ``delta_R = detuning - delta_omega[R]``.

Rate-table orientation (important, both index orders appear in the
literature): for every r_max x r_max table in this module,

    ``table[R][R']`` is the rate of the transition ``R' -> R``

i.e. first index = destination (gain into ``R``), second = source. Loss
terms on block ``R`` therefore use *column* sums ``sum_R' table[R'][R]``.

Basis and vectorization convention (fixed so golden files are stable):
index 0 = ``|a>``, 1 = ``|b>``. A block state is vectorized block-major,
each 2x2 block x as y = T vec(x) = (aa, bb, Re ba, Im ba), the Bloch
variables of the optical Bloch equations (:class:`BlockState`). Here
vec(x) = (aa, ba, ab, bb) is column-major, T has the rows e_aa, e_bb,
(e_ba + e_ab)/2 and -i(e_ba - e_ab)/2, and T^-1 the columns e_aa, e_bb,
e_ba + e_ab and i(e_ba - e_ab). For a Hermitian block y is real. The
generator maps Hermitian blocks to Hermitian blocks, so in these
coordinates it is a real matrix (:class:`SuperOp`): each 4x4
superoperator term S of the assembly is mapped once to T S T^-1, which is
exact because every entry of S, T and T^-1 is dyadic (0, ±1, ±i, ±1/2).
The trace functional reads (1, 1, 0, 0) per block.

hbar = 1 throughout; rates and angular frequencies share one time unit.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

# Two-level operators in the (|a>, |b>) basis.
SIGMA = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)       # |a><b|
SIGMA_DAG = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)   # |b><a|
UPPER_PROJECTOR = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
LOWER_PROJECTOR = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
IDENTITY2 = np.eye(2, dtype=complex)

# T and T^-1 of the real coordinates (module docstring), per block
_T = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0.5, 0.5, 0], [0, -0.5j, 0.5j, 0]])
_T_INV = np.array([[1, 0, 0, 0], [0, 0, 1, 1j], [0, 0, 1, -1j], [0, 1, 0, 0]])


class OperatorKind(enum.Enum):
    """System operator of a general environment-fluctuation channel."""

    IDENTITY = "identity"
    LOWER = "lower"
    RAISE = "raise"
    UPPER_PROJECTOR = "upper_projector"
    LOWER_PROJECTOR = "lower_projector"

    def matrix(self) -> np.ndarray:
        return {
            OperatorKind.IDENTITY: IDENTITY2,
            OperatorKind.LOWER: SIGMA,
            OperatorKind.RAISE: SIGMA_DAG,
            OperatorKind.UPPER_PROJECTOR: UPPER_PROJECTOR,
            OperatorKind.LOWER_PROJECTOR: LOWER_PROJECTOR,
        }[self]


def _frozen_array(a, dtype=float) -> np.ndarray:
    """a as a read-only array of dtype that no one else can write. A
    read-only array of dtype that owns its memory is kept as it is, so a
    caller hands over an array it has just built by freezing it; anything
    else, a writable array or a view of another's memory, is copied."""
    if (isinstance(a, np.ndarray) and a.dtype == dtype and not a.flags.writeable
            and a.base is None):
        return a
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class GeneralJumpChannel:
    """Extra fluctuation channel: loss -(eta[R'][R]/2){A†A, rho_R} and gain
    eta[R][R'] A rho_R' A† for a fixed system operator A."""

    operator_kind: OperatorKind
    eta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eta", _frozen_array(self.eta))


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Full parameterization of the driven fluorophore + environment model;
    making one in which :func:`validate` finds a problem raises ValueError.

    Each configurational state R induces its own system parameters, one
    entry per state of a length-r_max array: delta_omega[R] is the shift of
    the transition frequency, gamma[R] the radiative decay rate and
    omega_rabi[R] the Rabi frequency (phase absorbed into the lowering
    operator, so omega_rabi >= 0). r_max is len(gamma).

    The r_max x r_max rate tables phi (system-independent) and gamma_cross
    (emission-assisted) hold R'->R rates in phi[R][R'] and
    gamma_cross[R][R']; their diagonals must be zero, the diagonal emission
    channel being gamma. A table left as None is zeros.

    detuning is laser minus bare transition frequency, one number; per-block
    effective detunings are detuning - delta_omega[R]. labels, if given,
    name the states. All five arrays are read-only.
    """

    delta_omega: np.ndarray
    gamma: np.ndarray
    omega_rabi: np.ndarray
    phi: np.ndarray | None = None
    gamma_cross: np.ndarray | None = None
    extra_channels: tuple[GeneralJumpChannel, ...] = ()
    detuning: float = 0.0
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        for name in ("delta_omega", "gamma", "omega_rabi"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))
        for name in ("phi", "gamma_cross"):
            table = getattr(self, name)
            object.__setattr__(self, name, _frozen_array(
                np.zeros(self.gamma.shape[:1] * 2) if table is None else table))
        object.__setattr__(self, "extra_channels", tuple(self.extra_channels))
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
        require_valid(self)

    @property
    def r_max(self) -> int:
        return len(self.gamma)

    def effective_decays(self) -> np.ndarray:
        """gamma_tilde_R = gamma_R + sum_R' gamma_cross[R'][R] (column sums)."""
        return self.gamma + self.gamma_cross.sum(axis=0)

    @functools.cached_property
    def _detection_jump(self) -> np.ndarray:
        # built on first use by detection_jump, which documents it
        j = _kron(np.diag(self.gamma) + self.gamma_cross, _DETECTION)
        j.setflags(write=False)                # frozen in place, not copied
        return j


@dataclass(frozen=True, eq=False)
class BlockState:
    """Tuple of auxiliary 2x2 matrices, stored as a (r_max, 2, 2) array, or
    a stack of them, (n, r_max, 2, 2), one per point of a stacked model.

    Physical states have total trace 1 and Hermitian blocks; intermediate
    regression/counting vectors need not.
    """

    blocks: np.ndarray

    def __post_init__(self):
        b = np.array(self.blocks, dtype=complex)
        if b.ndim not in (3, 4) or b.shape[-2:] != (2, 2):
            raise ValueError(f"blocks must have shape (r_max, 2, 2), got {b.shape}")
        b.setflags(write=False)
        object.__setattr__(self, "blocks", b)

    @property
    def r_max(self) -> int:
        return self.blocks.shape[-3]

    def to_vector(self) -> np.ndarray:
        """Block-major (aa, bb, Re ba, Im ba) vector, T vec(x) per block
        (complex; its imaginary part vanishes for Hermitian blocks); one
        row per point of a stack."""
        b = self.blocks
        return (_T @ b.swapaxes(-1, -2).reshape(-1, 4, 1)).reshape(*b.shape[:-3], -1)

    @classmethod
    def from_vector(cls, v: np.ndarray) -> "BlockState":
        """The blocks of a (aa, bb, Re ba, Im ba) vector, T^-1 v per block;
        a 2-d v is a stack, one vector per row."""
        v = np.asarray(v)
        if v.shape[-1] % 4 != 0:
            raise ValueError(f"vector length {v.shape[-1]} is not a multiple of 4")
        blocks = (_T_INV @ v.reshape(-1, 4, 1)).reshape(*v.shape[:-1], -1, 2, 2)
        return cls(blocks.swapaxes(-1, -2))

    @classmethod
    def ground(cls, r_max: int) -> "BlockState":
        """|a><a| in the first configurational state, every other block 0."""
        b = np.zeros((r_max, 2, 2), dtype=complex)
        b[0, 0, 0] = 1.0
        return cls(b)


@dataclass(frozen=True, eq=False)
class SuperOp:
    """Dense generator (or derived operator) on vectorized block states: a
    read-only real float64 matrix in the coordinates of :class:`BlockState`,
    or a stack of them, (n, dim, dim), one per point of a stacked model.

    A complex matrix is accepted when its imaginary part is zero; otherwise
    it does not map Hermitian blocks to Hermitian blocks (ValueError). A
    read-only float64 matrix that owns its memory is kept without a copy.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if np.iscomplexobj(m):
            if m.imag.any():
                raise ValueError("operator does not preserve Hermiticity: "
                                 "its matrix has a nonzero imaginary part")
            m = m.real
        m = _frozen_array(m)
        if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2] or m.shape[-1] % 4 != 0:
            raise ValueError(f"matrix must be square with dim divisible by 4, got {m.shape}")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    @property
    def r_max(self) -> int:
        return self.dim // 4


@functools.cache
def trace_functional(r_max: int) -> np.ndarray:
    """Row vector theta with theta @ x.to_vector() = total trace of x,
    (1, 1, 0, 0) per block (read-only)."""
    return _frozen_array(np.tile([1.0, 1.0, 0.0, 0.0], r_max))


def readout(a: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Row vector w with w @ x.to_vector() = sum_R weights[R] Tr{A x_R},
    since Tr{A x} = sum_ij A_ij x_ji = (A row-major) . vec(x) and
    vec(x) = T^-1 y."""
    return np.kron(weights, np.asarray(a).reshape(-1) @ _T_INV)


def validate(spec: ModelSpec) -> list[str]:
    """Return every invariant violation as a path-like message; [] when valid.
    Every array, each channel's eta too, is checked by ``_array_problems``."""
    if spec.gamma.ndim != 1 or spec.r_max < 1:
        return [f"gamma: must be a 1-d array of r_max >= 1 rates, got shape "
                f"{spec.gamma.shape}"]
    r = spec.r_max
    out = []
    if spec.labels is not None and len(spec.labels) != r:
        out.append(f"labels: length {len(spec.labels)} != r_max {r}")
    for name, shape in (("delta_omega", (r,)), ("gamma", (r,)), ("omega_rabi", (r,)),
                        ("phi", (r, r)), ("gamma_cross", (r, r))):
        out += _array_problems(getattr(spec, name), name, shape, rates=name != "delta_omega")
    kinds_seen = set()
    for k, ch in enumerate(spec.extra_channels):
        if ch.operator_kind in kinds_seen:
            out.append(f"extra_channels[{k}]: duplicate operator_kind {ch.operator_kind.value}")
        kinds_seen.add(ch.operator_kind)
        out += _array_problems(ch.eta, f"extra_channels[{k}].eta", (r, r))
    if np.ndim(spec.detuning) != 0:
        out.append(f"detuning: must be a number, got shape {np.shape(spec.detuning)}")
    elif not math.isfinite(spec.detuning):
        out.append("detuning: not finite")
    return out


def _array_problems(a: np.ndarray, path: str, shape: tuple, rates: bool = True) -> list[str]:
    """The problems of one array of a ModelSpec: its shape, if not shape;
    else one per entry that is not finite, per negative entry of rates and
    per nonzero diagonal entry of a table. A valid array passes one test
    and builds no message: finite, min >= 0 for rates (NaN fails it) and a
    zero trace, which for nonnegative entries means a zero diagonal."""
    if a.shape != shape:
        return [f"{path}: shape {a.shape} != {shape}"]
    if (a.min() >= 0 and a.max() < np.inf and (a.ndim == 1 or a.trace() == 0)
            if rates else np.isfinite(a).all()):
        return []
    bad = [(i, "not finite") for i in np.argwhere(~np.isfinite(a))]
    if rates:
        bad += [(i, f"negative ({a[tuple(i)]})") for i in np.argwhere(a < 0)]
    if a.ndim == 2:
        bad += [((i, i), f"diagonal must be zero (got {a[i, i]})")
                for i in np.flatnonzero(np.diagonal(a) != 0)]
    return [path + "".join(f"[{k}]" for k in i) + f": {what}" for i, what in bad]


def require_valid(spec: ModelSpec) -> None:
    problems = validate(spec)
    if problems:
        raise ValueError("invalid model spec:\n  " + "\n  ".join(problems))


# vec(A rho) = kron(I, A) vec(rho); vec(rho B) = kron(B.T, I) vec(rho);
# vec(A rho A†) = kron(A.conj(), A) vec(rho)  [column-major vec; the
# assembly maps each of these 4x4 terms by _real]
def _left(op):
    return np.kron(IDENTITY2, op)


def _right(op):
    return np.kron(op.T, IDENTITY2)


def _sandwich(op):
    return np.kron(op.conj(), op)


def _commutator(op):
    """Superoperator of rho -> -i[op, rho]."""
    return -1j * (_left(op) - _right(op))


def _anticommutator(op):
    return _left(op) + _right(op)


# H_R = -(delta_R/2) sigma_z + (Omega_R/2)(sigma + sigma†)
#     = delta_R * _H_DETUNING + Omega_R * _H_DRIVE,
# delta_R = detuning - delta_omega[R], sigma_z = |b><b| - |a><a|
_H_DETUNING = np.diag([0.5, -0.5]).astype(complex)
_H_DRIVE = 0.5 * (SIGMA + SIGMA_DAG)


def _real(s: np.ndarray) -> np.ndarray:
    """T s T^-1 of a 4x4 superoperator s in vec order, in real coordinates:
    exact, and real for every term of the assembly (module docstring)."""
    return (_T @ s @ _T_INV).real


# the 4x4 superoperators of build_generator that no model parameter changes;
# the detuning term is a rotation of (Re ba, Im ba)
_DETUNING = _real(_commutator(_H_DETUNING))
_DRIVE = _real(_commutator(_H_DRIVE))
_DECAY = _real(_anticommutator(SIGMA_DAG @ SIGMA / 2))
_DETECTION = _real(_sandwich(SIGMA))
_EYE4 = np.eye(4)


def _kron(table: np.ndarray, s: np.ndarray) -> np.ndarray:
    """np.kron(table, s) for an r x r table and a 4x4 s, bit for bit (the
    same products), in an array that owns its memory, so that
    ``_frozen_array`` keeps it without a copy. Each entry of s scales the
    table into its strided slice of the result: a broadcast product would
    make numpy allocate iterator buffers of about a quarter of the result
    at r = 60."""
    r = table.shape[0]
    out = np.empty((4 * r, 4 * r), np.result_type(table, s))
    blocks = out.reshape(r, 4, r, 4)
    for k in range(4):
        for l in range(4):
            np.multiply(table, s[k, l], out=blocks[:, k, :, l])
    return out


def detection_jump(spec: ModelSpec) -> np.ndarray:
    """Detection gains J = kron(diag(gamma) + gamma_cross, sigma . sigma†),
    a read-only real matrix in the coordinates of BlockState.

    Own-block recycling gamma_R and emission-assisted cross gains
    gamma_cross[R][R'], each feeding |a><a| of the destination block from
    <b|rho_R'|b>. The one definition of the detection term: the generator
    contains it and the counting split separates it. Built once per spec.
    """
    return spec._detection_jump


def build_generator(spec: ModelSpec) -> SuperOp:
    """Assemble the dense block generator as a sum of
    kron(r_max x r_max table, 4x4 superoperator) terms.

    Per block R: rotating-frame Hamiltonian commutator; radiative
    dissipator with anticommutator weight gamma_tilde_R; the detection
    gains (:func:`detection_jump`); phi gain/loss; plus any general
    channels (loss from eta column sums, gain eta[R][R'] A · A†).

    Formed from the nonzero blocks: a copy of J; on the block diagonal,
    the local term (detuning + drive) - decay of each block and then
    d_R = phi_RR - sum_R' phi_R'R times the identity; then phi on the four
    coordinate diagonals. These are the kron sum's products and sums in its
    order, less the zeros it adds off the block diagonal, plus a second
    phi_RR; neither changes a bit (no -0 in J off the block diagonal; a
    diagonal entry is -0 only where d_R is, so where phi_RR is).
    """
    r, phi = spec.r_max, spec.phi
    local = (((spec.detuning - spec.delta_omega)[:, None, None] * _DETUNING
              + spec.omega_rabi[:, None, None] * _DRIVE)
             - spec.effective_decays()[:, None, None] * _DECAY)
    d = np.diagonal(phi) - phi.sum(axis=0)
    m = detection_jump(spec).copy()            # read-only, and shared with the counting split
    blocks, own = m.reshape(r, 4, r, 4), np.arange(r)
    blocks[own, :, own] = (blocks[own, :, own] + local) + d[:, None, None] * _EYE4
    for k in range(4):
        blocks[:, k, :, k] += phi
    for ch in spec.extra_channels:
        op = ch.operator_kind.matrix()
        m += (_kron(ch.eta, _real(_sandwich(op)))
              - _kron(np.diag(ch.eta.sum(axis=0)),
                      _real(_anticommutator(op.conj().T @ op) / 2)))
    m.setflags(write=False)                    # handed to SuperOp without a copy
    return SuperOp(m)


def shift_detuning(op: SuperOp, delta) -> SuperOp:
    """The generator op + delta * kron(Id, _DETUNING), i.e. the same model
    with its laser detuning raised by delta; for a 1-d array delta, the
    stack of these generators, one per entry, made in one broadcast.

    The detuning enters L only through kron(diag(detuning - delta_omega),
    _DETUNING), which per block adds ±delta to the two rotation entries of
    (Re ba, Im ba). Only these entries change; adding zero elsewhere could
    flip the sign of a zero. From op = build_generator(spec) with
    spec.detuning = 0, each result equals build_generator(spec at detuning
    delta) bit for bit: those entries hold nothing but the detuning term,
    so each gets the one rounding of delta - delta_omega that the rebuild
    gives it.

    Raises ValueError for a non-finite delta.
    """
    delta = np.asarray(delta, dtype=float)
    if not np.isfinite(delta).all():
        raise ValueError(f"detuning shift {delta[~np.isfinite(delta)].flat[0]} "
                         "is not finite")
    m = np.broadcast_to(op.matrix, delta.shape + op.matrix.shape).copy()
    block = 4 * np.arange(op.r_max)
    for i, j in zip(*np.nonzero(_DETUNING)):
        m[..., block + i, block + j] += delta[..., None] * _DETUNING[i, j]
    m.setflags(write=False)
    return SuperOp(m)
