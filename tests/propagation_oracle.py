"""Plain dense propagation and resolvent solves on the block generator:
the reference forms that the library's deflated and grid-based paths are
checked against."""
import numpy as np
import scipy.linalg as la

from fluorospec.model import BlockState, SuperOp
from fluorospec.steady import SingularShift


def evolve(generator: SuperOp, x0: BlockState, t: float) -> BlockState:
    """e^{t L} x0 (t >= 0)."""
    if not np.isfinite(t) or t < 0:
        raise ValueError(f"propagation time must be finite and >= 0, got {t}")
    v = x0.to_vector()
    if v.size != generator.dim:
        raise ValueError(f"state dim {v.size} != generator dim {generator.dim}")
    if not np.all(np.isfinite(v)):
        raise ValueError("state contains non-finite entries")
    if t == 0:
        return x0
    return BlockState.from_vector(la.expm(t * generator.matrix) @ v)


def resolve(generator: SuperOp, u: complex, v: BlockState) -> BlockState:
    """Solve (u Id - L) x = v by dense LU; residual must stay <= 1e-10 |v|."""
    rhs = v.to_vector()
    if rhs.size != generator.dim:
        raise ValueError(f"state dim {rhs.size} != generator dim {generator.dim}")
    a = u * np.eye(generator.dim) - generator.matrix
    try:
        x = la.solve(a, rhs)
    except la.LinAlgError as exc:
        raise SingularShift(f"factorization failed at u={u}") from exc
    resid = la.norm(a @ x - rhs)
    if not resid <= 1e-10 * max(la.norm(rhs), 1e-300):
        raise SingularShift(f"residual {resid:.3e} exceeds tolerance at u={u}")
    return BlockState.from_vector(x)
