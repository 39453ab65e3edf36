"""Small-n oracle for P_n(t): the n-resolved hierarchy
d rho^(n)/dt = L0 rho^(n) + J rho^(n-1), from rho^(0) = x0 and
rho^(n) = 0 (n > 0), as one block-bidiagonal matrix exponential of size
(n_max+1)*4r_max. Its cost grows as n_max^3, so it only checks the FFT
inversion of the library."""
import numpy as np
import scipy.linalg as la

import fluorospec as fs
from fluorospec.model import trace_functional


def block_pn(model, t, n_max, initial=None):
    p = fs.prepare(model)
    x0 = (p.steady if initial is None else initial).to_vector()
    drift = p.generator.matrix - p.jump
    dim = drift.shape[0]
    levels = n_max + 1
    big = np.kron(np.eye(levels), drift) + np.kron(np.eye(levels, k=-1), p.jump)
    x = np.zeros(levels * dim, dtype=complex)
    x[:dim] = x0
    y = la.expm(t * big) @ x
    return np.real(y.reshape(levels, dim) @ trace_functional(p.spec.r_max))
