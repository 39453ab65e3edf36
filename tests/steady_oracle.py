"""The dense steady solve: nullity 1 from the singular values of the whole
4 r_max x 4 r_max generator (``steady._check_nullity``, which the library
runs only when its elimination fails) and one LU of the generator with
row 0 replaced by the trace functional. The elimination onto the
configurational chain is checked against it."""
import numpy as np

from fluorospec import steady
from fluorospec.model import BlockState, SuperOp, trace_functional


def dense_steady(generator: SuperOp) -> BlockState:
    steady._check_nullity(generator.matrix)
    theta = trace_functional(generator.r_max)
    a = generator.matrix.copy()
    a[0] = theta
    b = np.zeros(generator.dim)
    b[0] = 1.0
    y = np.linalg.solve(a, b)
    return BlockState.from_vector(y / (theta @ y))
