"""The package's matrix exponential, ``steady.expm``, against
scipy.linalg.expm as an independent oracle, on the matrices that the
propagation, P_n and the factorial moments exponentiate."""
import warnings

import numpy as np
import pytest
import scipy.linalg as la

import fluorospec as fs
from fluorospec.model import trace_functional
from fluorospec.steady import expm

from conftest import random_spec

FIG5 = fs.light_assisted(gammas=[1.0, 10.0], gamma_cross=[[0.0, 0.02], [0.0015, 0.0]],
                         omega_rabi=1.0)


def _stiff(phi):
    return fs.lifetime_fluct([1.0, 3.0], phi * np.array([[0.0, 1.0], [2.0, 0.0]]), 0.5)


# (spec, times): dims 4, 8, 24, 80 and 240; the r_max = 60 model at the tau
# step 8/11 of a 12-point grid on [0, 8]; the stiff lifetime fluctuations
# at times well below their slow time 1/phi (near t = 1/phi both
# exponentials lose digits to the ~log2(t |L|) squarings, differently)
MODELS = {
    "markovian": (fs.single_state(1.0, 2**-0.5), [0.5, 10.0]),
    "fig5": (FIG5, [5.0, 60.0]),
    "random6": (random_spec(np.random.default_rng(5), 6), [1.0, 10.0]),
    "random20": (random_spec(np.random.default_rng(5), 20), [1.0]),
    "random60": (random_spec(np.random.default_rng(1), 60), [8.0 / 11.0]),
    "stiff1e-8": (_stiff(1e-8), [1.0, 1e3]),
    "stiff1e-12": (_stiff(1e-12), [1.0, 1e3]),
}


def _circle(spec, t, points=65):
    """t (L0 + s J) at the first ``points`` points s of the unit circle of
    P_n at N = 128 (the half circle of fig5 at n_max = 60)."""
    split = fs.counting_split(spec)
    s = np.exp(2j * np.pi * np.arange(points) / 128)
    return t * (split.drift.matrix + s[:, None, None] * split.jump.matrix)


def _rel_err(got, want):
    """Normwise relative 1-norm error of each matrix of a stack."""
    return np.abs(got - want).sum(axis=-2).max(axis=-1) / np.abs(want).sum(axis=-2).max(axis=-1)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("name", list(MODELS))
def test_expm_matches_scipy(name, kind):
    spec, times = MODELS[name]
    for t in times:
        if kind == "real":
            a = (t * fs.build_generator(spec).matrix)[None]
        else:
            a = _circle(spec, t, 65 if spec.r_max <= 5 else 2)
        want = np.array([la.expm(m) for m in a])
        assert _rel_err(expm(a), want).max() <= 1e-12, (name, t)


def test_stack_equals_each_matrix_alone():
    """Each matrix of a stack, whatever its scaling exponent beside the
    others', gets the bits of a call on it alone, real or complex."""
    complex_stack = np.concatenate([_circle(FIG5, 5.0), _circle(FIG5, 60.0),
                                    _circle(FIG5, 0.01, 3)])
    gen = fs.build_generator(random_spec(np.random.default_rng(3), 6)).matrix
    real_stack = np.array([t * gen for t in (0.0, 0.1, 3.0, 40.0)])
    assert np.array_equal(expm(real_stack)[0], np.eye(24))   # e^0, exactly
    for stack in (complex_stack, real_stack):
        got = expm(stack)
        assert got.dtype == stack.dtype
        for a, e in zip(stack, got):
            assert np.array_equal(expm(a), e)
            assert np.array_equal(expm(a[None])[0], e)


def test_fig5_overflow_is_silent():
    """At t = 3000, g(2) = theta e^{t (L0 + 2 J)} x0 of fig5 overflows: the
    exponential is not finite and draws no warning, and P_n still finds its
    Chernoff point."""
    split = fs.counting_split(FIG5)
    with pytest.warns(UserWarning, match="truncation"):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            e = expm(3000.0 * (split.drift.matrix + 2.0 * split.jump.matrix))
            assert not np.isfinite(e).all()
            probs = fs.pn(FIG5, 3000.0, 20)
    assert np.all(np.isfinite(probs))
    x0 = fs.steady_state(fs.build_generator(FIG5)).to_vector()
    with np.errstate(all="ignore"):
        assert not np.isfinite(trace_functional(2) @ e @ x0)
