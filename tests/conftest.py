import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import fluorospec as fs

SQRT_HALF = 2**-0.5


@pytest.fixture(scope="session")
def markovian():
    """gamma = 1, Omega = 1/sqrt(2), resonant: I_st = 1/4."""
    return fs.single_state(gamma=1.0, omega_rabi=SQRT_HALF)


@pytest.fixture(scope="session")
def fig2a():
    return fs.spectral_two_state(gamma=1.0, omega_rabi=SQRT_HALF,
                                 delta_omega=0.1, phi=1.0 / 125.0)


@pytest.fixture(scope="session")
def fig2b():
    return fs.spectral_two_state(gamma=1.0, omega_rabi=5.0,
                                 delta_omega=0.1, phi=1.0 / 500.0)


@pytest.fixture(scope="session")
def fig3a():
    return fs.spectral_two_state(gamma=1.0, omega_rabi=SQRT_HALF,
                                 delta_omega=5.0, phi=2.5e-5)


@pytest.fixture(scope="session")
def fig3b():
    return fs.spectral_two_state(gamma=1.0, omega_rabi=5.0,
                                 delta_omega=5.0, phi=2.5e-5)


@pytest.fixture(scope="session")
def fig5():
    """Light-assisted blinking, rates in units of the Rabi frequency."""
    return fs.light_assisted(gammas=[1.0, 10.0],
                             gamma_cross=[[0.0, 0.02], [0.0015, 0.0]],
                             omega_rabi=1.0)


def random_spec(rng, r_max, with_channels=False, with_cross=True):
    """Moderately stiff random model for property tests."""
    phi = rng.uniform(0.0, 1.0, (r_max, r_max))
    np.fill_diagonal(phi, 0.0)
    cross = rng.uniform(0.0, 0.3, (r_max, r_max)) if with_cross else np.zeros((r_max, r_max))
    np.fill_diagonal(cross, 0.0)
    channels = ()
    if with_channels:
        eta = rng.uniform(0.0, 0.5, (r_max, r_max))
        np.fill_diagonal(eta, 0.0)
        channels = (fs.GeneralJumpChannel(fs.OperatorKind.UPPER_PROJECTOR, eta),)
    # one (shift, decay, Rabi frequency) draw per state, in turn
    per_state = [(rng.normal(0.0, 1.0), rng.uniform(0.2, 2.0), rng.uniform(0.0, 2.0))
                 for _ in range(r_max)]
    return fs.ModelSpec(*np.array(per_state).reshape(r_max, 3).T, phi=phi,
                        gamma_cross=cross, extra_channels=channels,
                        detuning=rng.normal(0.0, 0.5))


def random_block_state(rng, r_max, physical=False):
    b = rng.normal(size=(r_max, 2, 2)) + 1j * rng.normal(size=(r_max, 2, 2))
    if physical:
        b = b @ b.conj().transpose(0, 2, 1)
        b /= np.real(b[:, 0, 0].sum() + b[:, 1, 1].sum())
    return fs.BlockState(b)
