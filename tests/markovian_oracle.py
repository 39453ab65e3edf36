"""Hand-coded resonance-fluorescence reference for a driven two-level atom.

Deliberately independent of the package: the Liouvillian entries below are
written out from the textbook optical Bloch equations in the rotating
frame, basis order (aa, ba, ab, bb), and every observable is computed from
this 4x4 matrix directly. Used to pin down the Markovian (single
configurational state) limit of the package.
"""
import numpy as np
import scipy.linalg as la


def liouvillian(gamma, omega, delta=0.0):
    """d/dt (r_aa, r_ba, r_ab, r_bb) for H = [[d/2, W/2], [W/2, -d/2]] plus
    radiative decay at rate gamma."""
    w = 0.5 * omega
    return np.array([
        [0.0,        -1j * w,          +1j * w,           gamma],
        [-1j * w,    1j * delta - gamma / 2, 0.0,         +1j * w],
        [+1j * w,    0.0,             -1j * delta - gamma / 2, -1j * w],
        [0.0,        +1j * w,          -1j * w,           -gamma],
    ], dtype=complex)


def steady(gamma, omega, delta=0.0):
    """Steady 4-vector (aa, ba, ab, bb), trace 1."""
    m = liouvillian(gamma, omega, delta)
    a = m.copy()
    a[0, :] = [1.0, 0.0, 0.0, 1.0]
    b = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    return np.linalg.solve(a, b)


def excited_population(gamma, omega, delta=0.0):
    """Closed form Omega^2 / (gamma^2 + 2 Omega^2 + 4 delta^2)."""
    return omega**2 / (gamma**2 + 2.0 * omega**2 + 4.0 * delta**2)


def c1(gamma, omega, tau_grid, delta=0.0):
    """gamma <sigma+(t) sigma-(t+tau)>_ss via quantum regression on the
    hand 4x4: seed rho_ss sigma+, propagate, read gamma * Tr{sigma .}."""
    m = liouvillian(gamma, omega, delta)
    r = steady(gamma, omega, delta)
    # rho sigma+ in (aa, ba, ab, bb): [r_ab, r_bb, 0, 0]
    v = np.array([r[2], r[3], 0.0, 0.0], dtype=complex)
    out = np.empty(len(tau_grid), dtype=complex)
    for i, t in enumerate(tau_grid):
        x = la.expm(t * m) @ v
        out[i] = gamma * x[1]           # Tr{sigma x} = x_ba
    return out


def c2(gamma, omega, tau_grid, delta=0.0):
    """gamma^2 <sigma+ sigma+ sigma- sigma-> two-time intensity correlation."""
    m = liouvillian(gamma, omega, delta)
    r = steady(gamma, omega, delta)
    v = np.array([gamma * r[3], 0.0, 0.0, 0.0], dtype=complex)  # gamma sig rho sig+
    out = np.empty(len(tau_grid))
    for i, t in enumerate(tau_grid):
        x = la.expm(t * m) @ v
        out[i] = np.real(gamma * x[3])
    return out


def g2(gamma, omega, tau_grid, delta=0.0):
    i_st = gamma * np.real(steady(gamma, omega, delta)[3])
    return c2(gamma, omega, tau_grid, delta) / i_st**2


def coherent_weight(gamma, omega, delta=0.0):
    r = steady(gamma, omega, delta)
    return gamma * abs(r[2]) ** 2


def incoherent_spectrum(gamma, omega, omega_grid, delta=0.0):
    """2 Re Laplace transform of c1(tau) - coherent plateau at u = -i w."""
    m = liouvillian(gamma, omega, delta)
    r = steady(gamma, omega, delta)
    v = np.array([r[2], r[3], 0.0, 0.0], dtype=complex)
    v_dec = v - r * (v[0] + v[3])
    out = np.empty(len(omega_grid))
    theta = np.array([1.0, 0.0, 0.0, 1.0])
    for i, w in enumerate(omega_grid):
        a = -1j * w * np.eye(4) - m
        a[0, :] = theta        # deflate the steady pole; rhs trace is zero
        rhs = v_dec.copy()
        rhs[0] = 0.0
        x = np.linalg.solve(a, rhs)
        out[i] = 2.0 * np.real(gamma * x[1])
    return out


def factorial_moments(gamma, omega, t, delta=0.0):
    """(N, N2factorial) from the hand 4x4 and its own jump part
    J = gamma * (sigma . sigma+), via the s-derivative chain at s=1."""
    m = liouvillian(gamma, omega, delta)
    j = np.zeros((4, 4), dtype=complex)
    j[0, 3] = gamma
    big = np.zeros((12, 12), dtype=complex)
    for n in range(3):
        big[4 * n:4 * n + 4, 4 * n:4 * n + 4] = m
    big[4:8, 0:4] = j
    big[8:12, 4:8] = 2.0 * j
    x = np.zeros(12, dtype=complex)
    x[:4] = steady(gamma, omega, delta)
    y = la.expm(t * big) @ x
    theta = np.array([1.0, 0.0, 0.0, 1.0])
    return float(np.real(theta @ y[4:8])), float(np.real(theta @ y[8:12]))


def mandel_q(gamma, omega, t, delta=0.0):
    n, n2 = factorial_moments(gamma, omega, t, delta)
    return (n2 + n - n**2) / n - 1.0


def stationary_mandel(gamma, omega, delta=0.0):
    """Closed form of the t -> infinity limit of mandel_q,
    Q_st = 2 Omega^2 (4 delta^2 - 3 gamma^2) / (gamma^2 + 2 Omega^2 + 4 delta^2)^2."""
    return (2.0 * omega**2 * (4.0 * delta**2 - 3.0 * gamma**2)
            / (gamma**2 + 2.0 * omega**2 + 4.0 * delta**2) ** 2)
