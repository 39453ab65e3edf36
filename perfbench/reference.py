"""Independent reference values for the benchmark's output checks.

Nothing here imports fluorospec. The block generator is rebuilt from the
plain model parameters by applying the rate equations to each basis state
(no Kronecker assembly), and every observable is evaluated by a different
method than the program uses:

* spectrum, C1, C2, g2: eigendecomposition L = V diag(lam) V^-1;
* steady state, line shape, Mandel Q: bordered systems [[L, e_0], [theta, 0]];
* P_n(t): Cauchy/FFT inversion of the generating function
  theta e^{t (L0 + z J)} rho on the unit circle;
* the fig5 detuning limit and the single-state line shape: closed forms.

Vector layout matches the program's CSV semantics: per block the 2x2 matrix
is stored column-major, (aa, ba, ab, bb), blocks one after another.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import expm


def _blocks(v):
    return v.reshape(-1, 2, 2).transpose(0, 2, 1)


def _vec(blocks):
    return blocks.transpose(0, 2, 1).reshape(-1)


def _jump(p, x):
    """Detection gains: gamma_R sigma x_R sigma+ + sum_R' gc[R][R'] sigma x_R' sigma+."""
    out = np.zeros_like(x)
    out[:, 0, 0] = p.gamma * x[:, 1, 1] + p.gamma_cross @ x[:, 1, 1]
    return out


def _drift(p, x):
    """Everything in the rate equations except the detection gains."""
    delta = p.detuning - p.delta_omega
    h = np.zeros_like(x)
    h[:, 0, 0] = 0.5 * delta
    h[:, 1, 1] = -0.5 * delta
    h[:, 0, 1] = h[:, 1, 0] = 0.5 * p.omega_rabi
    gtilde = p.gamma + p.gamma_cross.sum(axis=0)
    upper = np.diag([0.0, 1.0]).astype(complex)
    out = -1j * (h @ x - x @ h)
    out -= 0.5 * gtilde[:, None, None] * (upper @ x + x @ upper)
    out += np.einsum("ab,bij->aij", p.phi, x) - p.phi.sum(axis=0)[:, None, None] * x
    return out


def _matrix(p, apply):
    dim = 4 * len(p.gamma)
    cols = [_vec(apply(p, _blocks(e))) for e in np.eye(dim, dtype=complex)]
    return np.array(cols).T


class Model:
    """Generator pieces and stationary quantities of one parameter set."""

    def __init__(self, p):
        self.p = p
        self.r = len(p.gamma)
        self.drift = _matrix(p, _drift)
        self.jump = _matrix(p, _jump)
        self.gen = self.drift + self.jump
        self.theta = np.tile([1.0, 0.0, 0.0, 1.0], self.r)
        self.rho = self._bordered(np.zeros(4 * self.r), 1.0)
        self.intensity = float(np.real(self.theta @ self.jump @ self.rho))

    def _bordered(self, rhs, trace):
        """Solve L x + mu e_0 = rhs, theta x = trace. The border makes the
        system regular; mu vanishes whenever theta rhs = 0."""
        dim = self.gen.shape[0]
        a = np.zeros((dim + 1, dim + 1), dtype=complex)
        a[:dim, :dim] = self.gen
        a[dim, :dim] = self.theta
        a[0, dim] = 1.0
        x = np.linalg.solve(a, np.append(rhs, trace))
        return x[:dim]

    def populations(self):
        b = _blocks(self.rho)
        return np.real(b[:, 0, 0] + b[:, 1, 1]), np.real(b[:, 1, 1])

    def mandel(self):
        """Q_st = 2 theta J x / I with L x = -(J rho - I rho), theta x = 0."""
        jr = self.jump @ self.rho
        x = self._bordered(-(jr - self.intensity * self.rho), 0.0)
        return float(2.0 * np.real(self.theta @ self.jump @ x) / self.intensity)


class Spectral:
    """Eigendecomposition of one generator, for frequency and tau grids."""

    def __init__(self, model: Model):
        self.m = model
        lam, v = np.linalg.eig(model.gen)
        self.lam, self.v = lam, v
        self.k0 = int(np.argmin(np.abs(lam)))
        sq = np.sqrt(model.p.gamma + model.p.gamma_cross.sum(axis=0))
        seeds = sq[:, None, None] * (_blocks(model.rho) @ np.array([[0, 0], [1, 0]]))
        self.c1_seed = _vec(seeds)
        self.c1_read = np.zeros(4 * model.r, dtype=complex)
        self.c1_read[1::4] = sq

    def _modes(self, read, seed):
        return (read @ self.v), np.linalg.solve(self.v, seed)

    def spectrum(self, omega):
        seed = self.c1_seed - self.m.rho * (self.m.theta @ self.c1_seed)
        left, right = self._modes(self.c1_read, seed)
        right[self.k0] = 0.0
        denom = -1j * np.asarray(omega)[:, None] - self.lam[None, :]
        return 2.0 * np.real((left * right / denom).sum(axis=1))

    def _series(self, read, seed, tau):
        left, right = self._modes(read, seed)
        return (left * right * np.exp(np.outer(tau, self.lam))).sum(axis=1)

    def c1(self, tau):
        return self._series(self.c1_read, self.c1_seed, tau)

    def c2(self, tau):
        read = self.m.theta @ self.m.jump
        return np.real(self._series(read, self.m.jump @ self.m.rho, tau))

    def g2(self, tau):
        return self.c2(tau) / self.m.intensity**2


def counting_pn(model: Model, t: float, n_max: int, oversample: int = 4):
    """P_0..P_nmax at time t from the steady state, by FFT inversion of the
    probability generating function on the unit circle."""
    n = oversample * (n_max + 1)
    z = np.exp(2j * np.pi * np.arange(n) / n)
    g = np.array([model.theta @ expm(t * (model.drift + zk * model.jump)) @ model.rho
                  for zk in z])
    return np.real(np.fft.fft(g) / n)[:n_max + 1]


def line_shape_closed_form(gamma, omega_rabi, delta):
    """Two-level resonance fluorescence: gamma O^2 / (gamma^2 + 2 O^2 + 4 d^2)."""
    return gamma * omega_rabi**2 / (gamma**2 + 2.0 * omega_rabi**2 + 4.0 * delta**2)


def mandel_detuning_limit(gammas, gamma_cross):
    """Large-detuning limit of Q_st for a two-state light-assisted model."""
    g1, g2 = gammas
    g21, g12 = gamma_cross[1][0], gamma_cross[0][1]
    num = 2.0 * g12 * g21 * ((g1 + g21) - (g2 + g12)) ** 2
    den = (g12 + g21) ** 2 * (g1 * g12 + g2 * g21 + 2.0 * g12 * g21)
    return num / den
