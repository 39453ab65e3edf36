"""Seeded inputs of the benchmark workloads.

Every model is described twice: as the ``model`` object of a CLI run
configuration (the only thing the program receives) and as plain per-state
parameters from which ``reference.py`` rebuilds the physics on its own.
Random models are passed inline; ``random_params`` draws them like
``random_spec`` in the test suite, but lives here so that edits to the
tests cannot shift the benchmark.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

SQRT_HALF = 2**-0.5


@dataclass(frozen=True, eq=False)
class Params:
    delta_omega: np.ndarray
    gamma: np.ndarray
    omega_rabi: np.ndarray
    phi: np.ndarray
    gamma_cross: np.ndarray
    detuning: float = 0.0

    def at_detuning(self, detuning: float) -> "Params":
        return dataclasses.replace(self, detuning=float(detuning))


@dataclass(frozen=True, eq=False)
class Model:
    name: str
    cli: dict
    params: Params


@dataclass(frozen=True, eq=False)
class Invocation:
    """One CLI task on one model; ``grid`` is (name, start, stop, count)."""

    model: Model
    task: str
    grid: tuple | None = None
    n_max: int | None = None

    @property
    def name(self) -> str:
        return f"{self.model.name}_{self.task.replace('-', '_')}"

    def grid_values(self) -> np.ndarray:
        _, start, stop, count = self.grid
        return np.linspace(start, stop, count)

    def config(self) -> dict:
        cfg = {"schema": 1, "model": self.model.cli, "task": self.task,
               "threads": 1}
        if self.grid:
            name, start, stop, count = self.grid
            cfg["grids"] = {name: {"start": start, "stop": stop, "count": count,
                                   "spacing": "linear"}}
        if self.n_max is not None:
            cfg["n_max"] = self.n_max
        return cfg


def _params(delta_omega, gamma, omega_rabi, phi=None, gamma_cross=None,
            detuning=0.0) -> Params:
    r = len(gamma)
    z = np.zeros((r, r))
    return Params(np.asarray(delta_omega, float), np.asarray(gamma, float),
                  np.asarray(omega_rabi, float),
                  z if phi is None else np.asarray(phi, float),
                  z if gamma_cross is None else np.asarray(gamma_cross, float),
                  float(detuning))


def random_params(rng: np.random.Generator, r_max: int) -> Params:
    """Moderately stiff random model: phi ~ U(0, 1), gamma_cross ~ U(0, 0.3)."""
    phi = rng.uniform(0.0, 1.0, (r_max, r_max))
    np.fill_diagonal(phi, 0.0)
    cross = rng.uniform(0.0, 0.3, (r_max, r_max))
    np.fill_diagonal(cross, 0.0)
    per = [(rng.normal(0.0, 1.0), rng.uniform(0.2, 2.0), rng.uniform(0.0, 2.0))
           for _ in range(r_max)]
    d, g, o = (np.array(c) for c in zip(*per))
    return _params(d, g, o, phi, cross, rng.normal(0.0, 0.5))


def random_model(rng: np.random.Generator, r_max: int) -> Model:
    p = random_params(rng, r_max)
    inline = {"r_max": r_max, "delta_omega": p.delta_omega.tolist(),
              "gamma": p.gamma.tolist(), "omega_rabi": p.omega_rabi.tolist(),
              "phi": p.phi.tolist(), "gamma_cross": p.gamma_cross.tolist(),
              "detuning": p.detuning}
    return Model(f"random{r_max}", {"inline": inline}, p)


def single_state() -> Model:
    cli = {"scenario": "single_state",
           "params": {"gamma": 1.0, "omega_rabi": SQRT_HALF}}
    return Model("single", cli, _params([0.0], [1.0], [SQRT_HALF]))


def fig5() -> Model:
    """Light-assisted blinking of the paper's figure 5 (Rabi-frequency units)."""
    gammas, cross = [1.0, 10.0], [[0.0, 0.02], [0.0015, 0.0]]
    cli = {"scenario": "light_assisted",
           "params": {"gammas": gammas, "gamma_cross": cross, "omega_rabi": 1.0}}
    return Model("fig5", cli, _params([0.0, 0.0], gammas, [1.0, 1.0],
                                      gamma_cross=cross))


def diffusion_chain(n_sites: int) -> Model:
    """Molecule hopping through a Gaussian laser focus, reflecting ends."""
    profile = 2.0 * np.exp(-((np.arange(n_sites) - (n_sites - 1) / 2) / (n_sites / 4)) ** 2)
    hop = np.zeros((n_sites, n_sites))
    i = np.arange(n_sites - 1)
    hop[i, i + 1] = hop[i + 1, i] = 0.5
    cli = {"scenario": "diffusion_chain",
           "params": {"n_sites": n_sites, "omega_profile": profile.tolist(),
                      "phi_hop": 0.5, "gamma": 1.0}}
    return Model(f"chain{n_sites}", cli,
                 _params(np.zeros(n_sites), np.ones(n_sites), profile, phi=hop))


def spectral(seed: int, tiny: bool = False) -> list[Invocation]:
    """One large random model, many frequency and tau points."""
    rng = np.random.default_rng(seed)
    m = random_model(rng, 6 if tiny else 60)
    n_omega, n_tau = (6, 6) if tiny else (24, 12)
    # tau_max spans many decay times (spectral gap >= 4.9 at r_max = 60,
    # >= 1.1 for the tiny models), so g2 reaches 1 at the last point
    tau = ("tau", 0.0, 30.0 if tiny else 8.0, n_tau)
    return [Invocation(m, "spectrum", ("omega", -15.0, 15.0, n_omega)),
            Invocation(m, "c1", tau), Invocation(m, "c2", tau),
            Invocation(m, "g2", tau)]


def counting(seed: int, tiny: bool = False) -> list[Invocation]:
    """Small configuration spaces, deep count truncation."""
    rng = np.random.default_rng(seed)
    fig5_t, random_t = (("time", 0.5, 2.0, 2),) * 2 if tiny else (
        ("time", 5.0, 60.0, 4), ("time", 1.0, 10.0, 4))
    return [Invocation(fig5(), "counting", fig5_t, n_max=8 if tiny else 60),
            Invocation(random_model(rng, 2 if tiny else 5), "counting",
                       random_t, n_max=8 if tiny else 30)]


def sweep(seed: int, tiny: bool = False) -> list[Invocation]:
    """Many small independent models along detuning grids."""
    rng = np.random.default_rng(seed)
    models = [(single_state(), 10.0, 41), (fig5(), 30.0, 40),
              (diffusion_chain(3 if tiny else 20), 5.0, 16),
              (random_model(rng, 3 if tiny else 40), 3.0, 10)]
    out = []
    for m, span, count in models:
        grid = ("delta", -span, span, 3 if tiny else count)
        out += [Invocation(m, "steady"), Invocation(m, "mandel-sweep", grid),
                Invocation(m, "lineshape-sweep", grid)]
    return out


WORKLOADS = {"spectral": spectral, "counting": counting, "sweep": sweep}
