"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance is pinned
here; nothing is deferred to later calibration.
"""
import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg as la
from scipy.integrate import simpson, solve_ivp

import fluorospec as fs
from fluorospec.counting import counting_split
from fluorospec.model import trace_functional

import jump_oracle
import markovian_oracle
from conftest import random_spec
from generator_oracle import optical_bloch_rhs
from util import fit_lorentzian, fwhm, log_symmetric_grid, peak_position

SQRT_HALF = 2**-0.5


def report(n, name, detail=""):
    print(f"[ACCEPTANCE] criterion {n:2d} ({name}): PASS {detail}")


def slowest_rate(spec):
    ev = la.eigvals(fs.build_generator(spec).matrix).real
    return np.min(np.abs(ev[np.abs(ev) > 1e-12]))


def test_criterion_01_markovian_reduction(markovian):
    gamma, omega = 1.0, SQRT_HALF
    # steady state
    st = fs.steady_state(fs.build_generator(markovian)).blocks[0]
    aa, ba, ab, bb = markovian_oracle.steady(gamma, omega)   # (aa, ba, ab, bb)
    assert np.abs(st - np.array([[aa, ab], [ba, bb]])).max() < 1e-8
    # C1 and g2 on a time grid
    tau = np.linspace(0.0, 30.0, 301)
    assert np.abs(fs.c1(markovian, tau).values
                  - markovian_oracle.c1(gamma, omega, tau)).max() < 1e-8
    assert np.abs(fs.g2(markovian, tau).values
                  - markovian_oracle.g2(gamma, omega, tau)).max() < 1e-8
    # Mollow triplet for Omega = 5 gamma: sidebands within 5% of +-Omega
    strong = fs.single_state(gamma=1.0, omega_rabi=5.0)
    grid = np.linspace(0.5, 9.5, 1801)
    ours = fs.incoherent_spectrum(strong, grid).values
    ref = markovian_oracle.incoherent_spectrum(1.0, 5.0, grid)
    assert np.abs(ours - ref).max() < 1e-8
    pos = peak_position(grid, ours, 2.5, 7.5)   # sideband, clear of the center
    assert abs(pos - 5.0) / 5.0 < 0.05
    # sub-Poissonian stationary Mandel factor, against the oracle moments
    q_pkg = fs.mandel_q(fs.single_state(1.0, 1.0), 50.0)
    q_ref = markovian_oracle.mandel_q(1.0, 1.0, 50.0)
    assert q_pkg < 0.0
    assert abs(q_pkg - q_ref) < 1e-8
    assert fs.stationary_mandel(fs.single_state(1.0, 1.0)) < 0.0
    report(1, "markovian reduction",
           f"(sideband at {pos:.3f}, Q(50)={q_pkg:.6f})")


def test_criterion_02_narrow_peak_law(fig2a, fig3a, fig3b):
    # the paper's narrow-peak law: the central Lorentzian's width parameter
    # (its half width, i.e. the coherence blinking rate) equals phi12 + phi21
    widths = {}
    for name, spec, phi in (("fig2a", fig2a, 1.0 / 125.0),
                            ("fig3a", fig3a, 2.5e-5),
                            ("fig3b", fig3b, 2.5e-5)):
        window = np.linspace(-5.0 * phi, 5.0 * phi, 201)
        vals = fs.incoherent_spectrum(spec, window).values
        _, hwhm, _ = fit_lorentzian(window, vals, 2.0 * phi)
        assert hwhm == pytest.approx(2.0 * phi, rel=0.10), name
        widths[name] = hwhm
    assert widths["fig3a"] == pytest.approx(widths["fig3b"], rel=0.10)
    report(2, "narrow peak law",
           f"(widths/2phi: " + ", ".join(
               f"{k}={v / (2 * (1 / 125.0 if k == 'fig2a' else 2.5e-5)):.3f}"
               for k, v in widths.items()) + ")")


def test_criterion_03_peak_positions(fig2b, fig3a):
    grid = np.linspace(1.0, 9.0, 1601)
    pos_2b = peak_position(grid, fs.incoherent_spectrum(fig2b, grid).values,
                           2.5, 7.5)
    assert abs(pos_2b - 5.0) / 5.0 < 0.05
    pos_3a = peak_position(grid, fs.incoherent_spectrum(fig3a, grid).values,
                           2.5, 7.5)
    assert abs(pos_3a - 5.0) / 5.0 < 0.05
    widths = []
    for phi in (10.0, 50.0, 125.0):
        spec = fs.spectral_two_state(gamma=1.0, omega_rabi=SQRT_HALF,
                                     delta_omega=5.0, phi=phi)
        g = np.linspace(-20.0, 20.0, 2001)
        widths.append(fwhm(g, fs.incoherent_spectrum(spec, g).values))
    assert widths[0] > widths[1] > widths[2]
    report(3, "peak positions", f"(2b at {pos_2b:.3f}, 3a at {pos_3a:.3f}, "
           f"narrowing {widths[0]:.2f}>{widths[1]:.2f}>{widths[2]:.2f})")


def test_criterion_04_sum_rule(markovian, fig2a, fig2b, fig3a, fig5):
    residuals = {}
    for name, spec, inner, outer, n in (
            ("markovian", markovian, 1e-4, 40.0, 400),
            ("fig2a", fig2a, 1e-5, 50.0, 600),
            ("fig2b", fig2b, 1e-6, 120.0, 700),
            ("fig3a", fig3a, 1e-7, 150.0, 800),
            ("fig5", fig5, 1e-6, 300.0, 800)):
        grid = log_symmetric_grid(inner, outer, n)
        residuals[name] = fs.sum_rule_check(spec, grid)
        assert residuals[name] < 0.01, name
    report(4, "sum rule", "(" + ", ".join(f"{k}={v:.2e}"
                                          for k, v in residuals.items()) + ")")


def test_criterion_05_g2_contract(markovian, fig2a, fig5):
    for spec in (markovian, fig2a, fig5):
        assert fs.g2(spec, np.array([0.0])).values[0] == 0.0
        tail = fs.g2(spec, np.array([0.0, 50.0 / slowest_rate(spec)])).values[-1]
        assert abs(tail - 1.0) < 1e-6
    approx = fs.blinking_rates(fig5)
    rate = approx.big_gamma[0, 1] + approx.big_gamma[1, 0]
    plateau = fs.g2(fig5, np.array([10.0, 50.0, 200.0])).values
    assert np.all(plateau > 1.0)
    tau = np.linspace(0.5 / rate, 2.5 / rate, 9)
    decay = fs.g2(fig5, tau).values - 1.0
    fitted = -np.polyfit(tau, np.log(decay), 1)[0]
    assert fitted == pytest.approx(rate, rel=0.20)
    report(5, "g2 contract", f"(plateau {plateau[1]:.3f}, relaxation rate "
           f"{fitted:.3e} vs Gamma sum {rate:.3e})")


def test_criterion_06_counting_consistency(markovian, fig5):
    # moment consistency against the n-resolved distribution
    n_max = 16
    t = 8.0
    probs = fs.pn(markovian, t, n_max)
    n = np.arange(n_max + 1)
    mean = fs.mean_counts(markovian, t)
    second = fs.second_factorial(markovian, t)
    remainder = 1.0 - probs.sum()
    assert abs((n * probs).sum() - mean) <= 100 * remainder + 1e-9
    assert abs((n * (n - 1) * probs).sum() - second) <= 1000 * remainder + 1e-8
    # stationary count rate
    j = counting_split(fig5).jump.matrix
    theta = trace_functional(2)
    x0 = fs.BlockState.ground(2).to_vector()
    xt = la.expm((50.0 / slowest_rate(fig5)) * fs.build_generator(fig5).matrix) @ x0
    rate = float(np.real(theta @ j @ xt))
    assert abs(rate - fs.stationary_intensity(fig5)) < 1e-8
    # second factorial moment equals the double intensity-correlation integral
    t_end = 5.0
    tau = np.linspace(0.0, t_end, 2001)
    integral = 2.0 * simpson((t_end - tau) * fs.c2(markovian, tau).values, x=tau)
    assert fs.second_factorial(markovian, t_end) == pytest.approx(integral, rel=1e-6)
    # Monte Carlo quantum-jump oracle, 1e5 trajectories, 3 sigma per bin
    t_mc, n_traj = 20.0, 100_000
    counts = jump_oracle.sample_counts(markovian, t_mc, n_traj, seed=20260809)
    exact = fs.pn(markovian, t_mc, 14)
    hist = jump_oracle.histogram(counts, 14)
    sigma = np.sqrt(np.maximum(exact * (1.0 - exact), 1e-30) / n_traj)
    z = np.abs(hist - exact) / np.maximum(sigma, 3e-5 / 3.0)
    assert z.max() < 3.0
    assert counts.mean() == pytest.approx(fs.mean_counts(markovian, t_mc),
                                          abs=3.0 * counts.std() / np.sqrt(n_traj))
    report(6, "counting consistency",
           f"(MC max|z|={z.max():.2f}, N2f integral rel err "
           f"{abs(fs.second_factorial(markovian, t_end) / integral - 1):.1e})")


def test_criterion_07_stationary_mandel_exactness(markovian, fig2a, fig5):
    # stationary extraction vs long-time Mandel factor on every fixture
    for spec in (fs.single_state(1.0, 1.0), markovian, fig2a, fig5):
        q_st = fs.stationary_mandel(spec)
        t = 3000.0 / slowest_rate(spec)
        q_t = fs.mandel_q(spec, t)
        assert q_t == pytest.approx(q_st, rel=1e-3)
    # light-assisted fixture matches the closed-form detuning limit within 1%
    limit = fs.mandel_detuning_limit(fig5)
    assert limit == pytest.approx(301.114, abs=0.01)
    q_far = fs.stationary_mandel(dataclasses.replace(fig5, detuning=1000.0))
    assert q_far == pytest.approx(limit, rel=0.01)
    report(7, "stationary Mandel exactness",
           f"(Q_far={q_far:.4f} vs limit {limit:.4f})")


def test_criterion_07_scaled_triplet_clause(fig5):
    # Detuning compensation keeps the light-assisted model near-Poissonian
    # far from resonance: Q_st of the scaled model follows the closed-form
    # detuning limit evaluated at the scaled rates, which depends on
    # gamma12 only, not on the drive. At delta = 1e3 the scaled gamma12 is
    # 7.02, comparable to gamma2 - gamma1 = 9, so Q_st = 0.015574 (the
    # closed form gives 0.015534; an independent Lindblad assembly with a
    # bordered solve gives 0.0155735). Q_st first drops below the bound
    # 0.006 = 2 * (2*gamma21/gamma1) near delta = 3.1e3 and tends to
    # 2*gamma21/gamma1 = 0.003 once gamma12_bar*delta/delta0 >> 9. So the
    # band [0.0015, 0.006] is asserted from delta = 1e4 on, where the
    # compensated model has reached its limit.
    deltas = (1e3, 1e4, 1e5, 1e6)
    specs = [fs.scaled_triplet(fig5, d, delta0=1.0, omega_bar=0.25,
                               gamma12_bar=0.007) for d in deltas]
    qs = [fs.stationary_mandel(s) for s in specs]
    limits = [fs.mandel_detuning_limit(s) for s in specs]
    assert qs[0] == pytest.approx(0.015574, rel=1e-3)      # exact value, frozen
    for q, limit in zip(qs, limits):
        assert q == pytest.approx(limit, rel=5e-3)         # closed-form route
    assert all(a > b for a, b in zip(qs, qs[1:]))          # compensation acts
    for delta, q in zip(deltas[1:], qs[1:]):
        assert 0.0015 <= q <= 0.006, f"Q_scaled({delta:g}) = {q:.6f}"
    report(7, "scaled-triplet clause", "(" + ", ".join(
        f"Q_scaled({d:g})={q:.6f} vs limit {limit:.6f}"
        for d, q, limit in zip(deltas, qs, limits)) + ")")


def test_criterion_08_mapping_equivalence_divergence(fig5):
    mapped = fs.mapped_self_fluct(fig5)
    grid = log_symmetric_grid(1e-5, 10.0, 120)
    s_orig = fs.incoherent_spectrum(fig5, grid).values
    s_map = fs.incoherent_spectrum(mapped, grid).values
    spec_dev = np.abs(s_orig - s_map).max() / s_orig.max()
    assert spec_dev <= 0.02
    tau = np.concatenate([[0.0], np.logspace(-1, 4, 60)])
    g_orig = fs.g2(fig5, tau).values
    g_map = fs.g2(mapped, tau).values
    g2_dev = np.abs(g_orig - g_map).max() / g_orig.max()
    assert g2_dev <= 0.02
    q_orig = fs.stationary_mandel(dataclasses.replace(fig5, detuning=30.0))
    q_map = fs.stationary_mandel(dataclasses.replace(mapped, detuning=30.0))
    assert q_orig / q_map > 10.0
    report(8, "mapping equivalence/divergence",
           f"(spectrum dev {spec_dev:.4f}, g2 dev {g2_dev:.4f}, "
           f"Q ratio {q_orig / q_map:.1f})")


def test_criterion_09_representation_cross_check():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(3):
        spec = random_spec(rng, 2, with_channels=False)
        split = counting_split(spec)
        x0 = fs.steady_state(fs.build_generator(spec))
        blocks = x0.blocks
        y0 = np.concatenate([
            np.real(0.5 * (blocks[:, 0, 1] + blocks[:, 1, 0])),
            np.real((blocks[:, 0, 1] - blocks[:, 1, 0]) / 2j),
            np.real(0.5 * (blocks[:, 1, 1] - blocks[:, 0, 0])),
            np.real(0.5 * (blocks[:, 1, 1] + blocks[:, 0, 0]))])
        for s in (0.0, 0.5, 1.0):
            def rhs(t, y):
                du, dv, dw, dy = optical_bloch_rhs(
                    spec, s, (y[0:2], y[2:4], y[4:6], y[6:8]))
                return np.concatenate([np.real(du), np.real(dv),
                                       np.real(dw), np.real(dy)])

            t_end = 8.0
            sol = solve_ivp(rhs, (0.0, t_end), y0, method="DOP853",
                            rtol=1e-12, atol=1e-14)
            y_bloch = sol.y[6, -1] + sol.y[7, -1]
            ls = split.drift.matrix + s * split.jump.matrix
            y_super = 0.5 * np.real(
                trace_functional(2) @ (la.expm(t_end * ls) @ x0.to_vector()))
            worst = max(worst, abs(y_bloch - y_super))
            assert abs(y_bloch - y_super) < 1e-10
    report(9, "representation cross-check", f"(worst |dY|={worst:.2e})")


def test_criterion_10_cli_determinism(tmp_path):
    config = {
        "schema": 1,
        "model": {"scenario": "spectral_two_state",
                  "params": {"gamma": 1.0, "omega_rabi": SQRT_HALF,
                             "delta_omega": 0.1, "phi": 0.008}},
        "task": "spectrum",
        "grids": {"omega": {"start": -2.0, "stop": 2.0, "count": 81},
                  "tau": {"start": 0.0, "stop": 40.0, "count": 41},
                  "delta": {"start": 0.0, "stop": 2.0, "count": 21}},
        "output": "unused",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    for task in ("spectrum", "g2", "lineshape-sweep", "mandel-sweep"):
        blobs = []
        for run, threads in (("r1", "1"), ("r2", "3"), ("r3", "1")):
            out = tmp_path / f"{task.replace('-', '_')}_{run}"
            proc = subprocess.run(
                [sys.executable, "-m", "fluorospec.cli", task,
                 "--config", str(cfg_path), "--out", str(out),
                 "--threads", threads],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            blobs.append((tmp_path / f"{task.replace('-', '_')}_{run}_"
                          f"{task.replace('-', '_')}.csv").read_bytes())
        assert blobs[0] == blobs[1] == blobs[2], task
    report(10, "CLI determinism", "(4 tasks x 3 runs byte-identical)")
