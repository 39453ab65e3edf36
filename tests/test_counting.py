import contextlib
import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg as la
from scipy.integrate import simpson, solve_ivp

import fluorospec as fs
from fluorospec import counting
from fluorospec.counting import counting_split, _factorial_moments
from fluorospec.model import trace_functional

import markovian_oracle
from block_oracle import block_pn
from conftest import random_block_state, random_spec
from generator_oracle import apply_generator, optical_bloch_rhs


def test_split_single_state(markovian):
    split = counting_split(markovian)
    j = split.jump.matrix
    expected = np.zeros((4, 4))
    expected[0, 1] = 1.0   # gamma * (sigma . sigma†) gain into aa from bb
    assert np.abs(j - expected).max() == 0.0


def test_split_sums_to_generator(fig5):
    split = counting_split(fig5)
    full = fs.build_generator(fig5).matrix
    assert np.abs(split.drift.matrix + split.jump.matrix - full).max() < 1e-14


def test_split_fig5_contains_cross_gains(fig5):
    j = counting_split(fig5).jump.matrix
    assert j[0, 5] == pytest.approx(0.02)     # gain aa(block1) <- bb(block2)
    assert j[4, 1] == pytest.approx(0.0015)   # gain aa(block2) <- bb(block1)
    assert np.all(j >= 0.0)


def test_eta_channels_not_counted():
    eta = np.array([[0.0, 0.4], [0.3, 0.0]])
    spec = fs.ModelSpec([0.0, 0.0], [1.0, 1.0], [0.7, 0.7],
                        extra_channels=(fs.GeneralJumpChannel(fs.OperatorKind.LOWER, eta),))
    j = counting_split(spec).jump.matrix
    assert j[0, 5] == 0.0 and j[4, 1] == 0.0   # eta gains live in the drift


def test_pn_at_zero_time(markovian):
    probs = fs.pn(markovian, 0.0, 5)
    assert probs[0] == pytest.approx(1.0, abs=1e-14)
    assert np.abs(probs[1:]).max() < 1e-14


def test_pn_dark_state():
    dark = fs.single_state(gamma=1.0, omega_rabi=0.0)
    for t in (1.0, 10.0):
        probs = fs.pn(dark, t, 3)
        assert probs[0] == pytest.approx(1.0, abs=1e-12)


def test_pn_moment_consistency(markovian):
    n_max = 14
    probs = fs.pn(markovian, 8.0, n_max)
    n = np.arange(n_max + 1)
    mean, second = _factorial_moments(markovian, 8.0)
    remainder = 1.0 - probs.sum()
    assert (n * probs).sum() == pytest.approx(mean, abs=50 * remainder + 1e-10)
    assert (n * (n - 1) * probs).sum() == pytest.approx(second, abs=500 * remainder + 1e-9)
    assert probs.min() > -1e-12
    assert probs.max() <= 1.0 + 1e-12


def test_counting_rejects_bad_time(markovian):
    # a NaN time would otherwise give NaN P_n under a finite aliasing bound
    for t in (-1.0, float("nan"), float("inf")):
        for fn in (lambda: fs.pn(markovian, t, 3),
                   lambda: fs.counting_record(markovian, t, 3),
                   lambda: fs.mean_counts(markovian, t)):
            with pytest.raises(ValueError, match="finite"):
                fn()


def test_counting_rejects_bad_n_max_and_initial_state(markovian):
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        fs.pn(markovian, 1.0, -1)
    with pytest.raises(ValueError, match="initial state has 2 blocks, spec has 1"):
        fs.pn(markovian, 1.0, 3, initial=fs.BlockState.ground(2))


@pytest.mark.parametrize("observable", ["c1", "c2", "g2", "pn", "mean_counts",
                                        "counting_record"])
def test_overflowing_exponential_raises(observable):
    """At Rabi frequency 1e20 the matrix exponentials at t = 1.5 overflow:
    every expm-based observable raises FloatingPointError naming t, without
    a warning, rather than return NaN."""
    p = fs.prepare(fs.single_state(gamma=1.0, omega_rabi=1e20))
    p.steady
    calls = {"c1": lambda: fs.c1(p, [0.0, 1.5]), "c2": lambda: fs.c2(p, [0.0, 1.5]),
             "g2": lambda: fs.g2(p, [0.0, 1.5]), "pn": lambda: fs.pn(p, 1.5, 5),
             "mean_counts": lambda: fs.mean_counts(p, 1.5),
             "counting_record": lambda: fs.counting_record(p, 1.5, 5)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="t = 1.5 "):
            calls[observable]()


def test_pn_truncation_warning(markovian):
    with pytest.warns(UserWarning, match="truncation"):
        fs.pn(markovian, 40.0, 2)


def _oracle_case(name, request):
    """(spec, t, n_max, initial, truncated) of one block-oracle comparison."""
    fig5 = request.getfixturevalue("fig5")
    markovian = request.getfixturevalue("markovian")
    rng = np.random.default_rng(21)
    if name == "fig5_workload":
        return fig5, 60.0, 60, None, False
    if name == "random5_workload":
        return random_spec(rng, 5), 10.0, 30, None, False
    if name == "eta_channel":
        return random_spec(rng, 3, with_channels=True), 5.0, 20, None, False
    if name == "initial_state":
        return fig5, 30.0, 40, random_block_state(rng, 2, physical=True), False
    if name == "heavy_truncation":
        return markovian, 40.0, 2, None, True
    # g(2) overflows to nan here; every exact P_n is below 1e-100
    return fig5, 3000.0, 20, None, True


@pytest.mark.parametrize("name", ["fig5_workload", "random5_workload", "eta_channel",
                                  "initial_state", "heavy_truncation",
                                  "long_time_overflow"])
def test_pn_matches_block_oracle(name, request):
    spec, t, n_max, initial, truncated = _oracle_case(name, request)
    warns = (pytest.warns(UserWarning, match="truncation") if truncated
             else contextlib.nullcontext())
    with warns:
        rec = fs.counting_record(spec, t, n_max, initial)
    assert np.abs(rec.pn - block_pn(spec, t, n_max, initial)).max() <= 1e-13
    assert np.isfinite(rec.aliasing) and rec.aliasing <= 1e-14
    assert rec.remainder == 1.0 - rec.pn.sum()


@pytest.fixture
def expm_calls(monkeypatch):
    """The number of matrices in each ``expm`` call of the counting module:
    1 for a matrix, its length for a stack."""
    calls = []
    expm = counting.expm
    monkeypatch.setattr(counting, "expm",
                        lambda a: calls.append(len(a) if a.ndim == 3 else 1) or expm(a))
    return calls


def test_pn_cost_bounded_when_mean_count_far_exceeds_n_max(markovian, expm_calls):
    # mean count I_st t = 2500: the unit circle would need N > 2500 points;
    # the shrunk circle needs N = 512, i.e. 257 matrices in one stacked
    # call, after three Chernoff points and before the moments' one
    with pytest.warns(UserWarning, match="truncation"):
        rec = fs.counting_record(markovian, 1e4, 5)
    assert sum(expm_calls) < 300
    assert expm_calls == [1, 1, 1, 257, 1]
    assert rec.aliasing == pytest.approx(np.finfo(float).eps, rel=1e-12)
    assert np.abs(rec.pn - block_pn(markovian, 1e4, 5)).max() <= 1e-13


def test_pn_overflow_safe_chernoff_point(fig5, expm_calls):
    # g(2) overflows at t = 3000; the Chernoff point z = 1 + 2^-k where
    # g(z) is finite keeps N = 2048 on the unit circle, where the trivial
    # bound P(n >= N) <= 1 would need N > 52 n_max; its 1025 points take
    # two stacked calls of at most _STACK_BYTES (1024 matrices of dim 8)
    with pytest.warns(UserWarning, match="truncation"):
        probs = fs.pn(fig5, 3000.0, 600)
    assert sum(expm_calls) < 1100
    assert expm_calls == [1, 1, 1024, 1]
    assert probs.min() > -1e-13
    assert np.abs(probs[:21] - block_pn(fig5, 3000.0, 20)).max() <= 1e-13


def test_chernoff_point_probes_then_bisects(expm_calls):
    """g(1 + 2^-k) of single_state at t = 1e5 is NaN for k <= 5 and finite
    from 6 on: probes at k = 0, 1, 2, 4, 8 and bisection at 6 and 5 find
    k = 6 in seven single calls. Where no z is found, P_n raises after the
    eight probes and one stacked call on the circle, not after 53 calls."""
    with pytest.warns(UserWarning, match="truncation"):
        fs.counting_record(fs.single_state(gamma=1.0, omega_rabi=0.7), 1e5, 5)
    assert expm_calls == [1] * 7 + [257, 1]
    expm_calls.clear()
    with pytest.raises(FloatingPointError, match="not finite"):
        fs.pn(fs.single_state(gamma=1.0, omega_rabi=1e20), 1.5, 5)
    assert expm_calls[:8] == [1] * 8 and len(expm_calls) == 9


@pytest.mark.parametrize("first", [*range(53), None])
def test_log_chernoff_finds_the_largest_finite_point(first):
    """With g(1 + 2^-k) NaN below k = first and finite from it on, the point
    found is k = first, as a scan over every k finds it, in at most 13
    evaluations of g; (0, 0) when g is finite nowhere."""
    seen = []

    def g(z):
        k = -np.log2(z - 1.0)
        seen.append(k)
        return np.complex128(np.nan if first is None or k < first else z)

    got = counting._log_chernoff(g)
    log_z = 0.0 if first is None else float(np.log(1.0 + 2.0**-first))
    assert got == (log_z, log_z)
    assert len(seen) <= (8 if first is None else 13)


@pytest.mark.parametrize("model, t, n_max, points", [("fig5", 5.0, 60, 65),
                                                     ("random5", 1.0, 30, 33)])
def test_pn_does_not_depend_on_the_stacking(model, t, n_max, points, fig5, expm_calls,
                                            monkeypatch):
    """P_n from its half circle in one stacked expm call equals P_n from
    stacks of at most three matrices, forced by a cap of three matrices'
    bytes, bit for bit."""
    spec = fig5 if model == "fig5" else random_spec(np.random.default_rng(5), 5)
    whole = fs.pn(spec, t, n_max)
    assert max(expm_calls) == points
    expm_calls.clear()
    monkeypatch.setattr(counting, "_STACK_BYTES", 3 * 16 * (4 * spec.r_max) ** 2)
    assert np.array_equal(fs.pn(spec, t, n_max), whole)
    assert max(expm_calls) == 3 and sum(expm_calls) > points


def test_pn_monotone_mass_in_nmax(markovian):
    sums = []
    for n in (2, 5):            # the mass past n_max is reported
        with pytest.warns(UserWarning, match=f"P_n truncation at n_max={n} leaves mass"):
            sums.append(fs.pn(markovian, 6.0, n).sum())
    sums += [fs.pn(markovian, 6.0, n).sum() for n in (9, 14)]
    assert np.all(np.diff(sums) >= -1e-15)
    assert sums[-1] == pytest.approx(1.0, abs=1e-9)


def test_mean_counts_short_time_rate(markovian):
    i_st = fs.stationary_intensity(markovian)
    for t in (1e-3, 1e-2):
        assert fs.mean_counts(markovian, t) == pytest.approx(i_st * t, rel=1e-2)


def test_mean_counts_matches_markovian_oracle(markovian):
    for t in (2.0, 20.0):
        n_ref, n2_ref = markovian_oracle.factorial_moments(1.0, 2**-0.5, t)
        assert fs.mean_counts(markovian, t) == pytest.approx(n_ref, abs=1e-10)
        assert fs.second_factorial(markovian, t) == pytest.approx(n2_ref, abs=1e-9)


def test_count_rate_reaches_stationary_intensity(fig5):
    # dN/dt = Tr[J e^{tL} x0] -> I_st from any start
    gen = fs.build_generator(fig5)
    j = counting_split(fig5).jump.matrix
    theta = trace_functional(2)
    x0 = fs.BlockState.ground(2).to_vector()
    rates = la.eigvals(gen.matrix).real
    slow = np.min(np.abs(rates[np.abs(rates) > 1e-12]))
    xt = la.expm((50.0 / slow) * gen.matrix) @ x0
    assert np.real(theta @ j @ xt) == pytest.approx(fs.stationary_intensity(fig5), abs=1e-8)


def test_second_factorial_equals_double_c2_integral(markovian):
    # N2f(t) = 2 int_0^t (t - tau) C2(tau) dtau for a stationary start
    t_end = 5.0
    tau = np.linspace(0.0, t_end, 2001)
    c2_vals = fs.c2(markovian, tau).values
    integral = 2.0 * simpson((t_end - tau) * c2_vals, x=tau)
    ours = fs.second_factorial(markovian, t_end)
    assert ours == pytest.approx(integral, rel=1e-6)


def test_mandel_poisson_reference():
    # artificial single-block harness: jump rate independent of the state
    # gives exactly Poisson counting, Q = 0
    lam = 0.7
    drift = -lam * np.eye(4, dtype=complex)
    jump = lam * np.eye(4, dtype=complex)
    full = drift + jump
    big = np.zeros((12, 12), dtype=complex)
    for n in range(3):
        big[4 * n:4 * n + 4, 4 * n:4 * n + 4] = full
    big[4:8, 0:4] = jump
    big[8:12, 4:8] = 2.0 * jump
    x = np.zeros(12, dtype=complex)
    x[:4] = fs.BlockState.ground(1).to_vector()
    y = la.expm(3.0 * big) @ x
    theta = np.array([1.0, 0.0, 0.0, 1.0])
    mean = np.real(theta @ y[4:8])
    second = np.real(theta @ y[8:12])
    assert mean == pytest.approx(lam * 3.0, rel=1e-12)
    assert (second + mean - mean**2) / mean - 1.0 == pytest.approx(0.0, abs=1e-12)


def test_mandel_q_sub_poissonian_markovian():
    spec = fs.single_state(gamma=1.0, omega_rabi=1.0)
    q = fs.mandel_q(spec, 200.0)
    assert q < 0.0
    assert q == pytest.approx(markovian_oracle.mandel_q(1.0, 1.0, 200.0), abs=1e-10)


def test_mandel_q_super_poissonian_fig5(fig5):
    assert fs.mandel_q(fig5, 3e4) > 10.0


def test_mandel_q_zero_counts():
    dark = fs.single_state(gamma=1.0, omega_rabi=0.0)
    with pytest.raises(fs.ZeroCounts):
        fs.mandel_q(dark, 1.0)
    with pytest.raises(fs.ZeroCounts):
        fs.counting_record(dark, 1.0, 3)


def test_mandel_q_at_zero_time_is_its_limit(markovian):
    # N2f = O(t^2) and N = O(t), so Q -> 0 as t -> 0, also for a dark model
    dark = fs.single_state(gamma=1.0, omega_rabi=0.0)
    for spec in (markovian, dark):
        assert fs.mandel_q(spec, 0.0) == 0.0
        assert fs.counting_record(spec, 0.0, 3).mandel_q == 0.0
    assert abs(fs.mandel_q(markovian, 1e-4)) < 1e-3


def test_line_shape_equals_stationary_intensity(markovian, fig2a, fig5):
    for spec in (markovian, fig2a, fig5):
        assert fs.line_shape(spec) == pytest.approx(
            fs.stationary_intensity(spec), abs=1e-12)


def test_line_shape_detuning_sweep_lorentzian(markovian):
    deltas = np.linspace(-4.0, 4.0, 81)
    series = fs.detuning_sweep(fs.line_shape, markovian, deltas)
    gamma, omega = 1.0, 2**-0.5
    closed = gamma * omega**2 / (gamma**2 + 2 * omega**2 + 4 * deltas**2)
    assert np.abs(series.values - closed).max() < 1e-10
    # half maximum at 2 delta = sqrt(gamma^2 + 2 Omega^2)
    half_point = 0.5 * np.sqrt(gamma**2 + 2 * omega**2)
    val = fs.line_shape(dataclasses.replace(markovian, detuning=half_point))
    assert val == pytest.approx(0.5 * series.values.max(), rel=1e-10)


def test_line_shape_fig5_monotone_in_detuning(fig5):
    deltas = np.linspace(0.0, 30.0, 16)
    series = fs.detuning_sweep(fs.line_shape, fig5, deltas)
    assert np.all(np.diff(series.values) < 0.0)


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("observable", [fs.line_shape, fs.stationary_mandel],
                         ids=["line_shape", "stationary_mandel"])
@pytest.mark.parametrize("model", ["fig5", "random5"])
def test_detuning_sweep_equals_rebuild_bit_for_bit(model, observable, threads, fig5):
    """The sweep shifts one model prepared at detuning 0; each point equals
    the observable of the model built at that detuning, in grid order."""
    spec = fig5 if model == "fig5" else random_spec(np.random.default_rng(5), 5)
    deltas = np.array([-7.5, -0.3, 0.0, 0.25, 3.0, 1e3])
    series = fs.detuning_sweep(observable, spec, deltas, threads)
    want = [observable(fs.prepare(dataclasses.replace(spec, detuning=float(d))))
            for d in deltas]
    assert np.array_equal(series.abscissa, deltas)
    assert np.array_equal(series.values, want)


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("observable", [fs.line_shape, fs.stationary_mandel],
                         ids=["line_shape", "stationary_mandel"])
@pytest.mark.parametrize("model", ["fig5", "random5"])
def test_detuning_sweep_chunks_leave_values_unchanged(model, observable, threads, fig5,
                                                      monkeypatch):
    """A sweep cut into several stacks, here by a cap of three generators'
    bytes, equals the per-point values bit for bit: every point is solved
    and certified on its own."""
    spec = fig5 if model == "fig5" else random_spec(np.random.default_rng(5), 5)
    deltas = np.linspace(-30.0, 30.0, 23)
    want = [observable(fs.prepare(dataclasses.replace(spec, detuning=float(d))))
            for d in deltas]
    sizes = []

    def recorded(p):
        sizes.append(len(p.generator.matrix))
        return observable(p)

    monkeypatch.setattr(counting, "_STACK_BYTES", 3 * fs.build_generator(spec).matrix.nbytes)
    series = fs.detuning_sweep(recorded, spec, deltas, threads)
    assert sorted(sizes) == [2] + [3] * 7
    assert np.array_equal(series.values, want)


@pytest.mark.parametrize("observable", [fs.line_shape, fs.stationary_mandel],
                         ids=["line_shape", "stationary_mandel"])
@pytest.mark.parametrize("model", ["fig5", "random5"])
def test_detuning_sweep_validates_only_a_replaced_spec(model, observable, fig5,
                                                       monkeypatch):
    """The sweep replaces the spec's own detuning by 0, so no value depends
    on it; a spec already at detuning 0 is swept as it is and not validated
    again, one at -0.0 or 0.37 is replaced, one validation."""
    spec = fig5 if model == "fig5" else random_spec(np.random.default_rng(5), 5)
    deltas = np.array([-7.5, -1e-300, 0.0, 0.25, 3.0])
    calls, validate = [], fs.model.validate
    monkeypatch.setattr(fs.model, "validate", lambda s: calls.append(s) or validate(s))
    runs = []
    for own, validations in ((0.0, 0), (-0.0, 1), (0.37, 1)):
        at_own = dataclasses.replace(spec, detuning=own)
        calls.clear()
        runs.append(fs.detuning_sweep(observable, at_own, deltas).values.tobytes())
        assert len(calls) == validations, own
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("deltas", [[3.0, 2.0, 1.0], [1.0, 1.0], [-2.0, -1.0, 0.0, np.inf]],
                         ids=["decreasing", "repeated", "non_finite"])
def test_detuning_sweep_rejects_grid_before_any_point(deltas, monkeypatch):
    """A grid that is not finite and strictly increasing is refused before
    the model is prepared, so no point is evaluated."""
    calls = []
    monkeypatch.setattr(counting, "prepare", lambda *args: pytest.fail("model prepared"))

    def observable(model):
        calls.append(model)
        return 0.0

    with pytest.raises(ValueError, match="strictly increasing"):
        fs.detuning_sweep(observable, fs.single_state(1.0, 0.7), deltas)
    assert calls == []


def test_detuning_sweep_reraises_a_chunk_whose_points_pass_alone():
    """When a chunk raises and each of its points then passes alone, the
    chunk's own exception is raised."""
    sizes = []

    def observable(p):
        sizes.append(len(p.generator.matrix))
        if sizes[-1] > 1:
            raise RuntimeError("only stacks fail")
        return np.zeros(1)

    with pytest.raises(RuntimeError, match="only stacks fail"):
        fs.detuning_sweep(observable, fs.single_state(1.0, 0.7), [0.0, 1.0, 2.0])
    assert sizes == [3, 1, 1, 1]


def test_thread_map_bounds_its_workers(monkeypatch, fig5):
    """Never more workers than grid points or CPUs, whatever threads asks
    for; one worker, or an empty grid, runs inline without a pool."""
    made = []

    class Recorder(counting.ThreadPoolExecutor):
        def __init__(self, max_workers):
            made.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(counting, "ThreadPoolExecutor", Recorder)
    deltas = [0.0, 1.0, 2.0]
    inline = fs.detuning_sweep(fs.line_shape, fig5, deltas).values
    for cpus, expected in ((8, [3]), (2, [2]), (1, []), (None, [])):
        made.clear()
        monkeypatch.setattr(counting.os, "cpu_count", lambda: cpus)
        values = fs.detuning_sweep(fs.line_shape, fig5, deltas, threads=10**6).values
        assert made == expected, cpus
        assert np.array_equal(values, inline)
    made.clear()
    assert counting._parallel_map(abs, [], 10**6) == [] and made == []


def test_stationary_mandel_markovian_long_time():
    spec = fs.single_state(gamma=1.0, omega_rabi=1.0)
    q_st = fs.stationary_mandel(spec)
    assert q_st == pytest.approx(-2.0 / 3.0, abs=1e-12)
    assert q_st == pytest.approx(fs.mandel_q(spec, 1e4), rel=1e-4)


def test_stationary_mandel_initial_state_independent(fig5):
    """Q_st is the t -> infinity limit of Q(t): the Laurent oracle from the
    ground state gives the value computed from the steady state alone, and
    the function takes no initial state."""
    q_steady = fs.stationary_mandel(fig5)
    q_ground = _laurent_mandel(fs.prepare(fig5), fs.BlockState.ground(2))
    assert q_ground == pytest.approx(q_steady, rel=1e-9)
    with pytest.raises(TypeError):
        fs.stationary_mandel(fig5, fs.BlockState.ground(2))


def test_stationary_mandel_zero_counts():
    with pytest.raises(fs.ZeroCounts):
        fs.stationary_mandel(fs.single_state(gamma=1.0, omega_rabi=0.0))


def test_stationary_mandel_fig5_detuning_limit(fig5):
    limit = fs.mandel_detuning_limit(fig5)
    assert limit == pytest.approx(301.114, abs=0.01)
    q_30 = fs.stationary_mandel(dataclasses.replace(fig5, detuning=30.0))
    assert q_30 == pytest.approx(limit, rel=0.02)
    q_large = fs.stationary_mandel(dataclasses.replace(fig5, detuning=1000.0))
    assert q_large == pytest.approx(limit, rel=0.01)


def _laurent_mandel(p, initial=None):
    """Q_st = A/b - 4a from the dense projector P and reduced resolvent R0
    of ``laurent_decomposition``: the oracle of the deflated solves."""
    dec = fs.laurent_decomposition(p)
    theta = trace_functional(p.spec.r_max)
    rho_inf = dec.steady.to_vector()
    proj, r0 = dec.projector.matrix, dec.reduced_resolvent.matrix
    x0 = rho_inf if initial is None else initial.to_vector()
    tj = theta @ p.jump
    b = 0.5 * np.real(tj @ proj @ x0)
    a = 0.5 * np.real(tj @ r0 @ x0)
    a_coef = (np.real(tj @ proj @ (p.jump @ (r0 @ x0)))
              + np.real(tj @ r0 @ (p.jump @ rho_inf)))
    return a_coef / b - 4.0 * a


@pytest.mark.parametrize("initial", [False, True], ids=["steady", "initial"])
@pytest.mark.parametrize("eta", [False, True], ids=["no_eta", "eta"])
@pytest.mark.parametrize("r_max", [1, 3, 20, 40])
def test_stationary_mandel_matches_laurent_oracle(r_max, eta, initial):
    rng = np.random.default_rng(100 + r_max)
    p = fs.prepare(random_spec(rng, r_max, with_channels=eta))
    x0 = random_block_state(rng, r_max, physical=True) if initial else None
    assert fs.stationary_mandel(p) == pytest.approx(_laurent_mandel(p, x0), rel=1e-12)


def test_stationary_mandel_stiff_telegraph_limit():
    """Lifetimes 1 and 3 switching at rates 2 phi and phi: Q_st tends to the
    telegraph term 2 p0 p1 (I0 - I1)^2 / (I_bar 3 phi) plus the constant
    -0.416 of the fast dynamics. The dense reduced resolvent failed its
    defect check from phi = 1e-10 on; the solves by elimination onto the
    configurational chain stay certified down to 1e-14, with no dense
    fallback."""
    omega = 0.5
    p0, p1 = 1.0 / 3.0, 2.0 / 3.0
    i0, i1 = (g * (omega**2 / 4) / (g**2 / 4 + omega**2 / 2) for g in (1.0, 3.0))
    i_bar = p0 * i0 + p1 * i1
    for phi in (1e-8, 1e-10, 1e-12, 1e-14):
        spec = fs.lifetime_fluct([1.0, 3.0], phi * np.array([[0.0, 1.0], [2.0, 0.0]]),
                                 omega)
        with _dense_solves() as dense:
            q = fs.stationary_mandel(spec)
        assert dense == [], phi
        telegraph = 2 * p0 * p1 * (i0 - i1) ** 2 / (i_bar * 3 * phi)
        assert np.isfinite(q), phi
        assert q == pytest.approx(telegraph, rel=1e-4), phi
        if phi >= 1e-10:
            assert q == pytest.approx(telegraph - 0.416, rel=1e-7), phi


@contextlib.contextmanager
def _dense_solves():
    """The shapes of the generators that ``resolve_deflated`` solves, the
    dense fallback of the steady state and of Q_st, within the block."""
    shapes = []
    bordered = fs.steady.resolve_deflated
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fs.steady, "resolve_deflated",
                      lambda g, *args: shapes.append(g.matrix.shape) or bordered(g, *args))
        yield shapes


def _no_dense_case(name, fig5):
    kind, _, arg = name.partition("_")
    if kind == "triplet":
        return fs.scaled_triplet(fig5, float(arg), delta0=1.0, omega_bar=0.25,
                                 gamma12_bar=0.007)
    if kind == "fig5":
        return dataclasses.replace(fig5, detuning=float(arg))
    r_max, eta, seed = (int(v) for v in arg.split("_"))
    return random_spec(np.random.default_rng(seed), r_max, with_channels=bool(eta))


@pytest.mark.parametrize("name", [
    *(f"random_{r}_{eta}_{seed}" for r in range(1, 8) for eta in (0, 1)
      for seed in (600 + r, 700 + r)),
    "triplet_1e3", "triplet_1e4", "triplet_1e5", "triplet_1e6", "fig5_1e6"])
def test_stationary_mandel_takes_no_dense_solve(name, fig5):
    """Fuzzed models (r_max 1..7, with and without channels), the scaled
    triplet out to delta = 1e6 and fig5 at delta = 1e6: the steady state and
    Q_st are certified by the elimination, which no point leaves for the
    dense solve, and Q_st equals the Laurent oracle. (The stiff
    lifetime_fluct models take no dense solve either, in
    test_stationary_mandel_stiff_telegraph_limit; there the dense oracle
    carries an error eps / phi and fails its own check.)"""
    p = fs.prepare(_no_dense_case(name, fig5))
    with _dense_solves() as dense:
        q = fs.stationary_mandel(p)
    assert dense == []
    assert q == pytest.approx(_laurent_mandel(p), rel=1e-12)


def test_corrupted_inverse_fails_its_point_alone(fig5, monkeypatch):
    """A Z_ff^-1 corrupted at one point of a stacked elimination fails the
    backward error of that point's fast solve: that point alone takes the
    dense solve, which gives its Q_st, and every other point keeps its Q_st
    bit for bit."""
    deltas = np.array([-30.0, -3.0, 0.0, 2.0, 40.0])
    base = fs.prepare(fig5)
    want = fs.stationary_mandel(base.at_detuning(deltas))
    eliminate = fs.steady.eliminate

    def corrupted(generator):
        e = eliminate(generator)
        e.inverse[2] *= 1.0 + 1e-9
        return e

    failures = []
    resolve = fs.steady.Elimination.resolve

    def recorded(self, rhs, trace):
        y, failed = resolve(self, rhs, trace)
        failures.append(failed)
        return y, failed

    monkeypatch.setattr(fs.steady, "eliminate", corrupted)
    monkeypatch.setattr(counting, "eliminate", corrupted)
    monkeypatch.setattr(fs.steady.Elimination, "resolve", recorded)
    with _dense_solves() as dense:
        got = fs.stationary_mandel(base.at_detuning(deltas))
    # the steady state's Z_ff^-1 0 is exactly 0 and passes; Q_st's fails
    assert [list(f) for f in failures] == [[], [2]]
    assert "fast block solve backward error" in str(failures[1][2])
    assert dense == [(8, 8)]
    assert got[2] == pytest.approx(want[2], rel=1e-12)
    keep = [0, 1, 3, 4]
    assert got[keep].tobytes() == want[keep].tobytes()


@pytest.mark.parametrize("corrupt", ["scaled", "steady_direction"])
def test_stationary_mandel_certifies_solve(fig5, corrupt, monkeypatch):
    """A corrupted R0 solve fails the backward-error certificate, also when
    the error lies along the steady state, which only the trace row sees."""
    p = fs.prepare(fig5)
    # the null vectors of the chain and of the generator, whose solves the
    # steady direction corrupts (the fast block's solve stays exact)
    null = {2: fs.config_populations(p.steady), 8: p.steady.to_vector().real}
    solve = np.linalg.solve

    def perturbed(a, b):
        x = solve(a, b)
        if corrupt == "scaled":
            return x * (1.0 + 1e-7)
        if a.shape[-1] not in null:
            return x
        return x + 1e-7 * np.abs(x).max() * null[a.shape[-1]][:, None]

    monkeypatch.setattr(np.linalg, "solve", perturbed)
    with pytest.raises(ArithmeticError, match="backward error"):
        fs.stationary_mandel(p)


def test_stationary_mandel_one_lu_per_call(fig5, monkeypatch):
    """Q_st makes one elimination of its own, whose fast LU of [Z_ft, I]
    gives the X and Z_ff^-1 that both the steady state and its own column
    are solved against, and one r_max x r_max LU for each of the two chain
    solves: three LUs in all, the Prepared's steady state solved or not,
    since a Prepared keeps no elimination record (the steady solve takes
    two)."""
    solved = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, b: solved.append((a.dtype, a.shape, b.shape))
                        or solve(a, b))
    p = fs.prepare(fig5)
    p.steady
    assert len(solved) == 2
    solved.clear()
    fs.stationary_mandel(p)
    real = np.dtype(np.float64)
    chain = (real, (1, 2, 2), (1, 2, 1))
    assert solved == [(real, (1, 6, 6), (1, 6, 8)), chain, chain]
    solved.clear()
    fs.stationary_mandel(fs.prepare(fig5))
    assert len(solved) == 3


def test_stationary_mandel_one_elimination_per_model_and_chunk(fig5, monkeypatch):
    """rho_inf and the Q_st column come from one elimination: one per call
    on a single model, its steady state solved or not, and one per chunk of
    a detuning sweep, here cut by a cap of three generators' bytes."""
    stacks = []
    eliminate = fs.steady.eliminate

    def counted(generator):
        e = eliminate(generator)
        stacks.append(len(e.generator))
        return e

    monkeypatch.setattr(fs.steady, "eliminate", counted)
    monkeypatch.setattr(counting, "eliminate", counted)
    p = fs.prepare(fig5)
    fs.stationary_mandel(p)
    assert stacks == [1]
    p.steady
    fs.stationary_mandel(p)
    assert stacks == [1, 1, 1]
    stacks.clear()
    monkeypatch.setattr(counting, "_STACK_BYTES", 3 * p.generator.matrix.nbytes)
    fs.detuning_sweep(fs.stationary_mandel, fig5, np.linspace(-30.0, 30.0, 10))
    assert stacks == [3, 3, 2, 2]


def test_optical_bloch_s1_matches_generator(fig2a):
    rng = np.random.default_rng(4)
    x = random_block_state(rng, 2, physical=True)
    blocks = x.blocks
    u = 0.5 * (blocks[:, 0, 1] + blocks[:, 1, 0])
    v = (blocks[:, 0, 1] - blocks[:, 1, 0]) / 2j
    w = 0.5 * (blocks[:, 1, 1] - blocks[:, 0, 0])
    y = 0.5 * (blocks[:, 1, 1] + blocks[:, 0, 0])
    du, dv, dw, dy = optical_bloch_rhs(fig2a, 1.0, (u, v, w, y))
    d = apply_generator(fig2a, x).blocks
    assert np.abs(du - 0.5 * (d[:, 0, 1] + d[:, 1, 0])).max() < 1e-10
    assert np.abs(dv - (d[:, 0, 1] - d[:, 1, 0]) / 2j).max() < 1e-10
    assert np.abs(dw - 0.5 * (d[:, 1, 1] - d[:, 0, 0])).max() < 1e-10
    assert np.abs(dy - 0.5 * (d[:, 1, 1] + d[:, 0, 0])).max() < 1e-10


def test_optical_bloch_dark_structure():
    spec = fs.lifetime_fluct(gammas=[1.0, 3.0], phi=[[0.0, 0.2], [0.4, 0.0]],
                             omega_rabi=0.0)
    r = 2
    rng = np.random.default_rng(9)
    w = rng.normal(size=r)
    y = rng.normal(size=r)
    zero = np.zeros(r)
    _, _, dw, dy = optical_bloch_rhs(spec, 0.0, (zero, zero, w, y))
    phi = spec.phi
    gtilde = spec.effective_decays()
    expect_dy = -0.5 * gtilde * (w + y) - phi.sum(axis=0) * y + phi @ y
    assert np.abs(dy - expect_dy).max() < 1e-14


def test_optical_bloch_rejects_channels():
    eta = np.array([[0.0, 0.1], [0.1, 0.0]])
    spec = fs.ModelSpec([0.0, 0.0], [1.0, 1.0], [0.5, 0.5],
                        extra_channels=(fs.GeneralJumpChannel(fs.OperatorKind.IDENTITY, eta),))
    with pytest.raises(ValueError):
        optical_bloch_rhs(spec, 1.0, (np.zeros(2),) * 4)


def test_generating_function_dual_representation(fig2a):
    # trace of the generating operator from the Bloch form and from the
    # superoperator form agree along the evolution
    split = counting_split(fig2a)
    s = 0.5
    ls = split.drift.matrix + s * split.jump.matrix
    x0 = fs.steady_state(fs.build_generator(fig2a))
    blocks = x0.blocks
    y0 = np.concatenate([
        np.real(0.5 * (blocks[:, 0, 1] + blocks[:, 1, 0])),
        np.real((blocks[:, 0, 1] - blocks[:, 1, 0]) / 2j),
        np.real(0.5 * (blocks[:, 1, 1] - blocks[:, 0, 0])),
        np.real(0.5 * (blocks[:, 1, 1] + blocks[:, 0, 0]))])

    def rhs(t, y):
        parts = (y[0:2], y[2:4], y[4:6], y[6:8])
        du, dv, dw, dy = optical_bloch_rhs(fig2a, s, parts)
        return np.concatenate([np.real(du), np.real(dv), np.real(dw), np.real(dy)])

    for t_end in (2.0, 10.0):
        sol = solve_ivp(rhs, (0.0, t_end), y0, method="DOP853",
                        rtol=1e-12, atol=1e-14)
        y_bloch = sol.y[6, -1] + sol.y[7, -1]
        y_super = 0.5 * np.real(
            trace_functional(2) @ (la.expm(t_end * ls) @ x0.to_vector()))
        assert abs(y_bloch - y_super) < 1e-10


def test_s1_reduction_recovers_density_matrix(fig5):
    split = counting_split(fig5)
    gen = fs.build_generator(fig5)
    x0 = fs.BlockState.ground(2).to_vector()
    t = 7.0
    a = la.expm(t * (split.drift.matrix + split.jump.matrix)) @ x0
    b = la.expm(t * gen.matrix) @ x0
    assert np.abs(a - b).max() < 1e-10


def test_counting_record_fields(markovian):
    rec = fs.counting_record(markovian, 4.0, 10)
    assert rec.t == 4.0
    assert len(rec.pn) == 11
    assert rec.remainder == pytest.approx(1.0 - rec.pn.sum(), abs=1e-15)
    n = np.arange(11)
    assert (n * rec.pn).sum() == pytest.approx(rec.mean, abs=1e-6)
    q = (rec.second_factorial + rec.mean - rec.mean**2) / rec.mean - 1.0
    assert rec.mandel_q == pytest.approx(q, abs=1e-15)
