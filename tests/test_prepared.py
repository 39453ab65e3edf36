"""One prepared model per spec: every observable gives the same result for a
ModelSpec and for its Prepared form, and calls that share a Prepared share
one steady solve."""
import dataclasses
import warnings
import weakref

import numpy as np
import pytest

import fluorospec as fs
from fluorospec import counting, steady
from fluorospec.model import SIGMA, SIGMA_DAG, UPPER_PROJECTOR
from conftest import random_block_state, random_spec

TAU = np.linspace(0.0, 5.0, 6)
OMEGA = np.linspace(-6.0, 6.0, 13)
T = 1.5


def _record(m):
    rec = fs.counting_record(m, T, 8)
    return np.array([rec.mean, rec.second_factorial, rec.mandel_q,
                     rec.remainder, rec.aliasing, *rec.pn])


def _split(m):
    split = fs.counting_split(m)
    return np.concatenate([split.drift.matrix, split.jump.matrix])


OBSERVABLES = {
    "qrt_two_time": lambda m: fs.qrt_two_time(m, SIGMA_DAG, UPPER_PROJECTOR,
                                              SIGMA, TAU).values,
    "c1": lambda m: fs.c1(m, TAU).values,
    "c2": lambda m: fs.c2(m, TAU).values,
    "g2": lambda m: fs.g2(m, TAU).values,
    "stationary_intensity": fs.stationary_intensity,
    "line_shape": fs.line_shape,
    "coherent_weight": fs.coherent_weight,
    "incoherent_spectrum": lambda m: fs.incoherent_spectrum(m, OMEGA).values,
    "sum_rule_check": lambda m: fs.sum_rule_check(m, OMEGA),
    "counting_split": _split,
    "pn": lambda m: fs.pn(m, T, 8),
    "pn_from_initial": lambda m: fs.pn(
        m, T, 8, random_block_state(np.random.default_rng(3), 3, physical=True)),
    "mean_counts": lambda m: fs.mean_counts(m, T),
    "second_factorial": lambda m: fs.second_factorial(m, T),
    "mandel_q": lambda m: fs.mandel_q(m, T),
    "counting_record": _record,
    "stationary_mandel": fs.stationary_mandel,
    "laurent_decomposition": lambda m: fs.laurent_decomposition(
        m).reduced_resolvent.matrix,
}


@pytest.fixture(scope="module")
def spec():
    return random_spec(np.random.default_rng(11), 3, with_channels=True)


@pytest.fixture(scope="module")
def shared(spec):
    """One Prepared reused by every observable below, in any order."""
    return fs.prepare(spec)


@pytest.fixture
def steady_calls(monkeypatch):
    """Generators (or elimination records) of every steady solve, by
    ``steady_state``, a Prepared or ``stationary_mandel``."""
    calls = []
    solve = steady.steady_state

    def counted(generator):
        calls.append(generator)
        return solve(generator)

    monkeypatch.setattr(steady, "steady_state", counted)
    monkeypatch.setattr(counting, "steady_state", counted)
    return calls


def test_prepare_returns_prepared_unchanged(spec):
    p = fs.prepare(spec)
    assert fs.prepare(p) is p
    assert p.spec is spec
    assert np.array_equal(p.generator.matrix, fs.build_generator(spec).matrix)
    assert not p.jump.flags.writeable


@pytest.mark.parametrize("name", sorted(OBSERVABLES))
def test_prepared_gives_bit_identical_results(name, spec, shared):
    fn = OBSERVABLES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # P_n truncation at n_max = 8
        assert np.array_equal(fn(spec), fn(shared)), name


@pytest.mark.parametrize("name", sorted(OBSERVABLES))
def test_invalid_spec_rejected(name, spec):
    """A spec that is not valid cannot be made, so no observable, here
    ``name``, can receive one."""
    with pytest.raises(ValueError, match=r"delta_omega: shape \(1,\) != \(3,\)"):
        dataclasses.replace(spec, delta_omega=spec.delta_omega[:1])


def test_steady_state_solved_on_first_use_only(spec, steady_calls):
    p = fs.prepare(spec)
    fs.counting_split(p)
    fs.pn(p, T, 4, initial=fs.BlockState.ground(spec.r_max))
    assert steady_calls == []
    assert p.steady is p.steady
    assert len(steady_calls) == 1


def test_g2_solves_steady_state_once(fig2a, steady_calls):
    fs.g2(fig2a, TAU)
    assert len(steady_calls) == 1


def test_sum_rule_check_solves_steady_state_once(fig2a, steady_calls):
    fs.sum_rule_check(fig2a, np.linspace(-40.0, 40.0, 401))
    assert len(steady_calls) == 1


def test_stationary_mandel_solves_its_own_steady_state(fig5, steady_calls):
    """Q_st takes rho_inf from the elimination that its own column is
    solved against, not from the Prepared, which keeps no elimination
    record; the Prepared's steady state stays as it was."""
    p = fs.prepare(fig5)
    fs.stationary_intensity(p)
    st = p.steady
    fs.stationary_mandel(p)
    assert steady_calls[0] is p.generator
    assert isinstance(steady_calls[1], steady.Elimination)
    assert len(steady_calls) == 2
    assert p.steady is st


def test_prepared_keeps_no_elimination_record(spec, monkeypatch):
    """The steady solve's elimination record (Z_ff^-1, X and S, 0.7 MB at
    r_max = 60) lives only inside ``steady_state``: once the steady state
    is solved, and while the spectrum and C1 run on the live Prepared,
    nothing holds it, and the Prepared holds only its spec, L, J and steady
    state."""
    records = []
    eliminate = steady.eliminate

    def recorded(generator):
        e = eliminate(generator)
        records.append(weakref.ref(e))
        return e

    monkeypatch.setattr(steady, "eliminate", recorded)
    monkeypatch.setattr(counting, "eliminate", recorded)
    p = fs.prepare(spec)
    p.steady
    assert len(records) == 1 and records[0]() is None
    fs.incoherent_spectrum(p, OMEGA)
    fs.c1(p, TAU)
    assert len(records) == 1 and records[0]() is None
    assert sorted(vars(p)) == ["generator", "jump", "spec", "steady"]


def test_at_detuning_equals_prepare_at_that_detuning(spec):
    """A Prepared shifted to delta gives the results of the spec prepared at
    delta bit for bit."""
    base = fs.prepare(dataclasses.replace(spec, detuning=0.0))
    for delta in (-2.5, 1.0 / 3.0, 40.0):
        shifted = base.at_detuning(delta)
        rebuilt = fs.prepare(dataclasses.replace(spec, detuning=delta))
        assert shifted.spec.detuning == delta
        assert shifted.jump is base.jump
        assert shifted.steady.to_vector().tobytes() == rebuilt.steady.to_vector().tobytes()
        for name in ("stationary_mandel", "c2", "incoherent_spectrum"):
            got, want = (np.asarray(OBSERVABLES[name](m)) for m in (shifted, rebuilt))
            assert got.tobytes() == want.tobytes(), (name, delta)
    with pytest.raises(ValueError, match="not finite"):
        base.at_detuning(np.nan)


def test_stack_keeps_the_unshifted_spec(spec):
    """A stack's spec is the one it was shifted from: a spec's detuning is
    one number, never one per point."""
    base = fs.prepare(dataclasses.replace(spec, detuning=0.0))
    stack = base.at_detuning(np.array([-2.5, 40.0]))
    assert stack.spec is base.spec
    assert stack.generator.matrix.shape == (2, 12, 12)
    assert np.array_equal(fs.line_shape(stack),
                          [fs.line_shape(base.at_detuning(d)) for d in (-2.5, 40.0)])
