import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as la

import fluorospec as fs
from fluorospec.model import (SIGMA, SuperOp, detection_jump, shift_detuning,
                              trace_functional)

from conftest import random_block_state, random_spec
import markovian_oracle
from generator_oracle import (T, T_INV, apply_generator, kron_generator,
                              to_real_coordinates)


def test_validate_minimal_spec_is_empty(markovian):
    assert fs.validate(markovian) == []


def test_validate_negative_phi_entry_named():
    spec = fs.spectral_two_state(1.0, 0.7, 0.1, 0.01)
    phi = np.array(spec.phi)
    phi[0, 1] = -0.5
    with pytest.raises(ValueError, match="invalid model spec") as err:
        dataclasses.replace(spec, phi=phi)
    problems = str(err.value).splitlines()[1:]
    assert len(problems) == 1
    assert "phi[0][1]" in problems[0]


def test_validate_per_state_length_mismatch():
    spec = fs.single_state(1.0, 0.7)
    with pytest.raises(ValueError, match=r"delta_omega: shape \(1,\) != \(2,\)"):
        dataclasses.replace(spec, gamma=[1.0, 1.0], omega_rabi=[0.7, 0.7], phi=None,
                            gamma_cross=None)


def test_validate_duplicate_channel_kind():
    eta = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="duplicate"):
        fs.ModelSpec(
            [0, 0], [1, 1], [0, 0],
            extra_channels=(fs.GeneralJumpChannel(fs.OperatorKind.IDENTITY, eta),
                            fs.GeneralJumpChannel(fs.OperatorKind.IDENTITY, eta)))


def _spec_with(labels=None, delta_omega=(0.0, 0.0), gamma=(1.0, 1.0),
               omega_rabi=(0.7, 0.7), phi=None, detuning=0.0):
    """A two-state spec with one part replaced."""
    return fs.ModelSpec(delta_omega, gamma, omega_rabi,
                        phi=[[0.0, 0.1], [0.1, 0.0]] if phi is None else phi,
                        gamma_cross=np.zeros((2, 2)), detuning=detuning, labels=labels)


@pytest.mark.parametrize("kwargs, problem", [
    ({"delta_omega": (), "gamma": (), "omega_rabi": (), "phi": np.zeros((0, 0))},
     "gamma: must be a 1-d array of r_max >= 1 rates, got shape (0,)"),
    ({"labels": ("a",)}, "labels: length 1 != r_max 2"),
    ({"delta_omega": (np.inf, np.inf)}, "delta_omega[0]: not finite"),
    ({"omega_rabi": (0.7, -0.7)}, "omega_rabi[1]: negative"),
    ({"detuning": np.nan}, "detuning: not finite"),
    ({"phi": [[0.0, np.nan], [0.1, 0.0]]}, "phi[0][1]: not finite"),
    ({"phi": [[0.0, 0.1], [0.1, 0.2]]}, "phi[1][1]: diagonal must be zero"),
], ids=["r_max_zero", "labels_length", "infinite_shift", "negative_rabi",
        "nan_detuning", "nan_phi", "phi_diagonal"])
def test_invalid_spec_names_its_problem(kwargs, problem):
    with pytest.raises(ValueError, match="invalid model spec") as err:
        _spec_with(**kwargs)
    assert problem in str(err.value)


def test_detuning_is_one_number():
    """A detuning array would broadcast as one detuning per block: every
    spec rejects it, however made."""
    detuning = np.array([1.0, 2.0])
    for make in (lambda: fs.single_state(1.0, 0.7, detuning=detuning),
                 lambda: fs.lifetime_fluct([1.0, 2.0], [[0.0, 1.0], [1.0, 0.0]], 0.5,
                                           detuning=detuning),
                 lambda: _spec_with(detuning=detuning)):
        with pytest.raises(ValueError, match="detuning: must be a number"):
            make()


def test_pure_decay_spectrum():
    gen = fs.build_generator(fs.single_state(gamma=1.0, omega_rabi=0.0))
    eigs = np.sort(la.eigvals(gen.matrix).real)
    assert np.allclose(eigs, [-1.0, -0.5, -0.5, 0.0], atol=1e-14)
    assert np.abs(la.eigvals(gen.matrix).imag).max() < 1e-14


@pytest.mark.parametrize("r_max", [1, 2, 5])
def test_trace_functional_is_left_null_vector(r_max):
    rng = np.random.default_rng(7 + r_max)
    spec = random_spec(rng, r_max, with_channels=True)
    m = fs.build_generator(spec).matrix
    assert np.abs(trace_functional(r_max) @ m).max() < 1e-12


@pytest.mark.parametrize("r_max", [1, 2, 5])
def test_dense_matches_matrix_free(r_max):
    rng = np.random.default_rng(100 + r_max)
    spec = random_spec(rng, r_max, with_channels=True)
    m = fs.build_generator(spec).matrix
    for _ in range(20):
        x = random_block_state(rng, r_max)
        dense = m @ x.to_vector()
        free = apply_generator(spec, x).to_vector()
        assert np.abs(dense - free).max() <= 1e-12 * max(np.abs(dense).max(), 1.0)


@pytest.mark.parametrize("kind", [None, *fs.OperatorKind],
                         ids=lambda k: "no_eta" if k is None else k.value)
@pytest.mark.parametrize("r_max", [1, 3, 20, 60])
def test_assembly_equals_kron_sum_bit_for_bit(r_max, kind):
    """The assembly from the nonzero blocks forms the same products of the
    same real T S T^-1 terms, summed in the same order, as the np.kron sum
    of generator_oracle, which adds zeros elsewhere: bit for bit, also
    where adding a zero could flip the sign of a zero, and at r_max = 2
    with phi = 0 and no gamma_cross. The signed spec holds -0.0 in the
    detuning, a delta_omega and phi's first column below its diagonal, and
    in gamma, omega_rabi and gamma_cross[0][0] of block 0: from r_max = 2
    on, block 0 then has local + J = -0 off its coordinate diagonal, which
    the kron sum's phi term turns to +0 there (d_0 * 0 with d_0 = +0)."""
    rng = np.random.default_rng(300 + r_max)

    def with_channel(spec):
        if kind is None:
            return spec
        eta = rng.uniform(0.0, 0.5, (spec.r_max, spec.r_max))
        np.fill_diagonal(eta, 0.0)
        return dataclasses.replace(spec, extra_channels=(fs.GeneralJumpChannel(kind, eta),))

    spec = with_channel(random_spec(rng, r_max))
    phi, cross = spec.phi.copy(), spec.gamma_cross.copy()
    phi[1:, 0] = -0.0
    cross[0, 0] = -0.0
    per_state = np.array([spec.delta_omega, spec.gamma, spec.omega_rabi])
    if r_max > 1:
        per_state[:, 0] = (0.0, -0.0, -0.0)
    per_state[0, -1] = -0.0
    signed = dataclasses.replace(spec, delta_omega=per_state[0], gamma=per_state[1],
                                 omega_rabi=per_state[2], phi=phi, gamma_cross=cross,
                                 detuning=-0.0)
    bare = random_spec(rng, 2, with_cross=False)
    bare = with_channel(dataclasses.replace(bare, phi=None, gamma_cross=None))
    for spec in (spec, signed, bare):
        want = kron_generator(spec).matrix
        assert fs.build_generator(spec).matrix.tobytes() == want.tobytes()
        jump = np.kron(np.diag(spec.gamma) + spec.gamma_cross,
                       to_real_coordinates(np.kron(SIGMA.conj(), SIGMA)))
        assert detection_jump(spec).tobytes() == jump.tobytes()


SHIFTS = [0.0, 0.37, -0.37, 1.0 / 3.0, 1e4, -1e4, 1e-300, 1e200]


@pytest.mark.parametrize("kind", [None, *fs.OperatorKind],
                         ids=lambda k: "no_eta" if k is None else k.value)
@pytest.mark.parametrize("r_max", [1, 3, 20, 60])
def test_detuning_shift_equals_rebuild_bit_for_bit(r_max, kind):
    """The generator at detuning 0 shifted to delta is the generator built
    at delta."""
    rng = np.random.default_rng(400 + r_max)
    spec = random_spec(rng, r_max)
    if kind is not None:
        eta = rng.uniform(0.0, 0.5, (r_max, r_max))
        np.fill_diagonal(eta, 0.0)
        spec = dataclasses.replace(
            spec, extra_channels=(fs.GeneralJumpChannel(kind, eta),))
    base = fs.build_generator(dataclasses.replace(spec, detuning=0.0))
    stack = shift_detuning(base, np.array(SHIFTS))     # one broadcast, one per shift
    assert stack.matrix.shape == (len(SHIFTS), 4 * r_max, 4 * r_max)
    for delta, stacked in zip(SHIFTS, stack.matrix):
        want = fs.build_generator(dataclasses.replace(spec, detuning=delta))
        got = shift_detuning(base, delta)
        assert got.matrix.tobytes() == want.matrix.tobytes(), delta
        assert stacked.tobytes() == want.matrix.tobytes(), delta
        assert got.matrix.dtype == np.float64
        assert not got.matrix.flags.writeable
    for delta in (np.inf, -np.inf, np.nan, np.array([0.0, np.nan])):
        with pytest.raises(ValueError, match="not finite"):
            shift_detuning(base, delta)


def test_fresh_generator_kept_and_caller_arrays_copied():
    """build_generator and shift_detuning freeze the matrix they have just
    built and SuperOp keeps it: with J already built, each call allocates
    little beyond its result. An array its caller can still write, itself
    or through a read-only view, is copied, so writing it later changes no
    ModelSpec or SuperOp made from it. At r_max = 150 the result is 2.9 MB,
    so a second copy of it (2x) stands well clear of the fixed buffers, at
    most 128 KB, of numpy's ufunc iterator on the strided phi update."""
    spec = random_spec(np.random.default_rng(1), 150)
    base = fs.build_generator(spec)            # builds and keeps J
    for call in (lambda: fs.build_generator(spec), lambda: shift_detuning(base, 0.37)):
        tracemalloc.start()
        try:
            out = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * out.matrix.nbytes

    gamma, phi, eta = np.array([1.0, 2.0]), np.array([[0.0, 0.1], [0.2, 0.0]]), np.eye(2)[::-1]
    spec = fs.ModelSpec([0.0, 0.0], gamma, [0.5, 0.5], phi=phi, extra_channels=(
        fs.GeneralJumpChannel(fs.OperatorKind.LOWER, eta),))
    m = np.array(fs.build_generator(spec).matrix)
    view = m.view()
    view.setflags(write=False)
    ops = (SuperOp(m), SuperOp(view))
    gamma[0] = phi[0, 1] = eta[0, 1] = m[0, 0] = 7.0
    assert (spec.gamma[0], spec.phi[0, 1], spec.extra_channels[0].eta[0, 1]) == (1.0, 0.1, 1.0)
    assert all(op.matrix[0, 0] == fs.build_generator(spec).matrix[0, 0] != 7.0 for op in ops)


def test_dense_matches_matrix_free_fig2a(fig2a):
    rng = np.random.default_rng(2)
    m = fs.build_generator(fig2a).matrix
    for _ in range(20):
        x = random_block_state(rng, 2)
        dense = m @ x.to_vector()
        free = apply_generator(fig2a, x).to_vector()
        assert np.abs(dense - free).max() <= 1e-12 * np.abs(dense).max()


def test_apply_generator_on_steady_is_zero(fig2a):
    st = fs.steady_state(fs.build_generator(fig2a))
    out = apply_generator(fig2a, st).to_vector()
    scale = la.norm(fs.build_generator(fig2a).matrix) * la.norm(st.to_vector())
    assert la.norm(out) <= 1e-10 * scale


def test_decay_direction_from_mixed_state():
    spec = fs.single_state(gamma=1.0, omega_rabi=0.0)
    mixed = fs.BlockState(0.5 * np.eye(2, dtype=complex)[None, :, :])
    d = apply_generator(spec, mixed).blocks[0]
    assert d[1, 1].real < 0
    assert d[0, 0].real > 0
    assert abs(d[0, 0] + d[1, 1]) < 1e-15


def test_effective_decay_no_cross(markovian):
    assert markovian.effective_decays()[0] == 1.0


def test_effective_decay_fig5(fig5):
    decays = fig5.effective_decays()
    assert decays.shape == (2,)
    assert decays[0] == pytest.approx(1.0015, abs=1e-12)
    assert decays[1] == pytest.approx(10.02, abs=1e-12)


@pytest.mark.parametrize("r_max", [1, 2, 5])
def test_trace_preservation_under_application(r_max):
    rng = np.random.default_rng(200 + r_max)
    spec = random_spec(rng, r_max, with_channels=True)
    for _ in range(5):
        x = random_block_state(rng, r_max, physical=True)
        dx = apply_generator(spec, x)
        assert abs(dx.total_trace()) < 1e-12


@pytest.mark.parametrize("r_max", [1, 3])
def test_hermiticity_preservation(r_max):
    rng = np.random.default_rng(300 + r_max)
    spec = random_spec(rng, r_max, with_channels=True)
    x = random_block_state(rng, r_max, physical=True)
    d = apply_generator(spec, x).blocks
    assert np.abs(d - d.conj().transpose(0, 2, 1)).max() < 1e-12


def test_markovian_reduction_matches_hand_coded_liouvillian():
    gamma, omega, delta = 1.3, 0.8, -0.4
    spec = fs.single_state(gamma=gamma, omega_rabi=omega, detuning=delta)
    ours = fs.build_generator(spec).matrix
    ref = T @ markovian_oracle.liouvillian(gamma, omega, delta) @ T_INV
    assert np.abs(ours - ref).max() < 1e-14


def test_vectorization_round_trip():
    rng = np.random.default_rng(11)
    x = random_block_state(rng, 3)
    again = fs.BlockState.from_vector(x.to_vector())
    assert np.allclose(again.blocks, x.blocks, rtol=0, atol=4 * np.finfo(float).eps)
    # layout: block-major, (aa, bb, Re ba, Im ba) within block, where
    # Re ba = (ba + ab)/2 and Im ba = -i(ba - ab)/2 for a complex block
    v = x.to_vector()
    b = x.blocks[0]
    assert v[0] == b[0, 0]
    assert v[1] == b[1, 1]
    assert v[2] == (b[1, 0] + b[0, 1]) / 2
    assert v[3] == -0.5j * (b[1, 0] - b[0, 1])
    assert v[4] == x.blocks[1, 0, 0]

