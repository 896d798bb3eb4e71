import numpy as np
import pytest
from scipy.linalg import expm

from fdqme.baths import _SIGMA_SUPEROPS, SqueezedBathParams, ThermalBathParams, free_liouvillian
from fdqme.liouville import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    _modal_evolution,
    commutator_superop,
    devectorize,
    left_multiplier,
    lindblad_dissipator,
    qubit_state,
    right_multiplier,
    squeeze_dissipator,
    trace_dual,
    vectorize,
)

RNG = np.random.default_rng(20240817)


def random_matrix(n):
    return RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))


def random_hermitian(n):
    m = random_matrix(n)
    return 0.5 * (m + m.conj().T)


def test_vectorize_identity():
    v = vectorize(np.eye(2, dtype=complex))
    assert np.array_equal(v, np.array([1, 0, 0, 1], dtype=complex))


def test_vectorize_lowering_operator_order():
    # sigma_minus = |g><e| lands on the (g,e) slot of (gg, ge, eg, ee)
    v = vectorize(SIGMA_MINUS)
    assert np.array_equal(v, np.array([0, 1, 0, 0], dtype=complex))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_vectorize_round_trip_exact(n):
    a = random_matrix(n)
    assert np.array_equal(devectorize(vectorize(a)), a)


def test_vectorize_linear():
    a, b = random_matrix(3), random_matrix(3)
    lhs = vectorize(2.5 * a - 1j * b)
    rhs = 2.5 * vectorize(a) - 1j * vectorize(b)
    assert np.allclose(lhs, rhs, atol=0, rtol=0)


def test_commutator_superop_free_qubit():
    l0 = commutator_superop(-(1.0 / 2.0) * SIGMA_Z)
    assert np.allclose(l0, np.diag([0, 1j, -1j, 0]), atol=1e-15)


def test_commutator_superop_trivial_generators():
    assert np.allclose(commutator_superop(np.zeros((2, 2))), 0)
    assert np.allclose(commutator_superop(np.eye(3)), 0)


def test_commutator_superop_antihermitian_spectrum():
    h = random_hermitian(4)
    eigs = np.linalg.eigvals(commutator_superop(h))
    assert np.abs(eigs.real).max() < 1e-10


def test_commutator_superop_rejects_nonhermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        commutator_superop(random_matrix(2))


def test_lindblad_dissipator_decay():
    d = lindblad_dissipator(SIGMA_MINUS)
    out = devectorize(d @ vectorize(qubit_state("e")))
    expected = 2.0 * qubit_state("g") - 2.0 * qubit_state("e")
    assert np.allclose(out, expected, atol=1e-14)


def test_lindblad_dissipator_dark_state_and_zero():
    d = lindblad_dissipator(SIGMA_MINUS)
    assert np.allclose(d @ vectorize(qubit_state("g")), 0, atol=1e-14)
    assert np.allclose(lindblad_dissipator(np.zeros((3, 3))), 0)


def test_lindblad_dissipator_trace_preserving():
    for n in (2, 3):
        o = random_matrix(n)
        left = trace_dual(n) @ lindblad_dissipator(o)
        assert np.abs(left).max() < 1e-12


def test_squeeze_dissipator_structure():
    s = squeeze_dissipator(SIGMA_MINUS)
    # sigma_minus^2 = 0, so only the coherence-swapping block survives
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 2] = 2.0
    assert np.allclose(s, expected, atol=1e-14)
    # diagonal states are untouched
    assert np.allclose(s @ vectorize(qubit_state("e")), 0, atol=1e-14)


def test_squeeze_dissipator_trivial_cases():
    assert np.allclose(squeeze_dissipator(np.zeros((2, 2))), 0)
    assert np.allclose(squeeze_dissipator(np.eye(2)), 0)


def test_squeeze_dissipator_traceless_action():
    o = random_matrix(3)
    left = trace_dual(3) @ squeeze_dissipator(o)
    assert np.abs(left).max() < 1e-12


def test_lindblad_form_liouvillian_annihilates_trace():
    h = random_hermitian(3)
    lv = commutator_superop(h)
    for rate in (0.3, 1.7):
        lv = lv + rate * lindblad_dissipator(random_matrix(3))
    assert np.abs(trace_dual(3) @ lv).max() < 1e-10
    # and it has a (right) eigenvalue at zero
    assert np.abs(np.linalg.eigvals(lv)).min() < 1e-9


def test_superoperator_composition_is_matrix_product():
    # (A . B)(C . C) = AC . CB on random operators
    a, b, c, x = (random_matrix(3) for _ in range(4))
    lhs_mat = (left_multiplier(a) @ right_multiplier(b)) @ (left_multiplier(c) @ right_multiplier(c))
    lhs = devectorize(lhs_mat @ vectorize(x))
    rhs = (a @ c) @ x @ (c @ b)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_vectorized_operator_validation():
    with pytest.raises(ValueError, match="perfect square"):
        devectorize(np.zeros(5))


def test_left_right_multipliers():
    a, x = random_matrix(3), random_matrix(3)
    assert np.allclose(devectorize(left_multiplier(a) @ vectorize(x)), a @ x)
    assert np.allclose(devectorize(right_multiplier(a) @ vectorize(x)), x @ a)


def test_modal_evolution_falls_back_to_expm_on_a_defective_generator():
    # a Jordan block has no eigenbasis: exp(gen t) (0, 1) = (t, 1)
    gen = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    ts = np.array([0.0, 0.5, 2.0])
    states = _modal_evolution(gen, np.array([0.0, 1.0], dtype=complex), ts, 2)
    np.testing.assert_allclose(states, np.stack([ts, np.ones(3)], axis=1), atol=1e-14)
    # a diagonalizable generator agrees with expm too
    gen = random_matrix(4)
    y0 = RNG.normal(size=4).astype(complex)
    for t, state in zip(ts, _modal_evolution(gen, y0, ts, 3)):
        np.testing.assert_allclose(state, (expm(gen * t) @ y0)[:3], rtol=1e-10, atol=1e-12)


def _bits(m):
    """The int64 words of a complex array, so that signed zeros count."""
    return np.ascontiguousarray(m).view(np.int64)


def _with_zeros(m):
    """m with some entries set to +0 and some to -0, in both parts."""
    m = m.copy()
    m.real[RNG.random(m.shape) < 0.25] = 0.0
    m.imag[RNG.random(m.shape) < 0.25] = -0.0
    m[RNG.random(m.shape) < 0.1] = -0.0
    return m


def _kron_superops(o, h):
    """Each dense builder by np.kron: left and right multipliers, dissipators of o, commutator of h."""
    eye = np.eye(o.shape[0], dtype=complex)
    od = o.conj().T
    return [
        np.kron(o, eye),
        np.kron(eye, o.T),
        2.0 * np.kron(o, od.T) - np.kron(od @ o, eye) - np.kron(eye, (od @ o).T),
        2.0 * np.kron(o, o.T) - np.kron(o @ o, eye) - np.kron(eye, (o @ o).T),
        -1j * (np.kron(h, eye) - np.kron(eye, h.T)),
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_dense_builders_equal_the_kron_construction_bit_for_bit(n):
    for _ in range(20):
        o = _with_zeros(random_matrix(n) * 10.0 ** RNG.integers(-8, 9))
        h = _with_zeros(random_hermitian(n))
        h = np.triu(h) + np.triu(h, 1).conj().T  # Hermitian again, zeros mirrored
        built = [left_multiplier(o), right_multiplier(o), lindblad_dissipator(o), squeeze_dissipator(o),
                 commutator_superop(h)]
        for got, want in zip(built, _kron_superops(o, h)):
            assert got.dtype == want.dtype and np.array_equal(_bits(got), _bits(want))


def test_free_liouvillian_and_sigma_superops_equal_the_kron_construction_bit_for_bit():
    eye = np.eye(2, dtype=complex)
    for w in [0.0, -0.0, 1e-300, 3.7, -120.0, 2e5, 1e300, *RNG.normal(size=20) * 1e3]:
        h = -(w / 2.0) * SIGMA_Z
        want = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
        for p in (ThermalBathParams(1.0, w, w - 5.0, 10.0, 0.1), SqueezedBathParams(1.0, w, 320.0, 115.0, 10.0)):
            assert np.array_equal(_bits(free_liouvillian(p)), _bits(want))
    want = np.stack([np.kron(SIGMA_PLUS, eye), np.kron(SIGMA_MINUS, eye),
                     np.kron(eye, SIGMA_MINUS.T), np.kron(eye, SIGMA_PLUS.T)])
    assert np.array_equal(_bits(_SIGMA_SUPEROPS), _bits(want))
