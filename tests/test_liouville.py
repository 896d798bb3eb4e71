import warnings

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from fdqme.baths import _SIGMA_SUPEROPS, SqueezedBathParams, ThermalBathParams, _mode_matrix, free_liouvillian
from fdqme.liouville import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    _kron_terms,
    _modal_evolution,
    commutator_superop,
    devectorize,
    expm,
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
        np.testing.assert_allclose(state, (scipy_expm(gen * t) @ y0)[:3], rtol=1e-10, atol=1e-12)


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


def test_kron_terms_are_the_kron_products_on_their_sorted_union():
    # 3x3 left and 4x4 right factors with explicit zeros of both signs; the last pair has
    # its left nonzeros where every other left factor is zero, so it shares no entry with
    # any other term, and one pair has a zero factor
    for _ in range(20):
        lefts = [_with_zeros(random_matrix(3)) for _ in range(4)]
        rights = [_with_zeros(random_matrix(4)) for _ in range(5)]
        rights[3][:] = 0.0
        free = np.all(np.stack(lefts) == 0, axis=0)
        free[0, 0] = True
        lefts.append(np.where(free, random_matrix(3), -0.0))
        for m in lefts[:-1]:
            m[0, 0] = 0.0
        pairs = list(zip(lefts, rights))
        keys, terms = _kron_terms(pairs)
        products = [np.kron(a, b).ravel() for a, b in pairs]
        want = np.flatnonzero(np.any(np.stack(products) != 0, axis=0))
        np.testing.assert_array_equal(keys, want)  # sorted, distinct, and the union of the nonzeros
        assert terms.shape == (len(pairs), keys.size)
        for term, product in zip(terms, products):
            held = product[keys] != 0
            assert np.array_equal(_bits(term[held]), _bits(product[keys][held]))
            assert not _bits(term[~held]).any()  # +0 in both parts
        lonely = products[-1][keys] != 0
        assert lonely.any() and not np.any(np.stack(products[:-1])[:, keys][:, lonely] != 0)


# --------------------------------------------------------------------------
# matrix exponential
# --------------------------------------------------------------------------

EPS = np.finfo(float).eps


def _damped_stack(rng, n, count, real, norms):
    """``count`` n x n generators of oscillation and decay, with the given 1-norms.

    Each is a skew part minus a PSD part of 1/500 of its 1-norm, so its
    exponential is a contraction that stays above e^-20 up to a norm of 1e4.
    """
    def unit(m):
        return m / np.abs(m).sum(axis=1).max(axis=1)[:, None, None]

    x, y = rng.normal(size=(2, count, n, n)) + (0.0 if real else 1j * rng.normal(size=(2, count, n, n)))
    gen = unit(x - x.conj().swapaxes(1, 2)) - 0.002 * unit(y @ y.conj().swapaxes(1, 2))
    return unit(gen) * norms[:, None, None]


def _scaled_gap(a, got, want):
    """|got - want| per matrix in units of eps max(1, |a|_1) max|want|, the rounding of a backward-stable exponential."""
    norm = np.maximum(np.abs(a).sum(axis=-2).max(axis=-1), 1.0)
    return np.abs(got - want).max(axis=(-2, -1)) / (EPS * norm * np.abs(want).max(axis=(-2, -1)))


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("real", [True, False])
def test_expm_matches_scipy_on_stacks(n, real):
    norms = np.logspace(-12, 4, 33)
    a = _damped_stack(np.random.default_rng([n, real]), n, norms.size, real, norms)
    got = expm(a)
    assert got.dtype == (np.float64 if real else np.complex128) and got.shape == a.shape
    # measured at most 48 over these stacks, and over 5 other draws of each
    assert _scaled_gap(a, got, scipy_expm(a)).max() <= 200.0


def test_expm_matches_scipy_on_the_lab_frame_mode_matrix():
    # the bath's adjoint-action matrix at carrier 2e5, whose e^{+kappa t} modes generic_kernel_time cancels
    rng = np.random.default_rng(5)
    for _ in range(20):
        kappa = rng.uniform(5.0, 20.0)
        m = _mode_matrix(rng.uniform(0.0, 0.5), 0.0j, kappa, 2e5 - rng.uniform(-100.0, 100.0))
        a = m.T * (np.linspace(0.0, 10.0, 41) / kappa)[:, None, None]
        # measured at most 2.1 here (1.3e-10 of the largest entry), and 2.3 over 5 other draws
        assert _scaled_gap(a, expm(a), scipy_expm(a)).max() <= 16.0


def test_expm_exact_cases():
    for n in range(1, 7):
        for dtype in (float, complex):
            zero = expm(np.zeros((3, n, n), dtype=dtype))
            assert zero.dtype == dtype and np.array_equal(zero, np.broadcast_to(np.eye(n), (3, n, n)))
    # a diagonal: exp of each entry, to the rounding of the matrix (a relative error of a
    # few eps max(|x|_max, 1), as for np.exp of each entry moved by eps |x|_max); measured
    # at most 1.2 eps |x|_max over these draws and 10 others
    rng = np.random.default_rng(6)
    for scale in (1e-8, 1.0, 5.0, 1e2, 1e4):
        # phases at the scale, and decay of at most 50 so that exp(x) stays far above underflow
        x = 1j * scale * rng.normal(size=6) - rng.uniform(0.0, min(scale, 50.0), 6)
        got = np.diagonal(expm(np.diag(x)))
        assert np.all(np.abs(got / np.exp(x) - 1.0) <= 8 * EPS * max(np.abs(x).max(), 1.0))
        assert np.count_nonzero(expm(np.diag(x)) - np.diag(got)) == 0
    # a nilpotent Jordan block: I + N exactly, at every scale of N
    for scale in (1e-12, 1.0, 3.0, 1e2, 1e6):
        for dtype in (float, complex):
            jordan = np.array([[0.0, scale], [0.0, 0.0]], dtype=dtype)
            assert np.array_equal(expm(jordan), np.eye(2) + jordan)


def test_expm_of_a_stack_equals_its_slices_bit_for_bit():
    norms = 10.0 ** RNG.uniform(-6.0, 5.0, 50)
    for real in (True, False):
        a = _damped_stack(RNG, 4, 50, real, norms)
        stacked = expm(a)
        for k in range(50):
            assert np.array_equal(_bits(stacked[k]), _bits(expm(a[k])))
        # any leading shape is a stack
        assert np.array_equal(_bits(expm(a.reshape(5, 10, 4, 4))), _bits(stacked.reshape(5, 10, 4, 4)))
    assert expm(np.zeros((0, 3, 3))).shape == (0, 3, 3)


def test_expm_squares_only_the_matrices_that_need_it():
    # growth e^5 at a norm that needs no squaring, next to norms that need 11 and 15:
    # squaring the whole stack 15 times would overflow the first matrix
    growth = np.diag([5.0, -1.0])
    rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])
    a = np.stack([growth, 1e4 * rotation, 1.5e5 * rotation])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = expm(a)
    assert np.array_equal(_bits(got[0]), _bits(expm(growth)))
    assert abs(got[0, 0, 0] / np.exp(5.0) - 1.0) <= 8 * EPS * 5.0
    for k, angle in ((1, 1e4), (2, 1.5e5)):
        want = np.array([[np.cos(angle), np.sin(angle)], [-np.sin(angle), np.cos(angle)]])
        assert np.abs(got[k] - want).max() <= 8 * EPS * angle
