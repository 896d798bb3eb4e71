"""Exact full-system validator: joint qubit + truncated-cavity dynamics.

The engineered baths are a single lossy cavity mode, so the joint evolution
is an ordinary constant-coefficient Lindblad equation that can be solved
exactly at modest truncation.  The reduced-qubit steady state and emission
spectrum from this model are the ground truth the reduced descriptions are
benchmarked against; in particular the joint state can never lose
positivity, in contrast to the time-local reduced equations.

The joint Liouvillian is held by its nonzeros (``liouville.IndexTriples``),
and only its invariant blocks that hold a solve are made dense, with numpy
alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baths import ThermalBathParams, _cavity_bath
from .fdme import Spectrum, _checked_grid, make_spectrum
from .liouville import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    IndexTriples,
    _coupled_block,
    _dense_block,
    _hermitian,
    _kron,
    _kron_terms,
    _steady_state,
    annihilation,
)

__all__ = [
    "FullModel",
    "TruncationError",
    "build_full_model",
    "full_steady_state",
    "reduced_qubit_state",
    "full_steady_spectrum",
]


class TruncationError(RuntimeError):
    """Raised when the requested Fock truncation is demonstrably too small."""


@dataclass(frozen=True)
class FullModel:
    """Joint Liouvillian of the qubit and the truncated cavity.

    ``liouvillian`` encodes the Hamiltonian and the dissipators as
    ``IndexTriples``: its nonzeros, sorted row-major, with no duplicates and
    no stored zeros, so its triples are its nonzero pattern.
    """

    n_fock: int
    qubit_frequency: float
    liouvillian: IndexTriples

    @property
    def dim(self) -> int:
        return 2 * self.n_fock


def build_full_model(p, n_fock: int) -> FullModel:
    """Assemble the joint model for either bath.

    Thermal: lab frame with heating and cooling on the cavity.  Squeezed:
    frame rotating at half the pump, two-photon drive on the cavity and a
    single loss channel.  The Hilbert-space operators are dense, and L is
    -i[H, .] plus ``rate * (2 o . o^dag - o^dag o . - . o^dag o)`` per
    channel, in the row-stacked convention of ``liouville``.  The terms of
    ``_kron_terms`` are summed on their sorted union in the order
    ``-1j * (K1 - K2)``, then ``+ rate * ((2 K3 - K4) - K5)`` per channel,
    and the nonzero sums are kept.  Each is that of a sparse assembly of the
    same sums, to the bit, since no signed zero reaches it: one factor of
    each pair is positive with imaginary part +0, and the other real with
    imaginary part +0, or -0 where it is positive, so every product, channel
    sum and difference has imaginary part +0 and cancels to (+0, +0).  A
    rate of 0 gives -0 only to a real part, which the sum's +0 or nonzero
    real part absorbs.  ``-1j`` times a zero of ``K1 - K2`` is (+0, -0): it
    stays zero and is left out, or a channel value's imaginary part +0
    turns it to +0, as an absent entry of a sparse sum does.
    """
    if n_fock < 4:
        raise ValueError("n_fock must be at least 4")
    a = annihilation(n_fock)
    ad = a.conj().T
    eye_c = np.eye(n_fock, dtype=complex)
    eye_q = np.eye(2, dtype=complex)
    a_joint = _kron(eye_q, a)
    coupling = lambda g: g * (_kron(SIGMA_PLUS, a) + _kron(SIGMA_MINUS, ad))
    if isinstance(_cavity_bath(p), ThermalBathParams):
        h_cav = p.omega_c * (ad @ a)
        dissipators = ((p.kappa * (p.nbar + 1.0), a_joint), (p.kappa * p.nbar, a_joint.conj().T))
    else:
        h_cav = p.delta_c * (ad @ a) + 0.5 * p.r * (a @ a + ad @ ad)
        dissipators = ((p.kappa, a_joint),)
    h = _hermitian(_kron(-(p.omega_ref / 2.0) * SIGMA_Z, eye_c) + _kron(eye_q, h_cav) + coupling(p.g))
    eye = np.eye(2 * n_fock, dtype=complex)
    pairs = [(h, eye), (eye, h.T)]
    for _, o in dissipators:
        od = o.conj().T
        odo = od @ o
        pairs += [(o, od.T), (odo, eye), (eye, odo.T)]
    keys, terms = _kron_terms(pairs)
    lv = -1j * (terms[0] - terms[1])
    for k, (rate, _) in enumerate(dissipators):
        sandwich, kron_left, kron_right = terms[2 + 3 * k:5 + 3 * k]
        lv += rate * ((2.0 * sandwich - kron_left) - kron_right)
    kept = np.flatnonzero(lv)
    rows, cols = np.divmod(keys[kept], eye.size)
    return FullModel(n_fock=n_fock, qubit_frequency=p.omega_ref, liouvillian=IndexTriples(eye.size, rows, cols, lv[kept]))


def full_steady_state(m: FullModel) -> np.ndarray:
    """Joint steady state as a density matrix, with adequacy checks.

    The bordered solve on the blocks of L that hold the diagonal (the
    thermal bath conserves the ket-bra excitation difference, the squeezed
    bath its parity), then checks of the residual on the full L, positivity,
    and that the top two Fock levels hold < 1e-6 (else the truncation is
    too small).
    """
    lv = m.liouvillian
    chi = _steady_state(lv, m.dim)
    terms = lv.values * chi.reshape(-1)[lv.cols]
    resid = np.hypot(np.linalg.norm(np.bincount(lv.rows, terms.real, lv.n)),
                     np.linalg.norm(np.bincount(lv.rows, terms.imag, lv.n)))
    # Frobenius norm of L from its stored values
    if resid > 1e-9 * max(1.0, np.linalg.norm(lv.values)):
        raise RuntimeError(f"steady-state residual {resid:.3e} too large")
    if np.linalg.eigvalsh(chi).min() < -1e-10:
        raise RuntimeError("joint steady state is not positive semidefinite")
    pops = np.real(np.diag(chi)).reshape(2, m.n_fock).sum(axis=0)
    if pops[-2:].sum() > 1e-6:
        raise TruncationError(
            f"top Fock levels hold {pops[-2:].sum():.2e} population; increase n_fock"
        )
    return chi


def reduced_qubit_state(chi: np.ndarray, n_fock: int) -> np.ndarray:
    """Partial trace over the cavity."""
    return np.einsum("ikjk->ij", chi.reshape(2, n_fock, 2, n_fock))


def full_steady_spectrum(m: FullModel, grid) -> Spectrum:
    """Steady-state qubit emission spectrum of the joint model.

    Same resolvent contraction as the reduced theory but on the full
    Liouville space, from the source ``(sigma_- x I) full_steady_state(m)``.
    Its resolvent stays in the blocks of L that hold the source, so one
    eigendecomposition of those blocks covers the whole frequency grid.
    ``grid`` holds detunings from the qubit frequency; it is checked first.
    """
    grid = _checked_grid(grid)
    chi_ss = full_steady_state(m)
    sm_joint = _kron(SIGMA_MINUS, np.eye(m.n_fock, dtype=complex))
    src = (sm_joint @ chi_ss).reshape(-1)
    dual = sm_joint.reshape(-1).conj()
    block = _coupled_block(m.liouvillian, np.flatnonzero(src))
    lam, vmat = np.linalg.eig(_dense_block(m.liouvillian, block))
    weights = (dual[block] @ vmat) * np.linalg.solve(vmat, src[block])
    # drop numerically-zero weights (a steady-state mode in the block) to avoid 0/0 at the pole
    keep = np.abs(weights) > 1e-14 * np.abs(weights).max()
    omega = grid + m.qubit_frequency
    dens = 2.0 * np.real((weights[keep] / (1j * omega[:, None] - lam[keep])).sum(axis=1))
    return make_spectrum(grid, dens)
