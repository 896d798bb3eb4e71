"""Exact full-system validator: joint qubit + truncated-cavity dynamics.

The engineered baths are a single lossy cavity mode, so the joint evolution
is an ordinary constant-coefficient Lindblad equation that can be solved
exactly at modest truncation.  The reduced-qubit steady state and emission
spectrum from this model are the ground truth the reduced descriptions are
benchmarked against; in particular the joint state can never lose
positivity, in contrast to the time-local reduced equations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .baths import SqueezedBathParams, ThermalBathParams
from .fdme import Spectrum, _checked_grid, make_spectrum
from .liouville import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    _coupled_block,
    _kron,
    _steady_state,
    annihilation,
    commutator_superop,
    lindblad_dissipator,
)

if TYPE_CHECKING:
    from scipy import sparse

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

    ``liouvillian`` is a ``scipy.sparse`` CSR array that encodes the
    Hamiltonian and the dissipators; it stores no zeros, so its stored
    structure is its nonzero pattern.
    """

    n_fock: int
    qubit_frequency: float
    liouvillian: sparse.csr_array

    @property
    def dim(self) -> int:
        return 2 * self.n_fock


def build_full_model(p, n_fock: int) -> FullModel:
    """Assemble the joint model for either bath.

    Thermal: lab frame with heating and cooling on the cavity.  Squeezed:
    frame rotating at half the pump, two-photon drive on the cavity and a
    single loss channel.  Every operator is sparse, and L is built only by
    the ``liouville`` builders; the first call imports ``scipy.sparse``.
    """
    from scipy import sparse

    if n_fock < 4:
        raise ValueError("n_fock must be at least 4")
    a = sparse.csr_array(annihilation(n_fock))
    eye_c = sparse.csr_array(np.eye(n_fock, dtype=complex))
    eye_q = np.eye(2, dtype=complex)
    a_joint = _kron(eye_q, a)
    coupling = lambda g: g * (_kron(SIGMA_PLUS, a) + _kron(SIGMA_MINUS, a.conj().T))
    if isinstance(p, ThermalBathParams):
        h = (
            _kron(-(p.omega_q / 2.0) * SIGMA_Z, eye_c)
            + _kron(eye_q, p.omega_c * (a.conj().T @ a))
            + coupling(p.g)
        )
        dissipators = (
            (p.kappa * (p.nbar + 1.0), a_joint),
            (p.kappa * p.nbar, a_joint.conj().T),
        )
        omega_ref = p.omega_q
    elif isinstance(p, SqueezedBathParams):
        h_cav = p.delta_c * (a.conj().T @ a) + 0.5 * p.r * (a @ a + a.conj().T @ a.conj().T)
        h = _kron(-(p.delta_q / 2.0) * SIGMA_Z, eye_c) + _kron(eye_q, h_cav) + coupling(p.g)
        dissipators = ((p.kappa, a_joint),)
        omega_ref = p.delta_q
    else:
        raise TypeError(f"unsupported bath parameters: {type(p).__name__}")
    lv = commutator_superop(h)
    for rate, op in dissipators:
        lv = lv + rate * lindblad_dissipator(op)
    lv.eliminate_zeros()
    return FullModel(n_fock=n_fock, qubit_frequency=omega_ref, liouvillian=lv)


def full_steady_state(m: FullModel) -> np.ndarray:
    """Joint steady state as a density matrix, with adequacy checks.

    The bordered solve on the blocks of L that hold the diagonal (the
    thermal bath conserves the ket-bra excitation difference, the squeezed
    bath its parity), then checks of the residual on the full L, positivity,
    and that the top two Fock levels hold < 1e-6 (else the truncation is
    too small).
    """
    chi = _steady_state(m.liouvillian, m.dim)
    resid = np.linalg.norm(m.liouvillian @ chi.reshape(-1))
    # Frobenius norm of L from its stored values
    if resid > 1e-9 * max(1.0, np.linalg.norm(m.liouvillian.data)):
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
    sm_joint = np.kron(SIGMA_MINUS, np.eye(m.n_fock, dtype=complex))
    src = (sm_joint @ chi_ss).reshape(-1)
    dual = sm_joint.reshape(-1).conj()
    block = _coupled_block(m.liouvillian, np.flatnonzero(src))
    lam, vmat = np.linalg.eig(m.liouvillian[block, :][:, block].toarray())
    weights = (dual[block] @ vmat) * np.linalg.solve(vmat, src[block])
    # drop numerically-zero weights (a steady-state mode in the block) to avoid 0/0 at the pole
    keep = np.abs(weights) > 1e-14 * np.abs(weights).max()
    omega = grid + m.qubit_frequency
    dens = 2.0 * np.real(
        (weights[keep] / (1j * omega[:, None] - lam[keep][None, :])).sum(axis=1)
    )
    return make_spectrum(grid, dens, clip_rel=1e-7)
