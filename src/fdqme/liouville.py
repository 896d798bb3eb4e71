"""Superoperator algebra on a finite Hilbert space.

Operators on an N-dimensional Hilbert space are flattened into length-N^2
vectors so that superoperators become N^2 x N^2 matrices.  The element
order is row-stacked: (O_11, ..., O_1N, O_21, ..., O_NN).  For a qubit in the
basis (g, e) this is (gg, ge, eg, ee), which makes the free-evolution
Liouvillian of ``-(w/2) sigma_z`` the diagonal matrix (0, iw, -iw, 0).

The superoperator builders return plain arrays: a dense operator gives a
dense ndarray and a ``scipy.sparse`` operator a sparse CSR array, from the
same Kronecker formula.

States and Hilbert-space operators are plain arrays: a state may be given as
a d x d matrix or as its row-stacked length-d^2 vector.  The private helpers
at the end read and check a density matrix, and serve every constant
generator, reduced or joint: exact blocks, bordered steady state and
eigen-modal evolution.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components

__all__ = [
    "vectorize",
    "devectorize",
    "hs_inner",
    "left_multiplier",
    "right_multiplier",
    "commutator_superop",
    "lindblad_dissipator",
    "squeeze_dissipator",
    "frame_transform",
    "trace_dual",
    "annihilation",
    "SIGMA_Z",
    "SIGMA_MINUS",
    "SIGMA_PLUS",
    "qubit_state",
]

HERMITICITY_TOL = 1e-12

# Qubit basis order is (g, e); sigma_z has +1 on the ground state so that
# H = -(w/2) sigma_z puts the excited state w above the ground state.
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_PLUS = SIGMA_MINUS.conj().T


def _as_square(entries):
    if sparse.issparse(entries):
        arr = sparse.csr_array(entries, dtype=complex)
    else:
        arr = np.asarray(entries, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _kron(a, b):
    """Kronecker product; a sparse CSR array when either factor is sparse."""
    if sparse.issparse(a) or sparse.issparse(b):
        return sparse.kron(a, b, format="csr")
    return np.kron(a, b)


def vectorize(op) -> np.ndarray:
    """Flatten an operator into its row-stacked Liouville-space vector."""
    return _as_square(op).reshape(-1)


def devectorize(v) -> np.ndarray:
    """Inverse of :func:`vectorize`; exact round trip."""
    arr = np.asarray(v, dtype=complex).reshape(-1)
    d = int(round(np.sqrt(arr.size)))
    if d * d != arr.size:
        raise ValueError(f"vector length {arr.size} is not a perfect square")
    return arr.reshape(d, d)


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product Tr[a^dag b]."""
    am, bm = _as_square(a), _as_square(b)
    if am.shape != bm.shape:
        raise ValueError(f"dimension mismatch: {am.shape} vs {bm.shape}")
    return complex(np.vdot(am.reshape(-1), bm.reshape(-1)))


def left_multiplier(a):
    """Matrix of X -> a X in the row-stacked convention (sparse in, sparse out)."""
    am = _as_square(a)
    return _kron(am, np.eye(am.shape[0], dtype=complex))


def right_multiplier(b):
    """Matrix of X -> X b in the row-stacked convention (sparse in, sparse out)."""
    bm = _as_square(b)
    return _kron(np.eye(bm.shape[0], dtype=complex), bm.T)


def commutator_superop(h):
    """Matrix of -i[h, .] for a Hermitian h; purely imaginary spectrum.

    A sparse ``h`` gives a sparse CSR array, a dense one an ndarray.
    """
    hm = _as_square(h)
    dev = abs(hm - hm.conj().T).max()
    if dev > HERMITICITY_TOL:
        raise ValueError(f"commutator generator is not Hermitian (deviation {dev:.3e})")
    return -1j * (left_multiplier(hm) - right_multiplier(hm))


def lindblad_dissipator(o):
    """Matrix of the dissipator X -> 2 o X o^dag - o^dag o X - X o^dag o.

    A sparse ``o`` gives a sparse CSR array, a dense one an ndarray.
    """
    om = _as_square(o)
    od = om.conj().T
    eye = np.eye(om.shape[0], dtype=complex)
    return 2.0 * _kron(om, od.T) - _kron(od @ om, eye) - _kron(eye, (od @ om).T)


def squeeze_dissipator(o):
    """Matrix of the two-photon-type term X -> 2 o X o - o^2 X - X o^2.

    Unlike the Lindblad form this couples opposite coherences; its action is
    traceless for any input, so it never breaks trace preservation.  A
    sparse ``o`` gives a sparse CSR array, a dense one an ndarray.
    """
    om = _as_square(o)
    eye = np.eye(om.shape[0], dtype=complex)
    o2 = om @ om
    return 2.0 * _kron(om, om.T) - _kron(o2, eye) - _kron(eye, o2.T)


def frame_transform(l, l0, t: float) -> np.ndarray:
    """Conjugate a dense superoperator into the frame generated by l0.

    Returns exp(-l0 t) l exp(l0 t); with l0 the free Liouvillian this is the
    interaction-picture version of l at time t.
    """
    lm, l0m = _as_square(l), _as_square(l0)
    if lm.shape != l0m.shape:
        raise ValueError(f"dimension mismatch: {lm.shape} vs {l0m.shape}")
    return expm(-l0m * t) @ lm @ expm(l0m * t)


def trace_dual(dim: int) -> np.ndarray:
    """Row vector <<I| such that trace_dual(d) @ vec(X) = Tr[X]."""
    return np.eye(dim, dtype=complex).reshape(-1)


def annihilation(n: int) -> np.ndarray:
    """Bosonic lowering operator truncated to an n-level Fock space."""
    return np.diag(np.sqrt(np.arange(1, n, dtype=float)), 1).astype(complex)


def qubit_state(name: str) -> np.ndarray:
    """Common qubit density matrices, as 2x2 arrays in the (g, e) basis.

    Accepts 'g', 'e', 'x+', 'x-', 'y+', 'y-', and 'mixed'.
    """
    if name == "g":
        return np.diag([1.0, 0.0]).astype(complex)
    if name == "e":
        return np.diag([0.0, 1.0]).astype(complex)
    if name == "mixed":
        return np.eye(2, dtype=complex) / 2.0
    axis = {"x+": (1.0, 1.0), "x-": (1.0, -1.0), "y+": (1.0, 1.0j), "y-": (1.0, -1.0j)}
    if name not in axis:
        raise ValueError(f"unknown qubit state {name!r}")
    a, b = axis[name]
    v = np.array([a, b], dtype=complex) / np.sqrt(2.0)
    return np.outer(v, v.conj())


def _coupled_blocks(gen, support) -> list[np.ndarray]:
    """The exact blocks of ``gen`` that touch ``support``, in order of their first index.

    The blocks are the weakly connected components of the nonzero pattern of
    the dense or sparse matrix ``gen``, each as sorted indices.  A solve,
    resolvent or evolution whose source lies in ``support`` never leaves
    them; round-off in the pattern could only merge blocks, never drop one.
    A dense pattern is closed by repeated boolean squaring, which on a few
    indices costs a fraction of a ``connected_components`` call.
    """
    pattern = gen != 0
    if sparse.issparse(pattern):
        # a boolean pattern, since connected_components casts complex data with a warning
        labels = connected_components(pattern, directed=True, connection="weak")[1]
    else:
        n = pattern.shape[0]
        reach = pattern | pattern.T
        reach.flat[:: n + 1] = True
        for _ in range((n - 1).bit_length()):  # paths of up to 2**k >= n - 1 links
            reach = reach @ reach
        labels = reach.argmax(axis=1)  # the first index of each block
    blocks = [np.flatnonzero(labels == lab) for lab in set(labels[support].tolist())]
    return sorted(blocks, key=lambda block: block[0])


def _coupled_block(gen, support) -> np.ndarray:
    """Sorted indices of the union of the exact blocks of ``gen`` that touch ``support``."""
    blocks = _coupled_blocks(gen, support)
    return np.sort(np.concatenate(blocks)) if blocks else np.empty(0, dtype=np.intp)


def _density_vector(rho) -> np.ndarray:
    """Row-stacked vector of a density matrix given as a matrix or a vector.

    Checked for unit trace, Hermiticity and positive semidefiniteness to 1e-9.
    """
    m = devectorize(rho)
    if abs(np.trace(m) - 1.0) > 1e-9:
        raise ValueError(f"state trace {np.trace(m):.12g} is not 1")
    if np.abs(m - m.conj().T).max() > 1e-9:
        raise ValueError("state is not Hermitian")
    if np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min() < -1e-9:
        raise ValueError("state is not positive semidefinite")
    return m.reshape(-1)


def _steady_state(gen, dim: int) -> np.ndarray:
    """Unit-trace null vector of a trace-preserving generator, as a dim x dim matrix.

    Solved exactly on the blocks of ``gen`` that hold the diagonal, with the
    redundant (0, 0) equation replaced by the trace row; Hermitized, and
    checked for unit trace to 1e-9.
    """
    diagonal = np.arange(dim) * (dim + 1)
    block = _coupled_block(gen, diagonal)
    sub = gen[block, :][:, block]
    sub = sub.toarray() if sparse.issparse(sub) else sub
    # block[0] == 0 is the (0, 0) population, so the trace row replaces its equation
    sub[0, :] = np.isin(block, diagonal)
    rhs = np.zeros(block.size, dtype=complex)
    rhs[0] = 1.0
    chi = np.zeros(dim * dim, dtype=complex)
    chi[block] = np.linalg.solve(sub, rhs)
    chi = chi.reshape(dim, dim)
    chi = 0.5 * (chi + chi.conj().T)
    tr = np.trace(chi).real
    if abs(tr - 1.0) > 1e-9:
        raise ValueError(f"steady state trace {tr:.12g} deviates from 1")
    return chi / tr


def _modal_evolution(gen, y0, t_grid, n_out: int) -> np.ndarray:
    """First ``n_out`` components of exp(gen t) y0 at each time of ``t_grid``.

    Modal expansion, unless the modes miss y0 at t = 0 by 1e-10 or rebuild
    it by a cancellation costing over 6 digits (a defective generator, such
    as a Jordan block): then ``expm`` at each time.
    """
    try:
        lam, vmat = np.linalg.eig(gen)
        coef = np.linalg.solve(vmat, y0)
        parts = vmat[:n_out, :] * coef  # each mode's part of y0
        if (np.abs(parts.sum(axis=1) - y0[:n_out]).max() <= 1e-10
                and np.abs(parts).sum(axis=1).max() <= 1e6 * np.abs(y0[:n_out]).max()):
            return (np.exp(np.outer(t_grid, lam)) * coef) @ vmat[:n_out, :].T
    except np.linalg.LinAlgError:
        pass
    return np.array([(expm(gen * t) @ y0)[:n_out] for t in t_grid])
