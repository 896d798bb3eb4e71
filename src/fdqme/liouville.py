"""Superoperator algebra on a finite Hilbert space.

Operators on an N-dimensional Hilbert space are flattened into length-N^2
vectors so that superoperators become N^2 x N^2 matrices.  The element
order is row-stacked: (O_11, ..., O_1N, O_21, ..., O_NN).  For a qubit in the
basis (g, e) this is (gg, ge, eg, ee), which makes the free-evolution
Liouvillian of ``-(w/2) sigma_z`` the diagonal matrix (0, iw, -iw, 0).

The superoperator builders take and return dense arrays.  A large
superoperator, such as the oracle's joint qubit-cavity Liouvillian, is held
as ``IndexTriples``: its nonzeros by row, column and value, assembled from
the nonzeros of dense Hilbert-space factors by index arithmetic.  The
matrix exponential of a stack, ``expm``, is scaling and squaring with a Pade
approximant, so nothing here needs scipy.

States and Hilbert-space operators are plain arrays: a state may be given as
a d x d matrix or as its row-stacked length-d^2 vector.  The private helpers
at the end read and check a density matrix, and serve every constant
generator, reduced or joint: exact blocks, bordered steady state and
eigen-modal evolution.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "vectorize",
    "devectorize",
    "left_multiplier",
    "right_multiplier",
    "commutator_superop",
    "lindblad_dissipator",
    "squeeze_dissipator",
    "trace_dual",
    "annihilation",
    "SIGMA_Z",
    "SIGMA_MINUS",
    "SIGMA_PLUS",
    "qubit_state",
    "expm",
]

HERMITICITY_TOL = 1e-12

# Qubit basis order is (g, e); sigma_z has +1 on the ground state so that
# H = -(w/2) sigma_z puts the excited state w above the ground state.
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_PLUS = SIGMA_MINUS.conj().T


class IndexTriples(NamedTuple):
    """An n x n matrix by its nonzeros: ``values[k]`` sits at ``(rows[k], cols[k])``.

    The entries are sorted row-major, with no duplicates and no zeros, so the
    triples are also the matrix's nonzero pattern.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray


def _as_square(entries) -> np.ndarray:
    arr = np.asarray(entries, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _hermitian(h) -> np.ndarray:
    """``h`` as a square complex array, checked to be Hermitian to HERMITICITY_TOL."""
    hm = _as_square(h)
    dev = abs(hm - hm.conj().T).max()
    if dev > HERMITICITY_TOL:
        raise ValueError(f"commutator generator is not Hermitian (deviation {dev:.3e})")
    return hm


def _sorted_unique(values) -> np.ndarray:
    """The distinct values of ``values``, flattened and sorted: np.unique by its sort-and-mask path.

    For floats that is np.unique's own path; for integers np.unique hashes,
    with the same result.  Unlike np.unique (numpy 2.4) it does not import
    numpy.ma, which costs 13-15 ms on its first call in a process.  A NaN is
    kept once per occurrence, where np.unique keeps one.
    """
    aux = np.sort(values, axis=None)
    mask = np.empty(aux.shape, dtype=bool)
    mask[:1] = True
    mask[1:] = aux[1:] != aux[:-1]
    return aux[mask]


def _kron(a, b) -> np.ndarray:
    """Kronecker product of two matrices.

    The one broadcast multiply that ``np.kron`` makes, without its n-d
    wrapper, which costs several times the product itself on the 2x2 and 4x4
    factors here.
    """
    a, b = np.asarray(a), np.asarray(b)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def _kron_terms(pairs) -> tuple[np.ndarray, np.ndarray]:
    """The terms kron(a, b), one per (a, b) of ``pairs``, on the union of their nonzeros.

    The factors are dense square matrices, the left ones of one size and the
    right ones of one size, and only their nonzeros are multiplied.  Returns
    the flat index ``row * n + col`` of each entry of the union, in no
    particular order, and a (len(pairs), entries) array of each term's values
    there, +0 where the term has no entry.  A left index pair (i, k) and a
    right pair (j, l) give the entry ((i, j), (k, l)).  The pairs of each side
    are grouped by the set of terms whose factor holds them, so a group of
    one side and a group of the other share one set of terms (a bit per
    pair, so at most 63 pairs), and each term is one outer product per such
    block.
    """
    left = np.array([a.ravel() for a, _ in pairs])
    right = np.array([b.ravel() for _, b in pairs])
    n_left, n_right = pairs[0][0].shape[0], pairs[0][1].shape[0]
    n = n_left * n_right
    bits = 1 << np.arange(len(pairs), dtype=np.int64)

    def grouped(factors, size, row_step, col_step):
        # (set of terms, flat pairs, their part of the flat index) for each set that holds a pair
        terms = bits @ (factors != 0)
        held = np.flatnonzero(terms)
        members = [held[terms[held] == s] for s in _sorted_unique(terms[held]).tolist()]
        return [(int(terms[m[0]]), m, m // size * row_step + m % size * col_step) for m in members]

    left_groups, right_groups = grouped(left, n_left, n_right * n, n_right), grouped(right, n_right, n, 1)
    blocks = [(sl & sr, ml, mr, kl[:, None] + kr)
              for sl, ml, kl in left_groups for sr, mr, kr in right_groups if sl & sr]
    keys = np.concatenate([np.empty(0, dtype=np.int64)] + [block_keys.ravel() for *_, block_keys in blocks])
    values = np.zeros((len(pairs), keys.size), dtype=complex)
    end = 0
    for terms, ml, mr, block_keys in blocks:
        start, end = end, end + block_keys.size
        for t in range(len(pairs)):
            if terms >> t & 1:
                np.multiply.outer(left[t, ml], right[t, mr], out=values[t, start:end].reshape(block_keys.shape))
    return keys, values


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


def left_multiplier(a):
    """Matrix of X -> a X in the row-stacked convention."""
    am = _as_square(a)
    return _kron(am, np.eye(am.shape[0], dtype=complex))


def right_multiplier(b):
    """Matrix of X -> X b in the row-stacked convention."""
    bm = _as_square(b)
    return _kron(np.eye(bm.shape[0], dtype=complex), bm.T)


def commutator_superop(h):
    """Matrix of -i[h, .] for a Hermitian h; purely imaginary spectrum."""
    hm = _hermitian(h)
    eye = np.eye(hm.shape[0], dtype=complex)
    return -1j * (_kron(hm, eye) - _kron(eye, hm.T))


def lindblad_dissipator(o):
    """Matrix of the dissipator X -> 2 o X o^dag - o^dag o X - X o^dag o."""
    om = _as_square(o)
    od = om.conj().T
    eye = np.eye(om.shape[0], dtype=complex)
    return 2.0 * _kron(om, od.T) - _kron(od @ om, eye) - _kron(eye, (od @ om).T)


def squeeze_dissipator(o):
    """Matrix of the two-photon-type term X -> 2 o X o - o^2 X - X o^2.

    Unlike the Lindblad form this couples opposite coherences; its action is
    traceless for any input, so it never breaks trace preservation.
    """
    om = _as_square(o)
    eye = np.eye(om.shape[0], dtype=complex)
    o2 = om @ om
    return 2.0 * _kron(om, om.T) - _kron(o2, eye) - _kron(eye, o2.T)


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


# Pade [13/13] numerator coefficients of exp, over the first so that it is 1 and
# the exponential of 0 is exactly I, and the 1-norm up to which the approximant
# is accurate to double precision without scaling (Higham, SIAM J. Matrix Anal.
# Appl. 26, 1179 (2005), Table 2.3)
_PADE13 = tuple(c / 64764752532480000 for c in (
    64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800, 129060195264000,
    10559470521600, 670442572800, 33522128640, 1323241920, 40840800, 960960, 16380, 182, 1))
_THETA13 = 5.371920351148152


def expm(a) -> np.ndarray:
    """Matrix exponential of each matrix of a stack ``(..., n, n)``.

    Scaling and squaring with the [13/13] Pade approximant (Higham 2005): each
    matrix is scaled by its own power of two ``2^-s`` to a 1-norm of at most
    theta_13, and only the matrices that still need a squaring are squared, so
    a matrix's result does not depend on the rest of the stack.  A real stack
    gives a real result.  A non-finite entry raises a ``ValueError``.
    """
    a = np.asarray(a)
    a = a.astype(np.result_type(a.dtype, 1.0))
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a stack of square matrices, got shape {a.shape}")
    shape = a.shape
    a = a.reshape((-1,) + shape[-2:])
    norm = np.abs(a).sum(axis=1).max(axis=1, initial=0.0)
    if not np.all(np.isfinite(norm)):
        raise ValueError("expm of a non-finite matrix")
    # s = ceil(log2(norm / theta_13)), at least 0, without log2(0)
    mantissa, exponent = np.frexp(norm / _THETA13)
    s = np.maximum(exponent - (mantissa == 0.5), 0)
    a = a * np.ldexp(1.0, -s)[:, None, None]
    b = _PADE13
    eye = np.eye(shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(s.max(initial=0))):
        index = np.flatnonzero(s > k)
        r[index] = r[index] @ r[index]
    return r.reshape(shape)


def _components(n: int, rows, cols) -> np.ndarray:
    """Label of each of ``n`` indices: the first index of its weakly connected component.

    The graph has a link from ``rows[k]`` to ``cols[k]`` for each k.  Each round
    hooks the larger label of the two ends of every link onto the smaller,
    then jumps every index to the root of its chain; labels only decrease,
    so a round that leaves no link between two labels is the last.
    """
    labels = np.arange(n)
    while True:
        ends = labels[rows], labels[cols]
        if (ends[0] == ends[1]).all():
            return labels
        np.minimum.at(labels, np.maximum(*ends), np.minimum(*ends))
        jumped = labels[labels]
        while (jumped != labels).any():
            labels, jumped = jumped, jumped[jumped]


def _coupled_blocks(gen, support) -> list[np.ndarray]:
    """The exact blocks of ``gen`` that touch ``support``, in order of their first index.

    The blocks are the weakly connected components of the nonzero pattern of
    ``gen``, a dense array (whose links are its ``np.nonzero``) or
    ``IndexTriples``, each as sorted indices.  A solve, resolvent or
    evolution whose source lies in ``support`` never leaves them; round-off
    in the pattern could only merge blocks, never drop one.
    """
    if isinstance(gen, IndexTriples):
        labels = _components(gen.n, gen.rows, gen.cols)
    else:
        labels = _components(gen.shape[0], *np.nonzero(gen))
    blocks = [np.flatnonzero(labels == lab) for lab in set(labels[support].tolist())]
    return sorted(blocks, key=lambda block: block[0])


def _coupled_block(gen, support) -> np.ndarray:
    """Sorted indices of the union of the exact blocks of ``gen`` that touch ``support``."""
    blocks = _coupled_blocks(gen, support)
    return np.sort(np.concatenate(blocks)) if blocks else np.empty(0, dtype=np.intp)


def _dense_block(gen, block) -> np.ndarray:
    """The rows and columns ``block`` of ``gen`` (dense or ``IndexTriples``) as a new dense array."""
    if not isinstance(gen, IndexTriples):
        return gen[np.ix_(block, block)]
    position = np.full(gen.n, -1)
    position[block] = np.arange(len(block))
    rows, cols = position[gen.rows], position[gen.cols]
    inside = (rows >= 0) & (cols >= 0)
    sub = np.zeros((len(block), len(block)), dtype=complex)
    sub[rows[inside], cols[inside]] = gen.values[inside]
    return sub


def _density_vector(rho) -> np.ndarray:
    """Row-stacked vector of a density matrix given as a matrix or a vector.

    Checked to be finite, then for unit trace, Hermiticity and positive
    semidefiniteness to 1e-9 (comparisons that NaN would pass).
    """
    m = devectorize(rho)
    if not np.all(np.isfinite(m)):
        raise ValueError("state is not finite")
    if abs(np.trace(m) - 1.0) > 1e-9:
        raise ValueError(f"state trace {np.trace(m).real:.12g} is not 1")
    if np.abs(m - m.conj().T).max() > 1e-9:
        raise ValueError("state is not Hermitian")
    if np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min() < -1e-9:
        raise ValueError("state is not positive semidefinite")
    return m.reshape(-1)


def _steady_state(gen, dim: int) -> np.ndarray:
    """Unit-trace null vector of a trace-preserving generator, as a dim x dim matrix.

    Solved exactly on the blocks of ``gen`` that hold the diagonal, with the
    redundant (0, 0) equation replaced by the trace row; Hermitized, and
    checked to be finite and of unit trace to 1e-9.
    """
    block = _coupled_block(gen, np.arange(dim) * (dim + 1))
    sub = _dense_block(gen, block)
    # block[0] == 0 is the (0, 0) population, so the trace row replaces its equation; the diagonal
    # entries are the flat indices divisible by dim + 1
    sub[0, :] = block % (dim + 1) == 0
    rhs = np.zeros(block.size, dtype=complex)
    rhs[0] = 1.0
    chi = np.zeros(dim * dim, dtype=complex)
    chi[block] = np.linalg.solve(sub, rhs)
    chi = chi.reshape(dim, dim)
    chi = 0.5 * (chi + chi.conj().T)
    if not np.all(np.isfinite(chi)):
        raise ValueError("steady state is not finite")
    tr = np.trace(chi).real
    if abs(tr - 1.0) > 1e-9:
        raise ValueError(f"steady state trace {tr:.12g} deviates from 1")
    return chi / tr


def _modal_evolution(gen, y0, t_grid, n_out: int) -> np.ndarray:
    """First ``n_out`` components of exp(gen t) y0 at each time of ``t_grid``.

    Modal expansion, unless the modes miss y0 at t = 0 by 1e-10 or rebuild
    it by a cancellation costing over 6 digits (a defective generator, such
    as a Jordan block): then one stacked ``expm`` over all times.
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
    return (expm(gen * np.asarray(t_grid)[:, None, None]) @ y0)[:, :n_out]
