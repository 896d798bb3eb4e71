"""Shared numeric oracles for the test suite."""

from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson, solve_ivp
from scipy.optimize import minimize_scalar

from fdqme.baths import (
    SqueezedBathParams,
    ThermalBathParams,
    bogoliubov_params,
    effective_rates,
    free_liouvillian,
    kernel_modes,
)
from fdqme.fdme import Spectrum, _stacked_solve, make_spectrum, steady_state
from fdqme.liouville import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    IndexTriples,
    _coupled_block,
    annihilation,
    commutator_superop,
    left_multiplier,
    lindblad_dissipator,
    squeeze_dissipator,
)
from fdqme.measures import MeasureResult


def one_sided_transform(time_fn, omega, kappa, points_per_period: int = 80):
    """Brute-force one-sided Fourier transform on a dense Simpson grid.

    Truncates at 40 decay times (envelope ~ 4e-18) and resolves the fastest
    oscillation of the product with at least ``points_per_period`` samples.
    ``time_fn`` maps the times to an array with time on axis 0 (a matrix-valued
    kernel gives shape (n, 4, 4)); the transform has the shape of one sample.
    """
    upper = 40.0 / kappa
    fastest = max(abs(omega), kappa) + kappa
    n = int(np.ceil(points_per_period * fastest * upper / (2 * np.pi))) | 1
    n = max(n, 20001)
    ts = np.linspace(0.0, upper, n)
    values = time_fn(ts)
    phase = np.exp(-1j * omega * ts).reshape((-1,) + (1,) * (values.ndim - 1))
    return simpson(values * phase, x=ts, axis=0)



def running_kernel_integral(modes):
    """The function t -> int_0^t K(s) e^{-Ls s} ds of a mode table, mode by mode.

    The induced generator of the time-local equation, with the running
    integral starting at t = 0.
    """
    # under e^{-Ls s} the columns of the kernel rotate at 0, -omega_ref, +omega_ref, 0
    rate = -modes.kappa + 1j * (modes.mus[:, None] + modes.omega_ref * np.array([0.0, -1.0, 1.0, 0.0]))
    return lambda t: np.einsum("kij,kj->ij", modes.coef, (np.exp(rate * t) - 1.0) / rate)


def br_reference(p, rho0, t_grid):
    """Time-local trajectory from scipy's DOP853 at rtol 1e-13, atol 1e-15.

    The generator is the free Liouvillian plus the running kernel integral
    of the table without sum-frequency modes, with the state prepared at
    t = 0.
    """
    free = free_liouvillian(p)
    induced = running_kernel_integral(kernel_modes(p, include_sum_frequency=False))

    def rhs(t, y):
        return (free + induced(t)) @ y

    sol = solve_ivp(rhs, (0.0, float(t_grid[-1])), np.asarray(rho0, dtype=complex).reshape(-1),
                    t_eval=t_grid, method="DOP853", rtol=1e-13, atol=1e-15)
    assert sol.success, sol.message
    return sol.y.T


def dense_full_liouvillian(p, n_fock):
    """Joint qubit-cavity Liouvillian from dense Kronecker products of full-size matrices.

    An assembly independent of ``oracle.build_full_model`` and of the
    ``liouville`` builders: -i[H, .] plus 2 o X o^dag - {o^dag o, X} per
    channel, in the row-stacked convention.
    """
    a = annihilation(n_fock)
    ad = a.conj().T
    eye_c, eye_q = np.eye(n_fock, dtype=complex), np.eye(2, dtype=complex)
    coupling = p.g * (np.kron(SIGMA_PLUS, a) + np.kron(SIGMA_MINUS, ad))
    a_joint = np.kron(eye_q, a)
    if isinstance(p, ThermalBathParams):
        h = np.kron(-(p.omega_q / 2.0) * SIGMA_Z, eye_c) + np.kron(eye_q, p.omega_c * (ad @ a)) + coupling
        channels = ((p.kappa * (p.nbar + 1.0), a_joint), (p.kappa * p.nbar, a_joint.conj().T))
    elif isinstance(p, SqueezedBathParams):
        h_cav = p.delta_c * (ad @ a) + 0.5 * p.r * (a @ a + ad @ ad)
        h = np.kron(-(p.delta_q / 2.0) * SIGMA_Z, eye_c) + np.kron(eye_q, h_cav) + coupling
        channels = ((p.kappa, a_joint),)
    eye = np.eye(2 * n_fock, dtype=complex)
    lv = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for rate, o in channels:
        od = o.conj().T
        lv = lv + rate * (2.0 * np.kron(o, od.T) - np.kron(od @ o, eye) - np.kron(eye, (od @ o).T))
    return lv


def sparse_full_liouvillian(p, n_fock):
    """Joint qubit-cavity Liouvillian from ``scipy.sparse`` Kronecker products and sums.

    The sums of ``oracle.build_full_model`` in the same order, with sparse
    Hilbert-space operators: -1j * (kron(H, I) - kron(I, H^T)), then
    rate * ((2 kron(o, conj o) - kron(o^dag o, I)) - kron(I, (o^dag o)^T))
    per channel, as a CSR array with sorted indices and no stored zeros: the
    reference that the index-triple assembly must equal bit for bit.
    """
    from scipy import sparse

    kron = lambda x, y: sparse.kron(x, y, format="csr")
    a = sparse.csr_array(annihilation(n_fock))
    eye_c = sparse.csr_array(np.eye(n_fock, dtype=complex))
    eye_q = np.eye(2, dtype=complex)
    a_joint = kron(eye_q, a)
    coupling = p.g * (kron(SIGMA_PLUS, a) + kron(SIGMA_MINUS, a.conj().T))
    if isinstance(p, ThermalBathParams):
        h = kron(-(p.omega_q / 2.0) * SIGMA_Z, eye_c) + kron(eye_q, p.omega_c * (a.conj().T @ a)) + coupling
        channels = ((p.kappa * (p.nbar + 1.0), a_joint), (p.kappa * p.nbar, a_joint.conj().T))
    else:
        h_cav = p.delta_c * (a.conj().T @ a) + 0.5 * p.r * (a @ a + a.conj().T @ a.conj().T)
        h = kron(-(p.delta_q / 2.0) * SIGMA_Z, eye_c) + kron(eye_q, h_cav) + coupling
        channels = ((p.kappa, a_joint),)
    h = sparse.csr_array(h, dtype=complex)
    eye = np.eye(2 * n_fock, dtype=complex)
    lv = -1j * (kron(h, eye) - kron(eye, h.T))
    for rate, o in channels:
        o = sparse.csr_array(o, dtype=complex)
        od = o.conj().T
        lv = lv + rate * (2.0 * kron(o, od.T) - kron(od @ o, eye) - kron(eye, (od @ o).T))
    lv.eliminate_zeros()
    lv.sort_indices()
    return lv


def index_triples(m) -> IndexTriples:
    """The nonzeros of a dense square matrix as row-major ``IndexTriples``."""
    rows, cols = np.nonzero(m)
    return IndexTriples(m.shape[0], rows, cols, np.asarray(m, dtype=complex)[rows, cols])


def dense_matrix(t: IndexTriples) -> np.ndarray:
    """The dense matrix of ``IndexTriples``."""
    m = np.zeros((t.n, t.n), dtype=complex)
    m[t.rows, t.cols] = t.values
    return m


def bfs_block(pattern, support) -> list[int]:
    """Sorted indices of the weakly connected components of a dense pattern that touch ``support``.

    A plain reference for ``liouville._coupled_block``, by breadth-first
    search from the support.
    """
    linked = np.asarray(pattern) != 0
    linked = linked | linked.T
    block = set(support)
    queue = deque(block)
    while queue:
        for j in np.flatnonzero(linked[queue.popleft()]).tolist():
            if j not in block:
                block.add(j)
                queue.append(j)
    return sorted(block)


def full_system_matrix_delta(fp, delta):
    """The full (n, 4, 4) system matrix i delta I + (i omega_ref I - L0) - K[delta]."""
    delta = np.asarray(delta, dtype=float)
    eye = np.eye(4, dtype=complex)
    shift = 1j * fp.omega_ref * eye - fp.l0
    return 1j * delta[..., None, None] * eye + shift - fp.kernel_freq(delta)


def full_assembly_emission_spectrum(fp, grid):
    """Emission spectrum from the full system matrix over the grid.

    The source block comes from the union of its nonzeros over the grid and
    is sliced out of the (n, 4, 4) assembly; the source, solve and
    contraction are those of ``fdme.emission_spectrum``, without its checks.
    """
    grid = np.asarray(grid, dtype=float)
    src = left_multiplier(SIGMA_MINUS) @ steady_state(fp)
    m = full_system_matrix_delta(fp, grid)
    block = _coupled_block(np.any(m != 0, axis=0), np.flatnonzero(src))
    m = np.moveaxis(m[:, block[:, None], block], 0, -1)
    x = _stacked_solve(m, src[block])[0]
    raw = 2.0 * np.real(SIGMA_MINUS.reshape(-1).conj()[block] @ x)
    return make_spectrum(grid, raw)


def lapack_emission_spectrum(fp, grid):
    """Emission spectrum by one LAPACK ``np.linalg.solve`` per point on the source block.

    The reference of ``fdme._stacked_solve``: the source block, its entries
    and the contraction are those of ``fdme.emission_spectrum``, without its
    checks; only the solve differs.
    """
    grid = np.asarray(grid, dtype=float)
    src = left_multiplier(SIGMA_MINUS) @ steady_state(fp)
    block = _coupled_block(fp._pattern(), np.flatnonzero(src))
    m = fp._system_matrix_delta(grid, block)
    x = np.linalg.solve(m, np.broadcast_to(src[block, None], grid.shape + (block.size, 1)))
    raw = 2.0 * np.real(x[..., 0] @ SIGMA_MINUS.reshape(-1).conj()[block])
    return make_spectrum(grid, raw)


# the grid measure drops points where the signal density is below this fraction of its peak
TAIL_CUTOFF_REL = 1e-12


def kl_divergence(s: Spectrum, s_ref: Spectrum) -> float:
    """Relative entropy (base 2) between unit-area spectra on a common grid, by the trapezoid.

    The independent grid reference of the library's quadrature measure.
    Points where the signal density p is below 1e-12 of its peak are
    dropped, whatever the reference there, since p log(p / q) -> 0 as
    p -> 0; a vanishing reference under appreciable signal is an error.
    """
    if not (s.normalized and s_ref.normalized):
        raise ValueError("both spectra must be normalized to unit area")
    if s.grid.shape != s_ref.grid.shape or not np.array_equal(s.grid, s_ref.grid):
        raise ValueError("spectra are not on a common grid")
    p = s.values
    q = s_ref.values
    live = p > TAIL_CUTOFF_REL * p.max()
    if np.any(live & (q <= 0.0)):
        raise ValueError("reference spectrum vanishes where the signal does not")
    integrand = np.zeros_like(p)
    integrand[live] = p[live] * np.log2(p[live] / q[live])
    val = float(np.trapezoid(integrand, s.grid))
    if val < -1e-9:
        raise ValueError(f"relative entropy came out {val:.3e} < 0; spectra are inconsistent")
    return max(val, 0.0)


def spectral_measure(s: Spectrum, s_m: Spectrum, gap: float) -> MeasureResult:
    """Grid relative entropy per unit Markovian bandwidth; zero iff the spectra match."""
    if not 0 < gap < np.inf:
        raise ValueError(f"bandwidth must be positive and finite, got {gap}")
    value = kl_divergence(s, s_m) / gap
    return MeasureResult(
        value=value,
        method="spectral",
        metadata={"gap": gap, "grid_points": int(s.grid.size),
                  "grid_span": (float(s.grid[0]), float(s.grid[-1]))},
    )


def fwhm(s) -> float:
    """Full width at half maximum of a spectrum by linear interpolation of the crossings."""
    v = s.values
    k = int(np.argmax(v))
    half = v[k] / 2.0
    left = np.nonzero(v[:k] < half)[0]
    right = np.nonzero(v[k:] < half)[0]
    if left.size == 0 or right.size == 0:
        raise ValueError("half-maximum crossings fall outside the grid")
    i = left[-1]
    x_lo = np.interp(half, [v[i], v[i + 1]], [s.grid[i], s.grid[i + 1]])
    j = k + right[0]
    x_hi = np.interp(half, [v[j], v[j - 1]], [s.grid[j], s.grid[j - 1]])
    return float(x_hi - x_lo)


def locate_peak(fn, center: float, halfwidth: float, coarse_step: float) -> float:
    """Local-maximum position of fn on [center - halfwidth, center + halfwidth].

    Coarse grid scan at the given step, preferring interior local maxima (so
    a tail rising toward the window edge cannot shadow a genuine peak),
    followed by golden-section refinement between the neighboring samples.
    """
    lo, hi = center - halfwidth, center + halfwidth
    xs = np.arange(lo, hi + coarse_step, coarse_step)
    vals = np.asarray(fn(xs), dtype=float)
    interior = np.nonzero((vals[1:-1] > vals[:-2]) & (vals[1:-1] >= vals[2:]))[0] + 1
    k = int(interior[np.argmax(vals[interior])]) if interior.size else int(np.argmax(vals))
    a = xs[max(k - 1, 0)]
    b = xs[min(k + 1, len(xs) - 1)]
    if a == b:
        return float(xs[k])
    objective = lambda x: -float(np.asarray(fn(x)).ravel()[0])
    res = minimize_scalar(objective, bounds=(a, b), method="bounded",
                          options={"xatol": coarse_step * 1e-8})
    return float(res.x)


def squeezed_steady_ground_population(p: SqueezedBathParams) -> float:
    """Ground-state occupation of the squeezed-bath steady state, closed form."""
    b = bogoliubov_params(p)
    g1, g2, nb = b.g1, b.g2, b.nbar
    k, dd, ss = p.kappa, b.delta_diff, b.sigma_sum
    mr, mi = b.mbar.real, b.mbar.imag
    cross = mr * k * (2 * k**2 + dd**2 + ss**2) + (ss - dd) * mi * (k**2 - ss * dd)
    num = k * ((nb + 1) * g1**2 * (k**2 + ss**2) + nb * g2**2 * (k**2 + dd**2)) + g1 * g2 * cross
    den = (2 * nb + 1) * k * (g1**2 * (k**2 + ss**2) + g2**2 * (k**2 + dd**2)) + 2 * g1 * g2 * cross
    return float(num / den)


# --------------------------------------------------------------------------
# the time-local correlator, its spectrum by FFT and its transform by
# quadrature: two more routes to the exact series of redfield.br_spectrum
# --------------------------------------------------------------------------


def br_correlator(p: ThermalBathParams, tau) -> np.ndarray:
    """Normalized steady-state two-time correlator of the time-local solution.

    The exponent carries the free phase, the constant Markov-limit damping
    and shift, and a transient that decays at the cavity rate; its value at
    tau = 0 is exactly 1.
    """
    tau = np.asarray(tau, dtype=float)
    pole = p.kappa + 1j * p.delta
    amp = (2 * p.nbar + 1) * p.g**2
    return np.exp(1j * p.omega_q * tau - amp * tau / pole + amp * (1.0 - np.exp(-pole * tau)) / pole**2)


def br_quadrature_line(p: ThermalBathParams, delta) -> np.ndarray:
    """The one-sided transform of br_correlator's envelope by quadrature, unnormalized.

    With a = (2 nbar + 1) g^2, P = kappa + i delta_bath and c = a / P^2 the
    envelope is e^{c - a tau / P} e^{-c e^{-P tau}}.  Its slow part
    e^{c - a tau / P} is transformed in closed form; the rest, which decays
    like e^{-kappa tau}, by Gauss-Legendre panels of 64 nodes out to
    tau = 45 / kappa, each spanning at most 40 radians of the fastest phase.
    No power series of the envelope is used, so it checks the series of
    redfield._br_line.
    """
    delta = np.asarray(delta, dtype=float)
    pole = p.kappa + 1j * p.delta
    amp = (2 * p.nbar + 1) * p.g**2
    c = amp / pole**2
    t_max = 45.0 / p.kappa
    phase_rate = np.abs(delta).max() + abs(p.delta) + p.kappa
    edges = np.linspace(0.0, t_max, int(np.ceil(t_max * phase_rate / 40.0)) + 2)
    x, w = np.polynomial.legendre.leggauss(64)
    half = 0.5 * np.diff(edges)[:, None]
    tau = ((edges[:-1, None] + edges[1:, None]) / 2 + half * x).ravel()
    weights = (half * w).ravel()
    rest = np.exp(c - amp * tau / pole) * np.expm1(-c * np.exp(-pole * tau))
    transform = np.exp(c) / (1j * delta + amp / pole) + np.exp(-1j * np.multiply.outer(delta, tau)) @ (rest * weights)
    return 2.0 * np.real(transform)


def br_fft_spectrum(p: ThermalBathParams, delta_grid):
    """Emission spectrum of the time-local solution by FFT of br_correlator, normalized."""
    delta_grid = np.asarray(delta_grid, dtype=float)
    tau_max = 14.0 / effective_rates(p).gamma_eff
    span = max(abs(delta_grid).max(), abs(p.delta) + 10 * p.kappa)
    dtau = np.pi / (8.0 * span)
    n = int(2 ** np.ceil(np.log2(tau_max / dtau)))
    tau = np.arange(n) * dtau
    envelope = br_correlator(p, tau) * np.exp(-1j * p.omega_q * tau)
    envelope[0] *= 0.5  # trapezoid end correction at tau = 0
    amp = np.fft.fft(envelope) * dtau
    freqs = 2 * np.pi * np.fft.fftfreq(n, d=dtau)  # fft exponent matches e^{-i delta tau}
    order = np.argsort(freqs)
    vals = np.interp(delta_grid, freqs[order], 2.0 * np.real(amp)[order])
    # a looser rule than make_spectrum's, since the FFT is off by up to 2.4e-4 of the peak: negativity
    # down to 1e-3 of the peak is clipped here, and only more raises
    if vals.min() < -1e-3 * vals.max():
        raise ValueError(f"FFT spectrum negativity {vals.min():.3e} exceeds 1e-3 of peak {vals.max():.3e}")
    return make_spectrum(delta_grid, np.clip(vals, 0.0, None))


# --------------------------------------------------------------------------
# closed-form rate decomposition of the time-local generator: a reference
# construction that br_induced_generator is checked against
# --------------------------------------------------------------------------


def ramp(kappa: float, nu, t):
    """int_0^t exp((-kappa + i nu) s) ds, vectorized over both arguments."""
    nu = np.asarray(nu, dtype=float)
    t = np.asarray(t, dtype=float)
    return (1.0 - np.exp((-kappa + 1j * nu) * t)) / (kappa - 1j * nu)


_D_MINUS = lindblad_dissipator(SIGMA_MINUS)
_D_PLUS = lindblad_dissipator(SIGMA_PLUS)
_S_MINUS = squeeze_dissipator(SIGMA_MINUS)
_S_PLUS = squeeze_dissipator(SIGMA_PLUS)
_EXCITED_PROJ = SIGMA_PLUS @ SIGMA_MINUS
_GROUND_PROJ = SIGMA_MINUS @ SIGMA_PLUS


@dataclass(frozen=True)
class ThermalRates:
    """Time-dependent frequency shift and decay rate of the thermal bath.

    These multiply the fixed dissipator pattern -i d(t) [(n+1) s+s- - n s-s+, .]
    + g(t) ((n+1) D[s-] + n D[s+]); their t -> infinity limits times (2n+1)
    give the Markov-limit Lamb shift and linewidth.
    """

    delta_eff: np.ndarray
    gamma_eff: np.ndarray


@dataclass(frozen=True)
class SqueezedRates:
    """Time-dependent rates of the squeezed bath's five-generator split.

    gamma_mm multiplies the coherence-coupling term on sigma_minus and equals
    the conjugate of gamma_pp at all times.
    """

    gamma_mp: np.ndarray
    gamma_pm: np.ndarray
    gamma_mm: np.ndarray
    gamma_pp: np.ndarray
    delta_pm: np.ndarray
    delta_mp: np.ndarray


def br_rates_thermal(p: ThermalBathParams, t) -> ThermalRates:
    """Running-integral rates of the thermal bath; both vanish at t = 0."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("rates are defined for t >= 0")
    e = p.g**2 * ramp(p.kappa, -p.delta, t)
    return ThermalRates(delta_eff=-np.imag(e), gamma_eff=np.real(e))


def br_rates_squeezed(
    p: SqueezedBathParams, t, include_sum_frequency: bool = False
) -> SqueezedRates:
    """Running-integral rates of the squeezed bath.

    Sum-frequency contributions are dropped by default; including them folds
    the rapidly rotating pole at the qubit-cavity sum frequency into the same
    rate pattern.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("rates are defined for t >= 0")
    b = bogoliubov_params(p)
    mbc = np.conj(b.mbar)
    e_diff = ramp(p.kappa, -b.delta_diff, t)
    z_mp = ((b.nbar + 1) * b.g1**2 + mbc * b.g1 * b.g2) * e_diff
    z_pm = (b.nbar * b.g1**2 + mbc * b.g1 * b.g2) * e_diff
    gamma_pp = (mbc * b.g2**2 + 0.5 * (2 * b.nbar + 1) * b.g1 * b.g2) * e_diff
    if include_sum_frequency:
        e_sum = ramp(p.kappa, -b.sigma_sum, t)
        z_mp = z_mp + (b.g1 * b.g2 * b.mbar + b.g2**2 * b.nbar) * e_sum
        z_pm = z_pm + (b.g1 * b.g2 * b.mbar + b.g2**2 * (b.nbar + 1)) * e_sum
        gamma_pp = gamma_pp + (b.g1**2 * b.mbar + 0.5 * (2 * b.nbar + 1) * b.g1 * b.g2) * e_sum
    return SqueezedRates(
        gamma_mp=np.real(z_mp),
        gamma_pm=np.real(z_pm),
        gamma_mm=np.conj(gamma_pp),
        gamma_pp=gamma_pp,
        delta_pm=-np.imag(z_mp),
        delta_mp=-np.imag(z_pm),
    )


def rates_generator_thermal(p: ThermalBathParams, rates: ThermalRates) -> np.ndarray:
    """Assemble the induced generator from thermal rates."""
    h = (p.nbar + 1) * _EXCITED_PROJ - p.nbar * _GROUND_PROJ
    comm = commutator_superop(h)
    diss = (p.nbar + 1) * _D_MINUS + p.nbar * _D_PLUS
    return float(rates.delta_eff) * comm + float(rates.gamma_eff) * diss


def rates_generator_squeezed(rates: SqueezedRates) -> np.ndarray:
    """Assemble the induced generator from squeezed rates."""
    h = float(rates.delta_pm) * _EXCITED_PROJ - float(rates.delta_mp) * _GROUND_PROJ
    gen = commutator_superop(h)
    gen = gen + float(np.real(rates.gamma_mp)) * _D_MINUS + float(np.real(rates.gamma_pm)) * _D_PLUS
    gen = gen + complex(rates.gamma_mm) * _S_MINUS + complex(rates.gamma_pp) * _S_PLUS
    return gen
