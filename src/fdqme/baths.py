"""Memory kernels and closed-form spectra for the engineered cavity baths.

Two baths are provided: a thermal cavity (heating/cooling dissipators keep it
at occupation nbar) and a squeezed cavity (two-photon drive in the frame
rotating at half the pump frequency).  Every kernel entry is a finite sum of
decaying exponentials c * exp(-kappa t) * exp(i mu t), so both the time-domain
matrix and its one-sided Fourier transform c / (kappa + i (omega - mu)) come
from one mode table.  Frequency arguments named ``delta`` are measured from
the qubit frequency, the bath's ``omega_ref``; bare transform variables are
named ``omega``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .liouville import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    _sorted_unique,
    commutator_superop,
    expm,
    left_multiplier,
    right_multiplier,
)

__all__ = [
    "ThermalBathParams",
    "SqueezedBathParams",
    "BogoliubovParams",
    "EffectiveRates",
    "KernelModes",
    "bogoliubov_params",
    "kernel_modes",
    "free_liouvillian",
    "thermal_kernel_time",
    "thermal_kernel_freq",
    "squeezed_kernel_time",
    "squeezed_kernel_freq",
    "generic_kernel_time",
    "effective_rates",
    "markovian_spectrum",
    "thermal_closed_spectrum",
    "squeezed_closed_spectrum",
    "default_frequency_grid",
]


def _require_finite(params):
    """Raise a ValueError naming the first field of a parameter dataclass that is not finite."""
    for f in fields(params):
        if not np.isfinite(getattr(params, f.name)):
            raise ValueError(f"{f.name} must be finite, got {getattr(params, f.name)}")


@dataclass(frozen=True)
class ThermalBathParams:
    """Qubit coupled to a lossy cavity held in a thermal state.

    All rates share one arbitrary frequency unit; inputs quoted in units of
    the coupling correspond to g = 1.  ``omega_ref`` (omega_q, the lab) is the
    frame of U[omega] and the zero of the detuning axis; ``features`` are the
    detunings where the kernel's poles put side features (the cavity, -delta).
    """

    g: float
    omega_q: float
    omega_c: float
    kappa: float
    nbar: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        if self.g <= 0 or self.kappa <= 0:
            raise ValueError("g and kappa must be positive")
        if self.nbar < 0:
            raise ValueError("nbar must be nonnegative")

    @property
    def delta(self) -> float:
        """Qubit-cavity detuning omega_q - omega_c."""
        return self.omega_q - self.omega_c

    @property
    def omega_ref(self) -> float:
        return self.omega_q

    @property
    def features(self) -> tuple[float, ...]:
        return (-self.delta,)


@dataclass(frozen=True)
class SqueezedBathParams:
    """Qubit coupled to a lossy cavity under a two-photon drive.

    Detunings are measured from half the pump frequency; r is the squeezing
    strength and must satisfy r < |delta_c| for the drive to be stable.
    ``omega_ref`` (delta_q) and ``features`` (-delta_diff and -sigma_sum of
    ``bogoliubov_params``) mean what they do for ``ThermalBathParams``.
    """

    g: float
    delta_q: float
    delta_c: float
    r: float
    kappa: float

    def __post_init__(self):
        _require_finite(self)
        if self.g <= 0 or self.kappa <= 0:
            raise ValueError("g and kappa must be positive")
        if not 0 <= self.r < abs(self.delta_c):
            raise ValueError(f"require 0 <= r < |delta_c|, got r={self.r}, delta_c={self.delta_c}")

    @property
    def omega_ref(self) -> float:
        return self.delta_q

    @property
    def features(self) -> tuple[float, ...]:
        b = bogoliubov_params(self)
        return (-b.delta_diff, -b.sigma_sum)


@dataclass(frozen=True)
class BogoliubovParams:
    """Derived quantities of the transform that diagonalizes the driven cavity."""

    zeta: float
    delta_c_eff: float
    g1: float
    g2: float
    nbar: float
    mbar: complex
    delta_diff: float
    sigma_sum: float


@dataclass(frozen=True)
class EffectiveRates:
    """Markov-limit Lamb shift and decay rate of the qubit."""

    delta_eff: float
    gamma_eff: float


def bogoliubov_params(p: SqueezedBathParams) -> BogoliubovParams:
    """Transform parameters of the squeezed cavity.

    zeta is the squeeze angle, delta_c_eff the diagonalized cavity frequency,
    g1/g2 the rotating/counter-rotating couplings (g2 = -g sinh zeta), and
    nbar/mbar the steady-state occupation and two-photon coherence of the
    transformed mode.
    """
    _cavity_bath(p, SqueezedBathParams)
    zeta = 0.5 * np.arctanh(p.r / p.delta_c)
    delta_c_eff = float(np.sqrt(p.delta_c**2 - p.r**2))
    g1 = p.g * float(np.cosh(zeta))
    g2 = -p.g * float(np.sinh(zeta))
    nbar = float(np.sinh(zeta) ** 2)
    mbar = complex(p.kappa * np.sinh(2 * zeta) / (2.0 * (p.kappa + 1j * delta_c_eff)))
    return BogoliubovParams(
        zeta=float(zeta),
        delta_c_eff=delta_c_eff,
        g1=g1,
        g2=g2,
        nbar=nbar,
        mbar=mbar,
        delta_diff=p.delta_q - delta_c_eff,
        sigma_sum=p.delta_q + delta_c_eff,
    )


# --------------------------------------------------------------------------
# mode tables
# --------------------------------------------------------------------------

THERMAL_STRUCTURE = frozenset([(0, 0), (0, 3), (1, 1), (2, 2), (3, 0), (3, 3)])
SQUEEZED_STRUCTURE = THERMAL_STRUCTURE | frozenset([(1, 2), (2, 1)])
# time samples per block in KernelModes.time_matrix
_TIME_BLOCK_ROWS = 4096


def _kernel_times(t) -> np.ndarray:
    """Kernel times as a float array; a non-finite or negative time raises."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("kernel times must be finite")
    if np.any(t < 0):
        raise ValueError("kernel is defined for t >= 0 only")
    return t


@dataclass(frozen=True, eq=False)
class KernelModes:
    """Exponential-mode table of a 4x4 memory kernel.

    Mode k has frequency ``mus[k]`` and coefficient matrix ``coef[k]``: the
    kernel is sum_k coef[k] exp((-kappa + i mus[k]) t) in time and
    sum_k coef[k] / (kappa + i (omega - mus[k])) in frequency.  ``mus`` holds
    distinct values in increasing order.  ``omega_ref`` is the qubit
    frequency that defines the detuning convention delta = omega - omega_ref
    and the free-rotation phases used by the time-local reduction.
    """

    kappa: float
    omega_ref: float
    mus: np.ndarray  # (n,)
    coef: np.ndarray  # (n, 4, 4) complex

    def time_matrix(self, t) -> np.ndarray:
        """Kernel matrix at finite time(s) t >= 0; shape (..., 4, 4).

        Modes at +mu and -mu share cos(mu t) and sin(mu t): with C+ and C-
        their coefficients (zero where a mode has no partner), the kernel is
        exp(-kappa t) sum over distinct |mu| of cos(|mu| t) (C+ + C-) +
        sin(|mu| t) i (C+ - C-).  Both come from one tangent of the half
        phase, u = tan(|mu| t / 2): cos = (1 - u^2) w and sin = 2 u w with
        w = 1 / (1 + u^2), and the factor 2 sits in the sine rows of the
        table.  Per time sample that is one exp and one tan per distinct
        |mu|, and one real matrix product of the weighted [1 - u^2 | u] row
        against the table, read as interleaved re/im.  At t = 0 the row is
        exactly [1 | 0].  A phase |mu| t that overflows raises.
        """
        t = _kernel_times(t)
        freqs, pair = np.unique(np.abs(self.mus), return_inverse=True)
        h = freqs.size
        flat = t.reshape(-1)
        t_max = float(flat.max(initial=0.0))
        if not np.isfinite(float(freqs.max(initial=0.0)) * t_max):
            raise ValueError(f"kernel phase mu t overflows at t={t_max}")
        coef = self.coef.reshape(-1, 16)
        # rows [C+ + C-; 2i (C+ - C-)] per distinct |mu|; a mu = 0 mode has no sine row
        table = np.zeros((2 * h, 16), dtype=complex)
        np.add.at(table, pair, coef)
        np.add.at(table, h + pair, 2j * np.sign(self.mus)[:, None] * coef)
        table_re_im = table.view(float)
        half = 0.5 * freqs
        out = np.empty((flat.size, 16), dtype=complex)
        out_re_im = out.view(float)
        # one row per trigonometric column, so each ufunc runs over contiguous memory;
        # row blocks keep the buffers small next to the result
        n = min(flat.size, _TIME_BLOCK_ROWS)
        trig, weight = np.empty((2 * h, n)), np.empty((h, n))
        for start in range(0, flat.size, _TIME_BLOCK_ROWS):
            rows = slice(start, start + _TIME_BLOCK_ROWS)
            ts = flat[rows]
            buf, w = trig[:, : ts.size], weight[:, : ts.size]
            cos, sin = buf[:h], buf[h:]
            np.multiply.outer(half, ts, out=sin)
            np.tan(sin, out=sin)
            np.square(sin, out=cos)
            np.add(cos, 1.0, out=w)
            # kappa t may overflow where mu t does not: the decay is then exactly 0
            with np.errstate(over="ignore"):
                decay = np.exp(-self.kappa * ts)
            np.divide(decay, w, out=w)
            np.subtract(1.0, cos, out=cos)
            cos *= w
            sin *= w
            np.matmul(buf.T, table_re_im, out=out_re_im[rows])
        return out.reshape(t.shape + (4, 4))

    def freq_matrix(self, omega, block=(0, 1, 2, 3)) -> np.ndarray:
        """One-sided transform of the kernel at transform variable(s) omega.

        Only the ``block`` x ``block`` entries (sorted indices; all by
        default) are formed; shape (..., len(block), len(block)).  Their
        columns of the table are copied C-contiguous: a strided view would
        leave BLAS for numpy's own loop, whose sums differ from the full
        product's in the last bit.
        """
        omega = np.asarray(omega, dtype=float)
        block = np.asarray(block, dtype=int)
        coef = np.ascontiguousarray(self.coef.reshape(-1, 16)[:, (4 * block[:, None] + block).ravel()])
        poles = 1.0 / (self.kappa + 1j * np.subtract.outer(omega, self.mus))
        return (poles @ coef).reshape(omega.shape + (block.size, block.size))

    def pole_frequencies(self) -> np.ndarray:
        """Complex omega poles mu + i kappa of all modes (upper half plane)."""
        return self.mus + 1j * self.kappa


def _mode_table(kappa: float, omega_ref: float, entries) -> KernelModes:
    """Fold per-entry ((i, j), ((c, mu), ...)) lists into one dense table."""
    mus = sorted({mu for _, modes in entries for _, mu in modes})
    index = {mu: k for k, mu in enumerate(mus)}
    coef = np.zeros((len(mus), 4, 4), dtype=complex)
    for (i, j), modes in entries:
        for c, mu in modes:
            coef[index[mu], i, j] += c
    mus = np.array(mus, dtype=float)
    mus.setflags(write=False)
    coef.setflags(write=False)
    return KernelModes(kappa=kappa, omega_ref=omega_ref, mus=mus, coef=coef)


def _conj_transform_modes(modes):
    """Modes of the one-sided transform of the conjugated time function."""
    return tuple((np.conj(c), -mu) for c, mu in modes)


def _thermal_modes(p: ThermalBathParams) -> KernelModes:
    _cavity_bath(p, ThermalBathParams)
    g2, nb = p.g**2, p.nbar
    delta = p.delta
    k11 = ((-nb * g2, delta), (-nb * g2, -delta))
    k44 = ((-(nb + 1) * g2, delta), (-(nb + 1) * g2, -delta))
    k22 = ((-(2 * nb + 1) * g2, p.omega_c),)
    entries = (
        ((0, 0), k11),
        ((3, 3), k44),
        ((0, 3), tuple((-c, mu) for c, mu in k44)),
        ((3, 0), tuple((-c, mu) for c, mu in k11)),
        ((1, 1), k22),
        ((2, 2), _conj_transform_modes(k22)),
    )
    return _mode_table(p.kappa, p.omega_ref, entries)


def _squeezed_modes(p: SqueezedBathParams, include_sum_frequency: bool = True) -> KernelModes:
    b = bogoliubov_params(p)
    g1, g2, nb, mb = b.g1, b.g2, b.nbar, b.mbar
    dc, dd, ss = b.delta_c_eff, b.delta_diff, b.sigma_sum
    two_n1 = 2 * nb + 1

    # coherence sector; poles at the diagonalized cavity frequency +/- dc
    k22 = [(-(2 * g1 * g2 * np.conj(mb) + g1**2 * two_n1), dc)]
    k32 = [((2 * g2**2 * np.conj(mb) + g1 * g2 * two_n1), dc)]
    if include_sum_frequency:
        k22.append((-(2 * g1 * g2 * mb + g2**2 * two_n1), -dc))
        k32.append(((2 * g1**2 * mb + g1 * g2 * two_n1), -dc))

    # population sector; difference- and sum-frequency modes
    def _pop(n_diff, n_sum):
        modes = [
            (-g1 * g2 * mb, dd),
            (-g1 * g2 * np.conj(mb), -dd),
            (-g1**2 * n_diff, dd),
            (-g1**2 * n_diff, -dd),
        ]
        if include_sum_frequency:
            modes += [
                (-g1 * g2 * np.conj(mb), ss),
                (-g1 * g2 * mb, -ss),
                (-g2**2 * n_sum, ss),
                (-g2**2 * n_sum, -ss),
            ]
        return tuple(modes)

    k11 = _pop(nb, nb + 1)
    k44 = _pop(nb + 1, nb)
    entries = (
        ((0, 0), k11),
        ((3, 3), k44),
        ((0, 3), tuple((-c, mu) for c, mu in k44)),
        ((3, 0), tuple((-c, mu) for c, mu in k11)),
        ((1, 1), tuple(k22)),
        ((2, 2), _conj_transform_modes(k22)),
        ((2, 1), tuple(k32)),
        ((1, 2), _conj_transform_modes(k32)),
    )
    return _mode_table(p.kappa, p.omega_ref, entries)


def _cavity_bath(p, *kinds):
    """p if it is one of ``kinds``, by default either cavity bath; else the TypeError of every bath entry point."""
    if not isinstance(p, kinds or (ThermalBathParams, SqueezedBathParams)):
        raise TypeError(f"unsupported bath parameters: {type(p).__name__}")
    return p


def kernel_modes(p, include_sum_frequency: bool = True) -> KernelModes:
    """Mode table for either bath type."""
    if isinstance(_cavity_bath(p), ThermalBathParams):
        return _thermal_modes(p)
    return _squeezed_modes(p, include_sum_frequency)


def free_liouvillian(p) -> np.ndarray:
    """Free qubit Liouvillian diag(0, i w, -i w, 0) of either bath in its frame w = ``p.omega_ref``."""
    return commutator_superop(-(_cavity_bath(p).omega_ref / 2.0) * SIGMA_Z)


def thermal_kernel_time(p: ThermalBathParams, t) -> np.ndarray:
    """Thermal memory kernel at time(s) t; heating (1,1), cooling (4,4)."""
    return _thermal_modes(p).time_matrix(t)


def thermal_kernel_freq(p: ThermalBathParams, delta) -> np.ndarray:
    """Thermal kernel transform at detuning(s) delta from the qubit frequency."""
    return _thermal_modes(p).freq_matrix(np.asarray(delta) + p.omega_ref)


def squeezed_kernel_time(p: SqueezedBathParams, t, include_sum_frequency: bool = True) -> np.ndarray:
    """Squeezed-cavity kernel at time(s) t, including the coherence coupling."""
    return _squeezed_modes(p, include_sum_frequency).time_matrix(t)


def squeezed_kernel_freq(p: SqueezedBathParams, delta, include_sum_frequency: bool = True) -> np.ndarray:
    """Squeezed-cavity kernel transform at detuning(s) delta from delta_q."""
    return _squeezed_modes(p, include_sum_frequency).freq_matrix(np.asarray(delta) + p.omega_ref)


# --------------------------------------------------------------------------
# independent construction from bath-superoperator modes
# --------------------------------------------------------------------------

# largest kappa t generic_kernel_time accepts: above the tests' 8, below the 11.75 where
# moderate and squeezed baths first leave 1e-9 (see its docstring)
GENERIC_KAPPA_T_MAX = 10.0

_SIGMA_SUPEROPS = np.stack(
    [
        left_multiplier(SIGMA_PLUS),
        left_multiplier(SIGMA_MINUS),
        right_multiplier(SIGMA_MINUS),
        right_multiplier(SIGMA_PLUS),
    ]
)


def _mode_matrix(nbar: float, mbar: complex, kappa: float, omega_b: float) -> np.ndarray:
    """Adjoint action of the bath Liouvillian on (a., a^dag., .a^dag, .a)."""
    c = (kappa + 1j * omega_b) * mbar
    k = kappa
    return np.array(
        [
            [1j * omega_b + (2 * nbar + 1) * k, -2 * c, 2 * c, -2 * nbar * k],
            [2 * c, -1j * omega_b - (2 * nbar + 1) * k, 2 * (nbar + 1) * k, -2 * c],
            [2 * c, -2 * nbar * k, -1j * omega_b + (2 * nbar + 1) * k, -2 * c],
            [2 * (nbar + 1) * k, -2 * c, 2 * c, 1j * omega_b - (2 * nbar + 1) * k],
        ],
        dtype=complex,
    )


def _correlator_matrix(nbar: float, mbar: complex) -> np.ndarray:
    """Steady-state bath correlators Tr_B[A A^T rho_ss], same operator order."""
    n, m = nbar, mbar
    return np.array(
        [
            [m, n + 1, n, m],
            [n, np.conj(m), np.conj(m), n + 1],
            [n, np.conj(m), np.conj(m), n + 1],
            [m, n + 1, n, m],
        ],
        dtype=complex,
    )


def _coupling_matrix(g1: float, g2: float) -> np.ndarray:
    G = np.zeros((4, 4), dtype=complex)
    G[0, 0] = G[1, 1] = g1
    G[0, 1] = G[1, 0] = g2
    G[2, 2] = G[3, 3] = -g1
    G[2, 3] = G[3, 2] = -g2
    return G


def generic_kernel_time(p, t) -> np.ndarray:
    """Memory kernel from the bath-superoperator mode equations.

    This route never uses the per-entry closed forms: it exponentiates the
    4x4 adjoint-action matrix of the cavity superoperators and contracts with
    the steady-state correlator matrix, so it cross-checks every coefficient
    of the mode tables.  Both exponentials at all times are one stacked
    ``liouville.expm``, followed by one contraction; shape (..., 4, 4) for
    finite t >= 0.

    The contraction cancels adjoint modes that grow as exp(+kappa t), so its
    absolute error grows like eps exp(kappa t) times the carrier scale.
    Against the mode tables (150 draws per family, g = 1, kappa 5-20) it
    stays within 1e-9 below kappa t = 12.25 for thermal baths with carriers
    of 50-300 and for squeezed baths, with a worst error of 1.0e-10 at
    kappa t = 10; lab-frame thermal baths (carrier 2e5, nbar > 0) leave
    1e-9 from kappa t = 5.5 and reach 9.7e-8 at kappa t = 10.  At
    kappa t = 100 the result is about 1e23-1e31 where the kernel is about
    1e-44.  So times with kappa t > GENERIC_KAPPA_T_MAX raise, as does a
    non-finite result.
    """
    if isinstance(_cavity_bath(p), SqueezedBathParams):
        b = bogoliubov_params(p)
        g1, g2, nbar, mbar, omega_b = b.g1, b.g2, b.nbar, b.mbar, b.delta_c_eff
    else:
        g1, g2, nbar, mbar, omega_b = p.g, 0.0, p.nbar, 0.0 + 0.0j, p.omega_c
    t = _kernel_times(t)
    t_max = float(t.max(initial=0.0))
    if p.kappa * t_max > GENERIC_KAPPA_T_MAX:
        raise ValueError(f"generic_kernel_time is trusted for kappa t <= {GENERIC_KAPPA_T_MAX} only, "
                         f"got kappa t = {p.kappa * t_max:.6g} at t={t_max}")
    flat = t.reshape(-1, 1, 1)
    M = _mode_matrix(nbar, mbar, p.kappa, omega_b)
    G = _coupling_matrix(g1, g2)
    l_s = free_liouvillian(p)
    # an overflow or NaN here is reported by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        e_m, e_ls = np.split(expm(np.concatenate([M.T * flat, l_s * flat])), 2)
        west = G @ _correlator_matrix(nbar, mbar) @ e_m @ G
        # sum_ij west[i, j] S_i e_ls S_j over the stacked superoperators S
        out = -np.einsum("nij,niac,jcd->nad", west, _SIGMA_SUPEROPS @ e_ls[:, None], _SIGMA_SUPEROPS)
    if not np.all(np.isfinite(out)):
        raise ValueError("generic_kernel_time is not finite")
    return out.reshape(t.shape + (4, 4))


# --------------------------------------------------------------------------
# closed-form spectra
# --------------------------------------------------------------------------


def _k22_delta(modes: KernelModes, delta):
    """Coherence-sector entry of a mode table's kernel as a function of detuning."""
    live = modes.coef[:, 1, 1] != 0
    omega = np.asarray(delta, dtype=float) + modes.omega_ref
    # one row per contributing mode; a sum over rows is cheaper than a matmul
    # against a column of length one or two
    c = modes.coef[live, 1, 1].reshape((-1,) + (1,) * omega.ndim)
    return (c / (modes.kappa - 1j * np.subtract.outer(modes.mus[live], omega))).sum(axis=0)


def _rates(modes: KernelModes) -> EffectiveRates:
    """``effective_rates`` of a mode table."""
    k0 = complex(_k22_delta(modes, 0.0))
    return EffectiveRates(delta_eff=k0.imag, gamma_eff=-k0.real)


def effective_rates(p) -> EffectiveRates:
    """Markov-limit rates: delta_eff = Im K22[0], gamma_eff = -Re K22[0]."""
    return _rates(kernel_modes(p))


def markovian_spectrum(p, delta) -> np.ndarray:
    """Unit-area Lorentzian emission line of the Markov-limit master equation.

    Its width and shift come from the coherence entry K22[0] alone.  For the
    squeezed bath the frozen generator also couples the two coherences
    (K12/K21), which this line leaves out: the spectrum of
    ``squeezed_propagator(p, markov=True)`` differs from it by 4.7e-6 of the
    peak at r = 115, delta_c = 320, and by 4e-16 with that coupling zeroed.
    """
    rates = effective_rates(p)
    if rates.gamma_eff <= 0:
        raise ValueError(f"gamma_eff must be positive, got {rates.gamma_eff}")
    delta = np.asarray(delta, dtype=float)
    return (rates.gamma_eff / np.pi) / ((delta - rates.delta_eff) ** 2 + rates.gamma_eff**2)


def _thermal_line(modes: KernelModes, delta: np.ndarray) -> np.ndarray:
    """``thermal_closed_spectrum`` of a mode table."""
    k22 = _k22_delta(modes, delta)
    width = -np.real(k22)
    center = np.imag(k22)
    return (width / np.pi) / ((delta - center) ** 2 + width**2)


def _squeezed_line(modes: KernelModes, delta: np.ndarray) -> np.ndarray:
    """``squeezed_closed_spectrum`` of a mode table."""
    dq = modes.omega_ref
    # the coherence block (entries 1 and 2), bit-identical to those of the full matrix
    mat = modes.freq_matrix(delta + dq, block=(1, 2))
    b = 1j * (delta + 2 * dq) - mat[..., 1, 1]
    a = 1j * delta - mat[..., 0, 0] - mat[..., 1, 0] * mat[..., 0, 1] / b
    return 2.0 * np.real(1.0 / a) / (2.0 * np.pi)


def thermal_closed_spectrum(p: ThermalBathParams, delta) -> np.ndarray:
    """Steady-state emission density of the thermal bath, unit area.

    The line is a nested Lorentzian: width -Re K22[delta] and center
    Im K22[delta] are themselves frequency dependent.
    """
    return _thermal_line(kernel_modes(_cavity_bath(p, ThermalBathParams)), np.asarray(delta, dtype=float))


def squeezed_closed_spectrum(p: SqueezedBathParams, delta) -> np.ndarray:
    """Steady-state emission density of the squeezed bath, unit area.

    The nested Lorentzian with the squeezed K22, corrected for the coherence
    coupling by the product of the (3,2) kernel transform and the transform
    of its conjugated time function (which is not |K32|^2).
    """
    return _squeezed_line(kernel_modes(_cavity_bath(p, SqueezedBathParams)), np.asarray(delta, dtype=float))


# --------------------------------------------------------------------------
# grids
# --------------------------------------------------------------------------


def default_frequency_grid(p) -> np.ndarray:
    """Symmetric detuning grid, densified around the emission features.

    Covers +/- (the sum of |``p.features``| + 40 kappa) with 2**14 uniform
    points, plus a fine window around the central line (scale gamma_eff)
    with logarithmic shoulders out to the grid edge, and a fine window
    around each of ``p.features`` (scale kappa).  The shoulders keep the
    trapezoid rule accurate on the 1/x^2 Lorentzian wings even when
    gamma_eff is orders of magnitude below the base spacing.
    """
    rates = effective_rates(p)
    features = p.features
    span = sum(abs(f) for f in features) + 40 * p.kappa
    base = np.linspace(-span, span, 2**14)
    core_halfwidth = 30 * rates.gamma_eff
    fine = [rates.delta_eff + np.linspace(-core_halfwidth, core_halfwidth, 2001)]
    decades = np.log10(2.0 * span / core_halfwidth)
    if decades > 0:
        shoulder = np.geomspace(core_halfwidth, 2.0 * span, int(96 * decades) + 2)
        fine.append(rates.delta_eff + shoulder)
        fine.append(rates.delta_eff - shoulder)
    for f in features:
        fine.append(np.linspace(f - 6 * p.kappa, f + 6 * p.kappa, 1201))
    grid = _sorted_unique(np.concatenate([base] + fine))
    return grid[(grid >= -span) & (grid <= span)]
