"""Shared numeric oracles for the test suite."""

import numpy as np
from scipy.integrate import simpson, solve_ivp

from fdqme.baths import SqueezedBathParams, ThermalBathParams, kernel_modes
from fdqme.liouville import SIGMA_MINUS, SIGMA_PLUS, SIGMA_Z, annihilation
from fdqme.redfield import free_liouvillian


def one_sided_transform(time_fn, omega, kappa, points_per_period: int = 80):
    """Brute-force one-sided Fourier transform on a dense Simpson grid.

    Truncates at 40 decay times (envelope ~ 4e-18) and resolves the fastest
    oscillation of the product with at least ``points_per_period`` samples.
    """
    upper = 40.0 / kappa
    fastest = max(abs(omega), kappa) + kappa
    n = int(np.ceil(points_per_period * fastest * upper / (2 * np.pi))) | 1
    n = max(n, 20001)
    ts = np.linspace(0.0, upper, n)
    integrand = time_fn(ts) * np.exp(-1j * omega * ts)
    return complex(simpson(integrand, x=ts))



def br_reference(p, rho0, t_grid, include_sum_frequency=False):
    """Time-local trajectory from scipy's DOP853 at rtol 1e-13, atol 1e-15.

    The generator is the free Liouvillian plus the running kernel integral
    int_0^t K(s) e^{-Ls s} ds, mode by mode, with the state prepared at t = 0.
    """
    free = free_liouvillian(p)
    modes = kernel_modes(p, include_sum_frequency)
    # under e^{-Ls s} the columns of the kernel rotate at 0, -omega_ref, +omega_ref, 0
    rate = -modes.kappa + 1j * (modes.mus[:, None] + modes.omega_ref * np.array([0.0, -1.0, 1.0, 0.0]))

    def rhs(t, y):
        return (free + np.einsum("kij,kj->ij", modes.coef, (np.exp(rate * t) - 1.0) / rate)) @ y

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
