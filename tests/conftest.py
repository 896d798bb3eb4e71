"""Shared numeric oracles for the test suite."""

import numpy as np
from scipy.integrate import simpson, solve_ivp

from fdqme.baths import kernel_modes
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
