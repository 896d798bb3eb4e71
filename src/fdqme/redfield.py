"""Time-local master equations with time-dependent induced rates.

The time-local (Born-Redfield style) generator is the running integral of the
memory kernel against the free back-rotation, L2(t) = int_0^t K(s) e^{-Ls s}
ds.  Because every kernel entry is a sum of decaying exponentials the
integral is analytic, and freezing it at t -> infinity gives the
Born-Markov generator.  Unlike the frequency-domain route these generators
erase the history of the system state, which shifts the non-Markovian side
peak and, for the squeezed bath, can transiently break positivity.

Both trajectories start from the state prepared at t = 0, where the running
integral starts.  The Born-Redfield equation is linear, y' = A(t) y, so every
DOP853 stage, step, error estimate and dense-output coefficient is a matrix
that depends on (t, h) only.  br_evolve keeps only the exact blocks of A that
hold the initial state (the other components stay exactly 0) and integrates
in the frame of the Markov generator G_inf = A(infinity): in its
eigencomponents, turned back by their frequencies, z = e^{-i Im(Lambda) t}
V^-1 y.  There no constant mixing or rotation is left, only the real decay
rates Re Lambda and the transients, which decay like e^{-kappa t}, so the
steps follow the bath and grow as it relaxes.  Where G_inf is not finite or
nearly defective, the frame is that of the free phases (V = I, the imaginary
diagonal of the free Liouvillian).  It builds the step matrices for a window
of equal steps as elementwise products of blocks stored stage-major, and
propagates y by their prefix products.

The runs from the ground and the excited state stay on the population
block, whose generator has zero column sums, so their trace distance is the
determinant of that block's propagator.  br_ge_distance evaluates it by
Abel's identity, D(t) = exp(int_0^t tr A_pop(s) ds), in closed form: no
integration at all.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .baths import ThermalBathParams, _cavity_bath, effective_rates, free_liouvillian, kernel_modes
from .fdme import Spectrum, make_spectrum
from .liouville import _coupled_blocks, _density_vector, _modal_evolution

__all__ = [
    "Trajectory",
    "br_induced_generator",
    "bm_induced_generator",
    "br_evolve",
    "br_ge_distance",
    "bm_evolve",
    "br_spectrum",
]

TRAJECTORY_TOL = 1e-8
# relative and absolute error tolerances of the DOP853 step control in br_evolve
ODE_RTOL, ODE_ATOL = 1e-10, 1e-12


@dataclass(frozen=True)
class Trajectory:
    """Density-matrix history on a time grid, stored vectorized.

    Building one checks unit trace and Hermiticity at the output times only
    (beyond TRAJECTORY_TOL it raises ValueError); the integrator checks
    neither per step.  Positivity is deliberately not checked (its violation
    is a measured output of the time-local equations).  ``diagnostics``
    holds the integrator's counts (from br_evolve: accepted steps, rejected
    steps and windows); no output file records them.
    """

    times: np.ndarray
    states: np.ndarray  # (n_times, 4)
    diagnostics: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=complex)
        if times.ndim != 1 or not (np.all(np.isfinite(times)) and np.all(np.diff(times) > 0)):
            raise ValueError("times must be finite and strictly increasing")
        if states.shape != (times.size, 4):
            raise ValueError(f"states shape {states.shape} does not match times")
        traces = states[:, 0] + states[:, 3]
        if not np.all(np.abs(traces - 1.0) <= TRAJECTORY_TOL):  # NaN fails too
            raise ValueError("trajectory loses unit trace beyond 1e-8")
        herm = np.abs(np.stack([states[:, 1] - states[:, 2].conj(), states[:, 0].imag, states[:, 3].imag]))
        if not np.all(herm <= TRAJECTORY_TOL):
            raise ValueError("trajectory loses Hermiticity beyond 1e-8")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    def purities(self) -> np.ndarray:
        mats = self.states.reshape(-1, 2, 2)
        return np.real(np.einsum("nij,nji->n", mats, mats))

    def excited_population(self) -> np.ndarray:
        return np.real(self.states[:, 3])


def _time_grid(t_grid) -> np.ndarray:
    """t_grid as a float array, checked: 1-d, nonempty, finite, nonnegative and increasing."""
    t_grid = np.asarray(t_grid, dtype=float)
    ok = t_grid.ndim == 1 and t_grid.size > 0 and np.all(np.isfinite(t_grid) & (t_grid >= 0))
    if not (ok and np.all(np.diff(t_grid) > 0)):
        raise ValueError("t_grid must be a 1-d array of increasing nonnegative times, all finite")
    return t_grid


def _column_nus(modes):
    """Frequency of each (mode, column) pair of a mode table under e^{-Ls s}."""
    # columns rotate with the free phases (0, -w, +w, 0) under e^{-Ls s}
    return modes.mus[:, None] + np.array([0.0, -modes.omega_ref, modes.omega_ref, 0.0])


def _running_generator(p, include_sum_frequency):
    """Rates lambda, residues E and G_inf of A(t) = G_inf - sum E e^{lambda t}, per (mode, column).

    L2(t) = sum over (mode, column) of E (1 - e^{lambda t}) with residue
    E = coef / (kappa - i nu) and lambda = -kappa + i nu, so the generator is
    the free Liouvillian plus the residues' sum, less the decaying terms.
    """
    modes = kernel_modes(p, include_sum_frequency)
    nus = _column_nus(modes)
    residues = modes.coef / (modes.kappa - 1j * nus)[:, None, :]
    return -modes.kappa + 1j * nus, residues, free_liouvillian(p) + residues.sum(axis=0)


def br_induced_generator(p, t: float, include_sum_frequency: bool = False) -> np.ndarray:
    """Induced generator L2(t) = -sum over (mode, column) of E expm1(lambda t), from _running_generator.

    Equals the closed-form rate decomposition, which the tests keep as an
    independent reference construction.
    """
    lams, residues, _ = _running_generator(p, include_sum_frequency)
    return -np.einsum("kij,kj->ij", residues, np.expm1(lams * float(t)))


def bm_induced_generator(p, include_sum_frequency: bool = False) -> np.ndarray:
    """Markov-limit induced generator (running integral frozen at infinity)."""
    return _markov_generator(kernel_modes(p, include_sum_frequency))


def _markov_generator(modes) -> np.ndarray:
    """``bm_induced_generator`` of a mode table."""
    return np.einsum("kij,kj->ij", modes.coef, 1.0 / (modes.kappa - 1j * _column_nus(modes)))


# The DOP853 tableau (Hairer, Norsett & Wanner, II.5) with scipy.integrate.DOP853's
# coefficients, which the tests check bit for bit.  _STAGE_C holds the stage times, and
# row s of _STAGE_ROWS the weights of stage s on stages 0..s-1: rows 0-11 are the main
# stages, row 12 is the stage at t + h whose weights are B (it evaluates the new state),
# and rows 13-15 are the extra stages of the 7th-order dense output.  _ERROR holds the
# 5th- and 3rd-order error weights (E5, E3), and _DENSE the weights D of the four
# highest dense-output coefficients.
_N_STAGES = 12
_STAGE_C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571, 1.0,
    1.0, 0.1, 0.2, 0.7777777777777778
])
_STAGE_ROWS = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259),
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483, -0.2462390374708025,
     -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
     -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987),
)
_ERROR = np.array([
    [0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
     1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
     -0.022355307863886294, 0.0],
    [-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
     0.02265179219836082, 0.0],
])
_DENSE = np.array([
    [-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894],
    [10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408],
    [19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279],
    [-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564],
])


def _dop853_stage_table() -> np.ndarray:
    """Lower-triangular 16 x 16 stage coefficients of DOP853, from _STAGE_ROWS."""
    coef = np.zeros((16, 16))
    for s, row in enumerate(_STAGE_ROWS):
        coef[s, :s] = row
    return coef


_STAGE_A = _dop853_stage_table()
# speculative windows of equal steps: doubled after a fully accepted window,
# halved after a rejection
_WINDOW_MIN, _WINDOW_MAX = 32, 256
# the first step turns the fastest term of the generator by at most this many radians (or e-folds).
# On 10 baths of the positivity ranges no window is rejected with a cap up to 3.0, one a run at 4.0,
# and two a run without the cap
_FIRST_STEP_TURN = 2.5
# largest condition number of the eigenvectors (unit columns) of a block of G_inf in whose frame
# br_evolve integrates, so that ODE_RTOL times it stays within TRAJECTORY_TOL.  Over 200 draws of
# each bath range of the benchmark it is at most 2.4; 9 of 3,000 wide squeezed draws exceed it
# (largest 1.9e3, near a defective population block)
_FRAME_COND_MAX = 100.0


def _rms(v) -> float:
    """Root mean square over the 4 components of the state; those outside the held blocks are 0."""
    return float(np.linalg.norm(v)) / 2.0


def _block_product(a, b) -> np.ndarray:
    """Blockwise products a_w @ b_w, stage-major: a (..., m, m, n) and b (..., m, k, n)."""
    out = a[..., :1, :] * b[..., None, 0, :, :]
    for j in range(1, a.shape[-2]):
        out += a[..., j : j + 1, :] * b[..., None, j, :, :]
    return out


def _first_step(generator, y0, t_end, max_rate) -> float:
    """Starting step for an order-7 error estimate (Hairer, Norsett & Wanner, II.4).

    Capped at _FIRST_STEP_TURN / max_rate, with max_rate the largest |rate|
    of a term of the generator.
    """

    def rhs(t, y):  # A(t) y on the held blocks
        a = generator(np.array([t]), np.zeros(1)).reshape(y.shape + y.shape[-1:] + (1,))
        return _block_product(a, y[..., None, None])[..., 0, 0]

    scale = ODE_ATOL + np.abs(y0) * ODE_RTOL
    f0 = rhs(0.0, y0)
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end)
    d2 = _rms((rhs(h0, y0 + h0 * f0) - f0) / scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, t_end, _FIRST_STEP_TURN / max_rate if max_rate > 0 else np.inf)


def _window(generator, y, edges, h_nominal):
    """DOP853 on consecutive steps edges[w] -> edges[w+1] of y' = A(t) y.

    The held state y is (n_blocks, m): the components on each of the blocks
    of A that hold the initial state, stacked when they have one size and
    else merged into one, outside which every component stays exactly 0.
    For a linear equation every stage is a matrix M_s with k_s = M_s y.  The
    stage matrices of all steps are stored stage-major, (16, n_blocks, m, m,
    n), so a stage combination is one GEMV and a stage product m elementwise
    multiply-adds over all blocks and steps.  The propagation
    y_{w+1} = P_w y_w takes the prefix products of the step matrices P_w in
    log2 n such rounds, not n sequential mat-vecs.
    ``generator`` gives A at the stage times of steps h_nominal long; a last
    step clipped to the end time gets its own.
    Returns the states at the edges (n_blocks, m, n + 1), the error norm of
    each step (inf where not finite; its divisor counts all 4 components, as
    for the full state) and the dense-output coefficients (7, n_blocks, m, n).
    """
    n = edges.size - 1
    n_blocks, m = y.shape
    shape = (n_blocks, m, m, n)
    h = np.diff(edges)
    a_t = generator(edges[:-1], h_nominal * _STAGE_C)  # (16, n_blocks * m * m, n)
    if edges[-1] < edges[0] + h_nominal * n:
        a_t[..., -1:] = generator(edges[-2:-1], h[-1] * _STAGE_C)
    a_t *= h
    a_t = a_t.reshape((16,) + shape)
    # stage matrices times h, so a stage vector times h is mats[s] @ y
    mats = np.empty((16,) + shape, dtype=complex)
    mats[0] = a_t[0]
    for s in range(1, 16):
        step = (_STAGE_A[s, :s] @ mats[:s].reshape(s, -1)).reshape(shape)
        step.reshape(n_blocks, m * m, n)[:, :: m + 1] += 1.0  # the identity on each block
        if s == _N_STAGES:  # the stage at t + h: its step matrix maps y to y_new
            prop = step
        mats[s] = _block_product(a_t[s], step)
    # prefix products P_w ... P_0 by a Hillis-Steele scan, so y_{w+1} = P_w ... P_0 y
    k = 1
    while k < n:
        prop[..., k:] = _block_product(prop[..., k:], prop[..., :-k])
        k *= 2
    ys = np.empty((n_blocks, m, n + 1), dtype=complex)
    ys[..., 0] = y
    ys[..., 1:] = _block_product(prop, y[..., None, None])[..., 0, :]
    hk = _block_product(mats, ys[..., None, :-1])[..., 0, :]  # stage vectors times h
    scale = ODE_ATOL + np.maximum(np.abs(ys[..., :-1]), np.abs(ys[..., 1:])) * ODE_RTOL
    scaled = (_ERROR @ hk[:13].reshape(13, -1)).reshape((2,) + scale.shape) / scale
    e5, e3 = (np.abs(scaled) ** 2).sum(axis=(1, 2))
    # with h k in place of k the h of DOP853's err = h e5 / sqrt(...) cancels
    err = np.where(e5 + e3 == 0, 0.0, e5 / np.sqrt((e5 + 0.01 * e3) * 4))
    err[~(np.isfinite(err) & np.isfinite(ys[..., 1:]).all(axis=(0, 1)))] = np.inf
    dy = ys[..., 1:] - ys[..., :-1]
    hf0, hf1 = hk[0], hk[_N_STAGES]
    dense = np.concatenate(
        [dy[None], (hf0 - dy)[None], (2 * dy - (hf1 + hf0))[None],
         (_DENSE @ hk.reshape(16, -1)).reshape((4,) + dy.shape)],
    )
    return ys, err, dense


def _dense_weights(x):
    """Weights of the seven DOP853 dense-output coefficients at fractions x of a step."""
    x, u = x[:, None], 1.0 - x[:, None]
    return x ** np.array([1, 1, 2, 2, 3, 3, 4]) * u ** np.array([0, 1, 1, 2, 2, 3, 3])


def _integrate_linear(generator, y0, t_out, max_rate):
    """States of y' = A(t) y, y(0) = y0, at the sorted nonnegative times t_out.

    y0 is the held state (n_blocks, m), and ``generator(starts, offsets)``
    is A on the held blocks at every starts[w] + offsets[s], as
    (n_offsets, n_blocks * m * m, n_starts), whose terms turn at rates of
    modulus at most max_rate (which caps the first step).  Adaptive DOP853
    with DOP853's step control (safety 0.9, factor in [0.2, 10], exponent
    -1/8, no growth right after a rejection) applied to windows of equal
    steps; a step is accepted when it and every step before it in its window
    pass the error test.  A non-finite error estimate is a rejection, so a
    diverging generator ends in the step-size underflow error.  Returns the
    states (n_out, n_blocks, m) and the counts of accepted steps, rejected
    steps and windows.
    """
    states = np.empty((t_out.size,) + y0.shape, dtype=complex)
    states[t_out == 0.0] = y0
    t, y, t_end = 0.0, y0, float(t_out[-1])
    n_window, capped = _WINDOW_MIN, False
    counts = {"accepted_steps": 0, "rejected_steps": 0, "windows": 0}
    # rejected speculative steps may overflow; their results are discarded
    with np.errstate(all="ignore"):
        h = _first_step(generator, y0, t_end, max_rate) if t_end > 0 else 0.0
        while t < t_end:
            if not h >= 10 * np.spacing(t):
                raise RuntimeError(f"integration failed: step size {h:.3g} underflows at t = {t:.9g}")
            edges = t + h * np.arange(n_window + 1)
            n = min(n_window, int(np.searchsorted(edges, t_end)))
            edges = edges[: n + 1]
            edges[-1] = min(edges[-1], t_end)
            ys, err, dense = _window(generator, y, edges, h)
            n_ok = int(np.argmin(err < 1)) if np.any(err >= 1) else n
            counts["windows"] += 1
            counts["accepted_steps"] += n_ok
            lo, hi = np.searchsorted(t_out, edges[[0, n_ok]], side="right")
            if hi > lo:
                w = np.searchsorted(edges[1:], t_out[lo:hi])
                x = (t_out[lo:hi] - edges[w]) / (edges[w + 1] - edges[w])
                interpolated = np.einsum("oj,jbio->obi", _dense_weights(x), dense[..., w])
                states[lo:hi] = np.moveaxis(ys[..., w], -1, 0) + interpolated
            if n_ok == n:
                worst = err.max()
                factor = 10.0 if worst == 0 else min(10.0, 0.9 * worst ** -0.125)
                h *= min(1.0, factor) if capped else factor
                n_window, capped = min(2 * n_window, _WINDOW_MAX), False
            else:
                counts["rejected_steps"] += 1
                h *= max(0.2, 0.9 * err[n_ok] ** -0.125)
                n_window, capped = max(n_window // 2, _WINDOW_MIN), True
            t, y = edges[n_ok], ys[..., n_ok]
    return states, counts


def _eigen_stack(g):
    """Eigenvalues, unit eigenvectors V and V^-1 of a stack of matrices, or None.

    None when a matrix is not finite or its V has a condition number above
    _FRAME_COND_MAX (a defective or nearly defective matrix).
    """
    if not np.all(np.isfinite(g)):
        return None
    vals, vecs = np.linalg.eig(g)
    if not np.all(np.linalg.cond(vecs) <= _FRAME_COND_MAX):
        return None
    return vals, vecs, np.linalg.inv(vecs)


def _markov_frame(g_inf, held, blocks):
    """``_eigen_stack`` of G_inf on each held block: (vals, V, V^-1) over ``held``, or None.

    Stacked blocks are decomposed in one call.  The blocks of a union are
    decomposed one by one and placed on their positions in it, so V is block
    diagonal there and an entry that links two blocks stays exactly 0 in the
    frame.
    """
    if held.shape[0] == len(blocks):
        return _eigen_stack(g_inf[held[:, :, None], held[:, None, :]])
    vals = np.empty(held.shape, dtype=complex)
    vecs = np.zeros(held.shape + held.shape[-1:], dtype=complex)
    inverse = np.zeros_like(vecs)
    for block in blocks:
        part = _eigen_stack(g_inf[np.ix_(block, block)])
        if part is None:
            return None
        at = np.searchsorted(held[0], block)
        vals[0, at] = part[0]
        vecs[0, at[:, None], at], inverse[0, at[:, None], at] = part[1:]
    return vals, vecs, inverse


def br_evolve(p, rho0, t_grid, include_sum_frequency: bool = False) -> Trajectory:
    """Integrate the time-local equation with running rates.

    The state rho0, a 2x2 matrix or its row-stacked 4-vector, is prepared at
    t = 0, where the running rates start, and is reported at the
    (nonnegative, increasing) times of t_grid.  The equation is linear,
    y' = A(t) y with A(t) = G_inf - sum_k B_k e^{lambda_k t}, so DOP853
    (tolerances ODE_RTOL and ODE_ATOL) runs on step matrices of the exact
    blocks of A that hold rho0; the other components stay exactly 0.
    It integrates z = e^{-i Omega t} V^-1 y in the frame of the Markov
    generator: G_inf = V Lambda V^-1 on each held block, with unit columns
    of V, and Omega = Im Lambda.  Then z' = (e^{-i Omega t} V^-1 A V
    e^{i Omega t} - i Omega) z, whose constant part V^-1 G_inf V - i Omega
    is the real diagonal Re Lambda up to round-off (kept as it comes), and
    whose other terms -V^-1 B_k V e^{lambda_k t} all decay like
    e^{-kappa t}; entry (i, j) of each turns at Omega_j - Omega_i more.  No
    constant mixing or rotation is left, so the steps grow as the
    transients decay.  Re Lambda stays in the generator: taken into the
    frame, it would make an entry from a decaying to a steady
    eigencomponent grow as e^{Re(Lambda_j - Lambda_i) t} and overflow.
    Where a block of G_inf is not finite, or cond(V) exceeds
    _FRAME_COND_MAX, V = I and Omega = Im diag(free Liouvillian): the frame
    of the free phases, which leaves the rest of G_inf in the generator.
    The step control's tolerances hold for z, and |z_i| = |(V^-1 y)_i|:
    they bound the error of each eigencomponent of y, and so that of y to
    at most |V| <= sqrt(m) times as much, m the block size.  The first step
    turns no term by more than _FIRST_STEP_TURN: it is at most that over
    the largest |lambda_k + i (Omega_j - Omega_i)| of an entry (i, j) on
    which term k acts.  The states are turned back by V e^{i Omega t} at
    t_grid.
    Raises RuntimeError on step-size underflow.  The trajectory's
    ``diagnostics`` count accepted steps, rejected steps and windows.
    """
    t_grid = _time_grid(t_grid)
    rho0 = _density_vector(rho0)
    lams, residues, g_inf = _running_generator(p, include_sum_frequency)
    pattern = (g_inf != 0) | np.any(residues != 0, axis=0)
    blocks = _coupled_blocks(pattern, np.flatnonzero(rho0))
    # held blocks of one size are stacked; blocks of different sizes run as their union
    if len({block.size for block in blocks}) == 1:
        held = np.array(blocks)  # (n_blocks, m)
    else:
        held = np.sort(np.concatenate(blocks))[None, :]
    rows, cols = held[:, :, None], held[:, None, :]
    frame = _markov_frame(g_inf, held, blocks)
    if frame is None:  # the frame of the free phases
        vals = free_liouvillian(p).diagonal()[held]
        vecs = inverse = np.broadcast_to(np.eye(held.shape[1]), held.shape + held.shape[-1:])
    else:
        vals, vecs, inverse = frame
    phases = 1j * vals.imag
    mode, col = np.nonzero(np.any(residues != 0, axis=1))  # contributing pairs
    basis = np.zeros((mode.size, 4, 4), dtype=complex)
    basis[np.arange(mode.size), :, col] = residues[mode, :, col]
    basis = (inverse @ basis[:, rows, cols] @ vecs).reshape(mode.size, -1)
    keep = np.any(basis != 0, axis=1)  # the pairs that act on the held blocks
    lam = lams[mode[keep], col[keep]]
    basis_t = basis[keep].T
    # z = e^{-i Omega t} V^-1 y obeys z' = e^{-i Omega t} (V^-1 A V - i Omega) e^{i Omega t} z, whose
    # entry (i, j) turns at s = i (Omega_j - Omega_i); V^-1 G_inf V - i Omega is a term of rate s, and
    # every other rate shifts by s
    shift = (phases[:, None, :] - phases[:, :, None]).reshape(-1)
    g_held = (inverse @ g_inf[rows, cols] @ vecs - phases[..., None] * np.eye(held.shape[1])).reshape(-1)
    fastest = np.abs(lam + shift[:, None])[basis_t != 0].max(initial=0.0)

    def generator(starts, offsets):
        # a term of rate r = lambda + s at t + c is e^{r c} e^{lambda t} e^{s t}: the offset
        # factors scale the basis, and each entry's e^{s t} scales the sum
        turn = np.exp(np.multiply.outer(offsets, shift))  # (offsets, block entries)
        coef = basis_t * np.exp(np.multiply.outer(offsets, lam))[:, None, :] * turn[..., None]
        terms = coef.reshape(offsets.size * shift.size, lam.size) @ np.exp(np.multiply.outer(lam, starts))
        terms = terms.reshape(offsets.size, shift.size, starts.size)
        # in place: where the heap is trimmed after each window, a fresh array this size costs more in
        # page faults than in arithmetic
        np.subtract((g_held * turn)[..., None], terms, out=terms)
        terms *= np.exp(np.multiply.outer(shift, starts))
        return terms

    z, counts = _integrate_linear(generator, (inverse @ rho0[held][..., None])[..., 0], t_grid, fastest)
    states = np.zeros((t_grid.size, 4), dtype=complex)
    states[:, held] = (vecs @ (z * np.exp(np.multiply.outer(t_grid, phases)))[..., None])[..., 0]
    return Trajectory(times=t_grid, states=states, diagnostics=counts)


def br_ge_distance(p, t_grid) -> np.ndarray:
    """Trace distance of br_evolve's runs from the ground and the excited state, at t_grid.

    Both runs stay on the population block {0, 3}: every term of the thermal
    and squeezed kernels changes the coherence order (ket excitations less
    bra excitations) by 0 or +-2, a qubit has no order +-2, so populations
    (order 0) feed only populations.  Trace preservation gives that block's
    generator A_pop zero column sums, so the two runs differ by
    (D, -D) with D the determinant of the block's propagator, and Abel's
    identity gives D(t) = exp(int_0^t tr A_pop(s) ds).  With A(t) = G_inf -
    sum_k B_k e^{lambda_k t} the integral is tr G_inf,pop t - sum_k
    tr B_k,pop (e^{lambda_k t} - 1) / lambda_k, where the population columns
    rotate at the mode frequencies mu_k.  Raises ValueError if the integral's
    imaginary part exceeds TRAJECTORY_TOL or D is not finite.
    """
    t_grid = _time_grid(t_grid)
    lams, residues, g_inf = _running_generator(p, False)
    lam = lams[:, 0]  # the population columns rotate at the mode frequencies
    traces = residues[:, 0, 0] + residues[:, 3, 3]
    integral = (g_inf[0, 0] + g_inf[3, 3]) * t_grid - (np.expm1(np.multiply.outer(t_grid, lam)) / lam) @ traces
    if not np.all(np.abs(integral.imag) <= TRAJECTORY_TOL):  # NaN fails too
        raise ValueError(f"population block trace integrates to a complex value (imaginary part up to "
                         f"{np.abs(integral.imag).max():.3e})")
    if not np.all(integral.real < np.log(np.finfo(float).max)):
        raise ValueError("population block determinant is not finite")
    return np.exp(integral.real)


def bm_evolve(p, rho0, t_grid, include_sum_frequency: bool = False) -> Trajectory:
    """Propagate under the constant Markov-limit generator from t = 0 (checked modal form)."""
    t_grid = _time_grid(t_grid)
    rho0_vec = _density_vector(rho0)
    gen = free_liouvillian(p) + bm_induced_generator(p, include_sum_frequency)
    states = _modal_evolution(gen, rho0_vec, t_grid, 4)
    return Trajectory(times=t_grid, states=states)


def _br_line(p: ThermalBathParams, delta) -> np.ndarray:
    """Emission line of the time-local solution at detunings delta, unnormalized.

    The first-order-in-g^2 expansion: a central Lorentzian at the
    Markov-limit shift plus a side Lorentzian and a Fano term displaced by
    exactly the bare detuning.  Raises the shared TypeError for any bath but
    a thermal one.
    """
    rates = effective_rates(_cavity_bath(p, ThermalBathParams))
    de, ge = rates.delta_eff, rates.gamma_eff
    denom = p.delta**2 + p.kappa**2
    a_lor = (de * p.delta - ge * p.kappa) / denom
    a_fano = (ge * p.delta + de * p.kappa) / denom
    x = delta - de + p.delta
    wside = ge + p.kappa
    vals = (ge / np.pi) / ((delta - de) ** 2 + ge**2)
    return vals + (a_lor * wside + a_fano * x) / (np.pi * (x**2 + wside**2))


def br_spectrum(p: ThermalBathParams, delta_grid) -> Spectrum:
    """Emission spectrum of the time-local solution: _br_line normalized on delta_grid.

    The first-order form can undershoot zero by parts in 1e-7 of the peak far
    in the wings, which is clipped.
    """
    delta_grid = np.asarray(delta_grid, dtype=float)
    return make_spectrum(delta_grid, _br_line(p, delta_grid), clip_rel=1e-6)
