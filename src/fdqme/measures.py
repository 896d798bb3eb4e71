"""Non-Markovianity quantifiers: spectral measure and trace-distance backflow.

The spectral measure is the relative entropy between the unit-area emission
spectrum and its Markov-limit counterpart, divided by the Markovian
bandwidth.  It detects persistent steady-state deviations, so it stays
positive even where the trace-distance (BLP-style) measure reads exactly
zero, and it reads zero for any map whose spectrum is exactly Markovian even
when positivity violations trip the BLP diagnostic.

Every measure is summed by one quadrature core on panels in theta, where
the line's reference is flat: ``rule_ratios`` evaluates the line over the
reference at the nodes of an n- and a 2n-node rule, and ``panel_divergence``
sums both rules and raises a ``ValueError`` if they differ by more than
QUADRATURE_RTOL.  ``bath_measure`` maps a bath's closed-form line by
delta = delta_eff + gamma_eff tan(theta), where its Markov Lorentzian is 1/pi;
the waveguide's delay sweep brings its own map and adaptive panels.
``backflow`` sums the positive increments of a trace distance, whether
``blp_measure`` forms it from two trajectories or ``redfield.br_ge_distance``
in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .baths import ThermalBathParams, _rates, _squeezed_line, _thermal_line
from .baths import free_liouvillian, kernel_modes
from .liouville import _sorted_unique, devectorize
from .redfield import Trajectory, _markov_generator

__all__ = [
    "MeasureResult",
    "spectral_gap",
    "bath_measure",
    "trace_distance",
    "backflow",
    "blp_measure",
]

# Gauss-Legendre nodes per panel of bath_measure's coarse rule (the reported rule has twice as
# many), and the largest relative difference between the two rules that a measure accepts
PANEL_NODES = 32
QUADRATURE_RTOL = 1e-6


@dataclass(frozen=True)
class MeasureResult:
    """Nonnegative measure value with its method tag and evaluation metadata."""

    value: float
    method: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0 <= self.value < np.inf:
            raise ValueError(f"measure values are nonnegative and finite, got {self.value}")


def spectral_gap(p) -> float:
    """Markovian bandwidth of the reduced system.

    The smallest nonzero decay rate (|Re|) among the eigenvalues of the
    Markov-limit generator ``free_liouvillian(p) + bm_induced_generator(p)``;
    for the thermal qubit this is the coherence decay rate gamma_eff.  For
    the squeezed bath that generator leaves out the sum-frequency modes,
    while the measure's line and its Markov Lorentzian keep them.  At
    delta_q = 200, delta_c = 320, kappa = 10 the gap of the full mode table,
    which equals gamma_eff to 5e-12, exceeds this one by 0.56% at r = 115,
    0.06% at r = 250 and 39% at r = 300 (4.668e-3 against 3.356e-3).
    """
    return _gap(p, kernel_modes(p, include_sum_frequency=False))


def _gap(p, modes) -> float:
    """``spectral_gap`` with the Markov-limit generator of a mode table."""
    decay = np.abs(np.real(np.linalg.eigvals(free_liouvillian(p) + _markov_generator(modes))))
    scale = decay.max()
    if scale <= 0:
        raise ValueError("generator is purely unitary; no spectral gap")
    nonzero = decay[decay > 1e-9 * scale]
    if nonzero.size == 0:
        raise ValueError("generator has no nonzero decay rate")
    return float(nonzero.min())


# Newton steps of gauss_legendre: four reach machine precision for n up to 256
_NEWTON_STEPS = 6


def _legendre(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p_prev, p = np.ones_like(x), x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p, n * (x * p - p_prev) / (x * x - 1.0)


@cache
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (increasing) and weights of the n-point Gauss-Legendre rule on [-1, 1], cached per n, read-only.

    Newton's method on the Legendre recurrence from the asymptotic guesses
    cos(pi (i - 1/4) / (n + 1/2)); the weights are 2 / ((1 - x^2) P_n'(x)^2).  It
    needs neither ``numpy.polynomial`` nor LAPACK, whose eigensolver (the
    Golub-Welsch route) pages in about 1 MB of library code on first use.
    """
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(_NEWTON_STEPS):
        p, dp = _legendre(x, n)
        x = x - p / dp
    _, dp = _legendre(x, n)
    weights = 2.0 / ((1.0 - x * x) * dp * dp)
    x.setflags(write=False)
    weights.setflags(write=False)
    return x, weights


def rule_ratios(lo, hi, rules, ratio) -> list[np.ndarray]:
    """``ratio`` at the nodes mid + half x of both rules on the panels [lo, hi], one (panels, nodes) array per rule.

    ``rules`` holds the n- and 2n-node (x, w) on [-1, 1]; one call of ``ratio`` takes both rules' nodes.
    """
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    theta = np.concatenate([(mid[:, None] + half[:, None] * x).ravel() for x, _ in rules])
    return [r.reshape(mid.size, -1) for r in np.split(ratio(theta), [mid.size * rules[0][0].size])]


def panel_divergence(lo, hi, rules, ratios, weigh) -> tuple[float, dict]:
    """Relative entropy (bits) of a line from a flat reference on the panels [lo, hi], by the n- and 2n-node rules.

    ``ratios`` is the line over the reference at each rule's nodes
    (``rule_ratios``), and ``weigh(half, w)`` turns a rule's weights w into
    weights against the unit-area reference on panels of half width
    ``half``.  Returns the 2n-node value with ``n_nodes``, ``z_minus_1``
    (the line's area less 1) and ``quadrature_rel_diff``, the relative
    difference of the two rules.  A negative or non-finite ratio, or a
    difference above QUADRATURE_RTOL, raises a ``ValueError``.
    """
    if not all(np.all(r >= 0.0) for r in ratios):
        raise ValueError("closed-form line is negative or not finite at a quadrature node")
    half = 0.5 * (hi - lo)
    (kl_n, _), (kl, z) = (_divergence_bits(weigh(half, w).ravel(), r.ravel()) for r, (_, w) in zip(ratios, rules))
    rel_diff = abs(kl - kl_n) / kl if kl > 0 else abs(kl - kl_n)
    if not rel_diff <= QUADRATURE_RTOL:
        n = rules[0][0].size
        raise ValueError(f"mapped quadrature did not converge: {n} and {2 * n} nodes per panel differ by "
                         f"{rel_diff:.2e} (relative) > {QUADRATURE_RTOL:.0e}")
    return kl, {"n_nodes": int(ratios[1].size), "z_minus_1": z - 1.0, "quadrature_rel_diff": rel_diff}


def _divergence_bits(weights, r) -> tuple[float, float]:
    """Relative entropy (bits) of a line from its reference under one quadrature rule, and the line's area z.

    ``r`` is the line over the reference at the nodes and ``weights`` the
    rule's weights against the unit-area reference.  The divergence
    A/z - log2 z, A = sum weights r log2 r, is summed as sum weights
    (s ln s - s + 1) / ln 2 with s = r/z: the same value, with a nonnegative
    integrand.
    """
    z = float(weights @ r)
    s = r / z
    s_log_s = s * np.log(np.where(s > 0.0, s, 1.0))
    return float(weights @ (s_log_s - s + 1.0) / np.log(2.0)), z


def _panel_cuts(rates, kappa, features, line_cuts) -> np.ndarray:
    """Panel edges in theta, from -pi/2 to pi/2, where delta = delta_eff + gamma_eff tan(theta).

    Cuts sit at the line core (delta_eff +/- 1, 4, 30 gamma_eff), geometrically
    at ratio 8 from gamma_eff out to the farthest feature plus 40 kappa, at
    each of ``features`` (the bath's ``features`` and the line's own) +/- 1
    and 6 kappa, and at ``line_cuts``.
    """
    d0, gamma = rates.delta_eff, rates.gamma_eff
    cuts = [d0 + np.array([-30.0, -4.0, -1.0, 1.0, 4.0, 30.0]) * gamma, *line_cuts]
    cuts += [f + np.array([-6.0, -1.0, 1.0, 6.0]) * kappa for f in features]
    offsets = _ratio_steps(gamma, max(abs(f) for f in features) + 40.0 * kappa)
    cuts += [d0 - offsets, d0 + offsets]
    theta = np.arctan((np.concatenate(cuts) - d0) / gamma)
    return _sorted_unique(np.concatenate([[-np.pi / 2], theta, [np.pi / 2]]))


def _ratio_steps(start: float, stop: float) -> np.ndarray:
    """start, 8 start, 64 start, ... up to the first step at or beyond stop."""
    steps = int(np.ceil(np.log(stop / start) / np.log(8.0)))
    return start * 8.0 ** np.arange(max(steps, 0) + 1)


def _mapped_divergence(p, modes, n: int) -> tuple[float, dict]:
    """Relative entropy (bits) of p's normalized closed-form line from its Markov Lorentzian q, both from ``modes``.

    In theta q is 1/pi, so ``panel_divergence`` sums r = line / q against
    weights dtheta / pi, on the panels of ``_panel_cuts`` with n and 2n
    Gauss-Legendre nodes each.  The metadata also holds p's ``gap``, from
    the table ``bath_measure`` names.  The squeezed line has a narrow
    counter-rotating coherence feature (the b term of its closed form), cut
    geometrically from a quarter of its width out to 6 kappa.
    """
    rates = _rates(modes)
    if rates.gamma_eff <= 0:
        raise ValueError(f"gamma_eff must be positive, got {rates.gamma_eff}")
    if isinstance(p, ThermalBathParams):
        line, gap_modes, features, line_cuts = _thermal_line, modes, p.features, []
    else:
        line, gap_modes = _squeezed_line, kernel_modes(p, include_sum_frequency=False)
        k33 = complex(modes.freq_matrix(-p.delta_q, block=(2,))[0, 0])
        center = -2.0 * p.delta_q + k33.imag
        offsets = _ratio_steps(abs(k33.real) / 4.0, 6.0 * modes.kappa)
        features, line_cuts = (*p.features, center), [center - offsets, center + offsets]
    gap = _gap(p, gap_modes)

    def ratio(theta):  # r = p / q, with q = 1 / (pi gamma_eff (1 + tan^2)) the Markov Lorentzian at the node
        tan = np.tan(theta)
        return line(modes, rates.delta_eff + rates.gamma_eff * tan) * (np.pi * rates.gamma_eff) * (1.0 + tan * tan)

    cuts = _panel_cuts(rates, modes.kappa, features, line_cuts)
    lo, hi = cuts[:-1], cuts[1:]
    rules = [gauss_legendre(m) for m in (n, 2 * n)]
    kl, metadata = panel_divergence(lo, hi, rules, rule_ratios(lo, hi, rules, ratio),
                                    lambda half, w: half[:, None] * w / np.pi)
    return kl, {"gap": gap, **metadata}


def bath_measure(p) -> MeasureResult:
    """Spectral measure of a thermal or squeezed cavity bath over the whole detuning axis.

    The relative entropy (bits) of its normalized closed-form line from its
    Markov-limit Lorentzian, per ``spectral_gap(p)``.  With
    delta = delta_eff + gamma_eff tan(theta) the Lorentzian is 1/pi on
    (-pi/2, pi/2), and Gauss-Legendre panels in theta carry the integral
    with 32 and 64 nodes each.  The 64-node value is reported; ``metadata``
    holds ``gap``, ``n_nodes``, ``z_minus_1`` (the line's area less 1) and
    ``quadrature_rel_diff``, the relative difference of the two rules, which
    is the error estimate.  A difference above QUADRATURE_RTOL (1e-6) raises
    a ``ValueError``.  The thermal line and its gap share one mode table.  The
    squeezed gap keeps the table without sum-frequency modes and the line the
    full one: the gap is 0.56% below the full table's at r = 115 and 39% below
    at r = 300 (``spectral_gap`` gives the bath).
    """
    kl, metadata = _mapped_divergence(p, kernel_modes(p), PANEL_NODES)
    return MeasureResult(value=kl / metadata["gap"], method="spectral", metadata=metadata)


def trace_distance(rho1, rho2) -> float | np.ndarray:
    """Half the trace norm of the difference of two states, each a matrix or a row-stacked
    vector; of two stacks of matrices (..., d, d), the array of the pairs' distances."""
    if np.ndim(rho1) < 3:
        rho1, rho2 = devectorize(rho1), devectorize(rho2)
    diff = np.asarray(rho1) - np.asarray(rho2)
    diff_h = np.conj(np.swapaxes(diff, -1, -2))
    if not np.abs(diff - diff_h).max() <= 1e-8:
        raise ValueError("state difference is not Hermitian within 1e-8")
    dists = 0.5 * np.abs(np.linalg.eigvalsh(0.5 * (diff + diff_h))).sum(axis=-1)
    return float(dists) if dists.ndim == 0 else dists


def backflow(distances) -> float:
    """Sum of the positive increments of a trace distance sampled on a time grid."""
    if not np.all(np.isfinite(distances)):
        raise ValueError("trace distances must be finite")
    increments = np.diff(distances)
    return float(increments[increments > 0].sum())


def blp_measure(traj1: Trajectory, traj2: Trajectory) -> MeasureResult:
    """Trace-distance backflow accumulated along a pair of trajectories.

    Discrete form: the ``backflow`` of the trace distance on the common
    time grid, an abridged version that skips the maximization over
    initial-state pairs.
    """
    if traj1.times.shape != traj2.times.shape or not np.array_equal(traj1.times, traj2.times):
        raise ValueError("trajectories are not on a common time grid")
    distances = trace_distance(traj1.states.reshape(-1, 2, 2), traj2.states.reshape(-1, 2, 2))
    return MeasureResult(
        value=backflow(distances),
        method="blp",
        metadata={"time_points": int(traj1.times.size),
                  "t_span": (float(traj1.times[0]), float(traj1.times[-1]))},
    )
