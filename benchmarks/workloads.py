"""Seeded workload definitions: which items run and with which parameters.

An item is one unit of closed-loop work.  CLI items are a scenario name plus
the ``[params]`` and grid sections of a generated config file; the program
only ever sees that config.  Kernel items are direct library calls.  Items
are generated in rounds: every round holds each item kind of its workload
once (``validation`` holds each ``n_fock`` stratum once), so runs of any
seed and of any length do the same mix of work.  ``round_seconds`` sets how
many rounds a run of a given ``--seconds`` holds.  Parameters are drawn
uniformly from the ranges below; a scalar is held fixed.  Why each workload
exists is written once, in ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Uniform ranges, declared next to each workload.  Ranges are never narrowed
# to dodge a failure: a draw that makes the program fail counts as a failed
# item.

# spectra: detunings of a few kappa to many kappa put the side peak anywhere
# from inside the central line to well separated, the regime of the paper's
# emission figures.  omega_q = 2e5 is the CLI's documented lab-frame example.
THERMAL_SPECTRUM = {"g": 1.0, "omega_q": 2.0e5, "kappa": (5.0, 20.0), "nbar": (0.0, 0.5),
                    "delta": (20.0, 300.0)}
# delta_c in [250, 400] with r up to 0.9 delta_c spans weak to strong squeezing
# of a stable drive.  Roughly one draw in six (36 of 200 measured) hits the
# known final-value extrapolation failure of fdme.steady_state; such items
# are kept and counted as failed.
SQUEEZED_SPECTRUM = {"g": 1.0, "delta_q": (150.0, 250.0), "delta_c": (250.0, 400.0),
                     "r_over_delta_c": (0.0, 0.9), "kappa": (5.0, 20.0)}
# eta up to 10 gives several Fano periods inside the +/- 60 gamma default grid.
WAVEGUIDE_SPECTRUM = {"omega0": (200.0, 1000.0), "gamma": 1.0, "beta": (0.5, 1.0),
                      "eta": (0.5, 10.0)}

# sweeps: the measure-versus-parameter studies of the paper (kappa and delta
# scalings, BLP contrast, waveguide delay), at a handful of points each.
BLP_COMPARE = {"g": 1.0, "omega_q": 2.0e5, "kappa": (10.0, 30.0), "nbar": (0.0, 0.3),
               "delta_min": (5.0, 20.0), "delta_max": (100.0, 200.0), "delta_points": 4,
               "t_max": (0.4, 0.8), "t_points": 400}
SWEEP_KAPPA = {"g": 1.0, "omega_q": 2.0e5, "nbar": (0.0, 0.3), "delta": (2.0, 10.0),
               "kappa_min": (10.0, 30.0), "kappa_ratio": (4.0, 10.0), "kappa_points": 5}
SWEEP_DELTA = {"g": 1.0, "omega_q": 2.0e5, "nbar": (0.0, 0.3), "kappa": (10.0, 30.0),
               "delta_min": (5.0, 20.0), "delta_max": (100.0, 300.0), "delta_points": 5}
SWEEP_ETA = {"omega0": (100.0, 400.0), "gamma": 1.0, "beta": (0.5, 1.0),
             "eta_index_max": (8, 24), "eta_index_step": (1, 4)}

# validation: the oracle's truncation must hold (top Fock levels < 1e-6), so
# nbar stays small; n_fock 10..14 gives Liouville dimensions 400..784, dense
# matrices of 2.5..9.8 MB around a 4 MiB L2.  Weak coupling (g = 1 against
# kappa >= 8) is where the reduced and full spectra must agree.
ORACLE_COMPARE = {"g": 1.0, "omega_q": (1000.0, 3000.0), "kappa": (8.0, 15.0),
                  "nbar": (0.02, 0.2), "delta": (60.0, 150.0), "freq_points": 3001}
ORACLE_N_FOCK = (10, 11, 12, 13, 14)
# positivity: around the paper's squeezed example (r close to delta_c), where
# the Born-Redfield purity exceeds 1 and the exact inverse transform must not.
POSITIVITY = {"g": 1.0, "delta_q": (190.0, 210.0), "delta_c": (110.0, 130.0),
              "r_over_delta_c": (0.93, 0.97), "kappa": (8.0, 12.0), "t_max": 2.0,
              "t_points": 400}

# kernels: the time-domain kernel path no CLI scenario reaches, on a grid out
# to 40/kappa as in acceptance criterion 12.
KERNEL_THERMAL = {"g": 1.0, "omega_q": (50.0, 300.0), "delta": (-100.0, 100.0),
                  "kappa": (5.0, 20.0), "nbar": (0.0, 0.5)}
KERNEL_SQUEEZED = SQUEEZED_SPECTRUM
KERNEL_TIME_SAMPLES = 100_001
KERNEL_GENERIC_TIMES = 4
KERNEL_GENERIC_T_MAX = 0.3


@dataclass(frozen=True)
class Item:
    """One closed-loop unit of work.

    ``params`` is the ``[params]`` section (CLI) or the bath parameters
    (kernels); ``grids`` maps a config section to ``(min, max, points)``;
    ``extra`` holds library-call arguments of kernel items.
    """

    scenario: str
    params: dict
    grids: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    @property
    def is_cli(self) -> bool:
        return not self.scenario.startswith("kernels-")

    def config_text(self, output_name: str) -> str:
        lines = ["[params]"] + [f"{k} = {v!r}" for k, v in self.params.items()]
        for section, (lo, hi, points) in self.grids.items():
            lines += ["", f"[{section}]", f"min = {lo!r}", f"max = {hi!r}", f"points = {points}"]
        lines += ["", "[output]", f"path = {output_name}", ""]
        return "\n".join(lines)


def _draw(rng, spec: dict) -> dict:
    out = {}
    for key, val in spec.items():
        if isinstance(val, tuple) and isinstance(val[0], int):
            out[key] = int(rng.integers(val[0], val[1] + 1))
        elif isinstance(val, tuple):
            out[key] = float(rng.uniform(*val))
        else:
            out[key] = val
    return out


def _squeezed(rng, spec) -> dict:
    d = _draw(rng, spec)
    d["r"] = d.pop("r_over_delta_c") * d["delta_c"]
    return d


def thermal_spectrum(rng) -> Item:
    return Item("thermal-spectrum", _draw(rng, THERMAL_SPECTRUM))


def squeezed_spectrum(rng) -> Item:
    return Item("squeezed-spectrum", _squeezed(rng, SQUEEZED_SPECTRUM))


def waveguide_spectrum(rng) -> Item:
    return Item("waveguide-spectrum", _draw(rng, WAVEGUIDE_SPECTRUM))


def blp_compare(rng) -> Item:
    d = _draw(rng, BLP_COMPARE)
    grid = {"grid.time": (0.0, d.pop("t_max"), d.pop("t_points"))}
    return Item("blp-compare", d, grid)


def measure_sweep(rng, axis: str) -> Item:
    if axis == "kappa":
        d = _draw(rng, SWEEP_KAPPA)
        d["kappa_max"] = d["kappa_min"] * d.pop("kappa_ratio")
    elif axis == "delta":
        d = _draw(rng, SWEEP_DELTA)
    else:
        d = _draw(rng, SWEEP_ETA)
    return Item("measure-sweep", d, extra={"axis": axis})


def oracle_compare(rng, n_fock: int) -> Item:
    d = _draw(rng, ORACLE_COMPARE)
    points = d.pop("freq_points")
    d["n_fock"] = n_fock
    # the window holds the central line and the side peak near -delta
    grid = {"grid.frequency": (-(d["delta"] + 60.0), 80.0, points)}
    return Item("oracle-compare", d, grid)


def positivity(rng) -> Item:
    d = _squeezed(rng, POSITIVITY)
    grid = {"grid.time": (0.0, d.pop("t_max"), d.pop("t_points"))}
    return Item("positivity", d, grid)


def kernel_item(rng, bath: str) -> Item:
    if bath == "thermal":
        d = _draw(rng, KERNEL_THERMAL)
        delta = d.pop("delta")
        d["omega_c"] = d["omega_q"] - delta
    else:
        d = _squeezed(rng, KERNEL_SQUEEZED)
    # the generic route is checked at a few samples of the dense grid with t <= 0.3
    t_max = 40.0 / d["kappa"]
    last = int(KERNEL_GENERIC_T_MAX / t_max * (KERNEL_TIME_SAMPLES - 1))
    index = np.sort(rng.integers(0, last + 1, KERNEL_GENERIC_TIMES))
    extra = {"time_samples": KERNEL_TIME_SAMPLES, "t_max": t_max,
             "generic_index": tuple(int(i) for i in index)}
    return Item(f"kernels-{bath}", d, extra=extra)


def _spectra_round(rng):
    return [thermal_spectrum(rng), squeezed_spectrum(rng), waveguide_spectrum(rng)]


def _sweeps_round(rng):
    return [blp_compare(rng)] + [measure_sweep(rng, axis) for axis in ("kappa", "delta", "eta")]


def _validation_round(rng):
    # oracle latencies spread over a factor of six with n_fock and positivity
    # items lie close together; two positivity items per oracle item keep the
    # median latency inside the positivity items instead of among the sparse
    # oracle sizes
    items = []
    for n_fock in rng.permutation(ORACLE_N_FOCK):
        items += [oracle_compare(rng, int(n_fock)), positivity(rng), positivity(rng)]
    return items


def _kernels_round(rng):
    # the squeezed kernel has about three times the thermal cost; one thermal and
    # two squeezed items keep the median latency inside the squeezed items
    # instead of on the gap between the two baths
    return [kernel_item(rng, "squeezed"), kernel_item(rng, "thermal"), kernel_item(rng, "squeezed")]


def _validation_warmup(rng):
    return [oracle_compare(rng, ORACLE_N_FOCK[0]), positivity(rng)]


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: object  # rng -> list[Item]
    round_seconds: float  # timed work of one round on the reference machine
    make_warmup: object = None  # rng -> list[Item]; defaults to one round

    def rounds(self, seed: int):
        """Endless sequence of rounds; the same seed gives the same items."""
        rng = np.random.default_rng([0, seed])
        while True:
            yield self.make_round(rng)

    def warmup(self) -> list:
        """Untimed items that touch every code path of the workload once.

        They do not depend on the seed, so set-up does the same work in every run.
        """
        rng = np.random.default_rng(1)
        return (self.make_warmup or self.make_round)(rng)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("spectra", _spectra_round, 0.45),
        Workload("sweeps", _sweeps_round, 0.25),
        Workload("validation", _validation_round, 10.0, _validation_warmup),
        Workload("kernels", _kernels_round, 0.43),
    )
}
