"""Correctness gate: every item's output is checked outside the timed region.

CLI outputs are read back from disk, so the gate checks the bytes the
program wrote.  Tolerances follow the repository's tests: closed-form
spectra within 1e-9 of the peak (acceptance criterion 2), unit area to 1e-6
for waveguide spectra, the oracle and positivity checks of
``tests/test_cli.py``, and closed-form kernels against
``generic_kernel_time`` within 1e-9 (criterion 12).
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path

import numpy as np

from fdqme.baths import (
    SqueezedBathParams,
    ThermalBathParams,
    markovian_spectrum,
    squeezed_closed_spectrum,
    thermal_closed_spectrum,
)
from fdqme.fdme import make_spectrum

CLOSED_FORM_REL = 1e-9
MARKOV_REL = 1e-12
UNIT_AREA_TOL = 1e-6
ORACLE_PEAK_TOL = 1.0
PURITY_TOL = 1e-4
KERNEL_ABS = 1e-9

SPECTRUM_HEADER = ["frequency_minus_qubit[g]", "density[1/g]"]
_SWEEP_AXIS_HEADER = {"kappa": "kappa[g]", "delta": "delta[g]", "eta": "eta"}


class CheckFailed(Exception):
    """An output exists but is wrong."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def read_csv(path: Path):
    """Header and float table of a CSV the CLI wrote, plus its SHA-256."""
    raw = path.read_bytes()
    lines = raw.decode("utf-8").split("\n")
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    _require(len(body) >= 2, f"{path.name}: no data rows")
    table = np.loadtxt(io.StringIO("\n".join(body[1:])), delimiter=",", ndmin=2)
    return body[0].split(","), table, hashlib.sha256(raw).hexdigest()


def _thermal_bath(prm):
    return ThermalBathParams(prm["g"], prm["omega_q"], prm["omega_q"] - prm["delta"],
                             prm["kappa"], prm["nbar"])


def _squeezed_bath(prm):
    return SqueezedBathParams(prm["g"], prm["delta_q"], prm["delta_c"], prm["r"], prm["kappa"])


def _close_to(values, reference, rel, what):
    err = float(np.abs(values - reference).max())
    tol = rel * float(np.abs(values).max())
    _require(err <= tol, f"{what} differs by {err:.3e} (> {tol:.3e})")


def _check_spectrum(item, tables):
    header, data = tables[".csv"]
    _require(header == SPECTRUM_HEADER, f"unexpected header {header}")
    grid, dens = data[:, 0], data[:, 1]
    p = _thermal_bath(item.params) if item.scenario == "thermal-spectrum" else _squeezed_bath(item.params)
    closed = thermal_closed_spectrum if item.scenario == "thermal-spectrum" else squeezed_closed_spectrum
    _close_to(dens, make_spectrum(grid, closed(p, grid)).values, CLOSED_FORM_REL, "spectrum vs closed form")
    m_header, m_data = tables[".markov.csv"]
    _require(m_header == SPECTRUM_HEADER and np.array_equal(m_data[:, 0], grid), "markov grid differs")
    _close_to(m_data[:, 1], make_spectrum(grid, markovian_spectrum(p, grid)).values, MARKOV_REL,
              "markov spectrum vs normalised markovian_spectrum")


def _check_waveguide(item, tables):
    for suffix in (".csv", ".markov.csv"):
        header, data = tables[suffix]
        _require(header == ["frequency[gamma]", "density[1/gamma]"], f"unexpected header {header}")
        area = float(np.trapezoid(data[:, 1], data[:, 0]))
        _require(abs(area - 1.0) < UNIT_AREA_TOL, f"{suffix} area {area!r} is not 1")


def _check_sweep(item, tables):
    header, data = tables[".csv"]
    if item.scenario == "blp-compare":
        expected = ["delta[g]", "blp_measure", "spectral_measure"]
    else:
        expected = [_SWEEP_AXIS_HEADER[item.extra["axis"]], "spectral_measure"]
    _require(header == expected, f"unexpected header {header}")
    values = data[:, 1:]
    _require(np.all(np.isfinite(values)), "sweep values are not finite")
    _require(np.all(values >= 0.0), "sweep values are negative")


def _check_oracle(item, tables):
    header, data = tables[".csv"]
    _require(header[0] == "frequency_minus_qubit[g]", f"unexpected header {header}")
    peak_fd = data[np.argmax(data[:, 1]), 0]
    peak_full = data[np.argmax(data[:, 2]), 0]
    _require(abs(peak_fd - peak_full) < ORACLE_PEAK_TOL,
             f"peaks differ: {peak_fd:.4g} vs {peak_full:.4g}")


def _check_positivity(item, tables):
    header, data = tables[".csv"]
    _require(header == ["time[1/g]", "purity_br", "purity_fdqme"], f"unexpected header {header}")
    _require(data[:, 1].max() > 1.0 + PURITY_TOL, "Born-Redfield purity never exceeds 1")
    _require(data[:, 2].max() <= 1.0 + PURITY_TOL, "exact purity exceeds 1")


_CLI_CHECKS = {
    "thermal-spectrum": (_check_spectrum, (".csv", ".markov.csv")),
    "squeezed-spectrum": (_check_spectrum, (".csv", ".markov.csv")),
    "waveguide-spectrum": (_check_waveguide, (".csv", ".markov.csv")),
    "measure-sweep": (_check_sweep, (".csv",)),
    "blp-compare": (_check_sweep, (".csv",)),
    "oracle-compare": (_check_oracle, (".csv",)),
    "positivity": (_check_positivity, (".csv",)),
}


def check_cli(item, base: Path) -> dict:
    """Check the files written for ``base``; returns {file name: SHA-256} of its CSVs."""
    check, suffixes = _CLI_CHECKS[item.scenario]
    tables, hashes = {}, {}
    try:
        for suffix in suffixes:
            path = base.with_name(base.name + suffix)
            _require(path.is_file(), f"{path.name} was not written")
            header, table, digest = read_csv(path)
            tables[suffix] = (header, table)
            hashes[path.name] = digest
        meta_path = base.with_name(base.name + ".meta.json")
        _require(meta_path.is_file(), f"{meta_path.name} was not written")
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        _require(meta.get("scenario") == item.scenario, "sidecar names another scenario")
        check(item, tables)
    except (ValueError, IndexError) as exc:  # malformed file: unreadable numbers, short rows
        raise CheckFailed(f"unreadable output: {exc}") from exc
    return hashes


def check_kernels(item, result) -> None:
    """Closed-form kernels sampled at the generic times must match the mode-matrix route."""
    k_time, k_freq, k_generic = result
    index = list(item.extra["generic_index"])
    n = item.extra["time_samples"]
    _require(k_time.shape == (n, 4, 4), f"time kernel shape {k_time.shape}")
    _require(np.all(np.isfinite(k_time)) and np.all(np.isfinite(k_freq)), "kernel is not finite")
    err = float(np.abs(k_time[index] - k_generic).max())
    _require(err < KERNEL_ABS, f"closed form vs generic_kernel_time differs by {err:.3e}")
