"""Scenario runner: parse a declarative config, compute, emit CSV files.

Configs are UTF-8 text with ``key = value`` lines inside the sections
``[params]``, ``[grid.frequency]``, ``[grid.time]``, and ``[output]``.  All
parameter values are numbers (physical inputs in units of the coupling g, or
of gamma for the waveguide).  Parsing is strict: unknown keys, duplicates,
missing keys, malformed numbers, and physical-constraint violations are all
collected and reported together.  Outputs are deterministic: fixed 17
significant digit formatting, LF line endings, no timestamps.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from . import fdme, measures, oracle, redfield, waveguide
from .baths import SqueezedBathParams, ThermalBathParams, default_frequency_grid, markovian_spectrum
from .fdme import make_spectrum
from .liouville import qubit_state

__all__ = ["ScenarioConfig", "ConfigError", "parse_config", "run_scenario", "main"]

_INTEGER_KEYS = ("n_fock", "delta_points", "kappa_points", "eta_index_max", "eta_index_step")


class ConfigError(ValueError):
    """All problems found while parsing a config, in one report."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid config:\n" + "\n".join(f"  - {e}" for e in self.errors))


@dataclass(frozen=True)
class GridSpec:
    lo: float
    hi: float
    points: int

    def array(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.points)


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    params: dict
    grids: dict
    output_path: str
    # what the scenario's bath builder returned for params: parse_config builds it to
    # check the config, and run_scenario runs it without building it again
    bath: object = field(compare=False, repr=False)


def _parse_sections(text: str, errors: list) -> dict:
    sections: dict[str, dict] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in ("params", "grid.frequency", "grid.time", "output"):
                errors.append(f"line {lineno}: unknown section [{name}]")
                current = None
                continue
            if name in sections:
                errors.append(f"line {lineno}: duplicate section [{name}]")
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        if current is None:
            errors.append(f"line {lineno}: key outside any section")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or key != key.lower() or " " in key:
            errors.append(f"line {lineno}: keys must be lowercase snake_case, got {key!r}")
            continue
        if key in current:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        current[key] = (lineno, value)
    return sections


def _number(sections, section, key, errors, required=True, integer=False):
    entry = sections.get(section, {}).get(key)
    if entry is None:
        if required:
            errors.append(f"[{section}] missing required key {key!r}")
        return None
    lineno, raw = entry
    try:
        val = float(raw)
    except ValueError:
        errors.append(f"line {lineno}: value of {key!r} is not a number: {raw!r}")
        return None
    if not np.isfinite(val):
        errors.append(f"line {lineno}: value of {key!r} is not finite")
        return None
    if integer:
        if val != int(val):
            errors.append(f"line {lineno}: value of {key!r} must be an integer")
            return None
        return int(val)
    return val


def _grid(sections, name, errors) -> GridSpec | None:
    """A grid section that the scenario reads: [grid.time] is required, [grid.frequency] optional."""
    if name not in sections:
        if name == "grid.time":
            errors.append(f"missing required section [{name}]")
        return None
    lo = _number(sections, name, "min", errors)
    hi = _number(sections, name, "max", errors)
    pts = _number(sections, name, "points", errors, integer=True)
    for key in sections[name]:
        if key not in ("min", "max", "points"):
            errors.append(f"[{name}] unknown key {key!r}")
    if lo is None or hi is None or pts is None:
        return None
    if pts < 2 or hi <= lo:
        errors.append(f"[{name}] must span at least 2 increasing points")
        return None
    if name == "grid.time" and lo < 0:
        errors.append(f"[{name}] min must be nonnegative: the state is prepared at t = 0")
        return None
    return GridSpec(lo, hi, pts)


def parse_config(text: str, scenario: str) -> ScenarioConfig:
    """Validate a config for the given scenario; report every error found."""
    if scenario not in SCENARIOS:
        raise ConfigError([f"unknown scenario {scenario!r}; choose from {', '.join(SCENARIOS)}"])
    errors: list[str] = []
    sections = _parse_sections(text, errors)
    if "params" not in sections:
        errors.append("missing required section [params]")
        raise ConfigError(errors)
    record = _record(scenario, sections["params"])
    if record is None:
        errors.append(
            "measure-sweep needs exactly one sweep group "
            "(kappa_min/max/points, delta_min/max/points, or eta_index_max/step)"
        )
        raise ConfigError(errors)

    params = {}
    for key in record.keys:
        val = _number(sections, "params", key, errors, integer=key in _INTEGER_KEYS)
        if val is not None:
            params[key] = val
    for key in sections["params"]:
        if key not in record.keys:
            errors.append(f"[params] unknown key {key!r} for scenario {scenario}")
    for key in ("kappa_points", "delta_points", "eta_index_step"):
        if params.get(key, 1) < 1:
            errors.append(f"[params] {key} must be at least 1, got {params[key]}")
    # the eta axis 0, step, 2 step, ..., eta_index_max needs two points for the sweep
    step, top = params.get("eta_index_step"), params.get("eta_index_max")
    if step is not None and top is not None and 1 <= step and top < step:
        errors.append(f"[params] eta_index_max must be at least eta_index_step ({step}), got {top}")

    for name in ("grid.frequency", "grid.time"):
        if name in sections and name not in record.grids:
            errors.append(f"[{name}] is not read by scenario {scenario}")
    grids = {}
    for name in record.grids:
        g = _grid(sections, name, errors)
        if g is not None:
            grids[name] = g

    if "output" not in sections:
        errors.append("missing required section [output]")
        raise ConfigError(errors)
    out_entry = sections["output"].get("path")
    if out_entry is None:
        errors.append("[output] missing required key 'path'")
        out_path = ""
    else:
        out_path = out_entry[1]
        if Path(out_path).name in ("", ".", ".."):
            errors.append(f"[output] path must end in a file name, got {out_path!r}")
    for key in sections["output"]:
        if key != "path":
            errors.append(f"[output] unknown key {key!r}")

    # physical constraints, checked only once the values themselves parsed: the
    # builder, on every point of a sweep, whose result run_scenario runs
    if not errors:
        try:
            bath = record.bath(params)
        except (ValueError, TypeError) as exc:
            errors.append(str(exc))
    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(scenario=scenario, params=params, grids=grids, output_path=out_path, bath=bath)


# --------------------------------------------------------------------------
# output helpers
# --------------------------------------------------------------------------


def _fmt(x) -> str:
    return format(float(x), ".17g")


# "%.17g" of whole float64 arrays.  The reference rounds |x| half to even to
# the 17-digit integer D = |x| * 10**(16 - k), k = floor(log10 |x|), and
# writes D in fixed notation for -4 <= k <= 16 and in exponential notation
# otherwise, without trailing zeros.  _slot_block computes D exactly from a
# double-double table of powers of ten and Dekker's two-product, and lays the
# cells out as a NUL-padded byte table with one row per character slot.

_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into 26-bit halves


def _pow10(j: int) -> tuple[float, float]:
    """10**j as hi + lo: hi the nearest double, lo the double nearest to the rest."""
    if j >= 0:
        hi = float(10**j)
        return hi, float(10**j - int(hi))
    d = 10**-j
    hi = 1 / d  # int / int rounds correctly
    num, den = hi.as_integer_ratio()
    return hi, (den - num * d) / (den * d)


def _slots(strings: list[str], width: int) -> np.ndarray:
    """(width, len(strings)) uint8: column i holds strings[i], NUL-padded."""
    return np.array(strings, dtype=f"S{width}").view(np.uint8).reshape(-1, width).T.copy()


# 10**j at index j + 300: hi, its halves hh + hl, lo, and the least double >= 10**j
_P_HI, _P_LO = np.array([_pow10(j) for j in range(-300, 301)]).T
_P_HH = _P_HI * _SPLIT - (_P_HI * _SPLIT - _P_HI)
_P_HL = _P_HI - _P_HH
_P_CEIL = np.where(_P_LO > 0, np.nextafter(_P_HI, np.inf), _P_HI)
# "%04d" % g as one 4-byte word, gathered whole
_QUAD = np.array([b"%04d" % g for g in range(10000)], dtype="S4").view(np.uint32)
# sign and "0.000" prefix by 5 * negative + (-k in fixed notation with k < 0)
_PREFIX = _slots([sign + ("0." + "0" * (c - 1) if c else "") for sign in ("", "-") for c in range(5)], 6)
# exponent by k + 300; index 601 is empty
_EXPONENT = _slots([f"e{k:+03d}" for k in range(-300, 301)] + [""], 5)
_SLOT = np.arange(18, dtype=np.uint8)[:, None]


# Cells up to which _slot_block formats each cell by "%.17g" itself.  On blocks of
# 17-digit values (2-vCPU Xeon VM, numpy 2.4) its vectorized passes took 87 us at
# 8 cells and 131 us at 128, the per-cell "%.17g" 8 us and 123 us: they cross at
# 128-140 cells.  Sweep tables (10-50 cells) fall below; spectra and the oracle
# and positivity tables (over 1,000 cells) above.
_SMALL_BLOCK = 128


def _slot_block(x: np.ndarray) -> np.ndarray:
    """(29, x.size) uint8: column i holds "%.17g" % x[i], NUL-padded, one row per character slot."""
    n = x.size
    if n <= _SMALL_BLOCK:
        return _slots(["%.17g" % v for v in x.tolist()], 29)
    a = np.abs(x)
    # the reference formats 0, inf, nan and the values whose scaling could over-
    # or underflow; near ties of an inexact power of ten join them below
    fast = (a >= 1e-280) & (a <= 1e280)
    a[~fast] = 1.0
    # k = floor(log10 a) exactly: log10 may be one off next to a power of ten
    k = np.floor(np.log10(a)).astype(np.intp)
    k += (a >= _P_CEIL[k + 301]).view(np.int8) - (a < _P_CEIL[k + 300]).view(np.int8)
    # D = round_half_even(a * 10**(16 - k)) = p + rint(t): p = fl(a * hi) is an
    # even integer (1e16 > 2**53), and t is its Dekker error plus a * lo
    s = 316 - k
    ah = a * _SPLIT
    ah -= ah - a
    al = a - ah
    hh, hl, lo = _P_HH[s], _P_HL[s], _P_LO[s]
    p = a * _P_HI[s]
    t = ah * hh - p
    t += ah * hl
    t += al * hh
    t += al * hl
    t += a * lo
    r = np.rint(t)
    # t is exact where lo = 0 (10**(16 - k) is a double), else within about
    # 1e-14 of the exact rest: a rounding within 1e-7 of a tie goes to the reference
    slow = ~fast | ((lo != 0) & (np.abs(t - r) > 0.5 - 1e-7))
    d = p.astype(np.int64) + r.astype(np.int64)
    carry = d == 10**17  # rounded up into the next decade
    d[carry] = 10**16
    k += carry
    # digit i of D on row 1 + i; rows 0 and 18 stay NUL
    hi9 = d // 10**8
    lead = hi9 // 10**8
    words = np.concatenate([hi9 - lead * 10**8, d - hi9 * 10**8]).astype(np.uint32)
    quads = words // 10**4
    words -= quads * 10**4
    groups = _QUAD.take(np.stack([quads[:n], words[:n], quads[n:], words[n:]]))
    dg = np.zeros((19, n), dtype=np.uint8)
    dg[1] = lead + 48
    dg[2:18] = groups.view(np.uint8).reshape(4, n, 4).transpose(0, 2, 1).reshape(16, n)
    # nd significant digits, q of them before the point (0 for "0.000ddd")
    nd = ((dg[1:18] != 48).view(np.uint8) * _SLOT[1:]).max(axis=0)
    expo = (k < -4) | (k > 16)
    qi = np.maximum(k + 1, 0)  # at most 17 in fixed notation
    qi[expo] = 1
    q = qi.astype(np.uint8)
    dg[1:18] *= (_SLOT[:17] < np.maximum(nd, q)).view(np.uint8)  # trailing zeros
    # one row per character slot: sign and prefix, mantissa, exponent
    out = np.empty((29, n), dtype=np.uint8)
    out[:6] = _PREFIX.take(5 * (x < 0) + np.where(expo, 0, np.maximum(-k, 0)), axis=1)
    mant = out[6:24]  # slot j: digit j before the point, digit j - 1 after it
    np.subtract(dg[:18], dg[1:], out=mant)
    mant *= (_SLOT > q).view(np.uint8)
    mant += dg[1:]
    out.reshape(-1)[(6 + qi) * n + np.arange(n)] = ((nd > q) & (q > 0)).view(np.uint8) * np.uint8(46)
    out[24:29] = _EXPONENT.take(np.where(expo, k + 300, 601), axis=1)
    idx = np.flatnonzero(slow)
    if idx.size:
        out[:, idx] = _slots(["%.17g" % v for v in x[idx].tolist()], 29)
    return out


# Cells per _slot_block call: its few dozen temporaries of this many elements
# stay in cache; over whole files of 20k-row columns they did not, and a cell
# cost up to twice as much.
_BLOCK_CELLS = 8192


def _format_tables(tables: list, writers: list):
    """Pass the CSV rows of each table of float columns to its writer, a block of rows at a time.

    Cells are "%.17g" % x, joined by "," and "\\n".  A column object that
    appears more than once, in one table or several, is formatted once.
    """
    arrays, index, layouts = [], {}, []
    for columns in tables:
        layout = []
        for col in columns:
            if id(col) not in index:
                index[id(col)] = len(arrays)
                arrays.append(np.asarray(col, dtype=float))
            layout.append(index[id(col)])
        if any(len(arrays[i]) != len(arrays[layout[0]]) for i in layout):
            raise ValueError("CSV columns differ in length")
        layouts.append(layout)
    rows = max(1, _BLOCK_CELLS // len(arrays))
    seps = [np.frombuffer(b"," * (len(layout) - 1) + b"\n", dtype=np.uint8) for layout in layouts]
    for start in range(0, max(len(a) for a in arrays), rows):
        pieces = [a[start:start + rows] for a in arrays]
        slots = _slot_block(np.concatenate(pieces))
        ends = np.cumsum([len(piece) for piece in pieces])
        for layout, sep, write in zip(layouts, seps, writers):
            m = len(pieces[layout[0]])
            if not m:
                continue
            cells = np.empty((m, len(layout), 30), dtype=np.uint8)
            for j, i in enumerate(layout):
                cells[:, j, :29] = slots[:, ends[i] - m:ends[i]].T
            cells[:, :, 29] = sep
            write(cells.tobytes().translate(None, b"\0"))


def _write_csvs(paths: list, comments: dict, tables: list):
    """One CSV file per (header, columns) table: the comment lines, the header and the rows."""
    lines = "".join(f"# {key} = {comments[key]}\n" for key in sorted(comments))
    with ExitStack() as stack:
        files = [stack.enter_context(open(path, "wb")) for path in paths]
        for f, (header, _) in zip(files, tables):
            f.write((lines + ",".join(header) + "\n").encode())
        _format_tables([columns for _, columns in tables], [f.write for f in files])


def _write_sidecar(path: Path, payload: dict):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(payload, f, sort_keys=True, indent=2)
        f.write("\n")


# --------------------------------------------------------------------------
# scenarios: a bath builder and a runner each
# --------------------------------------------------------------------------


def _thermal_bath(params: dict, delta: float, kappa: float) -> ThermalBathParams:
    """Thermal bath of a [params] section at one detuning and cavity width."""
    return ThermalBathParams(
        g=params["g"],
        omega_q=params["omega_q"],
        omega_c=params["omega_q"] - delta,
        kappa=kappa,
        nbar=params["nbar"],
    )


def _thermal(params: dict) -> ThermalBathParams:
    return _thermal_bath(params, params["delta"], params["kappa"])


def _squeezed(params: dict) -> SqueezedBathParams:
    return SqueezedBathParams(**params)


def _waveguide(params: dict) -> waveguide.WaveguideParams:
    return waveguide.WaveguideParams(**params)


def _log_axis(params: dict, axis: str) -> np.ndarray:
    """{axis}_min ... {axis}_max in {axis}_points log-spaced steps."""
    lo, hi = params[f"{axis}_min"], params[f"{axis}_max"]
    if lo == 0 or hi == 0 or (lo < 0) != (hi < 0):
        raise ValueError(f"[params] {axis}_min and {axis}_max of a log-spaced sweep must be nonzero "
                         f"and of one sign, got {lo} and {hi}")
    return np.geomspace(lo, hi, params[f"{axis}_points"])


def _kappa_sweep(params: dict):
    kappas = _log_axis(params, "kappa")
    return kappas, [_thermal_bath(params, params["delta"], float(k)) for k in kappas]


def _delta_sweep(params: dict):
    deltas = _log_axis(params, "delta")
    return deltas, [_thermal_bath(params, float(d), params["kappa"]) for d in deltas]


def _blp_sweep(params: dict):
    deltas = np.linspace(params["delta_min"], params["delta_max"], params["delta_points"])
    return deltas, [_thermal_bath(params, float(d), params["kappa"]) for d in deltas]


def _eta_sweep(params: dict):
    """The resonant delays and the waveguide swept along them (its own eta is unused)."""
    p = waveguide.WaveguideParams(params["omega0"], params["gamma"], params["beta"])
    return waveguide.resonant_eta_grid(p, params["eta_index_max"], params["eta_index_step"]), p


# A runner takes the config and what the bath builder returned.  It returns
# the CSV tables as (suffix, header, columns), the metadata for the CSV
# comments and the sidecar, and the metadata for the sidecar alone.


def _frequency_grid(cfg: ScenarioConfig, p, default) -> np.ndarray:
    spec = cfg.grids.get("grid.frequency")
    return default(p) if spec is None else spec.array()


def _emission(cfg: ScenarioConfig, p):
    """Frequency grid and FD-QME emission spectrum of a cavity bath at its steady state."""
    grid = _frequency_grid(cfg, p, default_frequency_grid)
    propagator = fdme.thermal_propagator if isinstance(p, ThermalBathParams) else fdme.squeezed_propagator
    return grid, fdme.emission_spectrum(propagator(p), grid)


def _run_cavity_spectrum(cfg, p):
    grid, spec = _emission(cfg, p)
    markov = make_spectrum(grid, markovian_spectrum(p, grid))
    header = ["frequency_minus_qubit[g]", "density[1/g]"]
    tables = [(".csv", header, [grid, spec.values]), (".markov.csv", header, [grid, markov.values])]
    return tables, {}, {"grid_points": grid.size}


def _run_waveguide_spectrum(cfg, p):
    grid = _frequency_grid(cfg, p, waveguide.default_waveguide_grid)
    spec = waveguide.waveguide_spectrum(p, grid)
    ref = waveguide.waveguide_spectrum(replace(p, eta=0.0), grid)
    header = ["frequency[gamma]", "density[1/gamma]"]
    tables = [(".csv", header, [grid, spec.values]), (".markov.csv", header, [grid, ref.values])]
    return tables, {}, {"grid_points": grid.size}


def _run_thermal_sweep(axis_header, cfg, sweep):
    xs, baths = sweep
    values = [measures.bath_measure(p).value for p in baths]
    return [(".csv", [axis_header, "spectral_measure"], [xs, values])], {}, {}


def _run_eta_sweep(cfg, sweep):
    etas, p = sweep
    result = waveguide.waveguide_measure_sweep(p, etas)
    summary = {key: _fmt(result[key]) for key in ("markov_bandwidth", "eta_max", "saturation")}
    return [(".csv", ["eta", "spectral_measure"], [result["eta"], result["values"]])], summary, {}


def _run_blp_compare(cfg, sweep):
    deltas, baths = sweep
    t_grid = cfg.grids["grid.time"].array()
    blp = [measures.backflow(redfield.br_ge_distance(p, t_grid)) for p in baths]
    ns = [measures.bath_measure(p).value for p in baths]
    return [(".csv", ["delta[g]", "blp_measure", "spectral_measure"], [deltas, blp, ns])], {}, {}


def _run_positivity(cfg, p):
    t_grid = cfg.grids["grid.time"].array()
    rho0 = qubit_state("y-").reshape(-1)
    traj = redfield.br_evolve(p, rho0, t_grid)
    states = fdme.inverse_transform(fdme.squeezed_propagator(p), rho0, t_grid).reshape(-1, 2, 2)
    mm = states @ states  # Tr[rho^2] below; inverse_transform has checked Hermiticity
    pur_fd = (mm[:, 0, 0] + mm[:, 1, 1]).real
    header = ["time[1/g]", "purity_br", "purity_fdqme"]
    return [(".csv", header, [t_grid, traj.purities(), pur_fd])], {}, {"initial_state": "sigma_y_minus"}


def _run_oracle_compare(cfg, p):
    grid, spec = _emission(cfg, p)
    full = oracle.full_steady_spectrum(oracle.build_full_model(p, cfg.params["n_fock"]), grid)
    header = ["frequency_minus_qubit[g]", "density_fdqme[1/g]", "density_full[1/g]"]
    return [(".csv", header, [grid, spec.values, full.values])], {}, {"n_fock": cfg.params["n_fock"]}


@dataclass(frozen=True)
class _Scenario:
    keys: tuple  # required [params] keys
    grids: tuple  # the grid sections run reads; any other is a config error
    bath: Callable  # [params] -> what the runner takes; raises ValueError on unphysical input
    run: Callable  # (cfg, bath) -> (tables, comments, sidecar metadata)


_THERMAL_KEYS = ("g", "omega_q", "kappa", "nbar", "delta")
_SQUEEZED_KEYS = ("g", "delta_q", "delta_c", "r", "kappa")
_WAVEGUIDE_KEYS = ("omega0", "gamma", "beta")
_FREQUENCY, _TIME = ("grid.frequency",), ("grid.time",)
_SCENARIOS = {
    "thermal-spectrum": _Scenario(_THERMAL_KEYS, _FREQUENCY, _thermal, _run_cavity_spectrum),
    "squeezed-spectrum": _Scenario(_SQUEEZED_KEYS, _FREQUENCY, _squeezed, _run_cavity_spectrum),
    "waveguide-spectrum": _Scenario(_WAVEGUIDE_KEYS + ("eta",), _FREQUENCY, _waveguide, _run_waveguide_spectrum),
    # one record per axis; a [params] key starting "<axis>_" picks it
    "measure-sweep": {
        "kappa": _Scenario(("g", "omega_q", "nbar", "delta", "kappa_min", "kappa_max", "kappa_points"), (),
                           _kappa_sweep, partial(_run_thermal_sweep, "kappa[g]")),
        "delta": _Scenario(("g", "omega_q", "nbar", "kappa", "delta_min", "delta_max", "delta_points"), (),
                           _delta_sweep, partial(_run_thermal_sweep, "delta[g]")),
        "eta": _Scenario(_WAVEGUIDE_KEYS + ("eta_index_max", "eta_index_step"), (), _eta_sweep, _run_eta_sweep),
    },
    "blp-compare": _Scenario(("g", "omega_q", "kappa", "nbar", "delta_min", "delta_max", "delta_points"),
                             _TIME, _blp_sweep, _run_blp_compare),
    "positivity": _Scenario(_SQUEEZED_KEYS, _TIME, _squeezed, _run_positivity),
    "oracle-compare": _Scenario(_THERMAL_KEYS + ("n_fock",), _FREQUENCY, _thermal, _run_oracle_compare),
}
SCENARIOS = tuple(_SCENARIOS)


def _record(scenario: str, param_keys) -> _Scenario | None:
    """The table record of a scenario; for measure-sweep, of the one axis its keys name."""
    record = _SCENARIOS[scenario]
    if isinstance(record, dict):
        axes = [axis for axis in record if any(key.startswith(axis + "_") for key in param_keys)]
        record = record[axes[0]] if len(axes) == 1 else None
    return record


def run_scenario(cfg: ScenarioConfig, out_dir: str | None = None) -> list:
    """Execute a parsed scenario; returns the written file paths."""
    record = _record(cfg.scenario, cfg.params)
    base = Path(cfg.output_path)
    if out_dir is not None:
        base = Path(out_dir) / base.name
    meta = {f"param.{k}": _fmt(v) for k, v in cfg.params.items()}
    meta["scenario"] = cfg.scenario
    for name, g in cfg.grids.items():
        meta[f"{name}.min"], meta[f"{name}.max"], meta[f"{name}.points"] = _fmt(g.lo), _fmt(g.hi), g.points
    try:
        tables, comments, sidecar_meta = record.run(cfg, cfg.bath)
        meta.update(comments)
        written = [base.with_suffix(suffix) for suffix, _, _ in tables]
        # made only now, so that a scenario that fails leaves no directory behind
        base.parent.mkdir(parents=True, exist_ok=True)
        _write_csvs(written, meta, [(header, columns) for _, header, columns in tables])
    except Exception as exc:
        raise RuntimeError(f"scenario {cfg.scenario} failed: {exc}") from exc
    meta.update(sidecar_meta)
    sidecar = base.with_suffix(".meta.json")
    _write_sidecar(
        sidecar,
        {
            "scenario": cfg.scenario,
            "params": cfg.params,
            "grids": {k: [g.lo, g.hi, g.points] for k, g in cfg.grids.items()},
            "outputs": [p.name for p in written],
            "tolerances": {
                "spectrum_negative_clip_rel": fdme.NEGATIVE_CLIP_REL,
                "propagator_residual": fdme.RESIDUAL_TOL,
                "trajectory_trace_hermiticity": redfield.TRAJECTORY_TOL,
                "measure_quadrature_rtol": measures.QUADRATURE_RTOL,
                "ode_rtol": redfield.ODE_RTOL,
                "ode_atol": redfield.ODE_ATOL,
            },
            "metadata": meta,
        },
    )
    return written + [sidecar]


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once; ``parse_args`` keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="fdqme",
        description="Frequency-domain master equation scenario runner",
    )
    parser.add_argument("--list-scenarios", action="store_true", help="print the scenario registry and exit")
    sub = parser.add_subparsers(dest="scenario")
    for name in _SCENARIOS:
        sp = sub.add_parser(name, help=f"run the {name} scenario")
        sp.add_argument("--config", required=True, help="path to the config file")
        sp.add_argument("--out", default=None, help="directory for output files")
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.list_scenarios:
        for name in SCENARIOS:
            print(name)
        return 0
    if args.scenario is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(text, args.scenario)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        written = run_scenario(cfg, out_dir=args.out)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
