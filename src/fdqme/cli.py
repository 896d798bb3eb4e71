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
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import fdme, measures, oracle, redfield, waveguide
from .baths import (
    SqueezedBathParams,
    ThermalBathParams,
    default_frequency_grid,
    markovian_spectrum,
    thermal_closed_spectrum,
)
from .fdme import make_spectrum
from .liouville import SIGMA_MINUS, qubit_state

__all__ = ["ScenarioConfig", "ConfigError", "parse_config", "run_scenario", "main"]

SCENARIOS = (
    "thermal-spectrum",
    "squeezed-spectrum",
    "waveguide-spectrum",
    "measure-sweep",
    "blp-compare",
    "positivity",
    "oracle-compare",
)

_THERMAL_KEYS = ("g", "omega_q", "kappa", "nbar", "delta")
_SQUEEZED_KEYS = ("g", "delta_q", "delta_c", "r", "kappa")
_WAVEGUIDE_KEYS = ("omega0", "gamma", "beta")

# required [params] keys, allowed optional [params] keys, required grid sections
_SCHEMAS = {
    "thermal-spectrum": (_THERMAL_KEYS, (), ()),
    "squeezed-spectrum": (_SQUEEZED_KEYS, (), ()),
    "waveguide-spectrum": (_WAVEGUIDE_KEYS + ("eta",), (), ()),
    "measure-sweep": ((), None, ()),  # validated by sweep-group logic
    "blp-compare": (
        ("g", "omega_q", "kappa", "nbar", "delta_min", "delta_max", "delta_points"),
        (),
        ("grid.time",),
    ),
    "positivity": (_SQUEEZED_KEYS, (), ("grid.time",)),
    "oracle-compare": (_THERMAL_KEYS + ("n_fock",), (), ()),
}

_SWEEP_GROUPS = {
    "kappa": {
        "sweep": ("kappa_min", "kappa_max", "kappa_points"),
        "fixed": ("g", "omega_q", "nbar", "delta"),
    },
    "delta": {
        "sweep": ("delta_min", "delta_max", "delta_points"),
        "fixed": ("g", "omega_q", "nbar", "kappa"),
    },
    "eta": {
        "sweep": ("eta_index_max", "eta_index_step"),
        "fixed": _WAVEGUIDE_KEYS,
    },
}


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
    output_format: str = "csv"
    extra: dict = field(default_factory=dict)


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


def _grid(sections, name, errors, required) -> GridSpec | None:
    if name not in sections:
        if required:
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


def _sweep_axis(param_keys, errors):
    present = [
        axis
        for axis, group in _SWEEP_GROUPS.items()
        if any(k in param_keys for k in group["sweep"])
    ]
    if len(present) != 1:
        errors.append(
            "measure-sweep needs exactly one sweep group "
            "(kappa_min/max/points, delta_min/max/points, or eta_index_max/step)"
        )
        return None
    return present[0]


def parse_config(text: str, scenario: str) -> ScenarioConfig:
    """Validate a config for the given scenario; report every error found."""
    if scenario not in SCENARIOS:
        raise ConfigError([f"unknown scenario {scenario!r}; choose from {', '.join(SCENARIOS)}"])
    errors: list[str] = []
    sections = _parse_sections(text, errors)
    if "params" not in sections:
        errors.append("missing required section [params]")
        raise ConfigError(errors)

    if scenario == "measure-sweep":
        axis = _sweep_axis(sections["params"].keys(), errors)
        if axis is None:
            raise ConfigError(errors)
        group = _SWEEP_GROUPS[axis]
        integer_keys = {"kappa_points", "delta_points", "eta_index_max", "eta_index_step"}
        required = tuple(group["fixed"]) + tuple(group["sweep"])
        optional = ()
        extra = {"sweep_axis": axis}
    else:
        required, optional, _ = _SCHEMAS[scenario]
        integer_keys = {"n_fock", "delta_points"}
        extra = {}

    params = {}
    for key in required:
        val = _number(sections, "params", key, errors, integer=key in integer_keys)
        if val is not None:
            params[key] = val
    allowed = set(required) | set(optional or ())
    for key in sections["params"]:
        if key not in allowed:
            errors.append(f"[params] unknown key {key!r} for scenario {scenario}")

    grids = {}
    _, _, needed_grids = _SCHEMAS[scenario]
    for name in ("grid.frequency", "grid.time"):
        g = _grid(sections, name, errors, required=name in needed_grids)
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
    fmt_entry = sections["output"].get("format")
    fmt = fmt_entry[1] if fmt_entry is not None else "csv"
    if fmt != "csv":
        errors.append(f"[output] unsupported format {fmt!r}")
    for key in sections["output"]:
        if key not in ("path", "format"):
            errors.append(f"[output] unknown key {key!r}")

    # physical constraints, checked only once the values themselves parsed
    if not errors:
        try:
            _build_bath(scenario, params, extra)
        except (ValueError, TypeError) as exc:
            errors.append(str(exc))
    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(
        scenario=scenario,
        params=params,
        grids=grids,
        output_path=out_path,
        output_format=fmt,
        extra=extra,
    )


def _thermal_bath(params: dict, delta: float, kappa: float) -> ThermalBathParams:
    """Thermal bath of a [params] section at one detuning and cavity width."""
    return ThermalBathParams(
        g=params["g"],
        omega_q=params["omega_q"],
        omega_c=params["omega_q"] - delta,
        kappa=kappa,
        nbar=params["nbar"],
    )


def _build_bath(scenario: str, params: dict, extra: dict):
    """Instantiate parameter objects so their invariants run at parse time."""
    if scenario == "measure-sweep" and extra["sweep_axis"] == "eta":
        return waveguide.WaveguideParams(omega0=params["omega0"], gamma=params["gamma"], beta=params["beta"])
    if scenario in ("thermal-spectrum", "oracle-compare", "blp-compare", "measure-sweep"):
        # sweeps and blp-compare are checked at the first point of their axis
        delta = params.get("delta", params.get("delta_min"))
        return _thermal_bath(params, delta, params.get("kappa", params.get("kappa_min")))
    if scenario in ("squeezed-spectrum", "positivity"):
        return SqueezedBathParams(
            g=params["g"],
            delta_q=params["delta_q"],
            delta_c=params["delta_c"],
            r=params["r"],
            kappa=params["kappa"],
        )
    if scenario == "waveguide-spectrum":
        return waveguide.WaveguideParams(
            omega0=params["omega0"], gamma=params["gamma"], beta=params["beta"], eta=params["eta"]
        )
    return None


# --------------------------------------------------------------------------
# output helpers
# --------------------------------------------------------------------------


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, comments: dict, header: list[str], columns: list[np.ndarray]):
    # One %-format over all cells and one write: "%.17g" % x gives the same
    # bytes as _fmt(x) (both call PyOS_double_to_string with the same
    # arguments), at a fraction of the cost of formatting cell by cell.
    cells = np.column_stack(columns).ravel().tolist()
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    body = row * (len(cells) // len(columns)) % tuple(cells)
    lines = [f"# {key} = {comments[key]}\n" for key in sorted(comments)]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("".join(lines) + ",".join(header) + "\n" + body)


def _write_sidecar(path: Path, payload: dict):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(payload, f, sort_keys=True, indent=2)
        f.write("\n")


def _resolve_out(cfg: ScenarioConfig, out_dir: str | None) -> Path:
    path = Path(cfg.output_path)
    if out_dir is not None:
        path = Path(out_dir) / path.name
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


# --------------------------------------------------------------------------
# scenario implementations
# --------------------------------------------------------------------------


def _spectrum_grid(cfg: ScenarioConfig, p) -> np.ndarray:
    if "grid.frequency" in cfg.grids:
        return cfg.grids["grid.frequency"].array()
    return default_frequency_grid(p)


def _run_cavity_spectrum(propagator, cfg, base, meta, opts):
    p = _build_bath(cfg.scenario, cfg.params, cfg.extra)
    grid = _spectrum_grid(cfg, p)
    fp = propagator(p)
    rho_ss = fdme.steady_state(fp, qubit_state("mixed"))
    spec = fdme.emission_spectrum(fp, SIGMA_MINUS, rho_ss, grid)
    markov = make_spectrum(grid, markovian_spectrum(p, grid))
    f1 = base.with_suffix(".csv")
    f2 = base.with_suffix(".markov.csv")
    _write_csv(f1, meta, ["frequency_minus_qubit[g]", "density[1/g]"], [grid, spec.values])
    _write_csv(f2, meta, ["frequency_minus_qubit[g]", "density[1/g]"], [grid, markov.values])
    meta["grid_points"] = int(grid.size)
    return [f1, f2]


def _run_waveguide_spectrum(cfg, base, meta, opts):
    p = _build_bath(cfg.scenario, cfg.params, cfg.extra)
    if "grid.frequency" in cfg.grids:
        grid = cfg.grids["grid.frequency"].array()
    else:
        grid = waveguide.default_waveguide_grid(p)
    spec = waveguide.waveguide_spectrum(p, grid)
    ref = waveguide.waveguide_spectrum(replace(p, eta=0.0), grid)
    f1 = base.with_suffix(".csv")
    f2 = base.with_suffix(".markov.csv")
    _write_csv(f1, meta, ["frequency[gamma]", "density[1/gamma]"], [grid, spec.values])
    _write_csv(f2, meta, ["frequency[gamma]", "density[1/gamma]"], [grid, ref.values])
    meta["grid_points"] = int(grid.size)
    return [f1, f2]


def _thermal_ns(p: ThermalBathParams, gap_method: str) -> float:
    grid = default_frequency_grid(p)
    s = make_spectrum(grid, thermal_closed_spectrum(p, grid))
    s_m = make_spectrum(grid, markovian_spectrum(p, grid))
    gap = measures.spectral_gap(p, method=gap_method)
    return measures.spectral_measure(s, s_m, gap).value


def _run_measure_sweep(cfg, base, meta, opts):
    axis = cfg.extra["sweep_axis"]
    prm = cfg.params
    if axis == "eta":
        p = waveguide.WaveguideParams(omega0=prm["omega0"], gamma=prm["gamma"], beta=prm["beta"])
        etas = waveguide.resonant_eta_grid(p, int(prm["eta_index_max"]), int(prm["eta_index_step"]))
        sweep = waveguide.waveguide_measure_sweep(p, etas)
        values = sweep["values"]
        xs = sweep["eta"]
        meta["markov_bandwidth"] = _fmt(sweep["markov_bandwidth"])
        meta["eta_max"] = _fmt(sweep["eta_max"])
        meta["saturation"] = _fmt(sweep["saturation"])
        header = ["eta", "spectral_measure"]
    else:
        if axis == "kappa":
            xs = np.geomspace(prm["kappa_min"], prm["kappa_max"], int(prm["kappa_points"]))
            baths_list = [_thermal_bath(prm, prm["delta"], float(k)) for k in xs]
            header = ["kappa[g]", "spectral_measure"]
        else:
            xs = np.geomspace(prm["delta_min"], prm["delta_max"], int(prm["delta_points"]))
            baths_list = [_thermal_bath(prm, float(d), prm["kappa"]) for d in xs]
            header = ["delta[g]", "spectral_measure"]
        values = np.array([_thermal_ns(b, opts["gap_method"]) for b in baths_list])
    f1 = base.with_suffix(".csv")
    _write_csv(f1, meta, header, [xs, values])
    return [f1]


def _run_blp_compare(cfg, base, meta, opts):
    prm = cfg.params
    t_grid = cfg.grids["grid.time"].array()
    deltas = np.linspace(prm["delta_min"], prm["delta_max"], int(prm["delta_points"]))

    def one(delta):
        p = _thermal_bath(prm, float(delta), prm["kappa"])
        tg = redfield.br_evolve(p, qubit_state("g").reshape(-1), t_grid)
        te = redfield.br_evolve(p, qubit_state("e").reshape(-1), t_grid)
        blp = measures.blp_measure(tg, te).value
        return blp, _thermal_ns(p, opts["gap_method"])

    pairs = [one(d) for d in deltas]
    blp_vals = np.array([a for a, _ in pairs])
    ns_vals = np.array([b for _, b in pairs])
    f1 = base.with_suffix(".csv")
    _write_csv(f1, meta, ["delta[g]", "blp_measure", "spectral_measure"], [deltas, blp_vals, ns_vals])
    return [f1]


def _run_positivity(cfg, base, meta, opts):
    p = _build_bath(cfg.scenario, cfg.params, cfg.extra)
    t_grid = cfg.grids["grid.time"].array()
    rho0 = qubit_state("y-").reshape(-1)
    traj = redfield.br_evolve(p, rho0, t_grid, include_sum_frequency=opts["include_sum_frequency"])
    fp = fdme.squeezed_propagator(p)
    states = fdme.inverse_transform(fp, rho0, t_grid)
    pur_fd = np.array([fdme.purity(s) for s in states])
    f1 = base.with_suffix(".csv")
    _write_csv(
        f1,
        meta,
        ["time[1/g]", "purity_br", "purity_fdqme"],
        [t_grid, traj.purities(), pur_fd],
    )
    meta["initial_state"] = "sigma_y_minus"
    return [f1]


def _run_oracle_compare(cfg, base, meta, opts):
    prm = cfg.params
    p = _build_bath(cfg.scenario, prm, cfg.extra)
    grid = _spectrum_grid(cfg, p)
    fp = fdme.thermal_propagator(p)
    rho_ss = fdme.steady_state(fp, qubit_state("mixed"))
    spec = fdme.emission_spectrum(fp, SIGMA_MINUS, rho_ss, grid)
    model = oracle.build_full_model(p, int(prm["n_fock"]))
    full = oracle.full_steady_spectrum(model, grid)
    f1 = base.with_suffix(".csv")
    _write_csv(
        f1,
        meta,
        ["frequency_minus_qubit[g]", "density_fdqme[1/g]", "density_full[1/g]"],
        [grid, spec.values, full.values],
    )
    meta["n_fock"] = int(prm["n_fock"])
    return [f1]


# the propagator factories are looked up on the fdme module at call time, so
# wrappers installed there (as benchmarks/tracing.py does) see every call
_RUNNERS = {
    "thermal-spectrum": lambda *args: _run_cavity_spectrum(fdme.thermal_propagator, *args),
    "squeezed-spectrum": lambda *args: _run_cavity_spectrum(fdme.squeezed_propagator, *args),
    "waveguide-spectrum": _run_waveguide_spectrum,
    "measure-sweep": _run_measure_sweep,
    "blp-compare": _run_blp_compare,
    "positivity": _run_positivity,
    "oracle-compare": _run_oracle_compare,
}


def run_scenario(
    cfg: ScenarioConfig,
    out_dir: str | None = None,
    gap_method: str = "eigen",
    include_sum_frequency: bool = False,
) -> list:
    """Execute a parsed scenario; returns the written file paths."""
    base = _resolve_out(cfg, out_dir)
    opts = {"gap_method": gap_method, "include_sum_frequency": include_sum_frequency}
    meta = {f"param.{k}": _fmt(v) for k, v in cfg.params.items()}
    meta["scenario"] = cfg.scenario
    for name, g in cfg.grids.items():
        meta[f"{name}.min"], meta[f"{name}.max"], meta[f"{name}.points"] = _fmt(g.lo), _fmt(g.hi), g.points
    try:
        written = _RUNNERS[cfg.scenario](cfg, base, meta, opts)
    except Exception as exc:
        raise RuntimeError(f"scenario {cfg.scenario} failed: {exc}") from exc
    sidecar = base.with_suffix(".meta.json")
    _write_sidecar(
        sidecar,
        {
            "scenario": cfg.scenario,
            "params": cfg.params,
            "grids": {k: [g.lo, g.hi, g.points] for k, g in cfg.grids.items()},
            "options": opts,
            "outputs": [p.name for p in written],
            "tolerances": {
                "spectrum_negative_clip_rel": fdme.NEGATIVE_CLIP_REL,
                "propagator_residual": fdme.RESIDUAL_TOL,
                "trajectory_trace_hermiticity": redfield.TRAJECTORY_TOL,
                "kl_tail_cutoff_rel": measures.TAIL_CUTOFF_REL,
                "ode_rtol": 1e-10,
                "ode_atol": 1e-12,
            },
            "metadata": meta,
        },
    )
    return written + [sidecar]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fdqme",
        description="Frequency-domain master equation scenario runner",
    )
    parser.add_argument("--list-scenarios", action="store_true", help="print the scenario registry and exit")
    sub = parser.add_subparsers(dest="scenario")
    for name in SCENARIOS:
        sp = sub.add_parser(name, help=f"run the {name} scenario")
        sp.add_argument("--config", required=True, help="path to the config file")
        sp.add_argument("--out", default=None, help="directory for output files")
        sp.add_argument("--gap", choices=("eigen", "fwhm"), default="eigen",
                        help="Markovian bandwidth definition for measures")
        sp.add_argument("--include-sum-frequency", action="store_true",
                        help="keep sum-frequency terms in time-local rates")
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
        written = run_scenario(
            cfg,
            out_dir=args.out,
            gap_method=args.gap,
            include_sum_frequency=args.include_sum_frequency,
        )
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
