#!/usr/bin/env bash
# Smoke test of the installed `fdqme` console script (the [project.scripts] entry point,
# which the tests, calling main() directly, never run).  Usage:
#   .github/console-smoke.sh [work-dir]
# Configs and outputs go to work-dir (default: a new temporary directory).
set -euo pipefail
work="${1:-$(mktemp -d)}"
mkdir -p "$work"

# 9001 rows of two columns: the rows are formatted in several blocks, the shared
# frequency column once for both files
echo "::group::Console script"
fdqme --list-scenarios
cat > "$work/smoke.cfg" <<'CFG'
[params]
g = 1.0
omega_q = 2.0e5
kappa = 10.0
nbar = 0.1
delta = 50.0

[grid.frequency]
min = -200.0
max = 200.0
points = 9001

[output]
path = smoke.csv
CFG
fdqme thermal-spectrum --config "$work/smoke.cfg" --out "$work/smoke"
# every cell as Python's own format(x, ".17g") writes it, with the installed numpy
python - "$work/smoke/smoke.csv" "$work/smoke/smoke.markov.csv" <<'PY'
import sys
for path in sys.argv[1:]:
    lines = [line for line in open(path).read().splitlines() if not line.startswith("#")][1:]
    assert len(lines) == 9001, (path, len(lines))
    for line in lines:
        cells = line.split(",")
        assert line == ",".join(format(float(c), ".17g") for c in cells), (path, line)
    print(f"{path}: {len(lines)} rows in %.17g")
PY
echo "::endgroup::"

# The squeezed bath's 2x2 coherence source block behind the entry point, on its
# default grid (the thermal spectrum above solves a 1x1 block): every cell as
# format(x, ".17g") writes it, and the line within 1e-9 of the peak of the
# normalised squeezed_closed_spectrum.
echo "::group::squeezed-spectrum through the console script"
cat > "$work/squeezed.cfg" <<'CFG'
[params]
g = 1.0
delta_q = 200.0
delta_c = 320.0
r = 115.0
kappa = 10.0

[output]
path = squeezed.csv
CFG
fdqme squeezed-spectrum --config "$work/squeezed.cfg" --out "$work/squeezed"
python - "$work/squeezed/squeezed.csv" <<'PY'
import sys
import numpy as np
from fdqme import SqueezedBathParams, squeezed_closed_spectrum
from fdqme.fdme import make_spectrum
lines = [line for line in open(sys.argv[1]).read().splitlines() if not line.startswith("#")]
header, cells = lines[0].split(","), [line.split(",") for line in lines[1:]]
assert header == ["frequency_minus_qubit[g]", "density[1/g]"] and len(cells) > 10000, (header, len(cells))
for row in cells:
    assert row == [format(float(c), ".17g") for c in row], row
grid, density = np.array(cells, dtype=float).T
p = SqueezedBathParams(g=1.0, delta_q=200.0, delta_c=320.0, r=115.0, kappa=10.0)
closed = make_spectrum(grid, squeezed_closed_spectrum(p, grid)).values
error = np.abs(density - closed).max() / closed.max()
assert error <= 1e-9, error
print(f"{sys.argv[1]}: {len(cells)} rows in %.17g, {error:.2e} of the peak from the closed form")
PY
echo "::endgroup::"

# The time-domain kernels of the installed package, which no scenario calls, at the
# benchmark's scale (100,001 samples up to 40/kappa) with the numpy of the job, whose
# tan may take another loop (the numpy 2.0 floor): one moderate thermal and one
# squeezed bath, within 1e-9 of generic_kernel_time at t <= 0.3 and within 1e-13 of
# the largest entry of the direct mode sum.
echo "::group::Kernels through the installed package"
env -u PYTHONPATH python - <<'PY'
import numpy as np
import fdqme
from fdqme import (SqueezedBathParams, ThermalBathParams, generic_kernel_time, kernel_modes, squeezed_kernel_time,
                   thermal_kernel_time)
for p, kernel in ((ThermalBathParams(g=1.0, omega_q=200.0, omega_c=150.0, kappa=10.0, nbar=0.2), thermal_kernel_time),
                  (SqueezedBathParams(g=1.0, delta_q=200.0, delta_c=320.0, r=115.0, kappa=10.0), squeezed_kernel_time)):
    t = np.linspace(0.0, 40.0 / p.kappa, 100_001)
    k = kernel(p, t)
    early = t <= 0.3
    generic = np.abs(k[early] - generic_kernel_time(p, t[early])).max()
    assert generic <= 1e-9, generic
    modes = kernel_modes(p)
    direct = np.einsum("nk,kij->nij", np.exp(np.multiply.outer(t, 1j * modes.mus - modes.kappa)), modes.coef)
    error = np.abs(k - direct).max() / np.abs(direct).max()
    assert error <= 1e-13, error
    print(f"{type(p).__name__}: {generic:.2e} from generic_kernel_time at {early.sum()} times, "
          f"{error:.2e} of the largest entry from the direct mode sum at {t.size} times")
print(f"{fdqme.__file__}, numpy {np.__version__}")
PY
echo "::endgroup::"

# The Born-Redfield integrator and the exact inverse transform behind the entry point,
# at the parameters of the paper's squeezed example (r = sqrt(120^2 - 34^2)); each
# purity_br row is the purity of the library's br_evolve run from y-, to the last digit,
# and within 1e-10 of the tests' independent reference, tests/conftest.py's br_reference
# (2.6e-11 at most; 5.0e-10 before br_evolve moved to the frame of the free phases).
echo "::group::Positivity through the console script"
cat > "$work/positivity.cfg" <<'CFG'
[params]
g = 1.0
delta_q = 200.0
delta_c = 120.0
r = 115.08257904652642
kappa = 10.0

[grid.time]
min = 0.0
max = 2.0
points = 41

[output]
path = positivity.csv
CFG
fdqme positivity --config "$work/positivity.cfg" --out "$work/positivity"
python - "$work/positivity/positivity.csv" "$(dirname "$0")/../tests" <<'PY'
import sys
import numpy as np
from fdqme import SqueezedBathParams, br_evolve, qubit_state
sys.path.insert(0, sys.argv[2])
from conftest import br_reference  # scipy's DOP853 at rtol 1e-13, atol 1e-15, in the lab frame
lines = [line for line in open(sys.argv[1]).read().splitlines() if not line.startswith("#")]
header, cells = lines[0].split(","), [line.split(",") for line in lines[1:]]
assert header == ["time[1/g]", "purity_br", "purity_fdqme"] and len(cells) == 41, (header, len(cells))
p = SqueezedBathParams(g=1.0, delta_q=200.0, delta_c=120.0, r=115.08257904652642, kappa=10.0)
ts = np.linspace(0.0, 2.0, 41)
purities = br_evolve(p, qubit_state("y-"), ts).purities()
for row, purity in zip(cells, purities):
    assert row[1] == format(purity, ".17g"), (row, purity)
rows = [[float(x) for x in row] for row in cells]
mats = br_reference(p, qubit_state("y-").reshape(-1), ts).reshape(-1, 2, 2)
error = np.abs(np.array(rows)[:, 1] - np.einsum("nij,nji->n", mats, mats).real).max()
assert error <= 1e-10, error
br, fd = max(row[1] for row in rows), max(row[2] for row in rows)
# Born-Redfield breaks positivity here (purity above 1); the FD-QME state stays physical
assert br > 1.0 + 1e-4 >= fd, (br, fd)
print(f"largest purity: Born-Redfield {br:.6f}, FD-QME {fd:.6f}; every purity_br row equal to br_evolve's, "
      f"{error:.2e} from the scipy reference at most")
PY
echo "::endgroup::"

# The Born-Redfield integrator of the installed package on a thermal bath from x+: it holds
# the population block {0, 3} and the coherence block {1, 2}, on which the thermal
# generator is diagonal, stacked.  Within 1e-8 of the tests' scipy reference, with both
# coherences nonzero throughout.
echo "::group::Born-Redfield from x+ on a thermal bath through the installed package"
env -u PYTHONPATH python - "$(dirname "$0")/../tests" <<'PY'
import sys
import numpy as np
import fdqme
from fdqme import ThermalBathParams, br_evolve, qubit_state
sys.path.insert(0, sys.argv[1])
from conftest import br_reference  # scipy's DOP853 at rtol 1e-13, atol 1e-15, in the lab frame
p = ThermalBathParams(g=1.0, omega_q=300.0, omega_c=250.0, kappa=10.0, nbar=0.1)
ts = np.linspace(0.0, 2.0, 41)
states = br_evolve(p, qubit_state("x+"), ts).states
error = np.abs(states - br_reference(p, qubit_state("x+").reshape(-1), ts)).max()
assert error <= 1e-8, error
assert np.all(states[:, [1, 2]] != 0.0)
print(f"{fdqme.__file__}: br_evolve from x+ {error:.2e} from the scipy reference at {ts.size} times")
PY
echo "::endgroup::"

# The ground/excited trace distance in closed form (Abel's identity) per detuning:
# each backflow within 1e-9 of blp_measure of the library's integrated ground and
# excited runs, no backflow at the smallest detuning, backflow at the largest, and
# a spectral measure that grows with the detuning (acceptance criterion 9), each
# row the library's bath_measure of its bath, to the last digit.
echo "::group::blp-compare through the console script"
cat > "$work/blp.cfg" <<'CFG'
[params]
g = 1.0
omega_q = 2.0e5
kappa = 20.0
nbar = 0.1
delta_min = 10.0
delta_max = 170.0
delta_points = 4

[grid.time]
min = 0.0
max = 0.6
points = 61

[output]
path = blp.csv
CFG
fdqme blp-compare --config "$work/blp.cfg" --out "$work/blp"
python - "$work/blp/blp.csv" <<'PY'
import sys
import numpy as np
from fdqme import ThermalBathParams, bath_measure, blp_measure, br_evolve, qubit_state
lines = [line for line in open(sys.argv[1]).read().splitlines() if not line.startswith("#")]
header, cells = lines[0].split(","), [line.split(",") for line in lines[1:]]
assert header == ["delta[g]", "blp_measure", "spectral_measure"] and len(cells) == 4, (header, len(cells))
for delta, blp, ns in cells:
    p = ThermalBathParams(g=1.0, omega_q=2.0e5, omega_c=2.0e5 - float(delta), kappa=20.0, nbar=0.1)
    assert ns == format(bath_measure(p).value, ".17g"), (delta, ns)
    tg, te = (br_evolve(p, qubit_state(state), np.linspace(0.0, 0.6, 61)) for state in ("g", "e"))
    assert abs(float(blp) - blp_measure(tg, te).value) < 1e-9, (delta, blp)
rows = [[float(x) for x in row] for row in cells]
blp, ns = [row[1] for row in rows], [row[2] for row in rows]
assert blp[0] < 1e-8 and blp[-1] > 0.0, blp
assert all(a < b for a, b in zip(ns, ns[1:])), ns
print(f"backflow {blp}, spectral measure {ns}, every backflow within 1e-9 of the integrated runs' and every "
      "measure equal to bath_measure")
PY
echo "::endgroup::"

# Both spectrum calls behind the entry point, the FD-QME resolvent and the exact
# qubit-plus-cavity model, on a 3001-point window like the benchmark's: every
# density_fdqme and density_full cell is the installed library's emission_spectrum
# and full_steady_spectrum (whose Liouvillian build_full_model assembles), to the
# last digit, and the two spectra peak at the same detuning, within 1 g.
echo "::group::oracle-compare through the console script"
cat > "$work/oracle.cfg" <<'CFG'
[params]
g = 1.0
omega_q = 2000.0
kappa = 10.0
nbar = 0.1
delta = 100.0
n_fock = 10

[grid.frequency]
min = -160.0
max = 80.0
points = 3001

[output]
path = oracle.csv
CFG
fdqme oracle-compare --config "$work/oracle.cfg" --out "$work/oracle"
python - "$work/oracle/oracle.csv" <<'PY'
import sys
import numpy as np
from fdqme import ThermalBathParams, build_full_model, emission_spectrum, full_steady_spectrum, thermal_propagator
lines = [line for line in open(sys.argv[1]).read().splitlines() if not line.startswith("#")]
header, cells = lines[0].split(","), [line.split(",") for line in lines[1:]]
expected = ["frequency_minus_qubit[g]", "density_fdqme[1/g]", "density_full[1/g]"]
assert header == expected and len(cells) == 3001, (header, len(cells))
p = ThermalBathParams(g=1.0, omega_q=2000.0, omega_c=2000.0 - 100.0, kappa=10.0, nbar=0.1)
grid = np.linspace(-160.0, 80.0, 3001)
columns = (grid, emission_spectrum(thermal_propagator(p), grid).values,
           full_steady_spectrum(build_full_model(p, 10), grid).values)
for row, values in zip(cells, zip(*columns)):
    assert row == [format(v, ".17g") for v in values], (row, values)
rows = [[float(x) for x in row] for row in cells]
peak_fd, peak_full = (max(rows, key=lambda row: row[k])[0] for k in (1, 2))
assert abs(peak_fd - peak_full) < 1.0, (peak_fd, peak_full)
print(f"peak detuning: FD-QME {peak_fd:.4f} g, exact {peak_full:.4f} g; every density cell equal to "
      "emission_spectrum's and full_steady_spectrum's")
PY
echo "::endgroup::"

# fdqme needs numpy alone: with scipy blocked (sys.modules["scipy"] = None, so any
# import of it raises ImportError), a thermal spectrum, the Born-Redfield positivity
# run and the exact qubit-plus-cavity model run through main(), and the kernels of
# the installed package, generic_kernel_time (whose exponentials are fdqme's own
# expm) included, agree with the mode tables.  None of it imports numpy.ma, where
# numpy itself does not on import.  The installed package is imported, with
# PYTHONPATH unset, at the numpy of the job, the floor job included.
echo "::group::thermal-spectrum, positivity, oracle-compare and the kernels with scipy blocked and no numpy.ma"
env -u PYTHONPATH python - "$work" <<'PY'
import sys
sys.modules["scipy"] = None
import numpy as np
loaded_by_numpy = "numpy.ma" in sys.modules
import fdqme
from fdqme import (SqueezedBathParams, ThermalBathParams, generic_kernel_time, squeezed_kernel_time,
                   thermal_kernel_time)
from fdqme.cli import main
work = sys.argv[1]
for scenario, cfg in (("thermal-spectrum", "smoke"), ("positivity", "positivity"), ("oracle-compare", "oracle")):
    assert main([scenario, "--config", f"{work}/{cfg}.cfg", "--out", f"{work}/{cfg}-blocked"]) == 0, scenario
    print(f"{fdqme.__file__}: {scenario} ran with scipy blocked")
for p, kernel in ((ThermalBathParams(g=1.0, omega_q=200.0, omega_c=150.0, kappa=10.0, nbar=0.2), thermal_kernel_time),
                  (SqueezedBathParams(g=1.0, delta_q=200.0, delta_c=320.0, r=115.0, kappa=10.0), squeezed_kernel_time)):
    t = np.linspace(0.0, 0.3, 301)
    generic = np.abs(kernel(p, t) - generic_kernel_time(p, t)).max()
    assert generic <= 1e-9, generic
    print(f"{type(p).__name__}: generic_kernel_time {generic:.2e} from the mode table with scipy blocked")
assert loaded_by_numpy or "numpy.ma" not in sys.modules
print("numpy.ma " + ("loaded by numpy itself" if loaded_by_numpy else "never imported"))
PY
echo "::endgroup::"

# The linewidth axis of measure-sweep (acceptance criterion 6): each row is the
# library's bath_measure of its bath, to the last digit, and the measure falls
# as 1/kappa (log-log slope -1 +/- 0.1).
echo "::group::measure-sweep (kappa axis) through the console script"
cat > "$work/kappa.cfg" <<'CFG'
[params]
g = 1.0
omega_q = 2.0e5
nbar = 0.1
delta = 5.0
kappa_min = 20.0
kappa_max = 200.0
kappa_points = 10

[output]
path = kappa.csv
CFG
fdqme measure-sweep --config "$work/kappa.cfg" --out "$work/kappa"
python - "$work/kappa/kappa.csv" <<'PY'
import sys
import numpy as np
from fdqme import ThermalBathParams, bath_measure
lines = [line for line in open(sys.argv[1]).read().splitlines() if not line.startswith("#")]
header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
assert header == ["kappa[g]", "spectral_measure"] and len(rows) == 10, (header, len(rows))
for kappa, ns in rows:
    p = ThermalBathParams(g=1.0, omega_q=2.0e5, omega_c=2.0e5 - 5.0, kappa=float(kappa), nbar=0.1)
    assert ns == format(bath_measure(p).value, ".17g"), (kappa, ns)
kappas, ns = np.array(rows, dtype=float).T
slope = np.polyfit(np.log(kappas), np.log(ns), 1)[0]
assert abs(slope + 1.0) < 0.1, slope
print(f"spectral measure along kappa: log-log slope {slope:.4f}, every row equal to bath_measure")
PY
echo "::endgroup::"

# The detuning axis of measure-sweep (acceptance criterion 6): each row is the
# library's bath_measure of its bath, to the last digit, and the measure grows
# linearly in log delta (R^2 of the fit above 0.99).
echo "::group::measure-sweep (delta axis) through the console script"
cat > "$work/delta.cfg" <<'CFG'
[params]
g = 1.0
omega_q = 2.0e5
nbar = 0.1
kappa = 10.0
delta_min = 30.0
delta_max = 300.0
delta_points = 10

[output]
path = delta.csv
CFG
fdqme measure-sweep --config "$work/delta.cfg" --out "$work/delta"
python - "$work/delta/delta.csv" <<'PY'
import sys
import numpy as np
from fdqme import ThermalBathParams, bath_measure
lines = [line for line in open(sys.argv[1]).read().splitlines() if not line.startswith("#")]
header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
assert header == ["delta[g]", "spectral_measure"] and len(rows) == 10, (header, len(rows))
for delta, ns in rows:
    p = ThermalBathParams(g=1.0, omega_q=2.0e5, omega_c=2.0e5 - float(delta), kappa=10.0, nbar=0.1)
    assert ns == format(bath_measure(p).value, ".17g"), (delta, ns)
deltas, ns = np.array(rows, dtype=float).T
resid = ns - np.polyval(np.polyfit(np.log(deltas), ns, 1), np.log(deltas))
r2 = 1.0 - resid @ resid / ((ns - ns.mean()) ** 2).sum()
assert r2 > 0.99, r2
print(f"spectral measure along delta: log-fit R^2 {r2:.4f}, every row equal to bath_measure")
PY
echo "::endgroup::"

# The delay sweep of the waveguide example: each row is the library's
# waveguide_measure_sweep value at its resonant separation, to the last digit,
# with the sweep's summary values in the CSV comments, exactly 0 at eta = 0 and
# the closed-form bandwidth gamma (1 + beta).
echo "::group::measure-sweep (eta axis) through the console script"
cat > "$work/eta.cfg" <<'CFG'
[params]
omega0 = 200.0
gamma = 1.0
beta = 0.9
eta_index_max = 8
eta_index_step = 2

[output]
path = eta.csv
CFG
fdqme measure-sweep --config "$work/eta.cfg" --out "$work/eta"
python - "$work/eta/eta.csv" <<'PY'
import sys
from fdqme import WaveguideParams, resonant_eta_grid, waveguide_measure_sweep
lines = open(sys.argv[1]).read().splitlines()
comments = dict(line[2:].split(" = ", 1) for line in lines if line.startswith("#"))
body = [line for line in lines if not line.startswith("#")]
header, cells = body[0].split(","), [line.split(",") for line in body[1:]]
assert header == ["eta", "spectral_measure"] and len(cells) == 5, (header, len(cells))
p = WaveguideParams(200.0, 1.0, 0.9)
sweep = waveguide_measure_sweep(p, resonant_eta_grid(p, 8, 2))
for (eta, ns), eta_lib, ns_lib in zip(cells, sweep["eta"], sweep["values"]):
    assert (eta, ns) == (format(eta_lib, ".17g"), format(ns_lib, ".17g")), (eta, ns)
rows = [[float(x) for x in row] for row in cells]
assert {"markov_bandwidth", "eta_max", "saturation"} <= comments.keys(), comments
# eta = 0 is the Markovian reference itself; any delay adds memory
assert rows[0][1] == 0.0 and rows[-1][1] > 1e-12, rows
assert comments["markov_bandwidth"] == format(1.9, ".17g"), comments["markov_bandwidth"]
print(f"spectral measure along eta: {[row[1] for row in rows]}, every row equal to waveguide_measure_sweep")
PY
echo "::endgroup::"

# Scenarios take no options beyond --config and --out: argparse exits with
# status 2 on any other flag, and nothing is written.
echo "::group::Rejected options through the console script"
reject_flags() {  # scenario, config name, flags...
  local scenario=$1 name=$2 status=0
  shift 2
  fdqme "$scenario" --config "$work/$name.cfg" "$@" --out "$work/$name-flags" 2> "$work/$name-flags.err" || status=$?
  cat "$work/$name-flags.err"
  test "$status" -eq 2
  grep -q "unrecognized arguments: $*" "$work/$name-flags.err"
  test ! -e "$work/$name-flags"
}
reject_flags measure-sweep eta --gap fwhm
reject_flags positivity positivity --include-sum-frequency
echo "::endgroup::"

# A log-spaced sweep through zero is a config error: exit status 1, the error
# on stderr, and no file written.
echo "::group::Rejected sweep config through the console script"
cat > "$work/bad-sweep.cfg" <<'CFG'
[params]
g = 1.0
omega_q = 2.0e5
nbar = 0.1
delta = 5.0
kappa_min = 20.0
kappa_max = 0
kappa_points = 4

[output]
path = bad-sweep.csv
CFG
status=0
fdqme measure-sweep --config "$work/bad-sweep.cfg" --out "$work/bad-sweep" 2> "$work/bad-sweep.err" || status=$?
cat "$work/bad-sweep.err"
test "$status" -eq 1
case "$(cat "$work/bad-sweep.err")" in "error: invalid config"*) ;; *) exit 1 ;; esac
test -z "$(find "$work" -name 'bad-sweep*.csv')"
echo "::endgroup::"

# A grid section the scenario does not read is a config error, never a grid
# recorded but unused: the eta axis of measure-sweep computes each point on the
# waveguide's own grid, so a [grid.time] fails with exit status 1, the section
# named on stderr, and no --out directory made.
echo "::group::Unread grid section through the console script"
cat "$work/eta.cfg" - > "$work/eta-time.cfg" <<'CFG'

[grid.time]
min = 0.0
max = 1.0
points = 11
CFG
status=0
fdqme measure-sweep --config "$work/eta-time.cfg" --out "$work/eta-time" 2> "$work/eta-time.err" || status=$?
cat "$work/eta-time.err"
test "$status" -eq 1
grep -q "\[grid.time\] is not read by scenario measure-sweep" "$work/eta-time.err"
test ! -e "$work/eta-time"
echo "::endgroup::"

# nbar = 0 parses, but the thermal spectrum has no positive values: a run-time
# failure, so exit status 1, the error on stderr, and no --out directory made.
echo "::group::Failed run through the console script"
sed 's/^nbar = 0.1$/nbar = 0/' "$work/smoke.cfg" > "$work/no-photons.cfg"
grep -qx 'nbar = 0' "$work/no-photons.cfg"
status=0
fdqme thermal-spectrum --config "$work/no-photons.cfg" --out "$work/no-photons" 2> "$work/no-photons.err" || status=$?
cat "$work/no-photons.err"
test "$status" -eq 1
case "$(cat "$work/no-photons.err")" in "error:"*) ;; *) exit 1 ;; esac
test ! -e "$work/no-photons"
echo "::endgroup::"
