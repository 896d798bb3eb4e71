import json

import numpy as np
import pytest

from fdqme.cli import ConfigError, _write_csv, main, parse_config, run_scenario

THERMAL_CONFIG = """
[params]
g = 1.0
omega_q = 2.0e5
kappa = 10.0
nbar = 0.1
delta = 50.0

[grid.frequency]
min = -450.0
max = 450.0
points = 4096

[output]
path = thermal.csv
format = csv
"""


def read_table(path):
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append([float(x) for x in line.split(",")])
    return header, np.array(rows)


def test_parse_round_trip():
    cfg = parse_config(THERMAL_CONFIG, "thermal-spectrum")
    assert cfg.scenario == "thermal-spectrum"
    assert cfg.params == {"g": 1.0, "omega_q": 2.0e5, "kappa": 10.0, "nbar": 0.1, "delta": 50.0}
    assert cfg.grids["grid.frequency"].points == 4096
    assert cfg.output_path == "thermal.csv"


def test_parse_two_grids_independently():
    text = THERMAL_CONFIG + "\n[grid.time]\nmin = 0.0\nmax = 1.0\npoints = 11\n"
    cfg = parse_config(text, "thermal-spectrum")
    assert cfg.grids["grid.time"].array().size == 11
    assert cfg.grids["grid.frequency"].array().size == 4096


def test_parse_unknown_scenario():
    with pytest.raises(ConfigError, match="unknown scenario"):
        parse_config(THERMAL_CONFIG, "frobnicate")


def test_parse_collects_all_errors():
    text = """
[params]
g = 1.0
g = 2.0
omega_q = abc
unknown_key = 3.0

[output]
format = xml
"""
    with pytest.raises(ConfigError) as err:
        parse_config(text, "thermal-spectrum")
    messages = "\n".join(err.value.errors)
    assert "duplicate key 'g'" in messages
    assert "not a number" in messages
    assert "unknown key 'unknown_key'" in messages
    assert "missing required key 'path'" in messages
    assert "unsupported format" in messages
    assert "missing required key" in messages  # kappa/nbar/delta
    assert len(err.value.errors) >= 6


def test_parse_rejects_unstable_squeezing():
    text = """
[params]
g = 1.0
delta_q = 200.0
delta_c = 320.0
r = 320.0
kappa = 10.0

[output]
path = s.csv
"""
    with pytest.raises(ConfigError, match=r"r < \|delta_c\|"):
        parse_config(text, "squeezed-spectrum")


def test_parse_rejects_bad_grid_and_case():
    text = """
[params]
G = 1.0

[grid.frequency]
min = 10.0
max = -10.0
points = 1

[output]
path = x.csv
"""
    with pytest.raises(ConfigError) as err:
        parse_config(text, "thermal-spectrum")
    messages = "\n".join(err.value.errors)
    assert "lowercase" in messages
    assert "at least 2 increasing points" in messages


@pytest.mark.parametrize("scenario", ["blp-compare", "positivity"])
def test_parse_rejects_negative_times(scenario):
    params = {
        "blp-compare": "g = 1.0\nomega_q = 2.0e5\nkappa = 20.0\nnbar = 0.1\n"
                       "delta_min = 10.0\ndelta_max = 180.0\ndelta_points = 3\n",
        "positivity": "g = 1.0\ndelta_q = 200.0\ndelta_c = 120.0\nr = 115.0\nkappa = 10.0\n",
    }[scenario]
    text = f"""
[params]
{params}
[grid.time]
min = -0.2
max = 0.6
points = 41
step = 0.1

[output]
path = t.csv
"""
    with pytest.raises(ConfigError) as err:
        parse_config(text, scenario)
    messages = "\n".join(err.value.errors)
    assert "[grid.time] min must be nonnegative" in messages
    assert "unknown key 'step'" in messages  # collected with the other errors


def test_thermal_scenario_outputs(tmp_path):
    cfg = parse_config(THERMAL_CONFIG, "thermal-spectrum")
    written = run_scenario(cfg, out_dir=str(tmp_path))
    names = sorted(p.name for p in written)
    assert names == ["thermal.csv", "thermal.markov.csv", "thermal.meta.json"]
    header, data = read_table(tmp_path / "thermal.csv")
    assert header == ["frequency_minus_qubit[g]", "density[1/g]"]
    grid, dens = data[:, 0], data[:, 1]
    # global maximum near the induced shift, secondary feature near -delta
    assert abs(grid[np.argmax(dens)] - 0.023) < 0.5
    window = (grid > -50.0 - 10.0) & (grid < -50.0 + 10.0)
    sub = dens[window]
    interior = (sub[1:-1] > sub[:-2]) & (sub[1:-1] > sub[2:])
    assert interior.any()
    meta = json.loads((tmp_path / "thermal.meta.json").read_text())
    assert meta["scenario"] == "thermal-spectrum"
    assert "tolerances" in meta and "grids" in meta


def test_outputs_are_byte_identical(tmp_path):
    cfg = parse_config(THERMAL_CONFIG, "thermal-spectrum")
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_scenario(cfg, out_dir=str(d1))
    run_scenario(cfg, out_dir=str(d2))
    for name in ("thermal.csv", "thermal.markov.csv", "thermal.meta.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


COMMENTS = {"zeta": "last", "param.g": "1", "alpha": 2}
COMMENT_LINES = "# alpha = 2\n# param.g = 1\n# zeta = last\n"


@pytest.mark.parametrize(
    "header, columns, body",
    [
        (
            ["x"],
            [np.array([0.1, -0.0, 1e16, 5e-324, 3.0, 1 / 3, 1e300])],
            "0.10000000000000001\n-0\n10000000000000000\n4.9406564584124654e-324\n"
            "3\n0.33333333333333331\n1.0000000000000001e+300\n",
        ),
        (["a", "b"], [np.array([0.1]), np.array([-0.0])], "0.10000000000000001,-0\n"),
        (
            ["a", "b", "c"],
            [np.array([1e16, 3.0]), np.array([5e-324, 1 / 3]), np.array([1e300, 0.1])],
            "10000000000000000,4.9406564584124654e-324,1.0000000000000001e+300\n"
            "3,0.33333333333333331,0.10000000000000001\n",
        ),
        (["a", "b"], [np.array([]), np.array([])], ""),
    ],
    ids=["values", "one-row", "three-columns", "zero-rows"],
)
def test_write_csv_golden_bytes(tmp_path, header, columns, body):
    path = tmp_path / "golden.csv"
    _write_csv(path, COMMENTS, header, columns)
    raw = path.read_bytes()
    assert raw == (COMMENT_LINES + ",".join(header) + "\n" + body).encode()
    assert b"\r" not in raw and raw.endswith(b"\n") and not raw.endswith(b"\n\n")


def test_write_csv_matches_per_cell_format(tmp_path):
    rng = np.random.default_rng(2718)
    data = rng.normal(size=(1000, 3)) * 10.0 ** rng.integers(-300, 300, size=(1000, 3))
    path = tmp_path / "random.csv"
    _write_csv(path, COMMENTS, ["a", "b", "c"], list(data.T))
    expected = COMMENT_LINES + "a,b,c\n"
    for row in data:
        expected += ",".join(format(float(x), ".17g") for x in row) + "\n"
    assert path.read_bytes() == expected.encode()


def test_measure_sweep_kappa(tmp_path):
    text = """
[params]
g = 1.0
omega_q = 2.0e5
nbar = 0.1
delta = 5.0
kappa_min = 20.0
kappa_max = 200.0
kappa_points = 5

[output]
path = sweep.csv
"""
    cfg = parse_config(text, "measure-sweep")
    run_scenario(cfg, out_dir=str(tmp_path))
    header, data = read_table(tmp_path / "sweep.csv")
    assert header == ["kappa[g]", "spectral_measure"]
    assert np.all(np.diff(data[:, 1]) < 0)  # decreasing with linewidth
    slope = np.polyfit(np.log(data[:, 0]), np.log(data[:, 1]), 1)[0]
    assert abs(slope + 1.0) < 0.1


def test_measure_sweep_requires_exactly_one_group():
    text = """
[params]
g = 1.0
omega_q = 2.0e5
nbar = 0.1
delta = 30.0
kappa_min = 20.0
kappa_max = 200.0
kappa_points = 5
eta_index_max = 10
eta_index_step = 1

[output]
path = sweep.csv
"""
    with pytest.raises(ConfigError, match="exactly one sweep group"):
        parse_config(text, "measure-sweep")


def test_positivity_scenario(tmp_path):
    text = """
[params]
g = 1.0
delta_q = 200.0
delta_c = 120.0
r = 115.0813
kappa = 10.0

[grid.time]
min = 0.0
max = 2.0
points = 400

[output]
path = pos.csv
"""
    cfg = parse_config(text, "positivity")
    run_scenario(cfg, out_dir=str(tmp_path))
    header, data = read_table(tmp_path / "pos.csv")
    assert header == ["time[1/g]", "purity_br", "purity_fdqme"]
    assert data[:, 1].max() > 1.0 + 1e-4
    assert data[:, 2].max() <= 1.0 + 1e-4


def test_blp_compare_scenario(tmp_path):
    text = """
[params]
g = 1.0
omega_q = 2.0e5
kappa = 20.0
nbar = 0.1
delta_min = 10.0
delta_max = 180.0
delta_points = 3

[grid.time]
min = 0.0
max = 0.6
points = 1501

[output]
path = blp.csv
"""
    cfg = parse_config(text, "blp-compare")
    run_scenario(cfg, out_dir=str(tmp_path))
    header, data = read_table(tmp_path / "blp.csv")
    assert header == ["delta[g]", "blp_measure", "spectral_measure"]
    assert data[0, 1] < 1e-8  # small detuning: no backflow
    assert data[-1, 1] > 0.0
    assert np.all(np.diff(data[:, 2]) > 0)


def test_oracle_compare_scenario(tmp_path):
    text = """
[params]
g = 1.0
omega_q = 2000.0
kappa = 10.0
nbar = 0.1
delta = 100.0
n_fock = 8

[grid.frequency]
min = -150.0
max = 80.0
points = 3000

[output]
path = cmp.csv
"""
    cfg = parse_config(text, "oracle-compare")
    run_scenario(cfg, out_dir=str(tmp_path))
    header, data = read_table(tmp_path / "cmp.csv")
    assert header[0] == "frequency_minus_qubit[g]"
    # the two columns describe the same physics
    peak1 = data[np.argmax(data[:, 1]), 0]
    peak2 = data[np.argmax(data[:, 2]), 0]
    assert abs(peak1 - peak2) < 1.0


def test_waveguide_scenario(tmp_path):
    text = """
[params]
omega0 = 500.0
gamma = 1.0
beta = 0.95
eta = 8.29

[output]
path = wg.csv
"""
    cfg = parse_config(text, "waveguide-spectrum")
    run_scenario(cfg, out_dir=str(tmp_path))
    header, data = read_table(tmp_path / "wg.csv")
    assert header == ["frequency[gamma]", "density[1/gamma]"]
    area = np.trapezoid(data[:, 1], data[:, 0])
    assert abs(area - 1.0) < 1e-6


def test_cli_main_list_and_errors(tmp_path, capsys):
    assert main(["--list-scenarios"]) == 0
    out = capsys.readouterr().out
    assert "thermal-spectrum" in out and "oracle-compare" in out

    bad = tmp_path / "bad.cfg"
    bad.write_text("[params]\ng = nope\n[output]\npath = x.csv\n")
    assert main(["thermal-spectrum", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "not a number" in err

    cfgp = tmp_path / "ok.cfg"
    cfgp.write_text(THERMAL_CONFIG)
    assert main(["thermal-spectrum", "--config", str(cfgp), "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out
    assert "thermal.csv" in printed
