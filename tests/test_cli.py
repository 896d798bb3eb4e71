import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdqme
from fdqme import cli, fdme, measures
from fdqme.baths import (
    SqueezedBathParams,
    ThermalBathParams,
    squeezed_closed_spectrum,
    squeezed_kernel_time,
    thermal_kernel_time,
)
from fdqme.cli import ConfigError, _format_tables, _write_csvs, main, parse_config, run_scenario
from fdqme.liouville import qubit_state

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
    # no scenario reads both grids: thermal-spectrum reads the frequency grid only,
    # so a time grid next to it is an error, not a grid recorded but never used
    text = THERMAL_CONFIG + "\n[grid.time]\nmin = 0.0\nmax = 1.0\npoints = 11\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text, "thermal-spectrum")
    assert err.value.errors == ["[grid.time] is not read by scenario thermal-spectrum"]
    assert parse_config(THERMAL_CONFIG, "thermal-spectrum").grids["grid.frequency"].array().size == 4096


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
"""
    with pytest.raises(ConfigError) as err:
        parse_config(text, "thermal-spectrum")
    messages = "\n".join(err.value.errors)
    assert "duplicate key 'g'" in messages
    assert "not a number" in messages
    assert "unknown key 'unknown_key'" in messages
    assert "missing required key 'path'" in messages
    assert "missing required key" in messages  # kappa/nbar/delta
    assert len(err.value.errors) >= 6


# lines 1-8 of a valid thermal-spectrum config
PARSE_BASE = "[params]\ng = 1.0\nomega_q = 2.0e5\nkappa = 10.0\nnbar = 0.1\ndelta = 50.0\n[output]\npath = t.csv\n"


@pytest.mark.parametrize(
    "scenario, text, message",
    [
        ("thermal-spectrum", PARSE_BASE + "[grid.space]\n", "line 9: unknown section [grid.space]"),
        ("thermal-spectrum", PARSE_BASE + "[params]\n", "line 9: duplicate section [params]"),
        ("thermal-spectrum", PARSE_BASE.replace("nbar = 0.1", "nbar 0.1"),
         "line 5: expected 'key = value', got 'nbar 0.1'"),
        ("thermal-spectrum", "g = 1.0\n" + PARSE_BASE, "line 1: key outside any section"),
        *[("thermal-spectrum", PARSE_BASE.replace("kappa = 10.0", f"kappa = {value}"),
           "line 4: value of 'kappa' is not finite") for value in ("inf", "nan")],
        ("oracle-compare", PARSE_BASE.replace("delta = 50.0\n", "delta = 50.0\nn_fock = 8.5\n"),
         "line 7: value of 'n_fock' must be an integer"),
        ("thermal-spectrum", "[output]\npath = t.csv\n", "missing required section [params]"),
        ("thermal-spectrum", PARSE_BASE.replace("[output]\npath = t.csv\n", ""), "missing required section [output]"),
        ("thermal-spectrum", PARSE_BASE + "mode = fast\n", "[output] unknown key 'mode'"),
        ("thermal-spectrum", PARSE_BASE + "[grid.frequency]\nmin = -1.0\nmax = 1.0\n",
         "[grid.frequency] missing required key 'points'"),
    ],
    ids=["unknown-section", "duplicate-section", "no-equals", "key-outside-section", "inf", "nan",
         "non-integer", "missing-params", "missing-output", "unknown-output-key", "grid-missing-key"],
)
def test_parse_reports_each_malformed_line(scenario, text, message):
    with pytest.raises(ConfigError) as err:
        parse_config(text, scenario)
    assert message in err.value.errors


def test_parse_reports_three_faults_at_once():
    assert parse_config(PARSE_BASE, "thermal-spectrum").params["omega_q"] == 2.0e5
    text = PARSE_BASE.replace("omega_q = 2.0e5", "omega_q = inf").replace("[output]", "[grid.space]\n[output]")
    with pytest.raises(ConfigError) as err:
        parse_config(text + "mode = fast\n", "thermal-spectrum")
    assert err.value.errors == [
        "line 7: unknown section [grid.space]",
        "line 3: value of 'omega_q' is not finite",
        "[output] unknown key 'mode'",
    ]


def test_cli_main_reports_an_unreadable_config(tmp_path, capsys):
    assert main(["thermal-spectrum", "--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read config")
    assert not (tmp_path / "out").exists()


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


def _per_cell(columns):
    """The reference CSV body: format(x, ".17g") cell by cell."""
    return "".join(",".join(format(float(x), ".17g") for x in row) + "\n" for row in zip(*columns))


def _format_rows(columns):
    """The CSV rows of one table of float columns."""
    parts = []
    _format_tables([columns], [parts.append])
    return b"".join(parts)


def _write_csv(path, comments, header, columns):
    """One table's CSV file."""
    _write_csvs([path], comments, [(header, columns)])


# inputs where an exact conversion to 17 digits can go wrong
_POW10 = 10.0 ** np.arange(-323, 309)
EDGE_VALUES = np.concatenate([
    # powers of ten and their neighbours one ulp away, over the whole exponent range
    _POW10, np.nextafter(_POW10, 0.0), np.nextafter(_POW10, np.inf), -_POW10,
    # exact ties (18 significant digits ending in 5): m * 2**(k - 17) with m odd,
    # inside (k >= -6) and outside (k = -7, -8) 1e-6 <= |x| < 1e17
    [np.ldexp(m, k - 17) for k, ms in [(-8, (1, 3)), (-7, (3, 5, 7)), (-6, (27, 29, 41)),
                                       (0, (131073, 131075, 999999)), (10, (1280000000001, 1280000000003)),
                                       (14, (800000000000001, 800000000000003)),
                                       (15, (4000000000000001, 4000000000000003))] for m in ms],
    # 17-digit roundings up into the next decade (doubles just below 10**j, j < -5
    # or j > 22: none lie close enough to a power of ten inside the exact range)
    [1e-14, -1e-14, 1e98, 1e-305, 1e129, 1e-243],
    # the switches between fixed and exponential notation, k = -5 / -4 and 16 / 17
    [1e-4, np.nextafter(1e-4, 0.0), 9.9999999999999e-5, 0.00012345, 1e16, np.nextafter(1e16, 0.0),
     np.nextafter(1e17, 0.0), 1e17, 1.5e17],
    # subnormals, zeros, infinities, nan and the edges of the scaled range
    [5e-324, 2.5e-320, -2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0.0),
     0.0, -0.0, np.inf, -np.inf, np.nan, 1e-280, np.nextafter(1e-280, 0.0), 1e280,
     np.nextafter(1e280, np.inf), 1.7976931348623157e308],
])


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
        (
            # half to even: 1.00000762939453125 and 2.98023223876953125e-07 round
            # down, 1.00002288818359375 and 1.78813934326171875e-07 up
            ["x"],
            [np.array([131073 * 2.0**-17, 131075 * 2.0**-17, -131073 * 2.0**-17, 5 * 2.0**-24,
                       3 * 2.0**-24])],
            "1.0000076293945312\n1.0000228881835938\n-1.0000076293945312\n2.9802322387695312e-07\n"
            "1.7881393432617188e-07\n",
        ),
        (
            # doubles just below a power of ten whose 17 digits round up to it
            ["a", "b"],
            [np.array([1e-14, 1e98]), np.array([-1e-14, 1e-305])],
            "1e-14,-1e-14\n1e+98,1e-305\n",
        ),
        (
            ["x"],
            [np.array([1e-4, np.nextafter(1e-4, 0.0), -1e-5, 0.00012345, -0.0625, 1234567.5, 1e16,
                       np.nextafter(1e17, 0.0), 1e17, 123456789012345678.0])],
            "0.0001\n9.9999999999999991e-05\n-1.0000000000000001e-05\n0.00012344999999999999\n"
            "-0.0625\n1234567.5\n10000000000000000\n99999999999999984\n1e+17\n1.2345678901234568e+17\n",
        ),
        (
            ["x"],
            [np.array([-2.2250738585072014e-308, 1e-280, np.nextafter(1e-280, 0.0),
                       np.nextafter(1e280, np.inf), np.inf, -np.inf, np.nan, 0.0,
                       1.7976931348623157e308])],
            "-2.2250738585072014e-308\n9.9999999999999996e-281\n9.9999999999999984e-281\n"
            "1.0000000000000002e+280\ninf\n-inf\nnan\n0\n1.7976931348623157e+308\n",
        ),
    ],
    ids=["values", "one-row", "three-columns", "zero-rows", "ties", "carry", "notation-switch", "edges"],
)
def test_write_csv_golden_bytes(tmp_path, monkeypatch, header, columns, body):
    path = tmp_path / "golden.csv"
    # these tables are small blocks, formatted cell by cell; then by the vectorized passes
    for small_block in (cli._SMALL_BLOCK, 0):
        monkeypatch.setattr(cli, "_SMALL_BLOCK", small_block)
        _write_csv(path, COMMENTS, header, columns)
        raw = path.read_bytes()
        assert raw == (COMMENT_LINES + ",".join(header) + "\n" + body).encode()
        assert b"\r" not in raw and raw.endswith(b"\n") and not raw.endswith(b"\n\n")
        # columns given as lists of floats: the same bytes
        _write_csv(path, COMMENTS, header, [c.tolist() for c in columns])
        assert path.read_bytes() == raw


def test_write_csv_matches_per_cell_format(tmp_path):
    rng = np.random.default_rng(2718)
    data = rng.normal(size=(1000, 3)) * 10.0 ** rng.integers(-300, 300, size=(1000, 3))
    bits = rng.integers(0, 2**63, size=3000, dtype=np.int64).view(np.float64) * rng.choice([-1, 1], 3000)
    edges = np.resize(EDGE_VALUES, (len(EDGE_VALUES) + 2) // 3 * 3)
    path = tmp_path / "random.csv"
    for table in (data, bits.reshape(-1, 3), rng.permutation(edges).reshape(-1, 3)):
        _write_csv(path, COMMENTS, ["a", "b", "c"], list(table.T))
        assert path.read_bytes() == (COMMENT_LINES + "a,b,c\n" + _per_cell(table.T)).encode()
    # one column of every edge value, in order
    _write_csv(path, COMMENTS, ["x"], [EDGE_VALUES])
    assert path.read_bytes() == (COMMENT_LINES + "x\n" + _per_cell([EDGE_VALUES])).encode()


@st.composite
def float_tables(draw):
    ncols, nrows = draw(st.integers(1, 3)), draw(st.integers(0, 30))
    return [draw(st.lists(st.floats(width=64), min_size=nrows, max_size=nrows)) for _ in range(ncols)]


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(float_tables())
def test_csv_rows_match_per_cell_format_for_any_floats(columns):
    assert _format_rows(columns) == _per_cell(columns).encode()
    # at most 90 cells, a small block: the vectorized passes on the same rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_SMALL_BLOCK", 0)
        assert _format_rows(columns) == _per_cell(columns).encode()


# values where "%.17g" is easy to get wrong: zeros, non-finite values, subnormals,
# exact ties of the 17-digit rounding and their neighbours one ulp away
_TIES = np.ldexp([131073.0, 131075.0, 27.0, 3.0, 4000000000000001.0], [-17, -17, -23, -24, -2])
_HARD_CELLS = np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-320, 1e-14, 1e98],
                              _TIES, -_TIES, np.nextafter(_TIES, 0.0), np.nextafter(_TIES, np.inf)])


@pytest.mark.parametrize("extra", [0, 1], ids=["small-block", "small-block-plus-1"])
def test_slot_block_matches_per_cell_format_at_the_small_block_limit(extra):
    rng = np.random.default_rng(cli._SMALL_BLOCK + extra)
    n = cli._SMALL_BLOCK + extra
    bits = rng.integers(0, 2**64, size=n - _HARD_CELLS.size, dtype=np.uint64).view(np.float64)
    x = rng.permutation(np.concatenate([_HARD_CELLS, bits]))
    cells = [bytes(column).replace(b"\0", b"").decode() for column in cli._slot_block(x).T]
    assert cells == ["%.17g" % v for v in x.tolist()]


def _bit_columns(rng, nrows, ncols):
    """ncols columns of random bit patterns, with edge values on the rows next to every block edge."""
    columns = [rng.integers(0, 2**64, size=nrows, dtype=np.uint64).view(np.float64) for _ in range(ncols)]
    block = cli._BLOCK_CELLS // ncols
    near = np.array([e + d for e in range(block, nrows + block, block) for d in range(-3, 3) if 0 <= e + d < nrows],
                    int)
    for col in columns:
        col[near] = rng.choice(EDGE_VALUES, near.size)
    return columns


@pytest.mark.parametrize("ncols", [1, 2, 3])
@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["block-minus-1", "block", "block-plus-1"])
def test_csv_rows_match_per_cell_format_across_block_edges(ncols, offset):
    rng = np.random.default_rng(100 * ncols + offset)
    for blocks in (1, 2):
        columns = _bit_columns(rng, blocks * (cli._BLOCK_CELLS // ncols) + offset, ncols)
        assert _format_rows(columns) == _per_cell(columns).encode()


def test_csv_rows_of_a_default_grid_sized_table_match_per_cell_format():
    rng = np.random.default_rng(20262)
    grid, values = _bit_columns(rng, 20262, 2)
    grid[::2] = np.linspace(-300.0, 300.0, 20262)[::2]
    values[1::3] = rng.random(6754)
    # every edge value, one run of them across the first block edge
    edge = cli._BLOCK_CELLS // 2
    values[edge - EDGE_VALUES.size // 2:edge - EDGE_VALUES.size // 2 + EDGE_VALUES.size] = EDGE_VALUES
    assert _format_rows([grid, values]) == _per_cell([grid, values]).encode()


def _format_each(tables):
    """The rows of each table, formatted together."""
    parts = [[] for _ in tables]
    _format_tables(tables, [part.append for part in parts])
    return [b"".join(part) for part in parts]


@pytest.fixture
def formatted_cells(monkeypatch):
    """The size of every block of cells formatted from here on."""
    sizes = []
    real = cli._slot_block
    monkeypatch.setattr(cli, "_slot_block", lambda x: (sizes.append(x.size), real(x))[1])
    return sizes


def test_shared_columns_are_formatted_once(formatted_cells):
    rng = np.random.default_rng(7)
    n = cli._BLOCK_CELLS + 5
    grid, a, b = _bit_columns(rng, n, 3)
    short, c = _bit_columns(rng, 10, 2)
    alone = [_format_rows([grid, a]), _format_rows([grid, b]), _format_rows([short, c]), _format_rows([a, a, b])]
    formatted_cells.clear()
    # tables of different row counts, a column shared between tables and one repeated in a table
    assert _format_each([[grid, a], [grid, b], [short, c], [a, a, b]]) == alone
    assert sum(formatted_cells) == 3 * n + 2 * 10
    assert _format_each([[short, c], [grid, a]]) == [alone[2], alone[0]]
    assert alone[3] == _per_cell([a, a, b]).encode()
    for first, second in ((a, short), (short, a)):
        with pytest.raises(ValueError, match="differ in length"):
            _format_each([[grid, b], [first, second]])


def test_spectrum_files_format_the_shared_grid_once(tmp_path, formatted_cells):
    written = run_scenario(parse_config(THERMAL_CONFIG, "thermal-spectrum"), out_dir=str(tmp_path))
    assert sum(formatted_cells) == 3 * 4096
    (grid, spec), (grid_m, markov) = (read_table(path)[1].T for path in written[:2])
    assert np.array_equal(grid, grid_m) and spec.size == markov.size == 4096


@pytest.mark.parametrize("first", [np.arange(3.0), [0.0, 1.0, 2.0]], ids=["array", "list"])
@pytest.mark.parametrize("second", [np.arange(2.0), np.arange(4.0), [0.0, 1.0], [0.0, 1.0, 2.0, 3.0]],
                         ids=["short-array", "long-array", "short-list", "long-list"])
def test_write_csv_rejects_columns_of_different_lengths(tmp_path, first, second):
    with pytest.raises(ValueError):
        _write_csv(tmp_path / "ragged.csv", COMMENTS, ["a", "b"], [first, second])
    with pytest.raises(ValueError):
        _write_csv(tmp_path / "ragged.csv", COMMENTS, ["a", "b"], [second, first])


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
    # the sidecar records the error gate that every measure of the sweep passed
    sidecar = json.loads((tmp_path / "sweep.meta.json").read_text())
    assert sidecar["tolerances"]["measure_quadrature_rtol"] == measures.QUADRATURE_RTOL


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


SWEEP_PARAMS = {
    "blp-compare": "g = 1.0\nomega_q = 2.0e5\nkappa = 20.0\nnbar = 0.1\n"
                   "delta_min = 10.0\ndelta_max = 170.0\ndelta_points = {delta_points}\n"
                   "[grid.time]\nmin = 0.0\nmax = 0.6\npoints = 61\n",
    "kappa": "g = 1.0\nomega_q = 2.0e5\nnbar = 0.1\ndelta = 5.0\n"
             "kappa_min = 20.0\nkappa_max = {kappa_max}\nkappa_points = {kappa_points}\n",
    "delta": "g = 1.0\nomega_q = 2.0e5\nnbar = 0.1\nkappa = 20.0\n"
             "delta_min = {delta_min}\ndelta_max = {delta_max}\ndelta_points = {delta_points}\n",
    "eta": "omega0 = {omega0}\ngamma = 1.0\nbeta = 0.9\n"
           "eta_index_max = {eta_index_max}\neta_index_step = {eta_index_step}\n",
}
SWEEP_DEFAULTS = {"delta_points": 4, "kappa_points": 4, "eta_index_max": 8, "eta_index_step": 2,
                "kappa_max": 200.0, "delta_min": 10.0, "delta_max": 170.0, "omega0": 200.0}


def _sweep_config(kind, **counts):
    """(scenario, config text) of a sweep with the given point counts."""
    params = SWEEP_PARAMS[kind].format(**{**SWEEP_DEFAULTS, **counts})
    scenario = "blp-compare" if kind == "blp-compare" else "measure-sweep"
    return scenario, f"[params]\n{params}\n[output]\npath = sweep.csv\n"


def _case(kind, message, **counts):
    label = ",".join(f"{key}={value}" for key, value in counts.items())
    return pytest.param(kind, counts, message, id=f"{kind}-{label}")


@pytest.mark.parametrize(
    "kind, counts, message",
    [
        _case("blp-compare", "delta_points must be at least 1", delta_points=0),
        _case("blp-compare", "delta_points must be at least 1", delta_points=-3),
        _case("kappa", "kappa_points must be at least 1", kappa_points=0),
        _case("kappa", "kappa_points must be at least 1", kappa_points=-1),
        _case("delta", "delta_points must be at least 1", delta_points=0),
        _case("delta", "delta_points must be at least 1", delta_points=-5),
        _case("eta", "eta_index_step must be at least 1", eta_index_step=0),
        _case("eta", "eta_index_step must be at least 1", eta_index_step=-2),
        # the eta axis 0, step, ..., eta_index_max would hold a single point or none
        _case("eta", "eta_index_max must be at least eta_index_step", eta_index_max=0),
        _case("eta", "eta_index_max must be at least eta_index_step", eta_index_max=3, eta_index_step=4),
        _case("eta", "eta_index_max must be at least eta_index_step", eta_index_max=-8),
        # a log-spaced axis needs both ends nonzero and of one sign, and every
        # point of a sweep must be a valid bath
        _case("kappa", "kappa_min and kappa_max .* must be nonzero and of one sign", kappa_max=0),
        _case("kappa", "kappa_min and kappa_max .* must be nonzero and of one sign", kappa_max=-5),
        _case("delta", "delta_min and delta_max .* must be nonzero and of one sign", delta_min=-5, delta_max=100),
        _case("eta", "omega0 must be positive", omega0=0.0),
        _case("eta", "omega0 must be positive", omega0=-200.0),
    ],
)
def test_parse_rejects_sweeps_without_enough_points(tmp_path, kind, counts, message):
    scenario, text = _sweep_config(kind, **counts)
    with pytest.raises(ConfigError, match=message):
        parse_config(text, scenario)
    # and the console entry point exits with the error instead of writing a header-only file
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(text)
    assert main([scenario, "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize(
    "kind, counts",
    [("blp-compare", {"delta_points": 1}), ("kappa", {"kappa_points": 1}), ("delta", {"delta_points": 1}),
     ("eta", {"eta_index_max": 2, "eta_index_step": 2}), ("delta", {"delta_min": -100.0, "delta_max": -5.0})],
    ids=["blp-compare", "kappa", "delta", "eta", "delta-negative"],
)
def test_parse_accepts_the_smallest_sweeps(kind, counts):
    scenario, text = _sweep_config(kind, **counts)
    cfg = parse_config(text, scenario)
    assert all(cfg.params[key] == value for key, value in counts.items())


POSITIVITY_CONFIG = """
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


def test_positivity_scenario(tmp_path):
    cfg = parse_config(POSITIVITY_CONFIG, "positivity")
    run_scenario(cfg, out_dir=str(tmp_path))
    header, data = read_table(tmp_path / "pos.csv")
    assert header == ["time[1/g]", "purity_br", "purity_fdqme"]
    assert data[:, 1].max() > 1.0 + 1e-4
    assert data[:, 2].max() <= 1.0 + 1e-4


def test_positivity_purity_equals_per_state_loop(tmp_path):
    cfg = parse_config(POSITIVITY_CONFIG, "positivity")
    run_scenario(cfg, out_dir=str(tmp_path))
    _, data = read_table(tmp_path / "pos.csv")
    p = SqueezedBathParams(g=1.0, delta_q=200.0, delta_c=120.0, r=115.0813, kappa=10.0)
    states = fdme.inverse_transform(fdme.squeezed_propagator(p), qubit_state("y-"), data[:, 0])
    assert np.array_equal(data[:, 2], [fdme.purity(s) for s in states])


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


ORACLE_CONFIG = """
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


def test_oracle_compare_scenario(tmp_path):
    cfg = parse_config(ORACLE_CONFIG, "oracle-compare")
    run_scenario(cfg, out_dir=str(tmp_path))
    header, data = read_table(tmp_path / "cmp.csv")
    assert header[0] == "frequency_minus_qubit[g]"
    # the two columns describe the same physics
    peak1 = data[np.argmax(data[:, 1]), 0]
    peak2 = data[np.argmax(data[:, 2]), 0]
    assert abs(peak1 - peak2) < 1.0


def test_squeezed_spectrum_scenario_at_fig8_unrounded(tmp_path):
    # r = sqrt(120^2 - 34^2) written with every digit: the default grid then
    # meets transform frequency 0 (detuning -delta_q) exactly
    r = float(np.sqrt(120.0**2 - 34.0**2))
    text = f"""
[params]
g = 1.0
delta_q = 200.0
delta_c = 120.0
r = {r!r}
kappa = 10.0

[output]
path = fig8.csv
"""
    cfg = parse_config(text, "squeezed-spectrum")
    assert cfg.params["r"] == r
    run_scenario(cfg, out_dir=str(tmp_path))
    _, data = read_table(tmp_path / "fig8.csv")
    grid, dens = data[:, 0], data[:, 1]
    assert np.any(grid == -200.0)
    closed = squeezed_closed_spectrum(SqueezedBathParams(g=1.0, delta_q=200.0, delta_c=120.0, r=r, kappa=10.0), grid)
    assert np.all(np.isfinite(dens))
    assert np.abs(dens - closed / np.trapezoid(closed, grid)).max() < 1e-8


WAVEGUIDE_CONFIG = """
[params]
omega0 = 500.0
gamma = 1.0
beta = 0.95
eta = 8.29

[output]
path = wg.csv
"""


def test_waveguide_scenario(tmp_path):
    cfg = parse_config(WAVEGUIDE_CONFIG, "waveguide-spectrum")
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


def test_cli_main_calls_parse_independently(tmp_path, capsys, monkeypatch):
    # the parser is built once and shared, so no flag of one call may leak into the next
    calls = []

    def record(cfg, out_dir=None):
        calls.append((cfg.scenario, out_dir))
        return []

    monkeypatch.setattr(cli, "run_scenario", record)
    sweep = tmp_path / "sweep.cfg"
    sweep.write_text(_sweep_config("kappa")[1])
    blp = tmp_path / "blp.cfg"
    blp.write_text(_sweep_config("blp-compare")[1])
    positivity = tmp_path / "positivity.cfg"
    positivity.write_text(POSITIVITY_CONFIG)

    assert main(["positivity", "--config", str(positivity), "--out", str(tmp_path)]) == 0
    assert main(["positivity", "--config", str(positivity)]) == 0
    assert main(["measure-sweep", "--config", str(sweep), "--out", str(tmp_path / "sweep")]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["measure-sweep", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "the following arguments are required: --config" in capsys.readouterr().err
    assert main(["measure-sweep", "--config", str(sweep)]) == 0
    assert main(["blp-compare", "--config", str(blp), "--out", str(tmp_path / "blp")]) == 0
    assert main([]) == 2
    assert capsys.readouterr().err.startswith("usage: fdqme")
    assert main(["blp-compare", "--config", str(blp)]) == 0
    assert calls == [
        ("positivity", str(tmp_path)),
        ("positivity", None),
        ("measure-sweep", str(tmp_path / "sweep")),
        ("measure-sweep", None),
        ("blp-compare", str(tmp_path / "blp")),
        ("blp-compare", None),
    ]
    assert cli._parser() is cli._parser()


# scenarios take no options beyond --config and --out
UNREAD_FLAGS = [(scenario, flag) for scenario in cli.SCENARIOS for flag in ("--gap", "--include-sum-frequency")]


@pytest.mark.parametrize("scenario, flag", UNREAD_FLAGS)
def test_cli_rejects_a_flag_the_scenario_does_not_read(capsys, scenario, flag):
    with pytest.raises(SystemExit) as exc:
        main([scenario, "--config", "unread.cfg", flag] + (["fwhm"] if flag == "--gap" else []))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("path", ["", ".", "..", "results/.."], ids=["empty", "dot", "dot-dot", "ends-in-dot-dot"])
def test_output_path_must_name_a_file(tmp_path, path):
    text = THERMAL_CONFIG.replace("path = thermal.csv", f"path = {path}")
    with pytest.raises(ConfigError, match="path must end in a file name"):
        parse_config(text, "thermal-spectrum")
    # nothing is written inside or next to --out
    cfg = tmp_path / "thermal.cfg"
    cfg.write_text(text)
    assert main(["thermal-spectrum", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["thermal.cfg"]


def test_failed_run_leaves_no_output_directory(tmp_path, capsys):
    # nbar = 0 parses, but the thermal spectrum then has no positive values
    cfg = tmp_path / "thermal.cfg"
    cfg.write_text(THERMAL_CONFIG.replace("nbar = 0.1", "nbar = 0"))
    assert main(["thermal-spectrum", "--config", str(cfg), "--out", str(tmp_path / "out" / "sub")]) == 1
    assert capsys.readouterr().err.startswith("error: scenario thermal-spectrum failed")
    assert [p.name for p in tmp_path.iterdir()] == ["thermal.cfg"]


SQUEEZED_CONFIG = POSITIVITY_CONFIG.replace("[grid.time]\nmin = 0.0\nmax = 2.0\npoints = 400\n", "")
# metadata beyond the parameters, the scenario name and the grids: in the CSV
# comments and the sidecar, or in the sidecar alone
SUMMARY_KEYS = {"eta": {"markov_bandwidth", "eta_max", "saturation"}}
SIDECAR_ONLY_KEYS = {"thermal-spectrum": {"grid_points"}, "squeezed-spectrum": {"grid_points"},
                     "waveguide-spectrum": {"grid_points"}, "positivity": {"initial_state"},
                     "oracle-compare": {"n_fock"}}


METADATA_CASES = {
    "thermal-spectrum": ("thermal-spectrum", THERMAL_CONFIG),
    "squeezed-spectrum": ("squeezed-spectrum", SQUEEZED_CONFIG),
    "waveguide-spectrum": ("waveguide-spectrum", WAVEGUIDE_CONFIG),
    "kappa": _sweep_config("kappa"),
    "delta": _sweep_config("delta"),
    "eta": _sweep_config("eta"),
    "blp-compare": _sweep_config("blp-compare"),
    "positivity": ("positivity", POSITIVITY_CONFIG),
    "oracle-compare": ("oracle-compare", ORACLE_CONFIG),
}


@pytest.mark.parametrize("case", METADATA_CASES)
def test_metadata_split_between_csv_comments_and_sidecar(tmp_path, case):
    scenario, text = METADATA_CASES[case]
    cfg = parse_config(text, scenario)
    written = run_scenario(cfg, out_dir=str(tmp_path))
    shared = {"scenario"} | {f"param.{key}" for key in cfg.params} | SUMMARY_KEYS.get(case, set())
    shared |= {f"{name}.{end}" for name in cfg.grids for end in ("min", "max", "points")}
    for path in written[:-1]:
        comments = [line[2:].split(" = ")[0] for line in path.read_text().splitlines() if line.startswith("#")]
        assert set(comments) == shared, path.name
    sidecar = json.loads(written[-1].read_text())
    assert set(sidecar["metadata"]) == shared | SIDECAR_ONLY_KEYS.get(case, set())
    assert "options" not in sidecar


@pytest.mark.parametrize("case", ["thermal-spectrum", "kappa", "eta"])
def test_main_builds_the_bath_once(tmp_path, monkeypatch, case):
    scenario, text = METADATA_CASES[case]
    table, key = cli._SCENARIOS, scenario
    if isinstance(table[key], dict):  # measure-sweep: the record of the case's axis
        table, key = table[key], case
    record, builds = table[key], []

    def build(params):
        builds.append(params)
        return record.bath(params)

    monkeypatch.setitem(table, key, replace(record, bath=build))
    config = tmp_path / "case.cfg"
    config.write_text(text)
    assert main([scenario, "--config", str(config), "--out", str(tmp_path)]) == 0
    assert len(builds) == 1


GRID_SECTIONS = {"grid.frequency": "min = -1.0\nmax = 1.0\npoints = 3\n",
                 "grid.time": "min = 0.0\nmax = 1.0\npoints = 3\n"}
# the grid sections a case's scenario does not read; the measure-sweep axes read none
UNREAD_GRIDS = {case: ("grid.time",) for case in ("thermal-spectrum", "squeezed-spectrum", "waveguide-spectrum",
                                                  "oracle-compare")}
UNREAD_GRIDS |= {case: ("grid.frequency",) for case in ("blp-compare", "positivity")}
UNREAD_GRIDS |= {case: ("grid.frequency", "grid.time") for case in ("kappa", "delta", "eta")}


@pytest.mark.parametrize("case, section", [(case, name) for case in METADATA_CASES for name in UNREAD_GRIDS[case]])
def test_grid_section_the_scenario_does_not_read_is_an_error(tmp_path, capsys, case, section):
    scenario, text = METADATA_CASES[case]
    text += f"\n[{section}]\n{GRID_SECTIONS[section]}"
    with pytest.raises(ConfigError) as err:
        parse_config(text, scenario)
    assert err.value.errors == [f"[{section}] is not read by scenario {scenario}"]
    cfg = tmp_path / "unread.cfg"
    cfg.write_text(text)
    assert main([scenario, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert f"[{section}] is not read by scenario {scenario}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["unread.cfg"]


def test_every_unread_grid_section_is_reported():
    # a kappa sweep integrates each measure over the whole line: neither section is used
    scenario, text = METADATA_CASES["kappa"]
    text += "".join(f"\n[{section}]\n{body}" for section, body in GRID_SECTIONS.items())
    with pytest.raises(ConfigError) as err:
        parse_config(text, scenario)
    assert err.value.errors == [f"[{section}] is not read by scenario measure-sweep" for section in GRID_SECTIONS]


def test_grid_sections_follow_what_the_runner_reads():
    # a time grid that is read is required; a frequency grid that is read is optional
    for scenario in ("blp-compare", "positivity"):
        without = re.sub(r"\[grid\.time\]\n(\w+ = .*\n)*", "", METADATA_CASES[scenario][1])
        assert "[grid" not in without
        with pytest.raises(ConfigError) as err:
            parse_config(without, scenario)
        assert err.value.errors == ["missing required section [grid.time]"]
    for case in ("squeezed-spectrum", "waveguide-spectrum"):
        scenario, text = METADATA_CASES[case]
        assert "[grid" not in text and parse_config(text, scenario).grids == {}


# run in a fresh interpreter, since this one has scipy loaded; with scipy blocked, any import of
# it or of a submodule raises ImportError.  Runs every scenario, then the time-domain kernels of
# the mode equations and the expm fallback of the modal evolution, which no scenario reaches
SCIPY_BLOCKED = """
import json, sys
sys.modules["scipy"] = None
import numpy as np
from fdqme.baths import SqueezedBathParams, ThermalBathParams, generic_kernel_time
from fdqme.cli import main
from fdqme.liouville import _modal_evolution
for scenario, config, out in json.loads(sys.argv[1]):
    assert main([scenario, "--config", config, "--out", out]) == 0, scenario
times = [0.0, 0.05, 0.3]
kernels = [generic_kernel_time(p, times) for p in (
    ThermalBathParams(g=1.0, omega_q=200.0, omega_c=150.0, kappa=10.0, nbar=0.2),
    SqueezedBathParams(g=1.0, delta_q=200.0, delta_c=320.0, r=115.0, kappa=10.0))]
jordan = _modal_evolution(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), np.array([0.0, 1.0], dtype=complex),
                          np.array(times), 2)
print(json.dumps([[[k.real.tolist(), k.imag.tolist()] for k in kernels], [jordan.real.tolist(), jordan.imag.tolist()]]))
"""


def test_scenarios_and_kernels_run_with_scipy_blocked(tmp_path):
    # nothing in fdqme needs scipy: all nine cases, oracle-compare among them, and both kernel baths
    runs = []
    for case, (scenario, text) in METADATA_CASES.items():
        (tmp_path / f"{case}.cfg").write_text(text)
        runs.append([scenario, str(tmp_path / f"{case}.cfg"), str(tmp_path / case)])
    env = {**os.environ, "PYTHONPATH": str(Path(fdqme.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", SCIPY_BLOCKED, json.dumps(runs)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr[-2000:]
    kernels, jordan = json.loads(done.stdout.splitlines()[-1])
    assert len(runs) == 9 and all((tmp_path / case).is_dir() for case in METADATA_CASES)
    times = [0.0, 0.05, 0.3]
    baths = (ThermalBathParams(g=1.0, omega_q=200.0, omega_c=150.0, kappa=10.0, nbar=0.2),
             SqueezedBathParams(g=1.0, delta_q=200.0, delta_c=320.0, r=115.0, kappa=10.0))
    for (real, imag), p, kernel in zip(kernels, baths, (thermal_kernel_time, squeezed_kernel_time)):
        assert np.abs(np.array(real) + 1j * np.array(imag) - kernel(p, times)).max() <= 1e-9
    # the Jordan block has no eigenbasis: exp(gen t) (0, 1) = (t, 1)
    assert np.array_equal(np.array(jordan[0]), [[t, 1.0] for t in times]) and not np.any(jordan[1])
