#!/usr/bin/env python3
"""Self-tests of the benchmark; run from the repository root:

    python3 benchmarks/selftest.py

Runs the warm-up items of every workload and prints every end-to-end metric
with its unit, checks that perturbed outputs trip the correctness gate, that
tracing records and restores the wrapped names, and that ``run.py`` honours
its output contract, including failing without the program's source.
Exits non-zero on the first failure.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import harness  # noqa: E402
from checks import CheckFailed, check_cli, check_kernels  # noqa: E402
from fdqme import cli  # noqa: E402
from tracing import SPANS, Tracer  # noqa: E402
from workloads import WORKLOADS, kernel_item, thermal_spectrum  # noqa: E402

# spans each workload's warm-up items must reach
EXPECTED_SPANS = {
    "spectra": ("cli.run_scenario", "fdme.emission_spectrum", "fdme.steady_state",
                "waveguide.waveguide_spectrum"),
    "sweeps": ("redfield.br_evolve", "measures.spectral_measure", "measures.blp_measure",
               "waveguide.waveguide_measure_sweep"),
    "validation": ("oracle.full_steady_spectrum", "fdme.inverse_transform", "redfield.br_evolve"),
    "kernels": ("baths.time_matrix", "baths.freq_matrix", "baths.generic_kernel_time"),
}


def scratch_dir() -> Path:
    return Path(tempfile.mkdtemp(prefix=".bench-scratch-selftest-", dir=ROOT))


def test_workloads_report_every_metric():
    for name, workload in WORKLOADS.items():
        scratch = scratch_dir()
        try:
            runner = harness.Runner(scratch)
            with Tracer() as tracer:
                outcomes = [runner.run(item, tracer) for item in workload.warmup()]
        finally:
            shutil.rmtree(scratch)
        assert not any(o.incorrect for o in outcomes), [o.cause for o in outcomes]
        assert any(o.ok for o in outcomes), f"{name}: no item completed"
        e2e = harness.end_to_end(outcomes, [1.0])
        assert set(harness.END_TO_END) <= set(e2e)
        print(f"  {name}: {len(outcomes)} items")
        for metric, (value, unit, note) in e2e.items():
            print(f"    {metric} = {value:.6g} {unit} ({note})")
        per_layer = tracer.metrics()
        for span in SPANS:
            assert f"{span}.calls" in per_layer and f"{span}.self_share" in per_layer
        for span in EXPECTED_SPANS[name]:
            assert per_layer[f"{span}.calls"][0] > 0, f"{name}: no {span} span"


def test_tracer_restores_and_reports_absent():
    originals = (cli.main, cli.markovian_spectrum, cli.make_spectrum)
    SPANS["missing.name"] = ([("fdqme.cli", "no_such_function")], None)
    try:
        with Tracer() as tracer:
            assert cli.main is not originals[0] and cli.markovian_spectrum is not originals[1]
        assert tracer.absent == ["missing.name"]
    finally:
        del SPANS["missing.name"]
    assert (cli.main, cli.markovian_spectrum, cli.make_spectrum) == originals


def test_perturbed_csv_trips_gate():
    item = thermal_spectrum(np.random.default_rng(3))
    scratch = scratch_dir()
    try:
        out = scratch / "out"
        out.mkdir()
        config = scratch / "item.cfg"
        config.write_text(item.config_text("item.csv"), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([item.scenario, "--config", str(config), "--out", str(out)]) == 0
        check_cli(item, out / "item")  # untouched output passes
        # change the eighth significant digit of the peak density
        path = out / "item.csv"
        lines = path.read_text(encoding="utf-8").split("\n")
        rows = [k for k, ln in enumerate(lines) if ln[:1] in "-0123456789" and ln]
        k = max(rows, key=lambda r: float(lines[r].split(",")[1]))
        x, y = lines[k].split(",")
        lines[k] = f"{x},{float(y) * (1 + 1e-7):.17g}"
        path.write_text("\n".join(lines), encoding="utf-8")
        try:
            check_cli(item, out / "item")
        except CheckFailed as exc:
            print(f"  perturbed CSV rejected: {exc}")
        else:
            raise AssertionError("perturbed CSV passed the gate")
    finally:
        shutil.rmtree(scratch)


def test_perturbed_kernel_trips_gate():
    item = kernel_item(np.random.default_rng(4), "squeezed")
    scratch = scratch_dir()
    try:
        assert harness.Runner(scratch).run(item).ok
    finally:
        shutil.rmtree(scratch)
    from fdqme import baths

    p = baths.SqueezedBathParams(**item.params)
    t = np.linspace(0.0, item.extra["t_max"], item.extra["time_samples"])
    k_time = baths.squeezed_kernel_time(p, t)
    k_generic = baths.generic_kernel_time(p, t[list(item.extra["generic_index"])])
    k_generic[0, 1, 1] += 1e-8
    try:
        check_kernels(item, (k_time, np.zeros(3), k_generic))
    except CheckFailed as exc:
        print(f"  perturbed kernel rejected: {exc}")
    else:
        raise AssertionError("perturbed kernel passed the gate")


def _run(args, cwd):
    cmd = [sys.executable, "benchmarks/run.py"] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def test_run_contract():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = scratch_dir()
    try:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(["--workload", "sweeps", "--seed", "5", "--seconds", "1", "--trace", str(trace),
                         "--results", str(results)], ROOT)
            assert proc.returncode == 0, proc.stderr
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(last) == {"correct", "attempted", "failed", "metrics"}
            assert last["correct"] is True and last["attempted"] >= 1 and last["failed"] == 0
            assert set(last["metrics"]) == {m["name"] for m in bench[key]}
            for metric in bench[key]:
                assert last["metrics"][metric["name"]]["unit"] == metric["unit"]
        record = json.loads((results / "sweeps-seed5-trace0.json").read_text())
        note = record["end_to_end"]["setup_s"]["note"]
        assert note.startswith(f"median of {harness.SETUP_PROBES + 1} set-ups"), note
        print(f"  run.py output matches BENCHMARK.json ({len(last['metrics'])} per-layer metrics)")
    finally:
        shutil.rmtree(results)


def test_same_seed_same_items():
    # spectra, which holds the known squeezed failure: two runs of one seed must
    # attempt the same items, fail the same ones and write the same bytes
    results = scratch_dir()
    try:
        runs = []
        for name in ("a", "b"):
            proc = _run(["--workload", "spectra", "--seed", "3", "--seconds", "1", "--trace", "0",
                         "--results", str(results / name)], ROOT)
            assert proc.returncode == 0, proc.stderr
            record = json.loads((results / name / "spectra-seed3-trace0.json").read_text())
            runs.append([(o["scenario"], o["ok"], o["cause"], o["csv_sha256"]) for o in record["outcomes"]])
        assert runs[0] == runs[1], "two runs of one seed differ"
        failed = sum(not ok for _, ok, _, _ in runs[0])
        print(f"  {len(runs[0])} items, {failed} failed, identical in both runs")
    finally:
        shutil.rmtree(results)


def test_fails_without_program():
    bare = scratch_dir()
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name)
        proc = _run(["--workload", "spectra", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
        assert proc.returncode != 0 and "correct" not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare)


def main() -> int:
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    for test in tests:
        print(f"{test.__name__} ...", flush=True)
        test()
        print(f"{test.__name__} passed", flush=True)
    print(f"all {len(tests)} self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
