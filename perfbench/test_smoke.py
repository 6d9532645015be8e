"""Smoke test of the benchmark itself:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    MatrixExpect,
    WeightsExpect,
    check_output,
    matrix_call,
    rescaled_points,
    torus_config,
    torus_generators,
    weights_call,
    write_file,
)

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# per-layer metrics that are zero on a workload that never reaches the layer
# but must be positive on the tiny inputs, which reach every layer
POSITIVE = {
    "points.vanishing_ideal.s", "groebner.buchberger.calls", "groebner.normal_form.calls",
    "groebner.quotient_summary.calls", "linalg.rref.calls", "weights.FootprintProfile.s",
    "footprint.subsets", "weights.CandidateScan.calls", "codes.rghw_bruteforce.s",
    "scan.subspaces", "scan.passes_per_row", "scan.admissible_ratio", "cli.self_s",
    "trace.overhead",
}


def build_tiny(rng, directory):
    """One small call of each kind; together they reach every layer."""
    path = write_file(directory, "torus.cfg", torus_config(3, 3, "[query]\nd = 1\nr = all\n"))
    calls = [weights_call(
        "torus", path, WeightsExpect([(1, r, 0) for r in (1, 2, 3)], 4, full={(1, 3, 0)}),
    )]
    points = rescaled_points(rng, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 1)])
    write_file(directory, "points.txt", "".join(":".join(map(str, p)) + "\n" for p in points))
    path = write_file(directory, "points.cfg",
                      "q = 3\nsource = file\npoints_file = points.txt\n[query]\nd = 1\nr = all\n")
    calls.append(weights_call(
        "points", path, WeightsExpect([(1, r, 0) for r in (1, 2, 3)], 5, full={(1, 3, 0)}),
    ))
    text = (f"q = 3\ns = 3\nsource = ideal\ngenerators = {torus_generators(rng, 3, 3)}\n"
            "function = fp\ndmax = 2\n")
    calls.append(matrix_call("fp", write_file(directory, "fp.cfg", text), MatrixExpect(3, 3, 2)))
    return calls


@pytest.fixture(scope="module")
def cli():
    return run.import_rghw()


def call_cli(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = cli.main(argv)
    return status, out.getvalue()


def test_tiny_inputs_produce_every_metric(cli, tmp_path):
    runner = run.Runner(cli, build_tiny(random.Random(3), tmp_path))
    e2e = run.end_to_end(runner, run.measure(runner, 0.01), setup_s=0.5)
    plain, traced, tracer = run.measure_traced(runner, 0.01)
    layer = run.per_layer(runner, plain, traced, tracer)
    assert runner.failed == 0 and runner.attempted == 3 * len(runner.calls)
    for spec, got in ((SPEC["end_to_end"], e2e), (SPEC["per_layer"], layer)):
        assert {m["name"]: m["unit"] for m in spec} == {k: u for k, (_, u) in got.items()}
    assert all(value > 0 for value, _ in e2e.values())
    assert all(layer[name][0] > 0 for name in POSITIVE)
    assert layer["scan.passes_per_row"][0] == 4
    # the wrappers are gone after the traced pass
    from rghw import weights

    assert cli.CandidateScan is weights.CandidateScan
    assert isinstance(cli.CandidateScan, type)


def test_checker_rejects_tampered_rows(cli, tmp_path):
    for call in build_tiny(random.Random(4), tmp_path):
        status, text = call_cli(cli, call.argv)
        assert check_output(call, status, text) == (text.count("\n") - 1, [])
        assert check_output(call, 3, text)[1]
        lines = text.splitlines()
        cells = lines[-1].split(",")
        if call.argv[0] == "weights":
            # ms is never compared; Mr is
            cells[-1] = str(int(cells[-1]) + 1000)
            assert check_output(call, 0, "\n".join(lines[:-1] + [",".join(cells)]))[1] == []
            cells[7] = str(int(cells[7]) - 1)
        else:
            cells[1] = str(int(cells[1]) + 1)
        tampered = "\n".join(lines[:-1] + [",".join(cells)]) + "\n"
        assert check_output(call, 0, tampered)[1]
        marked = "\n".join(lines[:-1] + [",".join(cells[:-1] + ["!"])]) + "\n"
        assert any("'!'" in p for p in check_output(call, 0, marked)[1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_follow_the_seed(workload, tmp_path):
    def files(seed):
        directory = tmp_path / str(seed)
        directory.mkdir(exist_ok=True)
        run.make_inputs(workload, seed, directory)
        return {p.name: p.read_text() for p in directory.iterdir()}

    assert files(7) == files(7) != files(8)


def test_full_run_prints_result_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "footprint", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170, check=True,
    )
    info, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert info["seed"] == 1 and info["env"]["nproc"] >= 1
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 5
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
