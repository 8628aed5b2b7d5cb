"""Tests of the benchmark itself, run with  python -m pytest bench

The smoke run passes every output check and prints exactly the metrics
BENCHMARK.json names; every known-answer check accepts fibcat's output and
refuses a changed one; the seed alone fixes the inputs; and without the
fibcat sources the benchmark fails without printing a result.
"""

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402
from fibcat import cli  # noqa: E402


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_is_correct_and_prints_every_metric(workload, trace, key):
    proc = _run(ROOT, "--workload", workload, "--smoke", "--trace", str(trace), "--seed", "7")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, proc.stderr
    spec = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == spec


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_accept_fibcat_output_and_refuse_changed_output(workload, tmp_path):
    for cmd in workloads.build(workload, 3, str(tmp_path), smoke=True):
        out = io.StringIO()
        code = cli.main(cmd.argv, out)
        lines = out.getvalue().splitlines()
        assert cmd.check(code, lines) is None, (cmd.kind, cmd.check(code, lines))
        assert cmd.check(code, lines[1:]) is not None, cmd.kind
        assert cmd.check(code + 1, lines) is not None, cmd.kind


def test_seed_fixes_the_inputs(tmp_path):
    files = {}
    for run, seed in (("a", 5), ("b", 5), ("c", 6)):
        (tmp_path / run).mkdir()
        workloads.build("fibration", seed, str(tmp_path / run), smoke=True)
        files[run] = {p.name: p.read_text() for p in sorted((tmp_path / run).iterdir())}
    assert files["a"] == files["b"]
    assert files["a"] != files["c"]


def test_fails_without_the_fibcat_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", ".trace", "__pycache__"))
    proc = _run(tmp_path, "--workload", "fibration", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
