"""Smoke test of the benchmark at a tiny size.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import contextlib
import io
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((benchlib.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(benchlib.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0"]
    argv += ["--trace", str(trace)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv, tiny=True)
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(benchlib.ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=ignore)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "htm-stack",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
