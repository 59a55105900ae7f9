"""Smoke test of the benchmark at a tiny input size, so the script cannot rot.

Run with ``python3 -m pytest bench/test_bench.py``; it is not part of the
repository's own test suite and takes well under a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, workload: str, trace: int, seed: int = 3):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--scale", "0.02"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric_and_passes_its_checks(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_without_the_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    proc = run_bench(tmp_path, "grade-oracle", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_same_seed_writes_identical_inputs(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import inputs
    finally:
        del sys.path[:2]
    for name in ("a", "b"):
        work = tmp_path / name
        work.mkdir()
        inputs.write_grade_inputs(work, seed=5, n_submissions=6)
        inputs.write_model_fixtures(work, seed=5, n_classifier_sentences=24,
                                    n_scorer_abstracts=2)
        inputs.write_train_inputs(work, seed=5, n_sentences=24)
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
