"""Self-tests of the benchmark; run with `python3 -m pytest bench/test_bench.py -q`.

They start the benchmark from the repository root, as it is meant to be run, with
runs short enough that each workload does a single pass per loop.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
DIGESTS = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, env, result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc, env, result = _run(workload, 7, trace)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in expected
    }
    assert env["traced"] == bool(trace) and env["ops"] == result["attempted"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _copy(tmp_path: Path, *names: str) -> Path:
    """A checkout in tmp_path holding only the named top-level entries."""
    ignore = shutil.ignore_patterns("results", "__pycache__")
    for name in names:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, tmp_path / name, ignore=ignore)
        else:
            shutil.copy(ROOT / name, tmp_path)
    return tmp_path


def test_tampered_reference_digest_fails(tmp_path):
    copy = _copy(tmp_path, "BENCHMARK.json", "bench", "src")
    tampered = dict(DIGESTS, digests=dict(DIGESTS["digests"], corpus="0" * 64))
    (copy / "bench" / "digests.json").write_text(json.dumps(tampered), encoding="utf-8")
    proc, env, result = _run("corpus", DIGESTS["seed"], 0, cwd=copy)
    assert proc.returncode == 1
    assert not env["digest_ok"] and not result["correct"]
    proc, env, result = _run("corpus", DIGESTS["seed"], 0)
    assert proc.returncode == 0 and env["digest"] == DIGESTS["digests"]["corpus"]


def test_traced_and_untraced_runs_agree_on_the_digest():
    _, plain, _ = _run("corpus", 5, 0)
    _, traced, _ = _run("corpus", 5, 1)
    assert plain["digest"] == traced["digest"]


def test_fails_without_the_sources(tmp_path):
    proc, _, result = _run("corpus", 1, 0, cwd=_copy(tmp_path, "BENCHMARK.json", "bench"))
    assert proc.returncode != 0 and result is None
