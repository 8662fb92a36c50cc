"""The benchmark harness still runs against this package.

vcbench patches methods by name (`Adam.step`, `VcModel.embed_and_concat`,
...) and checks that its per-stage probe composes to `forward_tensors`.  A
renamed method or a changed composition fails here, at toy shapes, rather
than in a benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_toy_run_is_correct_with_no_failed_op(workload):
    proc = subprocess.run(
        [sys.executable, str(REPO / "vcbench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", "1", "--dims", "toy"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert result["correct"], report["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
