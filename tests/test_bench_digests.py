"""The benchmark's seed-1 result digests: one whole run per workload.

`--seconds 0 --trace 1` makes one untraced and one traced pass, and
bench/run.py prints `result digest` only when the two agree.  A change
that moves a digest updates it here and argues the move in CHANGES.md.
Each run is of a copy of bench/, src/ and BENCHMARK.json in a temporary
directory, so the traced pass writes its spans under that copy's
.bench_trace/, not into the checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = {
    "certify-small":
        "117a10cb2514d36da9ade8dd65a1bc8e264f1a6541e533d6101ab4ddc81fbd72",
    "orbital-algebra":
        "c70939130bf94022c17c3292e9f005b318a6d6b1061974a72ebfac0f6eacf704",
    "matrep-j4scale":
        "dbd94ba49644f8e550c16a024e31ea113f70b33c2f2b5418082e40c8fe9edee6",
}


@pytest.mark.parametrize("workload", list(DIGESTS))
def test_seed_1_digest(workload, tmp_path):
    for tree in ("bench", "src"):
        shutil.copytree(ROOT / tree, tmp_path / tree,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"),
         "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert json.loads(lines[-1])["correct"] is True
    digest = [ln.split()[2] for ln in lines if ln.startswith("result digest ")]
    assert digest == [DIGESTS[workload]]
    assert (tmp_path / ".bench_trace" / f"{workload}-seed1.json").is_file()
