"""The benchmark's seed-1 result digests: one whole run per workload.

`--seconds 0 --trace 1` makes one untraced and one traced pass, and
bench/run.py prints `result digest` only when the two agree.  A change
that moves a digest updates it here and argues the move in CHANGES.md.
The traced pass writes its spans under .bench_trace/.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"
DIGESTS = {
    "certify-small":
        "117a10cb2514d36da9ade8dd65a1bc8e264f1a6541e533d6101ab4ddc81fbd72",
    "orbital-algebra":
        "c70939130bf94022c17c3292e9f005b318a6d6b1061974a72ebfac0f6eacf704",
    "matrep-j4scale":
        "dbd94ba49644f8e550c16a024e31ea113f70b33c2f2b5418082e40c8fe9edee6",
}


@pytest.mark.parametrize("workload", list(DIGESTS))
def test_seed_1_digest(workload):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert json.loads(lines[-1])["correct"] is True
    digest = [ln.split()[2] for ln in lines if ln.startswith("result digest ")]
    assert digest == [DIGESTS[workload]]
