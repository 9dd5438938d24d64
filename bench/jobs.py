"""Jobs, their outcomes, and one pass over a workload's job list.

A job calls into synchro, checks the answer against an independent
oracle, and returns a JSON-able canonical result.  A failed check, an
exception of any kind, or an exhausted search budget is recorded on the
job and the pass goes on with the next one.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable

OK = "ok"
BUDGET_EXHAUSTED = "budget-exhausted"
CHECK_FAILED = "check-failed"
ERROR = "error"


class CheckFailed(Exception):
    """The program's answer disagrees with the oracle."""


class BudgetExhausted(Exception):
    """A search stopped at its node budget; carries the canonical result."""

    def __init__(self, result):
        super().__init__("node budget exhausted")
        self.result = result


def sha256_json(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def check_algebra(what: str, mats, subdegrees, pairing, report) -> None:
    """Row sums equal subdegrees, the pairing is an involution between
    equal subdegrees, and the Wilcox entries are read off the matrices."""
    r = len(subdegrees)
    for i, m in enumerate(mats):
        check(all(sum(row) == subdegrees[i] for row in m), f"{what}: row sums of A_{i}")
    for i in range(r):
        j = pairing[i]
        check(pairing[j] == i and subdegrees[j] == subdegrees[i], f"{what}: pairing at {i}")
    for i, row in enumerate(report):
        check(row["inverse_entry"] == mats[i][i][pairing[i]]
              and row["self_entry"] == mats[i][i][i], f"{what}: Wilcox row {i}")


@dataclass(frozen=True)
class Job:
    name: str
    # fn(tracer, ctx) -> canonical result; ctx carries results that later
    # jobs of the same pass build on (e.g. mappings for odd colourings)
    fn: Callable


@dataclass(frozen=True)
class JobRecord:
    name: str
    outcome: str
    seconds: float
    result: object


@dataclass(frozen=True)
class PassResult:
    wall_s: float
    records: tuple[JobRecord, ...]

    def slowest(self) -> JobRecord:
        return max(self.records, key=lambda r: r.seconds)

    def tally(self, outcome: str) -> int:
        return sum(r.outcome == outcome for r in self.records)

    def digest(self) -> str:
        """sha256 of the canonical results; equal across runs and commits
        exactly when every job produced byte-identical output."""
        return sha256_json([[r.name, r.outcome, r.result] for r in self.records])


def run_pass(jobs: list[Job], tr) -> PassResult:
    ctx: dict = {}
    records = []
    start = time.perf_counter()
    for job in jobs:
        t = time.perf_counter()
        try:
            with tr.span("bench.job", job.name):
                outcome, result = OK, job.fn(tr, ctx)
        except BudgetExhausted as exc:
            outcome, result = BUDGET_EXHAUSTED, exc.result
        except CheckFailed as exc:
            outcome, result = CHECK_FAILED, str(exc)
        except Exception as exc:  # noqa: BLE001 - a job failure must not stop the run
            outcome, result = ERROR, f"{type(exc).__name__}: {exc}"
            print(f"job {job.name} raised:", file=sys.stderr)
            traceback.print_exc(limit=5, file=sys.stderr)
        records.append(JobRecord(job.name, outcome, time.perf_counter() - t, result))
    return PassResult(time.perf_counter() - start, tuple(records))
