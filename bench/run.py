"""The synchro benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; synchro is imported from the
checkout's `src/` and nothing is installed.  Set-up builds the
workload's inputs from the seed plus its oracles, then whole passes over
the workload's job list run back to back, single process, for about S
seconds.  Every job checks its answer against
an independent oracle; a failed check, an exception or an exhausted
search budget is recorded and the pass goes on.

With --trace 0 the end-to-end metrics of BENCHMARK.json are reported:
medians over passes, and over set-ups repeated in fresh processes for
setup_s.  With --trace 1, untraced and traced passes alternate, spans
around every call into synchro are kept in memory and written to
.bench_trace/ at the end, and the per-layer metrics are reported.  The
last line of standard output is the JSON result.
"""

import time

# set-up time is counted from here: it includes importing synchro
T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from jobs import BUDGET_EXHAUSTED, CHECK_FAILED, ERROR, OK, run_pass  # noqa: E402
from spans import RATIOS, NullTracer, Tracer, layer_metrics, write_trace  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {
    "certify-small": "certify_small",
    "orbital-algebra": "orbital_algebra",
    "matrep-j4scale": "matrep_j4scale",
}
# set-ups repeated in fresh processes, on top of the run's own, for setup_s
SETUP_PROBES = 4


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print it as JSON and exit")
    return p.parse_args(argv)


def import_synchro():
    src = ROOT / "src"
    if not (src / "synchro" / "__init__.py").is_file():
        sys.exit(f"error: no synchro sources under {src}")
    sys.path.insert(0, str(src))
    import synchro

    if Path(synchro.__file__).resolve().parent != src / "synchro":
        sys.exit(f"error: imported synchro from {synchro.__file__}, not {src}")


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
        return "unknown"
    except OSError:
        return "unknown (not a git checkout)"


def src_lines() -> int:
    return sum(
        len(path.read_text().splitlines())
        for path in (ROOT / "src" / "synchro").rglob("*.py")
    )


def probe_setup(args) -> list[float]:
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--setup-only",
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=150, check=True)
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def measure(jobs, seconds: float, traced: bool):
    """Whole passes while at least half the longest pass so far is left
    of `seconds`.  When traced, passes alternate untraced / traced, at
    least one of each."""
    passes = []  # (Tracer or None, PassResult)
    start = time.perf_counter()
    while True:
        tr = Tracer(f"pass {len(passes)}") if traced and len(passes) % 2 else None
        gc.collect()
        passes.append((tr, run_pass(jobs, tr or NullTracer())))
        elapsed = time.perf_counter() - start
        longest = max(p.wall_s for _, p in passes)
        if len(passes) >= 1 + traced and elapsed + longest / 2 > seconds:
            return passes


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    import_synchro()
    workload = importlib.import_module(WORKLOADS[args.workload])
    setup_tr = Tracer("setup") if args.trace else NullTracer()
    fixture = workload.setup(args.seed, setup_tr, ROOT)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("# synchro benchmark")
    print(f"python {platform.python_version()} | {platform.platform()} | "
          f"nproc {os.cpu_count()} | git {git_sha()}")
    print(f"workload {args.workload} | seed {args.seed} | seconds {args.seconds:g} "
          f"| trace {args.trace}")
    print(f"synchro.src_lines {src_lines()}")
    for line in workload.describe(fixture):
        print(line)

    setup_samples = [setup_s] if args.trace else [setup_s] + probe_setup(args)
    print("setup_s samples " + " ".join(f"{s:.4f}" for s in setup_samples))
    # the fixtures (and sympy, once chartab has loaded a table) live for
    # the whole run: keep the collector from rescanning them in every pass
    gc.collect()
    gc.freeze()
    passes = measure(workload.jobs(fixture), args.seconds, bool(args.trace))

    attempted = failed = 0
    for k, (tr, p) in enumerate(passes):
        tally = {o: p.tally(o) for o in (OK, BUDGET_EXHAUSTED, CHECK_FAILED, ERROR)}
        attempted += len(p.records)
        failed += tally[CHECK_FAILED] + tally[ERROR]
        slow = p.slowest()
        print(f"pass {k}{' traced' if tr else ''}: wall {p.wall_s:.4f} s, slowest "
              f"{slow.seconds:.4f} s ({slow.name}), jobs {len(p.records)}: "
              + ", ".join(f"{o} {n}" for o, n in tally.items())
              + f", digest {p.digest()[:16]}")
    first = passes[0][1]
    for r in first.records:
        if r.outcome != OK:
            print(f"  {r.outcome}: {r.name}: {r.result}")
    digests = {p.digest() for _, p in passes}
    outcomes = {tuple(r.outcome for r in p.records) for _, p in passes}
    deterministic = len(digests) == 1 and len(outcomes) == 1
    # the longest job by its median over the passes: a per-pass maximum
    # would pick whichever of several similar jobs was slowed the most
    job_s = [statistics.median(p.records[i].seconds for _, p in passes)
             for i in range(len(first.records))]
    slowest = max(range(len(job_s)), key=job_s.__getitem__)
    print(f"slowest job {first.records[slowest].name}: {job_s[slowest]:.4f} s "
          "(median over passes)")
    unsolved = len(first.records) - first.tally(OK)
    print(f"failed_jobs {unsolved} of {len(first.records)} jobs per pass "
          f"(budget-exhausted {first.tally(BUDGET_EXHAUSTED)}, check-failed "
          f"{first.tally(CHECK_FAILED)}, error {first.tally(ERROR)})")
    if deterministic:
        print(f"result digest {first.digest()} (identical in {len(passes)} passes)")
    else:
        print("result digest MISMATCH between passes: "
              + " ".join(sorted(d[:16] for d in digests)))

    if args.trace:
        key = "per_layer"
        traced = sorted(((tr, p) for tr, p in passes if tr), key=lambda t: t[1].wall_s)
        untraced = [p.wall_s for tr, p in passes if not tr]
        # layer numbers of set-up plus the median traced pass, so that
        # every ratio is exactly its printed base counts
        tr, p = traced[(len(traced) - 1) // 2]
        values = layer_metrics([setup_tr, tr])
        values["trace.overhead_s"] = p.wall_s - statistics.median(untraced)
        values["trace.spans"] = len(tr.spans)

        def terms(names):
            return " + ".join(f"{n} {values[n]:.6g}" for n in names)

        for ratio, num, den in RATIOS:
            print(f"{ratio} {values[ratio]:.6g} = ({terms(num)}) / ({terms(den)})")
        path = ROOT / ".bench_trace" / f"{args.workload}-seed{args.seed}.json"
        header = {"workload": args.workload, "seed": args.seed,
                  "inputs": workload.describe(fixture)}
        write_trace(path, header,
                    [setup_tr] + [tr for tr, _ in traced], T0)
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        key = "end_to_end"
        values = {
            "wall_s": statistics.median(p.wall_s for _, p in passes),
            "slowest_job_s": job_s[slowest],
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "solved_jobs": statistics.median(p.tally(OK) for _, p in passes),
        }
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared[key]
    }
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
