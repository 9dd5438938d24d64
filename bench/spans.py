"""Spans and counters recorded around the benchmark's calls into synchro.

A span is (name, label, start, end, parent): `name` is "<layer>.<op>",
where the layer is a synchro module (or "bench" for the harness's own
work: jobs, input generation and oracles), `label` names the job or
input, and `parent` indexes the enclosing span (-1 at top level).
Spans and counters stay in memory; `write_trace` saves them at the end
of a run.  Only calls made from the benchmark's files are spanned;
nothing inside synchro is instrumented.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    """Records one segment of a run: the set-up or one traced pass."""

    def __init__(self, label: str):
        self.label = label
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, label: str = ""):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, label, time.perf_counter(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, n=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


class NullTracer:
    """Tracing off: calls go straight through and nothing is kept."""

    _null = nullcontext()

    def span(self, name: str, label: str = ""):
        return self._null

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, n=1) -> None:
        pass


# The end-to-end metric each layer's numbers should move, and where:
#   mapping    wall_s, slowest_job_s, solved_jobs   certify-small only
#   diagonal   wall_s                               certify-small
#   witness    wall_s                               certify-small
#   groups     setup_s                              certify-small, orbital-algebra
#   orbitals   decomposition, collapsed: wall_s, peak_rss_mb   orbital-algebra
#              expand, wilcox: wall_s, slowest_job_s   orbital-algebra, and
#              no change on matrep-j4scale (rank 5 only)
#   matrep     wall_s, slowest_job_s                matrep-j4scale only
#   chartab    setup_s, wall_s (small share)        orbital-algebra
#   cli        wall_s                               certify-small
LAYERS = (
    "mapping",
    "diagonal",
    "witness",
    "groups",
    "orbitals",
    "matrep",
    "chartab",
    "cli",
    "bench",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(segments: list[Tracer]) -> dict[str, float]:
    """Per-layer metrics over the given segments (set-up plus one pass).

    `<layer>.self_s` is the layer's span time minus the part covered by
    child spans; the other timings are summed span durations of one op.
    """
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    counts: dict[str, float] = {}
    for seg in segments:
        covered = [0.0] * len(seg.spans)
        for name, _, start, end, parent in seg.spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, _, start, end, _) in enumerate(seg.spans):
            total[name] = total.get(name, 0.0) + end - start
            calls[name] = calls.get(name, 0) + 1
            layer = name.split(".", 1)[0]
            self_s[layer] += end - start - covered[i]
        for key, n in seg.counts.items():
            counts[key] = counts.get(key, 0) + n

    def s(name):
        return total.get(name, 0.0)

    def ms_per_call(name):
        return 1000 * _ratio(s(name), calls.get(name, 0))

    def c(name):
        return counts.get(name, 0)

    decided = c("mapping.found") + c("mapping.refuted")
    m = {
        "mapping.search_s": s("mapping.search"),
        "mapping.nodes": c("mapping.nodes"),
        "mapping.nodes_per_s": _ratio(c("mapping.nodes"), s("mapping.search")),
        "mapping.found": c("mapping.found"),
        "mapping.refuted": c("mapping.refuted"),
        "mapping.budget_exhausted": c("mapping.budget_exhausted"),
        "mapping.decided_ratio": _ratio(
            decided, decided + c("mapping.budget_exhausted")
        ),
        "diagonal.coloring_s": s("diagonal.coloring"),
        "diagonal.verify_s": s("diagonal.verify"),
        "diagonal.edges": c("diagonal.edges"),
        "diagonal.edges_per_s": _ratio(
            c("diagonal.edges"), s("diagonal.verify")
        ),
        "witness.verify_s": s("witness.verify"),
        "witness.transfer_s": s("witness.transfer"),
        "witness.elements_checked": c("witness.elements_checked"),
        "groups.make_group_s": s("groups.make_group"),
        "orbitals.decomposition_s": s("orbitals.decomposition"),
        "orbitals.group_elements": c("orbitals.group_elements"),
        "orbitals.collapsed_s": s("orbitals.collapsed"),
        "orbitals.expand_s": s("orbitals.expand"),
        "orbitals.wilcox_s": s("orbitals.wilcox"),
        "matrep.conjugate_ms": ms_per_call("matrep.conjugate"),
        "matrep.fingerprint_ms": ms_per_call("matrep.fingerprint"),
        "matrep.orbit_closure_s": s("matrep.orbit_closure"),
        "matrep.orbit_elements": c("matrep.orbit_elements"),
        "matrep.collapsed_s": s("matrep.collapsed"),
        "matrep.fingerprints": c("matrep.fingerprints"),
        "matrep.fingerprints_per_s": _ratio(
            c("matrep.fingerprints"), s("matrep.collapsed")
        ),
        "chartab.load_s": s("chartab.load"),
        "chartab.constants_s": s("chartab.constants"),
        "chartab.constants": c("chartab.constants"),
        "chartab.brute_force_s": s("chartab.brute_force"),
        "cli.main_s": s("cli.main"),
        "cli.calls": calls.get("cli.main", 0),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    return m


# (ratio, numerator terms, denominator terms): the report prints every
# ratio next to the counts it is made of
RATIOS = (
    ("mapping.nodes_per_s", ("mapping.nodes",), ("mapping.search_s",)),
    ("mapping.decided_ratio", ("mapping.found", "mapping.refuted"),
     ("mapping.found", "mapping.refuted", "mapping.budget_exhausted")),
    ("diagonal.edges_per_s", ("diagonal.edges",), ("diagonal.verify_s",)),
    ("matrep.fingerprints_per_s", ("matrep.fingerprints",), ("matrep.collapsed_s",)),
)


def write_trace(path, header: dict, segments: list[Tracer], t0: float):
    """Save every segment's spans (times relative to t0) and counters."""
    out = dict(header)
    out["segments"] = [
        {
            "label": seg.label,
            "counts": seg.counts,
            "spans": [
                [name, label, start - t0, end - t0, parent]
                for name, label, start, end, parent in seg.spans
            ],
        }
        for seg in segments
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out, separators=(",", ":")) + "\n")
