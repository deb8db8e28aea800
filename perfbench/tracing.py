"""Outside-in tracing of cswsat's layers for the benchmark's traced run.

Nothing here edits the program. Two hooks give every per-layer number:

* a recording backend, passed through `min_csw(..., backend=...)`, that
  times each probe's solve and keeps its conflict, decision, propagation
  and restart counts and the size of the CNF it was handed;
* wrappers installed by name over the public functions the search calls
  (`encode`, `scale`, `decode_word`, `satisfies`,
  `is_carefully_synchronizing`, `power_bfs`, `min_csw`). A name that no
  longer exists in any cswsat module is skipped, so the trace keeps working
  while the program sheds functions (its layer then reports the time of
  whatever names remain).

Spans nest: each records its wall time and the time its wrapped callees
covered, which gives self time (`search.self_s` is the part of `min_csw`
spent in no wrapped callee).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# public function name -> layer it is charged to
WRAPPED = {
    "encode": "encoder.build",
    "scale": "encoder.build",
    "decode_word": "encoder.decode",
    "satisfies": "solver.satisfies",
    "is_carefully_synchronizing": "automaton.verify",
    "power_bfs": "oracle.bfs",
    "min_csw": "search",
}


def _package_modules(package: str) -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == package or name.startswith(package + "."))
    ]


def _find_public(modules: list, name: str):
    """The function the package defines under `name`, or None when gone."""
    for module in modules:
        obj = module.__dict__.get(name)
        if callable(obj) and getattr(obj, "__name__", None) == name:
            return obj
    return None


class Tracer:
    """Per-layer time and counts for one pass over a workload."""

    def __init__(self, api, workload: str):
        self.api = api
        self.workload = workload
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.probes = []
        self.instance = None
        self._stack = []
        self._patched = []

    # spans -------------------------------------------------------------
    def _enter(self):
        self._stack.append(0.0)
        return time.perf_counter()

    def _leave(self, layer: str, start: float) -> float:
        elapsed = time.perf_counter() - start
        covered = self._stack.pop()
        self.time[layer] += elapsed
        self.self_time[layer] += elapsed - covered
        if self._stack:
            self._stack[-1] += elapsed
        return elapsed

    def _wrap(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._leave(layer, start)
                tracer._observe(layer, exc)
                raise
            tracer._leave(layer, start)
            tracer._observe(layer, result)
            return result

        return traced

    def _observe(self, layer: str, result):
        self.counts[layer + ".calls"] += 1
        if layer == "oracle.bfs":
            # an outcome, or BudgetExceeded carrying the same attribute
            self.counts["oracle.visited"] += getattr(result, "visited", None) or 0

    # installation ------------------------------------------------------
    def __enter__(self):
        """Replace every binding of each wrapped name inside the package."""
        modules = _package_modules(self.api.__name__)
        for name, layer in WRAPPED.items():
            original = _find_public(modules, name)
            if original is None:
                continue
            wrapper = self._wrap(layer, original)
            for module in modules:
                if module.__dict__.get(name) is original:
                    setattr(module, name, wrapper)
                    self._patched.append((module, name, original))
        return self

    def __exit__(self, *exc):
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    # certificate -------------------------------------------------------
    def note_certificate(self, instance: str, min_length: int):
        """Charge the UNSAT probe at min-1 of `instance` to solver.cert."""
        for probe in self.probes:
            if (
                probe["instance"] == instance
                and probe["length"] == min_length - 1
                and probe["status"] == "UNSAT"
            ):
                self.time["solver.cert"] += probe["seconds"]


class RecordingBackend:
    """A backend for `min_csw` that solves with the default backend and
    records each probe."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.inner = tracer.api.Backend()

    def run(self, instance):
        tracer = self.tracer
        start = tracer._enter()
        try:
            result = self.inner.run(instance)
        finally:
            seconds = tracer._leave("solver.solve", start)
        stats = result.stats
        counts = tracer.counts
        counts["solver.calls"] += 1
        counts["solver.conflicts"] += stats.conflicts
        counts["solver.decisions"] += stats.decisions
        counts["solver.propagations"] += stats.propagations
        counts["solver.restarts"] += stats.restarts
        counts["encoder.clauses"] += len(instance.clauses)
        counts["encoder.vars"] += instance.var_count
        counts["search.probes"] += 1
        length = instance.layout.ell
        counts["search.probe_len_sum"] += length
        tracer.time["solver.sat" if result.status == "SAT" else "solver.unsat"] += seconds
        tracer.probes.append(
            {
                "workload": tracer.workload,
                "instance": tracer.instance,
                "length": length,
                "status": result.status,
                "conflicts": stats.conflicts,
                "decisions": stats.decisions,
                "propagations": stats.propagations,
                "seconds": seconds,
            }
        )
        return result


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers of one traced pass, as plain floats and ints."""
    t, c = tracer.time, tracer.counts
    solve_s = t["solver.solve"]
    bfs_s = t["oracle.bfs"]
    return {
        "solver.solve_s": solve_s,
        "solver.sat_s": t["solver.sat"],
        "solver.unsat_s": t["solver.unsat"],
        "solver.cert_s": t["solver.cert"],
        "solver.satisfies_s": t["solver.satisfies"],
        "solver.calls": c["solver.calls"],
        "solver.conflicts": c["solver.conflicts"],
        "solver.decisions": c["solver.decisions"],
        "solver.propagations": c["solver.propagations"],
        "solver.restarts": c["solver.restarts"],
        "solver.props_per_s": c["solver.propagations"] / solve_s if solve_s else 0.0,
        "encoder.build_s": t["encoder.build"],
        "encoder.decode_s": t["encoder.decode"],
        "encoder.clauses": c["encoder.clauses"],
        "encoder.vars": c["encoder.vars"],
        "search.calls": c["search.calls"],
        "search.probes": c["search.probes"],
        "search.probe_len_sum": c["search.probe_len_sum"],
        "search.self_s": tracer.self_time["search"],
        "oracle.bfs_s": bfs_s,
        "oracle.calls": c["oracle.bfs.calls"],
        "oracle.visited": c["oracle.visited"],
        "oracle.visited_per_s": c["oracle.visited"] / bfs_s if bfs_s else 0.0,
        "automaton.verify_s": t["automaton.verify"],
    }
