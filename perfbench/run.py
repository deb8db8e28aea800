#!/usr/bin/env python3
"""cswsat benchmark: drift-calibrated end-to-end time and a per-layer trace.

    python3 perfbench/run.py --workload pn-chain --seed 1 --seconds 30 --trace 0

Each workload applies one public call (`min_csw` or `power_bfs`) to the
fixed instance list in `expected.json`, in a closed loop: one instance at a
time, single thread. `--seed` fixes the order in which the list is visited.
Whole passes over the list repeat while another pass still fits in
`--seconds`; there is always at least one.

`--trace 0` reports the end-to-end metrics. `--trace 1` alternates untraced
and traced passes and reports the per-layer metrics of the traced ones,
with `trace.overhead` comparing the two. Every answer is checked against
the expected table outside the timed region. The last line of standard
output is one JSON object; the line before it holds diagnostics, and a
traced run prints one `{"probe": ...}` line per solver call of its first
traced pass before that. perfbench/README.md explains the calibration.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

from make_expected import make_pfa
from tracing import RecordingBackend, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TABLE = HERE / "expected.json"

SETUP_REPEATS = 9
EDGE_SAMPLES = 3  # reference timings right before and right after an instance
SAMPLE_INTERVAL_S = 0.01  # and one per interval while it runs
OUTLIER_CAP = 3


class SetupError(RuntimeError):
    """The program or the expected table cannot be loaded."""


def reference_loop() -> int:
    """Fixed pure-Python work of a few tenths of a millisecond: indexing,
    branching and small integer arithmetic, the interpreter operations the
    solver spends its time on. It is never repo code, so a faster program
    cannot speed it up."""
    vals = list(range(64))
    acc = 0
    for r in range(40):
        for i in range(64):
            v = vals[i]
            if v & 1:
                acc += v
            else:
                vals[i] = v ^ (r & 63)
    return acc


def reference_time(samples: list) -> float:
    """Mean reference timing, each sample capped at OUTLIER_CAP times the
    median: a stall of several milliseconds that lands inside one short
    sample would otherwise outweigh hundreds of ordinary ones."""
    cap = OUTLIER_CAP * statistics.median(samples)
    return statistics.fmean(min(s, cap) for s in samples)


class Calibrator:
    """Times one call in CPU seconds of this process, together with the
    reference loop.

    The reference loop runs EDGE_SAMPLES times before and after the call
    and, through a SIGALRM interval timer, once every SAMPLE_INTERVAL_S
    while it runs. The CPU time spent in those samples is taken off the
    call's CPU time, and the call's calibrated time is what is left divided
    by `reference_time` of the samples.
    """

    def __init__(self):
        self.samples = []
        self.stolen = 0.0

    def _sample(self):
        start = time.process_time()
        reference_loop()
        self.samples.append(time.process_time() - start)

    def _on_alarm(self, signum, frame):
        start = time.process_time()
        self._sample()
        self.stolen += time.process_time() - start

    def measure(self, fn):
        """Returns (result, exception, wall seconds, CPU seconds, reference
        CPU seconds)."""
        self.samples = []
        self.stolen = 0.0
        for _ in range(EDGE_SAMPLES):
            self._sample()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        result = error = None
        wall_start = time.perf_counter()
        start = time.process_time()
        try:
            result = fn()
        except Exception as exc:  # an instance failure, counted, never fatal
            error = exc
        finally:
            cpu = time.process_time() - start
            wall = time.perf_counter() - wall_start
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        for _ in range(EDGE_SAMPLES):
            self._sample()
        return result, error, wall, cpu - self.stolen, reference_time(self.samples)


def load_api():
    """Import cswsat afresh from this checkout's src/ and nowhere else."""
    for name in [m for m in sys.modules if m == "cswsat" or m.startswith("cswsat.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        api = importlib.import_module("cswsat")
    except ImportError as exc:
        raise SetupError(f"cannot import cswsat from {SRC}: {exc}") from exc
    if SRC.resolve() not in Path(api.__file__).resolve().parents:
        raise SetupError(f"cswsat was imported from {api.__file__}, not from {SRC}")
    return api


def load_table() -> dict:
    try:
        return json.loads(TABLE.read_text())
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read expected answers {TABLE}: {exc}") from exc


def set_up(workload: str, table: dict | None):
    """Import, generate the instances and load their expected answers.
    Returns (api, call, [(entry, pfa)])."""
    api = load_api()
    workloads = table if table is not None else load_table()
    if workload not in workloads:
        raise SetupError(f"unknown workload {workload!r}; known: {sorted(workloads)}")
    plan = workloads[workload]
    return api, plan["call"], [(entry, make_pfa(api, entry)) for entry in plan["instances"]]


def check(api_verify, call: str, entry: dict, pfa, outcome) -> list:
    """Everything wrong with one answer, as messages; empty when correct."""
    problems = []
    got = (outcome.status, outcome.min_length)
    want = (entry["status"], entry["min_length"])
    if got != want:
        problems.append(f"answer {got}, expected {want}")
    if outcome.status == "FOUND":
        witness = outcome.witness
        if witness is None or len(witness) != outcome.min_length:
            problems.append(f"witness {witness!r} does not have the reported length")
        elif not api_verify(pfa, witness):
            problems.append(f"witness {witness!r} does not carefully synchronize")
        if call == "min_csw" and outcome.min_length >= 2 and not any(
            p.length == outcome.min_length - 1 and p.status == "UNSAT"
            for p in outcome.probes
        ):
            problems.append("no UNSAT probe at min-1 in the probe record")
    return problems


class Pass:
    """Calibrated times and failures of one pass over the instance list."""

    def __init__(self, size: int):
        self.norm = [0.0] * size
        self.wall = 0.0
        self.ref = []
        self.attempted = 0
        self.failures = []


def run_pass(api, call, instances, order, calibrator, tracer=None) -> Pass:
    verify = api.is_carefully_synchronizing
    result = Pass(len(instances))
    backend = RecordingBackend(tracer) if tracer else None
    for index in order:
        entry, pfa = instances[index]
        # the public name is looked up at call time, after the tracer has
        # wrapped it, so `search` and `oracle.bfs` spans see the top call
        if call == "min_csw":
            kwargs = {"backend": backend} if backend else {}
            fn = lambda: api.min_csw(pfa, **kwargs)  # noqa: E731
        else:
            fn = lambda: api.power_bfs(pfa)  # noqa: E731
        if tracer:
            tracer.instance = entry["id"]
        with tracer or contextlib.nullcontext():
            outcome, error, wall, work, ref = calibrator.measure(fn)
        result.attempted += 1
        result.wall += wall
        result.ref.append(ref)
        result.norm[index] = work / ref
        if error is not None:
            problems = [f"{type(error).__name__}: {error}"]
        else:
            problems = check(verify, call, entry, pfa, outcome)
            if tracer and not problems and outcome.min_length:
                tracer.note_certificate(entry["id"], outcome.min_length)
        if problems:
            result.failures.append(f"{entry['id']}: {'; '.join(problems)}")
    return result


def time_norm(passes: list) -> tuple:
    """(sum, median) over instances of each instance's median calibrated
    time across passes."""
    per_instance = [statistics.median(p.norm[i] for p in passes) for i in range(len(passes[0].norm))]
    return sum(per_instance), statistics.median(per_instance)


def run(workload: str, seed: int, seconds: float, trace: bool, table: dict | None = None) -> dict:
    """One benchmark run; returns the result object printed on the last line."""
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        api, call, instances = set_up(workload, table)
        setups.append(time.perf_counter() - start)

    order = list(range(len(instances)))
    random.Random(seed).shuffle(order)
    calibrator = Calibrator()
    plain, traced, tracers = [], [], []
    begin = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        plain.append(run_pass(api, call, instances, order, calibrator))
        if trace:
            tracer = Tracer(api, workload)
            traced.append(run_pass(api, call, instances, order, calibrator, tracer))
            tracers.append(tracer)
        now = time.perf_counter()
        if now - begin + (now - round_start) > seconds:
            break

    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    layers = [layer_metrics(t) for t in tracers]
    counts_repeat = all(
        all(layers[0][k] == other[k] for k in layers[0] if not k.endswith("_s"))
        for other in layers[1:]
    )
    total, p50 = time_norm(plain)
    diagnostics = {
        "failed_ratio": {"value": len(failures) / attempted, "unit": "ratio"},
        "bench.wall_s": {"value": statistics.median(p.wall for p in plain), "unit": "s"},
        "bench.ref_s": {"value": statistics.median(r for p in plain for r in p.ref), "unit": "s"},
        "passes": {"value": len(passes), "unit": "count"},
        "instances": {"value": len(instances), "unit": "count"},
        "failures": failures[:20],
    }
    if trace:
        metrics = {}
        for name in layers[0]:
            value = statistics.median(layer[name] for layer in layers)
            metrics[name] = {"value": value, "unit": _unit(name)}
        metrics["trace.overhead"] = {"value": time_norm(traced)[0] / total - 1, "unit": "ratio"}
        diagnostics["counts_repeat"] = counts_repeat
        probes = tracers[0].probes
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "time_norm": {"value": total, "unit": "ref"},
            "inst_p50_norm": {"value": p50, "unit": "ref"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
            "ok_ratio": {"value": 1 - len(failures) / attempted, "unit": "ratio"},
        }
        probes = []
    return {
        "probes": probes,
        "diagnostics": diagnostics,
        "result": {
            "correct": not failures and counts_repeat,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": metrics,
        },
    }


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    return "s" if name.endswith("_s") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for probe in out["probes"]:
        print(json.dumps({"probe": probe}))
    print(json.dumps({"diagnostics": out["diagnostics"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
