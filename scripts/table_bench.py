#!/usr/bin/env python3
"""Time the distance tables and min_csw's chain runs of two source trees.

    python scripts/table_bench.py --parent OLD --change NEW -o BENCH.json
    python scripts/table_bench.py --parent OLD --change NEW --only tables -o t.json
    python scripts/table_bench.py --parent OLD --change NEW --only random-min,oracle-curve -o w.json

OLD and NEW are two checkouts of this repository. Each measurement runs in
a fresh process that imports cswsat from one tree's src/ alone, the two
trees taking turns (odd rounds the parent first). Sections (--only picks
some; all but random-min and oracle-curve by default):

  tables     CPU of DistanceTables(pfa).far(k) on a fresh object, which
             builds and checks every size up to k, with the cyclic garbage
             collector off as in min_csw; then tracemalloc's held (after
             the call, the object alive) and peak MB in one traced run; and
             the sha256 of every list far(2..k), which must match between
             the trees. Rows: pn(5..15) up to n - 2, pn(16) up to 6, pn(20)
             up to 4; the first FOUND draw (by power_bfs) of curve trials
             0-19 at n = 8..12, seed 0, one hole, up to min(5, n - 2),
             timed as one sum; random n = 16 seeds 0-4 up to 5; random
             n = 40/60/100 seed 0 at 3.
  min_csw    CPU of min_csw(pn(n)) for n = 9..15.
  pn-chain   `perfbench/run.py --workload pn-chain` in each tree's own
             directory, --pairs seeds, each pair alternating; likewise
             random-min and oracle-curve.
  identity   scripts/search_identity.py in each tree; the dumps must be
             byte for byte equal.

Each side's samples are reported with their median and inclusive
quartiles; `change_pct` is the change's median against the parent's.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

TABLE_ROWS = (
    [(f"pn-{n}", "pn", n, 0, n - 2) for n in range(5, 16)]
    + [("pn-16", "pn", 16, 0, 6), ("pn-20", "pn", 20, 0, 4)]
    + [(f"curve-n{n}", "curve", n, 0, min(5, n - 2)) for n in range(8, 13)]
    + [(f"random-n16-s{s}", "random", 16, s, 5) for s in range(5)]
    + [(f"random-n{n}-s0", "random", n, 0, 3) for n in (40, 60, 100)]
)
CURVE_TRIALS = 20
CHAIN_SIZES = range(9, 16)
WORKLOADS = ("pn-chain", "random-min", "oracle-curve")
SECTIONS = ("tables", "min_csw", *WORKLOADS, "identity")
DEFAULT_SECTIONS = ("tables", "min_csw", "pn-chain", "identity")


def _automata(family: str, n: int, seed: int) -> list:
    from cswsat import GenConfig, pn, power_bfs, random_pfa
    from cswsat.generators import trial_seed

    if family == "pn":
        return [pn(n)]
    if family == "random":
        return [random_pfa(GenConfig(n=n, seed=seed))]
    found = []
    for trial in range(CURVE_TRIALS):
        for attempt in range(1000):
            pfa = random_pfa(GenConfig(n=n, seed=trial_seed(seed, trial, attempt)))
            if power_bfs(pfa).status == "FOUND":
                found.append(pfa)
                break
    return found


def _work(task: dict) -> dict:
    """One process's share: `rounds` timings of one row, on one tree."""
    import tracemalloc

    from cswsat import min_csw, pn
    from cswsat.encoder import DistanceTables

    rounds = task["rounds"]
    if task["kind"] == "min_csw":
        pfa = pn(task["n"])
        times = []
        for _ in range(rounds):
            start = time.process_time()
            min_csw(pfa)
            times.append(time.process_time() - start)
        return {"seconds": times}
    pfas = _automata(task["family"], task["n"], task["seed"])
    k = task["k"]
    times = []
    for _ in range(rounds):
        spent = 0.0
        for pfa in pfas:
            gc.disable()
            start = time.process_time()
            DistanceTables(pfa).far(k)
            spent += time.process_time() - start
            gc.enable()
        times.append(spent)
    digest = hashlib.sha256()
    held = peak = 0
    for pfa in pfas:
        tracemalloc.start()
        distances = DistanceTables(pfa)
        distances.far(k)
        current, top = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        held, peak = max(held, current), max(peak, top)
        for size in range(2, k + 1):
            digest.update(repr(distances.far(size)).encode())
        del distances
    return {"seconds": times, "held_mb": held / 2**20, "peak_mb": peak / 2**20,
            "sha256": digest.hexdigest()}


def _run_task(tree: Path, task: dict) -> dict:
    code = (
        f"import sys, json; sys.path.insert(0, {str(tree / 'src')!r}); "
        f"sys.path.insert(0, {str(Path(__file__).parent)!r}); import table_bench; "
        "print(json.dumps(table_bench._work(json.loads(sys.argv[1]))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(task)], capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


def _summary(parent: list, change: list, better: str = "lower") -> dict:
    def quartiles(values):
        return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3

    p_q, c_q = quartiles(parent), quartiles(change)
    row = {
        "parent": [round(v, 6) for v in parent],
        "change": [round(v, 6) for v in change],
        "parent_median": round(p_q[1], 6),
        "change_median": round(c_q[1], 6),
        "parent_quartiles": [round(p_q[0], 6), round(p_q[2], 6)],
        "change_quartiles": [round(c_q[0], 6), round(c_q[2], 6)],
        "change_pct": round(100 * (c_q[1] / p_q[1] - 1), 1) if p_q[1] else None,
    }
    if len(parent) == len(change):
        sign = 1 if better == "lower" else -1
        row["pairs_won"] = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    return row


def _alternate(trees: dict, task: dict, pairs: int) -> dict:
    """Per side, every sample of `pairs` processes each, taking turns."""
    got = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            got[side].append(_run_task(trees[side], task))
    return got


def tables(trees: dict, pairs: int, rounds: int) -> dict:
    rows = {}
    for name, family, n, seed, k in TABLE_ROWS:
        task = {"kind": "far", "family": family, "n": n, "seed": seed, "k": k, "rounds": rounds}
        got = _alternate(trees, task, pairs)
        seconds = {side: [t for run in runs for t in run["seconds"]] for side, runs in got.items()}
        last = {side: runs[-1] for side, runs in got.items()}
        rows[name] = {
            "k": k,
            "seconds": _summary(seconds["parent"], seconds["change"]),
            "held_mb": {side: round(run["held_mb"], 2) for side, run in last.items()},
            "peak_mb": {side: round(run["peak_mb"], 2) for side, run in last.items()},
            "lists_equal": last["parent"]["sha256"] == last["change"]["sha256"],
        }
        print(name, rows[name]["seconds"]["change_pct"], rows[name]["lists_equal"], file=sys.stderr)
    return rows


def chain_runs(trees: dict, pairs: int, rounds: int) -> dict:
    rows = {}
    for n in CHAIN_SIZES:
        got = _alternate(trees, {"kind": "min_csw", "n": n, "rounds": rounds}, pairs)
        seconds = {side: [t for run in runs for t in run["seconds"]] for side, runs in got.items()}
        rows[f"pn-{n}"] = _summary(seconds["parent"], seconds["change"])
        print(f"min_csw pn-{n}", rows[f"pn-{n}"]["change_pct"], file=sys.stderr)
    return rows


def perfbench(trees: dict, workload: str, pairs: int, seconds: float) -> dict:
    metrics = {}
    for seed in range(1, pairs + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds)],
                cwd=trees[side], capture_output=True, text=True, check=True,
            )
            result = json.loads(out.stdout.splitlines()[-1])
            for name, metric in result["metrics"].items():
                metrics.setdefault(name, {"parent": [], "change": []})[side].append(metric["value"])
        print(f"{workload} seed {seed}", {m: v["change"][-1] for m, v in metrics.items()}, file=sys.stderr)
    return {
        "seeds": list(range(1, pairs + 1)),
        "seconds": seconds,
        "metrics": {
            name: _summary(v["parent"], v["change"], "higher" if name == "ok_ratio" else "lower")
            for name, v in metrics.items()
        },
    }


def identity(trees: dict) -> dict:
    dumps = {}
    for side, tree in trees.items():
        out = subprocess.run(
            [sys.executable, "scripts/search_identity.py"], cwd=tree, capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": str(tree / "src")}, check=True,
        )
        dumps[side] = out.stdout
    return {
        "instances": dumps["change"].count("\n"),
        "equal": dumps["parent"] == dumps["change"],
        "sha256": hashlib.sha256(dumps["change"].encode()).hexdigest(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--only", default=",".join(DEFAULT_SECTIONS), help="comma-separated sections")
    parser.add_argument("--pairs", type=int, default=10, help="perfbench pairs per workload")
    parser.add_argument("--seconds", type=float, default=30, help="perfbench run length")
    parser.add_argument("--table-pairs", type=int, default=10, help="processes per side and row")
    parser.add_argument("--rounds", type=int, default=3, help="timings per process")
    parser.add_argument("-o", "--output", type=Path, required=True)
    args = parser.parse_args()
    wanted = args.only.split(",")
    unknown = sorted(set(wanted) - set(SECTIONS))
    if unknown:
        parser.error(f"unknown sections: {', '.join(unknown)}")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report = {
        "command": "python scripts/table_bench.py --parent PARENT --change CHANGE "
        + " ".join(f"--{name.replace('_', '-')} {value}" for name, value in vars(args).items()
                   if name not in ("parent", "change", "output")),
        "host": f"{os.cpu_count()}-core {platform.machine()}, Python {platform.python_version()}",
        "protocol": (
            f"tables: {args.table_pairs} processes per side and row, alternating, "
            f"{args.rounds} timings each; min_csw: the same; each workload: {args.pairs} "
            "alternating pairs, odd seeds parent first. Medians and inclusive quartiles "
            "over every sample of a side; pairs_won counts pairs where the change is better."
        ),
    }
    if "tables" in wanted:
        report["tables"] = tables(trees, args.table_pairs, args.rounds)
    if "min_csw" in wanted:
        report["min_csw"] = chain_runs(trees, args.table_pairs, args.rounds)
    for workload in WORKLOADS:
        if workload in wanted:
            report[workload.replace("-", "_")] = perfbench(trees, workload, args.pairs, args.seconds)
    if "identity" in wanted:
        report["search_identity"] = identity(trees)
    args.output.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
