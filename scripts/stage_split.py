#!/usr/bin/env python3
"""Process CPU per stage of min_csw over one perfbench/expected.json workload.

    PYTHONPATH=src python scripts/stage_split.py pn-chain --passes 20

A stage called inside another (set_clauses inside encode, satisfies inside
solve) is charged to the inner one, and `other` is the rest. `min_csw` runs
with the cyclic garbage collector paused, so no collection lands in a stage;
one that triggers between calls counts for `other`.
Prints seconds per pass, then as JSON.
"""

import argparse
import json
import time
from pathlib import Path

from cswsat import GenConfig, encoder, min_csw, pn, random_pfa, search, solver

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
STAGES = {
    "tables": [(encoder.DistanceTables, "far")], "encode": [(search, "encode")],
    "set_clauses": [(encoder, "set_clauses"), (search, "set_clauses")],
    "session_build": [(solver.Session, "__init__"), (solver.Session, "extend")],
    "solve": [(solver.Session, "solve")], "satisfies": [(solver, "satisfies")],
}
spent = dict.fromkeys(STAGES, 0.0)
# per stage entered and not left, and for the pass: time taken by stages inside it
inner = [0.0]


def timed(stage, fn):
    def wrapper(*args, **kwargs):
        start = time.process_time()
        inner.append(0.0)
        try:
            return fn(*args, **kwargs)
        finally:
            took = time.process_time() - start
            spent[stage] += took - inner.pop()
            inner[-1] += took
    return wrapper


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--passes", type=int, default=20)
    args = parser.parse_args()
    pfas = [pn(i["n"]) if i["family"] == "pn" else random_pfa(GenConfig(n=i["n"], seed=i["seed"]))
            for i in json.loads(EXPECTED.read_text())[args.workload]["instances"]]
    for stage, sites in STAGES.items():
        for owner, name in sites:
            setattr(owner, name, timed(stage, getattr(owner, name)))
    start = time.process_time()
    for pfa in pfas * args.passes:
        min_csw(pfa)
    spent["other"] = time.process_time() - start - inner[0]
    for stage, seconds in spent.items():
        print(f"{stage:>14} {seconds / args.passes:9.5f} s {seconds / sum(spent.values()):7.1%}")
    per_pass = {stage: round(seconds / args.passes, 5) for stage, seconds in spent.items()}
    print(json.dumps({"workload": args.workload, "passes": args.passes, "stages_s": per_pass}))
