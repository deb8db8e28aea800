#!/usr/bin/env python3
"""Dump what min_csw's search does on every benchmark instance.

For each instance of perfbench/expected.json (read only), one JSON line:
the answer (status, min_length, witness) and each probe's (length, status,
clauses, conflicts, decisions, propagations, restarts, sha256 of the
DIMACS it started to decide, escalations). A probe on a kept engine
decided its build CNF plus every clause batch added since, and that union
is what gets hashed; the groups that join the probe later show in its
escalations, each as (conflicts at the escalation, set size added). The
line also holds `power_bfs`'s record (status, min_length, witness, visited,
bound) at the default budget and at max_visited=1000, where an overrun
records ("overrun", visited, word). A change that leaves both searches
alone leaves the dump byte for byte equal, so two commits compare with
`cmp`:

    PYTHONPATH=src python scripts/search_identity.py > identity.jsonl
    PYTHONPATH=src python scripts/search_identity.py --only pn-5,random-n30-s7

The whole pass runs with the cyclic garbage collector off, and
`gc.collect()` after each instance must find nothing, since `min_csw`,
`power_bfs` and `solve` pause the collector on the promise that they make
no reference cycles. Each instance that leaves some is named on standard
error with the count of objects found, and the script then exits 1;
standard output is the same either way.
"""

import argparse
import gc
import hashlib
import json
import sys
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

from cswsat import BudgetExceeded, CnfInstance, GenConfig, min_csw, pn, power_bfs, random_pfa
from cswsat.encoder import to_dimacs
from cswsat.solver import Backend, Session

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


class HashingSession(Session):
    """A Session that appends the DIMACS digest of all it holds to
    `digests` at each solve."""

    def __init__(self, instance, digests, **kwargs):
        super().__init__(instance, **kwargs)
        self.digests = digests

    def solve(self, *args, **kwargs):
        if self.paused is None:  # a fresh solve, not a paused one resumed
            held = tuple(chain.from_iterable(part.clauses for part in self._parts))
            cnf = CnfInstance(var_count=self.nvars, clauses=held)
            self.digests.append(hashlib.sha256(to_dimacs(cnf).encode()).hexdigest())
        return super().solve(*args, **kwargs)


@dataclass(frozen=True)
class HashingBackend(Backend):
    """The built-in backend, its sessions hashing what they decide."""

    digests: list = field(default_factory=list)

    def start(self, instance):
        return HashingSession(instance, self.digests, limits=self.limits)


def oracle_record(pfa, **budget) -> list:
    try:
        out = power_bfs(pfa, **budget)
    except BudgetExceeded as exc:
        return ["overrun", exc.visited, exc.word]
    return [out.status, out.min_length, out.witness, out.visited, out.bound]


def identity(item: dict) -> dict:
    if item["family"] == "pn":
        pfa = pn(item["n"])
    else:
        pfa = random_pfa(GenConfig(n=item["n"], seed=item["seed"]))
    backend = HashingBackend()
    out = min_csw(pfa, backend=backend)
    probes = [
        [
            p.length,
            p.status,
            p.clauses,
            p.stats.conflicts,
            p.stats.decisions,
            p.stats.propagations,
            p.stats.restarts,
            digest,
            # empty for a tree from before escalation, so that its dump compares
            [list(step) for step in getattr(p, "escalations", ())],
        ]
        for p, digest in zip(out.probes, backend.digests, strict=True)
    ]
    return {
        "id": item["id"],
        "status": out.status,
        "min_length": out.min_length,
        "witness": out.witness,
        "probes": probes,
        "oracle": oracle_record(pfa),
        "oracle_1000": oracle_record(pfa, max_visited=1000),
    }


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", help="comma-separated instance ids; default every instance")
    args = parser.parse_args()

    table = json.loads(EXPECTED.read_text())
    items = [item for workload in table.values() for item in workload["instances"]]
    if args.only:
        wanted = args.only.split(",")
        known = {item["id"] for item in items}
        missing = [i for i in wanted if i not in known]
        if missing:
            parser.error(f"unknown instance ids: {', '.join(missing)}")
        items = [item for item in items if item["id"] in wanted]
    gc.disable()
    gc.collect()
    cyclic = 0
    for item in items:
        print(json.dumps(identity(item)), flush=True)
        found = gc.collect()
        if found:
            cyclic += 1
            print(f"{item['id']}: {found} objects in reference cycles", file=sys.stderr)
    sys.exit(1 if cyclic else 0)
