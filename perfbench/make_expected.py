#!/usr/bin/env python3
"""Build the benchmark's instance lists and their expected answers.

Every instance is answered twice, by `min_csw` (the SAT pipeline) and by
`power_bfs` (the breadth-first referee); the table is written only when the
two agree on status and minimum length and `min_csw` carries its UNSAT
certificate at min-1. The benchmark itself never regenerates answers: it
reads `expected.json`, so a change to the program cannot move its own
yardstick.

    python3 perfbench/make_expected.py            # rewrites perfbench/expected.json

It takes several minutes on one core, mostly for the n=40 curve draws.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TABLE = HERE / "expected.json"

# Each workload is one public call applied to a fixed instance list. Seeds
# are consecutive from 0 and never hand-picked; perfbench/README.md gives
# the reasons for each family and size.
SPEC = {
    "random-min": {"call": "min_csw", "random": [(30, 10), (60, 2)]},
    "pn-chain": {"call": "min_csw", "pn": [5, 6, 7, 8]},
    "oracle-curve": {"call": "power_bfs", "curve": [(20, 200), (40, 100)]},
}


def make_pfa(api, item: dict):
    """The automaton an instance entry names."""
    if item["family"] == "pn":
        return api.pn(item["n"])
    return api.random_pfa(api.GenConfig(n=item["n"], seed=item["seed"]))


def _random_items(sizes) -> list:
    return [
        {"id": f"random-n{n}-s{seed}", "family": "random", "n": n, "seed": seed}
        for n, count in sizes
        for seed in range(count)
    ]


def _curve_items(api, sizes) -> list:
    """A length-curve batch: each trial redraws with `trial_seed` until the
    draw synchronizes, and the non-synchronizing draws stay in the list as
    discards, exactly as the experiment harness consumes them."""
    items = []
    for n, trials in sizes:
        for trial in range(trials):
            attempt = 0
            while True:
                seed = api.trial_seed(0, trial, attempt)
                item = {
                    "id": f"curve-n{n}-t{trial}-a{attempt}",
                    "family": "random",
                    "n": n,
                    "seed": seed,
                }
                items.append(item)
                if api.power_bfs(make_pfa(api, item)).status == "FOUND":
                    break
                attempt += 1
    return items


def answer(api, item: dict) -> dict:
    """Expected status and length, from two engines that must agree."""
    pfa = make_pfa(api, item)
    exact = api.power_bfs(pfa)
    found = api.min_csw(pfa)
    if (found.status, found.min_length) != (exact.status, exact.min_length):
        raise SystemExit(
            f"{item['id']}: min_csw gives {found.status}/{found.min_length}, "
            f"power_bfs gives {exact.status}/{exact.min_length}"
        )
    if found.min_length is not None and found.min_length >= 2:
        if not any(
            p.length == found.min_length - 1 and p.status == "UNSAT"
            for p in found.probes
        ):
            raise SystemExit(f"{item['id']}: no UNSAT probe at min-1")
    return {**item, "status": exact.status, "min_length": exact.min_length}


def build_table(api, spec: dict, log=None) -> dict:
    table = {}
    for workload, plan in spec.items():
        items = _random_items(plan.get("random", ()))
        items += [
            {"id": f"pn-{n}", "family": "pn", "n": n} for n in plan.get("pn", ())
        ]
        items += _curve_items(api, plan.get("curve", ()))
        answered = []
        for item in items:
            answered.append(answer(api, item))
            if log:
                log(f"{workload} {item['id']} {answered[-1]['status']} "
                    f"{answered[-1]['min_length']}")
        table[workload] = {"call": plan["call"], "instances": answered}
    return table


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    from run import load_api

    api = load_api()
    table = build_table(api, SPEC, log=lambda line: print(line, file=sys.stderr, flush=True))
    TABLE.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {TABLE}", file=sys.stderr)
