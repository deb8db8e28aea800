#!/usr/bin/env python3
"""Sweep min_csw's escalation limit over the chain family and random draws.

For each setting of search.ESCALATE_AFTER, the conflicts a probe runs
before the next set size joins it, and for "off" (no pause, so a probe
keeps the groups it starts with: the sizes 3, 4, ...
up to n - 2 whose tables together fit its plain clauses), runs `min_csw`
on `pn(5..11)` and on the first FOUND draw of each curve trial
0..TRIALS-1 at n = 6, 8, 10 and 12 (the draws `cswsat bench curve` makes
with seed 0 and one hole), and records per instance the process CPU
seconds (the least over --repeats rounds, each round running every
setting in turn), the answer's length, the summed conflicts of its
probes and its escalations. Prints one JSON object: per setting and
family, the summed CPU seconds and conflicts, the number of instances with
an escalation, and the per-instance figures of the chain family. Every
setting must give the lengths of "off", or the script exits 1.

    PYTHONPATH=src python scripts/escalation_sweep.py > sweep.json
    PYTHONPATH=src python scripts/escalation_sweep.py --trials 20 --settings off,32
"""

import argparse
import json
import sys
import time

from cswsat import GenConfig, min_csw, pn, power_bfs, random_pfa, search
from cswsat.search import FOUND
from cswsat.generators import trial_seed

DEFAULT_SETTINGS = "off,16,32,64"


def curve_draws(n: int, trials: int) -> list:
    """The first draw of each trial that synchronizes, as `cswsat bench
    curve` draws them: seed 0, one hole, attempts on their own seed plane."""
    draws = []
    for trial in range(trials):
        attempt = 0
        while True:
            pfa = random_pfa(GenConfig(n=n, undefined_count=1, seed=trial_seed(0, trial, attempt)))
            if power_bfs(pfa).status == FOUND:
                draws.append(pfa)
                break
            attempt += 1
    return draws


def run(pfa) -> dict:
    start = time.process_time()
    out = min_csw(pfa)
    seconds = time.process_time() - start
    return {
        "cpu_s": seconds,
        "length": out.min_length,
        "conflicts": sum(p.stats.conflicts for p in out.probes),
        "escalations": [list(map(list, p.escalations)) for p in out.probes],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=150)
    parser.add_argument("--settings", default=DEFAULT_SETTINGS)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    families = {f"pn-{n}": [pn(n)] for n in range(5, 12)}
    families.update({f"random-n{n}": curve_draws(n, args.trials) for n in (6, 8, 10, 12)})
    # the limit min_csw's escalation reads
    after = search.ESCALATE_AFTER
    best = {}
    for _ in range(args.repeats):
        for setting in args.settings.split(","):
            search.ESCALATE_AFTER = None if setting == "off" else int(setting)
            rows = {name: [run(pfa) for pfa in draws] for name, draws in families.items()}
            kept = best.setdefault(setting, rows)
            for name, runs in rows.items():
                for old, new in zip(kept[name], runs):
                    old["cpu_s"] = min(old["cpu_s"], new["cpu_s"])
            print(f"{setting}: done", file=sys.stderr, flush=True)
    search.ESCALATE_AFTER = after

    results = {}
    for setting, rows in best.items():
        results[setting] = {
            name: {
                "cpu_s": round(sum(r["cpu_s"] for r in runs), 4),
                "conflicts": sum(r["conflicts"] for r in runs),
                "escalated": sum(any(r["escalations"]) for r in runs),
                "lengths": [r["length"] for r in runs],
                **({"runs": runs} if name.startswith("pn") else {}),
            }
            for name, runs in rows.items()
        }

    base = results.get("off")
    bad = [
        (setting, name)
        for setting, table in results.items()
        for name, row in table.items()
        if base and row["lengths"] != base[name]["lengths"]
    ]
    for table in results.values():
        for row in table.values():
            del row["lengths"]
    print(json.dumps({"trials": args.trials, "settings": results, "length_mismatches": bad}))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
