#!/usr/bin/env python3
"""Time the subset-image kernel of power_bfs against the letter-group cap.

For each automaton, a breadth-first search from the full state set collects
its first layers' subsets (up to --subsets of them), and each kernel then
maps every collected subset under every letter, checking each image
against the collected set as the search checks `parent`. One JSON line per
automaton gives the best of --repeats timings, in ns per (subset, letter):

- "per-letter": one table walk per letter, skipping a subset that meets
  the letter's undefined states (the layout before letter groups);
- "cap g": `oracle._letter_actions` with LETTER_GROUP = g, one walk per
  group and a shift and a mask per letter.

    PYTHONPATH=src python scripts/letter_group_sweep.py
"""

import argparse
import json
import random
import time

from cswsat import GenConfig, Pfa, random_pfa
from cswsat import oracle

CAPS = (1, 2, 4, 8, 16, 32, 64)


def random_letters(n: int, m: int, seed: int) -> Pfa:
    """m random letters, every second one undefined at one state."""
    rng = random.Random(seed)
    delta = [[rng.randint(1, n) for _ in range(n)] for _ in range(m)]
    for row in delta[1::2]:
        row[rng.randrange(n)] = None
    return Pfa(n=n, m=m, delta=tuple(map(tuple, delta)))


def per_letter_actions(pfa: Pfa) -> list:
    actions = []
    for a, row in enumerate(pfa.delta, 1):
        undefined = sum(1 << q for q, t in enumerate(row) if t is None)
        targets = [0 if t is None else 1 << (t - 1) for t in row]
        actions.append((a, undefined, oracle._chunk_tables(targets)))
    return actions


def layer_subsets(pfa: Pfa, limit: int) -> list:
    """Subsets of the first breadth-first layers, in discovery order."""
    full = (1 << pfa.n) - 1
    seen = {full}
    layer = [full]
    while layer and len(seen) < limit:
        nxt = []
        for subset in layer:
            for a in range(1, pfa.m + 1):
                states = [q for q in range(pfa.n) if subset >> q & 1]
                targets = [pfa.delta[a - 1][q] for q in states]
                if None in targets:
                    continue
                img = sum(1 << (t - 1) for t in set(targets))
                if img not in seen and len(seen) < limit:
                    seen.add(img)
                    nxt.append(img)
        layer = nxt
    return list(seen)


def run_per_letter(actions: list, subsets: list, parent: set, w: int) -> int:
    mask = (1 << w) - 1
    hits = 0
    for subset in subsets:
        for a, undefined, tables in actions:
            if subset & undefined:
                continue
            img, rest = 0, subset
            for table in tables:
                img |= table[rest & mask]
                rest >>= w
            if img in parent:
                hits += 1
    return hits


def run_grouped(actions: list, subsets: list, parent: set, full: int, w: int) -> int:
    mask = (1 << w) - 1
    hits = 0
    for subset in subsets:
        for letters, tables in actions:
            every, rest = 0, subset
            for table in tables:
                every |= table[rest & mask]
                rest >>= w
            for a, shift in letters:
                img = every >> shift & full
                if img in parent:
                    hits += 1
    return hits


def best_ns(run, pairs: int, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter_ns()
        run()
        best = min(best, time.perf_counter_ns() - start)
    return round(best / pairs, 1)


def sweep(name: str, pfa: Pfa, limit: int, repeats: int) -> dict:
    subsets = layer_subsets(pfa, limit)
    parent = set(subsets)
    full = (1 << pfa.n) - 1
    w = oracle._chunk_width(pfa.n)
    pairs = len(subsets) * pfa.m
    actions = per_letter_actions(pfa)
    ns = {"per-letter": best_ns(lambda: run_per_letter(actions, subsets, parent, w), pairs, repeats)}
    saved = oracle.LETTER_GROUP
    try:
        for cap in CAPS:
            if cap > 1 and cap // 2 >= pfa.m:
                break
            oracle.LETTER_GROUP = cap
            grouped = oracle._letter_actions(pfa)
            ns[f"cap {cap}"] = best_ns(
                lambda: run_grouped(grouped, subsets, parent, full, w), pairs, repeats
            )
    finally:
        oracle.LETTER_GROUP = saved
    return {"automaton": name, "n": pfa.n, "m": pfa.m, "subsets": len(subsets), "ns": ns}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--subsets", type=int, default=3000)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    cases = [
        ("random n=40 seed 15", random_pfa(GenConfig(n=40, seed=15))),
        ("random n=100 seed 0", random_pfa(GenConfig(n=100, seed=0))),
        ("random letters n=40 m=16 seed 0", random_letters(40, 16, 0)),
        ("random letters n=64 m=64 seed 0", random_letters(64, 64, 0)),
    ]
    for name, pfa in cases:
        print(json.dumps(sweep(name, pfa, args.subsets, args.repeats)), flush=True)
