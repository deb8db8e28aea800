#!/usr/bin/env python3
"""Minimal word lengths for the hard chain family.

Subset search settles every member instantly; the solver pipeline is checked
against it up to --check-sat-to, beyond which probing gets expensive. The
solver runs with its pre-check off, so it gallops from length 1 without
subset search's length, and the agree column compares two independent
paths. The eleven-state member is the classic record holder with a minimal
length of 116 letters.

    python scripts/pn_regression.py --n-list 4-12 --check-sat-to 8
"""

import argparse
import time

from cswsat.cli import _parse_ns
from cswsat.generators import pn
from cswsat.oracle import power_bfs
from cswsat.search import min_csw

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-list", dest="ns", type=_parse_ns, default=list(range(4, 13)))
    parser.add_argument(
        "--check-sat-to",
        type=int,
        default=7,
        help="also run the solver pipeline, without its pre-check, for n up to this value",
    )
    args = parser.parse_args()

    print("n,min_length,oracle_s,sat_s,agree")
    for n in args.ns:
        pfa = pn(n)
        start = time.perf_counter()
        exact = power_bfs(pfa)
        oracle_s = time.perf_counter() - start
        sat_s = ""
        agree = ""
        if n <= args.check_sat_to:
            start = time.perf_counter()
            outcome = min_csw(pfa, precheck=False)
            sat_s = f"{time.perf_counter() - start:.3f}"
            agree = str(outcome.min_length == exact.min_length).lower()
        print(f"{n},{exact.min_length},{oracle_s:.6f},{sat_s},{agree}")
