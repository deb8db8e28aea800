"""Minimum-length search over bounded synchronization questions.

The key fact: prepending the first letter of a carefully synchronizing word
yields another one, so "a word of length exactly ell exists" is monotone in
ell once true. min_csw therefore gallops (1, 2, 4, ...) until the first
satisfiable length, then binary-searches the bracketed interval; the probe
record doubles as a minimality certificate, ending with an unsatisfiable
probe one below the answer.

Every probe also carries the encoder's pair-distance clauses: states p and
q may not both be active after t steps when no word of length ell - t
merges them. A real word makes x[q,t] true exactly on its image after t
letters, and the rest of that word merges every pair in the image, so the
clauses remove no real word and no length's answer changes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .automaton import (
    FOUND,
    NOT_SYNCHRONIZING,
    UNKNOWN_UP_TO_BOUND,
    Pfa,
    SearchOutcome,
    is_carefully_synchronizing,
)
from .encoder import MAX_CLAUSES, clause_count, decode_word, encode, pair_distances
from .oracle import power_bfs
from .solver import SAT, UNSAT, Backend, BudgetExceeded, ModelVerificationError, SolveStats

__all__ = [
    "FOUND",
    "NOT_SYNCHRONIZING",
    "UNKNOWN_UP_TO_BOUND",
    "DEFAULT_MAX_LENGTH",
    "Probe",
    "SearchOutcome",
    "min_csw",
]

DEFAULT_MAX_LENGTH = 1 << 20


@dataclass(frozen=True)
class Probe:
    """One bounded question: is there a word of length exactly `length`?"""

    length: int
    status: str
    seconds: float
    stats: Optional[SolveStats] = None
    clauses: Optional[int] = None


def min_csw(
    pfa: Pfa,
    max_length: int = DEFAULT_MAX_LENGTH,
    backend: Optional[Backend] = None,
    precheck: bool = True,
) -> SearchOutcome:
    """Minimal carefully-synchronizing word length via repeated bounded
    solver questions.

    Fast refutations come first: a one-state automaton synchronizes with the
    empty word; an automaton with no everywhere-defined letter cannot start
    any synchronizing word at any length; and, when `precheck` is on,
    `power_bfs` under its default budget refutes synchronizability outright
    at any state count, since unbounded non-existence can never be
    concluded from length probes alone. Past that budget, or on a positive
    answer, the probes decide, so the probe record stays a solver product.

    Each probe appends the pair-distance group, from a table built once on
    the first probe that fits the size budget. The image after t letters of
    a real word holds only pairs that its remaining ell - t letters merge.
    So the word's own assignment satisfies the group, and every length
    keeps its answer.

    Raises BudgetExceeded (with a `probes` attribute holding the partial
    record) when the backend gives out or a probe would exceed the
    encoder's MAX_CLAUSES.
    """
    if max_length < 1:
        raise ValueError(f"max_length must be >= 1, got {max_length}")
    if pfa.n == 1:
        return SearchOutcome(status=FOUND, min_length=0, witness=())
    if not pfa.has_total_letter():
        return SearchOutcome(status=NOT_SYNCHRONIZING)
    if precheck:
        try:
            exact = power_bfs(pfa)
        except BudgetExceeded:
            pass
        else:
            if exact.status == NOT_SYNCHRONIZING:
                return SearchOutcome(status=NOT_SYNCHRONIZING, visited=exact.visited)

    backend = backend or Backend()
    probes = []
    words = {}
    dist = None

    def probe(length: int) -> str:
        nonlocal dist
        try:
            # the table is built once, and only for a probe under the size budget
            if dist is None and clause_count(pfa.n, pfa.m, length) <= MAX_CLAUSES:
                dist = pair_distances(pfa)
            instance = encode(pfa, length, dist)
            start = time.perf_counter()
            result = backend.run(instance)
        except BudgetExceeded as exc:
            exc.probes = tuple(probes)
            raise
        elapsed = time.perf_counter() - start
        probes.append(
            Probe(
                length=length,
                status=result.status,
                seconds=elapsed,
                stats=result.stats,
                clauses=instance.clause_count,
            )
        )
        if result.status == SAT:
            words[length] = decode_word(result.model, instance.layout)
        return result.status

    # gallop until the first satisfiable length
    length = 1
    last_unsat = 0
    while True:
        if probe(length) == SAT:
            break
        last_unsat = length
        if length >= max_length:
            return SearchOutcome(
                status=UNKNOWN_UP_TO_BOUND, probes=tuple(probes), bound=max_length
            )
        length = min(length * 2, max_length)

    # binary search inside (last_unsat, length]
    lo, hi = last_unsat + 1, length
    while lo < hi:
        mid = (lo + hi) // 2
        if probe(mid) == SAT:
            hi = mid
        else:
            lo = mid + 1

    witness = words[hi]
    if not is_carefully_synchronizing(pfa, witness):
        raise ModelVerificationError(
            f"decoded word {witness!r} fails the synchronization check"
        )
    return SearchOutcome(
        status=FOUND,
        min_length=hi,
        witness=witness,
        probes=tuple(probes),
        bound=max(p.length for p in probes),
    )
