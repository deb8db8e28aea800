"""Minimum-length search over bounded synchronization questions.

The key fact: prepending the first letter of a carefully synchronizing word
yields another one, so "a word of length exactly ell exists" is monotone in
ell once true. Only two answers certify the minimum: unsatisfiable one below
it and satisfiable at it.

When a word of some length U is already known, min_csw descends from it.
It probes U on a fresh engine, then asks for U - 1 on that same engine,
and each word found, cut at its first singleton image, lowers U, until
the first unsatisfiable answer proves U minimal. The known word comes
from the pre-check: `power_bfs` gives the exact length, so the run makes
two probes, satisfiable at U and then unsatisfiable at U - 1; past its
budget, the beam word its BudgetExceeded carries, if any, gives an upper
bound. Without either, min_csw gallops (1, 2, 4, ...) to the first
satisfiable length and binary-searches the bracketed interval. Either way
the probe record doubles as a minimality certificate, holding an
unsatisfiable probe one below the answer.

The engine answers a shorter length lo by taking, at level 0 and with
what it has learned, the clauses `encoder.set_clauses` gives at lo with
hi as `longer`, over the hi probe's groups: CNF(lo) minus CNF(hi). The
union holds CNF(lo), and any real word of length lo, extended by a letter
defined everywhere (which min_csw requires before it probes), satisfies
all of it. So the two are equisatisfiable, and refuting the union
certifies that no word of length lo exists. Its models only lower the bound: the returned word
always comes from a fresh probe at the answer, made last when the descent
has not made one, so the exact, beam and gallop paths return one word. A
backend keeps an engine when it has a `start` method that returns one, as
`solver.Backend` does for the built-in solver. Any other backend, and an
external solver, gets CNF(lo), with lo's own groups, as a probe of its own.

Every probe also carries the encoder's distance groups. For k = 2, states
p and q may not both be active after t steps when no word of length
ell - t merges them. The group for sets of k > 2 states is the same rule
for k states none of whose subsets is forbidden yet. A real word makes
x[q,t] true exactly on its image after t letters, and the rest of that
word merges the whole image, so the clauses remove no real word and no
length's answer changes. The tables come from one
`encoder.DistanceTables` per run, shared with the pre-check's bound and
checked once before anything uses them. Only the gallop starts with no
known word, and there, once the plain encoding at length 1 fits the
budget, a pair that never merges refutes the automaton before any probe.

No table may be larger than the probe: a probe starts with the groups of
k = 3, 4, ... states while k <= n - 2 and C(n, 3) + ... + C(n, k) is at
most its plain clause count, which on these automata means a long word,
and while it stays within the encoder's MAX_CLAUSES. The n - 2 bound
keeps every group away from the whole state set, whose group alone
refutes min - 1. It does not keep the refutation with the search: on
pn(4..13), level-0 propagation refutes min - 1 with no conflict, and
pn(14) and pn(15) take 7 and 2, which is sound, as every group is checked.

A probe on the built-in engine escalates when it proves hard. Let k be
one more than the largest size it carries. While `_admits` passes k
(k <= n - 2 and C(n, k) alone at most the plain clause count) and every
group so far has kept the engine within MAX_CLAUSES, its solve pauses
every ESCALATE_AFTER conflicts; at a pause the k-set group joins at level
0 at its length if the engine stays within MAX_CLAUSES, and the solve
goes on with what it learned. A probe below takes every group its engine
holds and may escalate further; an external solver never escalates.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

from .automaton import (
    FOUND,
    NOT_SYNCHRONIZING,
    UNKNOWN_UP_TO_BOUND,
    Pfa,
    SearchOutcome,
    _collector_paused,
    apply_letter,
    full_state_set,
    is_carefully_synchronizing,
)
from . import encoder
from .encoder import (
    DistanceTables,
    VarLayout,
    check_budget,
    clause_count,
    decode_word,
    encode,
    set_clause_count,
    set_clauses,
)
from .oracle import power_bfs
from .solver import SAT, UNSAT, Backend, BudgetExceeded, ModelVerificationError, SolveStats

__all__ = [
    "BEAM",
    "POWER_BFS",
    "FOUND",
    "NOT_SYNCHRONIZING",
    "UNKNOWN_UP_TO_BOUND",
    "DEFAULT_MAX_LENGTH",
    "Probe",
    "SearchOutcome",
    "min_csw",
]

DEFAULT_MAX_LENGTH = 1 << 20

# Conflicts a probe runs between set sizes joining it (BENCH_escalation.json)
ESCALATE_AFTER = 32

# SearchOutcome.upper_bound_source values: where the first probe length came from
POWER_BFS = "power_bfs"
BEAM = "beam"


@dataclass(frozen=True)
class Probe:
    """One bounded question: is there a word of length exactly `length`?"""

    length: int
    status: str
    seconds: float
    stats: Optional[SolveStats] = None
    clauses: Optional[int] = None
    # each (conflicts at the escalation, set size that joined), in order
    escalations: tuple = ()


@_collector_paused
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
    concluded from length probes alone.

    With `precheck` on, a positive answer sets the first probe length:
    `power_bfs`'s exact length, or, when the exact search runs out of
    budget, the length of the beam word its BudgetExceeded carries;
    `max_length` when the known length exceeds it. The probes descend from there as the module
    docstring says, so an exact bound's record is (min, SAT) and then
    (min - 1, UNSAT) on the same engine, and the witness always comes from
    a fresh probe at the answer. A minimum that differs from `power_bfs`'s
    raises ModelVerificationError. With `precheck` off, or when the overrun
    carries no word, the probes gallop from length 1 and binary-search, each
    on a fresh engine. Either way the answer rests on the probes, and
    `SearchOutcome.upper_bound_source` names where the first length came
    from. A probe's stats and the backend's limits count that probe alone;
    its `clauses`, like MAX_CLAUSES, counts all the engine holds. Its
    `escalations` hold (conflicts, set size) for each group that joined
    it, and its stats and the limits count all its solves as one.

    Each probe appends the distance groups of the module docstring, from
    one `encoder.DistanceTables` that the `power_bfs` pre-check's bound
    shares. A table is built on the first probe under the size budget that
    starts with its set size, or escalates to it, unless that bound has
    built the pair table. When the probes would gallop, the plain
    encoding at length 1 fits the budget and a state pair never merges,
    the answer is NOT_SYNCHRONIZING, with no probe made and no CNF built.

    Raises ModelVerificationError when a table fails its check. Raises
    BudgetExceeded (with a `probes` attribute holding the partial
    record) when the backend gives out or a probe would exceed the
    encoder's MAX_CLAUSES.

    The call runs with the cyclic garbage collector paused, other threads'
    work included, and makes no reference cycles.
    """
    if max_length < 1:
        raise ValueError(f"max_length must be >= 1, got {max_length}")
    if pfa.n == 1:
        return SearchOutcome(status=FOUND, min_length=0, witness=())
    if not pfa.has_total_letter():
        return SearchOutcome(status=NOT_SYNCHRONIZING)
    exact = None
    upper = source = None
    distances = DistanceTables(pfa)
    if precheck:
        try:
            exact = power_bfs(pfa, distances=distances)
        except BudgetExceeded as exc:
            word = getattr(exc, "word", None)
            if word is not None:
                upper, source = len(word), BEAM
        else:
            if exact.status == NOT_SYNCHRONIZING:
                return SearchOutcome(status=NOT_SYNCHRONIZING, visited=exact.visited)
            upper, source = exact.min_length, POWER_BFS

    # only the gallop starts with no known word; its first probe, at 1,
    # carries the pair list, farthest first, once its plain encoding fits
    if upper is None and clause_count(pfa.n, pfa.m, 1) <= encoder.MAX_CLAUSES:
        if distances.far(2)[0][0] == math.inf:
            return SearchOutcome(status=NOT_SYNCHRONIZING)

    backend = backend or Backend()
    probes = []
    words = {}
    # the built-in engine of the last probe: its Session, the groups it
    # holds and the length its clauses now stand for
    kept = None

    def probe(length: int) -> str:
        nonlocal kept
        kept = None
        groups = _probe_groups(pfa, distances, length)
        instance = encode(pfa, length, groups)
        start = time.perf_counter()
        session = backend.start(instance) if hasattr(backend, "start") else None
        if session:
            result, escalations = escalate(session, groups, length)
            kept = (session, groups, length)
        else:
            result, escalations = backend.run(instance), ()
        record(length, start, result, (session or instance).clause_count, escalations)
        if result.status == SAT:
            words[length] = decode_word(result.model, instance.layout)
        return result.status

    def below(length: int) -> Optional[tuple]:
        """A word of `length`, shorter than the last probe's, or None when
        there is none: by extending the kept engine with the clauses
        that take its CNF down to `length`, else by a probe."""
        nonlocal kept
        if kept is None:
            return words[length] if probe(length) == SAT else None
        session, groups, ell = kept
        layout = VarLayout(n=pfa.n, m=pfa.m, ell=length)
        delta = [c for sets in groups for c in set_clauses(sets, layout, longer=ell)]
        check_budget(length, session.clause_count + len(delta))
        start = time.perf_counter()
        session.extend(delta)
        result, escalations = escalate(session, groups, length)
        record(length, start, result, session.clause_count, escalations)
        kept = (session, groups, length)
        if result.status == UNSAT:
            return None
        return decode_word(result.model, layout)

    def escalate(session, groups: list, length: int) -> tuple:
        """Solve on `session`, which holds `groups` at `length`, joining
        groups as the module docstring says. Returns (result, escalations)."""
        plain = clause_count(pfa.n, pfa.m, length)
        escalations = []
        fits = True
        while True:
            k = len(groups) + 2
            admitted = fits and _admits(pfa.n, k, plain)
            result = session.solve(pause=ESCALATE_AFTER if admitted else None)
            if result is not None:
                return result, tuple(escalations)
            sets = distances.far(k)
            fits = session.clause_count + set_clause_count(sets, length) <= encoder.MAX_CLAUSES
            if fits:
                session.extend(set_clauses(sets, VarLayout(n=pfa.n, m=pfa.m, ell=length)))
                groups.append(sets)
                escalations.append((session.stats.conflicts, k))

    def record(length: int, start: float, result, clauses: int, escalations: tuple) -> None:
        probes.append(
            Probe(
                length=length,
                status=result.status,
                seconds=time.perf_counter() - start,
                stats=result.stats,
                clauses=clauses,
                escalations=escalations,
            )
        )

    try:
        if upper is None:
            hi = _gallop_and_bisect(probe, max_length)
        else:
            hi = _descend(pfa, probe, below, words, upper, max_length)
    except BudgetExceeded as exc:
        exc.probes = tuple(probes)
        raise
    if hi is None:
        return SearchOutcome(
            status=UNKNOWN_UP_TO_BOUND,
            probes=tuple(probes),
            bound=max_length,
            upper_bound_source=source,
        )
    if exact is not None and hi != exact.min_length:
        raise ModelVerificationError(
            f"probes give minimal length {hi}, power_bfs gives {exact.min_length}"
        )

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
        upper_bound_source=source,
    )


def _admits(n: int, k: int, plain: int) -> bool:
    """Whether a probe of `plain` plain clauses takes the k-set group."""
    return k <= n - 2 and math.comb(n, k) <= plain


def _probe_groups(pfa: Pfa, distances: DistanceTables, length: int) -> list:
    """The distance lists a probe of `length` starts with, as the module
    docstring says: `_admits` passes each k > 2 against the plain clause
    count less the tables before it."""
    plain = clause_count(pfa.n, pfa.m, length)
    if plain > encoder.MAX_CLAUSES:
        return []
    groups = [distances.far(2)]
    size = plain + set_clause_count(groups[0], length)
    spare = plain
    k = 3
    while _admits(pfa.n, k, spare):
        sets = distances.far(k)
        size += set_clause_count(sets, length)
        if size > encoder.MAX_CLAUSES:
            break
        groups.append(sets)
        spare -= math.comb(pfa.n, k)
        k += 1
    return groups


def _gallop_and_bisect(probe, max_length: int) -> Optional[int]:
    """The least satisfiable length by probing 1, 2, 4, ... up to
    `max_length` and binary-searching the bracket; None when `max_length`
    is unsatisfiable."""
    length = 1
    last_unsat = 0
    while probe(length) != SAT:
        last_unsat = length
        if length >= max_length:
            return None
        length = min(length * 2, max_length)

    lo, hi = last_unsat + 1, length
    while lo < hi:
        mid = (lo + hi) // 2
        if probe(mid) == SAT:
            hi = mid
        else:
            lo = mid + 1
    return hi


def _descend(pfa: Pfa, probe, below, words: dict, upper: int, max_length: int) -> Optional[int]:
    """The least satisfiable length, probing down from `upper`, the length
    of a known word; None when `max_length` is below it and unsatisfiable.

    The first probe is at `upper`, or at `max_length` below it. Then
    `below(upper - 1)` asks for a shorter word: each one found, cut at its
    first singleton image, lowers the bound, and the first None proves it
    minimal. `words` maps each probe's length to its decoded word; the
    answer's word comes from a probe at the answer, made last when the
    descent has not made it.
    """
    if upper > max_length:
        if probe(max_length) == UNSAT:
            return None
        upper = _singleton_prefix_length(pfa, words[max_length])
    else:
        _probe_known(probe, upper)
    while upper > 1:
        word = below(upper - 1)
        if word is None:
            break
        upper = _singleton_prefix_length(pfa, word)
    if upper not in words:
        _probe_known(probe, upper)
    return upper


def _probe_known(probe, length: int) -> None:
    """Probe the length of a known word; ModelVerificationError when the
    probe finds none."""
    if probe(length) == UNSAT:
        raise ModelVerificationError(
            f"probes find no word of length {length}, the length of a known word"
        )


def _singleton_prefix_length(pfa: Pfa, word: tuple) -> int:
    """Length of the shortest prefix of a decoded word whose image is one
    state; ModelVerificationError when no prefix gets there carefully."""
    current = full_state_set(pfa)
    for t, letter in enumerate(word, 1):
        current = apply_letter(pfa, current, letter)
        if current is None:
            break
        if len(current) == 1:
            return t
    raise ModelVerificationError(f"decoded word {word!r} fails the synchronization check")
