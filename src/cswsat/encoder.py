"""CNF encoding of bounded careful-synchronization questions.

For an automaton with n states and m letters and a target length ell, the
instance uses one variable per (letter, position) pair and one per
(state, step) pair. A satisfying assignment pins down exactly one letter per
position, and the chosen word carefully synchronizes the automaton; the
sequence of chosen letters is recoverable from any model.

Clause groups, in emission order:
  initial        n unit clauses: every state is active after 0 steps;
  letter         per position, one at-least-one clause over the m letter
                 variables plus all pairwise at-most-one clauses;
  transition     per position and (state, letter) pair, either an
                 implication activating the successor or, when the
                 transition is missing, a veto on picking that letter while
                 the state is active;
  sync           pairwise at-most-one over the final-step state variables.

The emission order is fixed so instances are byte-reproducible.

Distance groups are left out of the plain encoding and appended, in the
order given, when `encode` is given their lists. One rule makes them all:
for each step t < ell and each set of k >= 2 states whose shortest merging
word is longer than ell - t while none of its subsets one state smaller
is, forbid all k states being active after t steps. Single states merge at
distance 0, so every far pair is in the k = 2 group, and the sync block is
its ell - t = 0 case. The lists come from one `DistanceTables` per
automaton, which checks each distance table once by the equation that
defines it and builds each list from its checked table; which probe
carries which group is `search`'s choice. The pair table comes from a
backward breadth-first search over state pairs; each larger size from a
breadth-first search over that size's sets alone, started at the sets
that a letter maps onto smaller ones, whose distances are settled
already.
The rule rests on one fact: the rest of a real word merges the word's
whole image after t letters in ell - t letters, so a real word's
assignment satisfies every clause of these groups.

`set_clauses` with `longer` gives what the encoding at ell adds to a longer
one under the same lists, for the search to add to a kept engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from bisect import bisect_right
from itertools import chain, combinations, compress, product, repeat
from operator import add, itemgetter, le, sub
from typing import Optional, Sequence

from .automaton import BudgetExceeded, ModelVerificationError, Pfa

__all__ = [
    "MAX_CLAUSES",
    "VarLayout",
    "CnfInstance",
    "DecodeError",
    "DimacsError",
    "check_budget",
    "encode",
    "DistanceTables",
    "pair_distances",
    "far_pairs",
    "set_clause_count",
    "set_clauses",
    "check_distances",
    "decode_word",
    "to_dimacs",
    "parse_dimacs",
    "clause_count",
    "variable_count",
]

# Largest instance `encode` builds. The largest one allowed on random n=30
# seed 3 (length 16384, 1,016,273 clauses) peaks at about 590 MB RSS.
MAX_CLAUSES = 1 << 20


def variable_count(n: int, m: int, ell: int) -> int:
    return (m + n) * ell + n


def clause_count(n: int, m: int, ell: int) -> int:
    return ell * (m * (m - 1) // 2 + m * n + 1) + n * (n + 1) // 2


def check_budget(ell: int, size: int) -> None:
    """Raise BudgetExceeded when an instance at length ell would hold
    `size` clauses, more than MAX_CLAUSES."""
    if size > MAX_CLAUSES:
        raise BudgetExceeded(f"length {ell} needs {size} clauses, over the {MAX_CLAUSES} budget")


@dataclass(frozen=True)
class VarLayout:
    """Bijection between (letter, position) / (state, step) pairs and
    variable numbers 1..(m+n)*ell + n.

    Step 0 state variables come first; afterwards each position t occupies a
    contiguous block of width m+n, letters before states. So state j after
    t steps is variable t*(m+n) + j, and letter i at position t sits m
    below: the encoder computes its literals from these bases directly.
    """

    n: int
    m: int
    ell: int

    def letter_var(self, i: int, t: int) -> int:
        """Variable asserting position t (1-based) holds letter i."""
        return t * (self.m + self.n) - self.m + i

    def state_var(self, j: int, t: int) -> int:
        """Variable asserting state j is active after t steps (t >= 0)."""
        return t * (self.m + self.n) + j

    @property
    def var_count(self) -> int:
        return variable_count(self.n, self.m, self.ell)


@dataclass(frozen=True)
class CnfInstance:
    """An immutable CNF formula.

    Clauses are tuples of nonzero ints, positive for a variable and negative
    for its negation. `layout` is present on instances built by encode
    and absent on ones read back from DIMACS text without a layout
    comment.
    """

    var_count: int
    clauses: tuple
    layout: Optional[VarLayout] = None

    def __post_init__(self):
        lits = set(chain.from_iterable(self.clauses))
        if 0 not in lits and max(map(abs, lits), default=0) <= self.var_count:
            return
        # name the first literal out of range
        for lit in chain.from_iterable(self.clauses):
            if lit == 0 or abs(lit) > self.var_count:
                raise ValueError(f"literal {lit} out of range for {self.var_count} variables")

    @property
    def clause_count(self) -> int:
        return len(self.clauses)


class DecodeError(ValueError):
    """A model does not pin down exactly one letter at some position."""


class DimacsError(ValueError):
    """Malformed DIMACS text."""


def encode(pfa: Pfa, ell: int, groups: Sequence = ()) -> CnfInstance:
    """Build the instance asking for a carefully synchronizing word of
    length exactly ell (ell >= 1), with one distance group appended for
    each farthest-first list of `groups` (from DistanceTables.far), in
    order. Raises BudgetExceeded, before building anything, when the
    instance would have more than MAX_CLAUSES clauses."""
    if ell < 1:
        raise ValueError(f"target length must be >= 1, got {ell}")
    n, m = pfa.n, pfa.m
    size = clause_count(n, m, ell) + sum(set_clause_count(group, ell) for group in groups)
    check_budget(ell, size)
    layout = VarLayout(n=n, m=m, ell=ell)
    width = m + n
    # every state active after 0 steps
    clauses = [(j,) for j in range(1, n + 1)]

    # targets[j - 1]: where each letter sends state j, None if undefined
    targets = list(zip(*pfa.delta))
    for t in range(1, ell + 1):
        base = t * width  # state j after t steps is base + j, letter i base - m + i
        letter_vars = range(base - m + 1, base + 1)
        negated = [-v for v in letter_vars]
        clauses.append(tuple(letter_vars))
        clauses.extend(combinations(negated, 2))
        clauses.extend(
            (-prev, x) if k is None else (-prev, x, base + k)
            for prev, row in zip(range(base - width + 1, base - m + 1), targets)
            for x, k in zip(negated, row)
        )

    last = ell * width
    clauses.extend(combinations(range(-last - 1, -last - n - 1, -1), 2))
    for group in groups:
        clauses.extend(set_clauses(group, layout))

    instance = CnfInstance(
        var_count=layout.var_count, clauses=tuple(clauses), layout=layout
    )
    if instance.clause_count != size:
        raise ModelVerificationError(
            f"encoded {instance.clause_count} clauses, closed form gives {size}"
        )
    return instance


def _preimages(pfa: Pfa) -> list:
    """pre[a][r]: the states, 0-based and ascending, that letter a + 1
    sends to state r + 1."""
    preimages = []
    for row in pfa.delta:
        pre = [[] for _ in range(pfa.n)]
        for p, t in enumerate(row):
            if t is not None:
                pre[t - 1].append(p)
        preimages.append(pre)
    return preimages


def pair_distances(pfa: Pfa) -> list:
    """dist[p-1][q-1]: length of the shortest word that merges states p and
    q and is defined on both at every step; 0 on the diagonal, math.inf
    when no word merges them.

    Backward breadth-first search over the pair graph from the merged
    pairs (r, r), so level 1 holds the pairs one letter merges, through
    per-letter preimage lists: O(n^2 m) time and O(n^2 + nm) memory.
    """
    n = pfa.n
    dist = [[math.inf] * n for _ in range(n)]
    for p in range(n):
        dist[p][p] = 0
    preimages = _preimages(pfa)
    frontier = [(r, r) for r in range(n)]
    d = 0
    while frontier:
        d += 1
        next_frontier = []
        for r, s in frontier:
            for pre in preimages:
                for p in pre[r]:
                    row = dist[p]
                    for q in pre[s]:
                        if row[q] == math.inf:
                            row[q] = dist[q][p] = d
                            next_frontier.append((p, q))
        frontier = next_frontier
    return dist


def far_pairs(dist: list) -> list:
    """Every state pair p < q as (dist(p,q), 0, p, q), farthest first and,
    at equal distance, in lexicographic order: DistanceTables.far's format
    for sets of two states, whose single states merge at distance 0."""
    return sorted(
        (
            (d, 0, p, q)
            for p, row in enumerate(dist, start=1)
            for q, d in enumerate(row[p:], start=p + 1)
        ),
        key=itemgetter(0),
        reverse=True,
    )


class DistanceTables:
    """The distance lists of one automaton for a whole `search.min_csw` run,
    each built on first request from a distance table checked once by its
    defining equation.

    far(2) is far_pairs' list. For k > 2, far(k) lists the sets of k
    states that take longer to merge than any of their subsets one state
    smaller, as (D, inner, q1, ..., qk), states ascending, farthest first
    and, at equal D, in lexicographic order. D is the length of the
    shortest word that merges the set and is defined on it at every step
    (math.inf when none does), inner the largest D among its subsets one
    state smaller. D >= inner always, since a word that merges a set
    merges each subset, so the other sets add nothing to the smaller
    sets' clauses.

    D(S) = 1 + min over letters a defined on S of D(S.a). One table keyed
    by the product of each set's states' primes holds D of every merging
    set settled so far, and each size k is settled in it by one
    breadth-first search over the sets of k states alone, with staggered
    start distances (Dial, CACM 1969). A set that a letter maps onto fewer
    states holds two states the letter merges, and its image is settled
    already: one walk over each letter's merged pairs, each with every
    k - 2 other states the letter is defined on, starts such a set at
    1 + the least D of such an image, in O(k C(n - 2, k - 2)) time per
    merged pair (a set is met once per pair of its states that a letter
    merges). A breadth-first pass in order of distance then settles
    the rest: a letter keeps all k states of a set only by taking one
    state from the preimage of each state of its image, so each
    (set, letter) with an image of k states is met once, as a preimage of
    its own image, in O(C(n, k) k m) time. One walk over the sets of
    k states then checks each one's D by the equation and lists it
    against its subsets, in O(C(n, k) k m).

    The table is the only search state the object holds, with the lists:
    each size adds its sets, and none is searched twice. It holds one
    entry for every merging set of at most k states, far more than the
    lists: under tracemalloc the object holds 21.1 MB after far(3) on
    random n = 100 seed 0 (127,366 triples listed) and 4.8 MB after
    far(13) on pn(15). `search.min_csw` asks for the sizes a probe
    starts with only while their sets together, C(n, 3) + ... + C(n, k),
    are at most its plain clause count, itself at most MAX_CLAUSES, and
    for a size that joins a hard probe when C(n, k) alone is. So the sizes
    a probe starts with share one count, each size that joins it takes up
    to one more, and with the sizes 3 to n - 2 all joined the held sets
    number up to n - 4 such counts.
    """

    def __init__(self, pfa: Pfa):
        self.pfa = pfa
        # far(2), far(3), ... as built so far
        self._far = []
        # D of every merging set of the sizes searched so far, by key
        self._settled = None

    def far(self, k: int) -> list:
        """The farthest-first list for sets of k >= 2 states, with those of
        the sizes below it built and checked first."""
        if k < 2:
            raise ValueError(f"set size must be at least 2, got {k}")
        while len(self._far) < k - 1:
            size = len(self._far) + 2
            if size == 2:
                dist = pair_distances(self.pfa)
                check_distances(self.pfa, dist)
                self._far.append(far_pairs(dist))
            else:
                self._search(size)
                self._far.append(self._check(size))
        return self._far[k - 2]

    def _search(self, k: int) -> None:
        """Settle D of the sets of k states, k > 2, in `_settled`, which
        holds the smaller sizes' already."""
        # A set's key is the product of its states' primes, one small int
        # per set. (Bit masks of sets over 61 states collide in a dict, as
        # CPython hashes an int modulo 2**61 - 1.)
        primes = _primes(self.pfa.n)
        if k == 3:
            # D of each merging set settled so far, by key: single states,
            # then finite pairs
            self._settled = dict.fromkeys(primes, 0)
            for D, _, p, q in self._far[0]:
                if D != math.inf:
                    self._settled[primes[p - 1] * primes[q - 1]] = D
        settled = self._settled
        get = settled.get
        # the sets of k states that a letter maps onto a smaller merging
        # set, as their states' primes, by 1 + D of that image: each holds
        # two states the letter merges, and is listed once per such pair,
        # to settle at the least of its starts
        starts = {}
        # per letter a + 1, by the prime of each state r: pre[r], the primes
        # of the states the letter sends to r, and size[r], their number
        letters = []
        for groups in _preimages(self.pfa):
            pre = {primes[r]: tuple(primes[p] for p in group) for r, group in enumerate(groups)}
            size = {r: len(group) for r, group in pre.items()}.__getitem__
            letters.append((pre.__getitem__, size))
            # the prime of each state's image, where the letter is defined
            image = {p: r for r, group in pre.items() for p in group}
            for r, group in pre.items():
                for pair in combinations(group, 2):
                    others = [p for p in image if p not in pair]
                    for rest in combinations(others, k - 2):
                        D = get(math.prod({r, *map(image.__getitem__, rest)}))
                        if D is not None:
                            starts.setdefault(D + 1, []).append(pair + rest)

        # the sets of k states settled at distance d - 1; a letter keeps all
        # k states of a set only by taking one state from each of its
        # states' preimages
        level = []
        d = 1
        while level or starts:
            reached = [product(*map(pre, s)) for pre, size in letters for s in level if all(map(size, s))]
            reached.append(starts.pop(d, ()))
            level = []
            for states in chain.from_iterable(reached):
                key = math.prod(states)
                if key not in settled:
                    settled[key] = d
                    level.append(states)
            d += 1

    def _check(self, k: int) -> list:
        """Check D of every set of k states, k > 2, as `_settled` holds it
        (math.inf where it holds none), by the defining equation, reading
        smaller sets from the sizes already checked. Only one table solves
        it, so a table that passes is true. Raises ModelVerificationError
        at the first set that fails, and otherwise returns far(k), built
        from the checked distances."""
        inf = math.inf
        primes = _primes(self.pfa.n)
        get = self._settled.get
        # state(r): the state whose prime is r; images[a](r): the prime of
        # the state letter a + 1 sends it to, 0 where the letter is
        # undefined, so that the image's key is 0, which no set has
        state = {r: q for q, r in enumerate(primes, start=1)}.__getitem__
        images = [
            dict(zip(primes, [0 if t is None else primes[t - 1] for t in row])).__getitem__
            for row in self.pfa.delta
        ]
        far = []
        for factors in combinations(primes, k):
            key = math.prod(factors)
            D = get(key, inf)
            best = 1 + min([get(math.prod({*map(image, factors)}), inf) for image in images])
            if D != best:
                _equation_fault(tuple(state(r) - 1 for r in factors), D, best)
            # the subsets one state smaller, each the set's key over a prime
            inner = max([get(key // r, inf) for r in factors])
            if D > inner:
                far.append((D, inner, *map(state, factors)))
        far.sort(key=itemgetter(0), reverse=True)
        return far


def _primes(count: int) -> list:
    """The first `count` primes, by a sieve that doubles until it holds them."""
    limit = 16
    while True:
        sieve = bytearray([1]) * limit
        sieve[:2] = b"\0\0"
        for p in range(2, math.isqrt(limit - 1) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
        primes = [p for p in range(limit) if sieve[p]]
        if len(primes) >= count:
            return primes[:count]
        limit *= 2


def set_clause_count(sets: list, ell: int) -> int:
    """Size of one distance group at length ell: for each entry of `sets`,
    the number of s = ell - t in 1..ell with inner <= s < D. The entries
    come farthest first, so the count stops at the first D <= 1."""
    count = 0
    for entry in sets:
        D = entry[0]
        if D <= 1:
            break
        inner = entry[1]
        if inner <= ell:
            # s runs from max(inner, 1) to min(ell, D - 1)
            count += (ell if D > ell else D - 1) - (inner - 1 if inner else 0)
    return count


def set_clauses(sets: list, layout: VarLayout, longer: Optional[int] = None) -> list:
    """One distance group: (-x[q1,t] v ... v -x[qk,t]) for every step
    t < ell and every entry of `sets` (one list from DistanceTables.far)
    with inner <= ell - t < D, so that no subset inside it is forbidden at
    that step already; step by step and, within a step, farthest first.

    With `longer` > ell, only what the encoding at ell adds to the one at
    `longer`: steps t <= ell, entries with D <= longer - t as well, and at
    t = ell the sync pairs that the longer pair group lacks. A real word of
    length ell, extended by a letter defined everywhere, satisfies them.

    The entries with D > ell - t are a prefix of `sets`, those with
    D > longer - t a prefix of that. Their clauses are built column by
    column; a step takes them all where no entry of the list has
    inner > ell - t, as at every step of the pair list. Otherwise it reads
    which entries have inner <= ell - t from the inner column first and
    builds rows for those alone. The steps stop once ell - t falls below
    the smallest inner, as no entry fits that step or any later one."""
    ell = layout.ell
    if longer is not None and longer <= ell:
        raise ValueError(f"longer must be above {ell}, got {longer}")
    clauses = []
    if not sets:
        return clauses
    width = layout.m + layout.n
    reach, inners, *columns = zip(*sets)
    rising = reach[::-1]
    widest = max(inners)
    top = math.inf if longer is None else longer
    # no entry fits a step with ell - t below the smallest inner
    for t in range(min(ell if longer is None else ell + 1, ell + 1 - min(inners))):
        left = ell - t
        # entries first to last: D > top - t, then the ones wanted, then D <= left
        first = len(rising) - bisect_right(rising, top - t)
        last = len(rising) - bisect_right(rising, left)
        if first == last:
            continue
        base = -t * width
        if widest <= left:
            clauses.extend(zip(*[map(sub, repeat(base), column[first:last]) for column in columns]))
        else:
            fits = list(map(le, inners[first:last], repeat(left)))
            cells = [compress(column[first:last], fits) for column in columns]
            clauses.extend(zip(*[map(sub, repeat(base), cell) for cell in cells]))
    return clauses


def check_distances(pfa: Pfa, dist: list) -> None:
    """Check `dist` (from pair_distances) by the equation that defines it,
    row by row in O(n^2 m) time: D = 0 on single states, D(p, q) = 1 + min
    over letters a defined on both of D(p.a, q.a), math.inf when none is.
    Only one table solves it, so a table that passes is true. Raises
    ModelVerificationError at the first entry that fails."""
    n = pfa.n
    inf = math.inf
    if [list(column) for column in zip(*dist)] != dist:
        raise ModelVerificationError("pair distance table is not symmetric")
    # images[a][q]: the 0-based state letter a + 1 sends q to, n where the
    # letter is undefined, and padded[x][y] = D(x, y), math.inf at n
    images = [[n if t is None else t - 1 for t in row] for row in pfa.delta]
    padded = [row + [inf] for row in dist] + [[inf] * (n + 1)]
    for p in range(n):
        # 1 + min over letters a of D(p.a, q.a), for every q > p at once
        after = (map(padded[image[p]].__getitem__, image[p + 1 :]) for image in images)
        best = [0, *map(add, map(min, repeat(inf), *after), repeat(1))]
        if dist[p][p:] != best:
            q = next(q for q in range(p, n) if dist[p][q] != best[q - p])
            _equation_fault((p, q), dist[p][q], best[q - p])


def _equation_fault(states: tuple, D, best) -> None:
    raise ModelVerificationError(
        f"distance of states {tuple(q + 1 for q in states)} is {D}, "
        f"its defining equation gives {best}"
    )


def decode_word(assignment, layout: VarLayout) -> tuple:
    """Read the chosen word off a model.

    `assignment` maps every variable to a truth value (mapping or sequence
    indexed by variable number). Raises DecodeError naming the first
    position whose letter variables are not exactly-one.
    """
    word = []
    for t in range(1, layout.ell + 1):
        chosen = [i for i in range(1, layout.m + 1) if assignment[layout.letter_var(i, t)]]
        if len(chosen) != 1:
            raise DecodeError(
                f"exactly-one letter violated at step {t}: {len(chosen)} letters set"
            )
        word.append(chosen[0])
    return tuple(word)


def to_dimacs(instance: CnfInstance, comment: Optional[str] = None) -> str:
    """Serialize to DIMACS CNF. `comment` adds one leading 'c' line."""
    lines = []
    if comment is not None:
        lines.append(f"c {comment}")
    lines.append(f"p cnf {instance.var_count} {instance.clause_count}")
    for clause in instance.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def layout_comment(layout: VarLayout) -> str:
    """Traceability comment recording the instance shape."""
    return f"layout n={layout.n} m={layout.m} l={layout.ell}"


def _parse_layout_comment(line: str) -> Optional[VarLayout]:
    parts = line.split()
    if parts[:2] != ["c", "layout"]:
        return None
    fields = {}
    for part in parts[2:]:
        if "=" not in part:
            return None
        key, _, value = part.partition("=")
        try:
            fields[key] = int(value)
        except ValueError:
            return None
    if set(fields) != {"n", "m", "l"}:
        return None
    return VarLayout(n=fields["n"], m=fields["m"], ell=fields["l"])


def parse_dimacs(text: str) -> CnfInstance:
    """Read DIMACS CNF text back into an instance.

    Comment lines are skipped, except that a layout comment written by the
    CLI is recovered so words can be decoded from models of the file.
    Raises BudgetExceeded at a header declaring more than MAX_CLAUSES
    variables, which no encodable instance has.
    """
    header = None
    layout = None
    clauses = []
    pending = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            found = _parse_layout_comment(line)
            if found is not None:
                layout = found
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsError(f"expected 'p cnf <vars> <clauses>' at line {lineno}")
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise DimacsError(f"bad header counts at line {lineno}") from None
            if header[0] > MAX_CLAUSES:
                raise BudgetExceeded(
                    f"header declares {header[0]} variables, over the {MAX_CLAUSES} budget"
                )
            continue
        for token in line.split():
            try:
                lit = int(token)
            except ValueError:
                raise DimacsError(f"bad literal {token!r} at line {lineno}") from None
            if lit == 0:
                clauses.append(tuple(pending))
                pending = []
            else:
                pending.append(lit)
    if header is None:
        raise DimacsError("missing 'p cnf' header")
    if pending:
        raise DimacsError("unterminated clause at end of input")
    var_count, declared = header
    if len(clauses) != declared:
        raise DimacsError(f"header declares {declared} clauses, found {len(clauses)}")
    if layout is not None and layout.var_count != var_count:
        layout = None
    return CnfInstance(var_count=var_count, clauses=tuple(clauses), layout=layout)
