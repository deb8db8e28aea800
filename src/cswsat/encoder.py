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

Two more groups are left out of the plain encoding and appended in this
order when `encode` is given their tables:
  pair distance  for each step t < ell and each state pair p < q whose
                 shortest merging word is longer than ell - t, forbid both
                 states being active after t steps. The sync block is the
                 t = ell case of the same rule. `search.min_csw` passes a
                 `pair_distances` table to every probe.
  triple distance
                 for each step t < ell and each state triple whose shortest
                 merging word is longer than ell - t while none of its
                 pairs' is, forbid all three being active after t steps.
                 `search.min_csw` passes a `far_triples` list to a probe
                 when the triple table has no more entries, C(n, 3), than
                 the probe's plain encoding has clauses: long-word
                 automata, where the table is cheap beside the probe.
Both rest on one fact: the rest of a real word merges the word's whole
image after t letters in ell - t letters, so a real word's assignment
satisfies every clause of both groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .automaton import BudgetExceeded, ModelVerificationError, Pfa

__all__ = [
    "MAX_CLAUSES",
    "VarLayout",
    "CnfInstance",
    "DecodeError",
    "DimacsError",
    "encode",
    "pair_distances",
    "pair_clause_count",
    "pair_clauses",
    "far_pairs",
    "far_triples",
    "triple_clause_count",
    "triple_clauses",
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


@dataclass(frozen=True)
class VarLayout:
    """Bijection between (letter, position) / (state, step) pairs and
    variable numbers 1..(m+n)*ell + n.

    Step 0 state variables come first; afterwards each position t occupies a
    contiguous block of width m+n, letters before states.
    """

    n: int
    m: int
    ell: int

    def letter_var(self, i: int, t: int) -> int:
        """Variable asserting position t (1-based) holds letter i."""
        return self.n + (t - 1) * (self.m + self.n) + i

    def state_var(self, j: int, t: int) -> int:
        """Variable asserting state j is active after t steps (t >= 0)."""
        if t == 0:
            return j
        return self.n + (t - 1) * (self.m + self.n) + self.m + j

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
        for clause in self.clauses:
            for lit in clause:
                if lit == 0 or abs(lit) > self.var_count:
                    raise ValueError(f"literal {lit} out of range for {self.var_count} variables")

    @property
    def clause_count(self) -> int:
        return len(self.clauses)


class DecodeError(ValueError):
    """A model does not pin down exactly one letter at some position."""


class DimacsError(ValueError):
    """Malformed DIMACS text."""


def encode(
    pfa: Pfa, ell: int, dist: Optional[list] = None, triples: Optional[list] = None
) -> CnfInstance:
    """Build the instance asking for a carefully synchronizing word of
    length exactly ell (ell >= 1), with the pair-distance group appended
    when `dist` (from pair_distances) is given and then the
    triple-distance group when `triples` (from far_triples) is. Raises
    BudgetExceeded, before building anything, when the instance would have
    more than MAX_CLAUSES clauses."""
    if ell < 1:
        raise ValueError(f"target length must be >= 1, got {ell}")
    n, m = pfa.n, pfa.m
    size = clause_count(n, m, ell)
    if dist is not None:
        size += pair_clause_count(dist, ell)
    if triples is not None:
        size += triple_clause_count(triples, ell)
    if size > MAX_CLAUSES:
        raise BudgetExceeded(f"length {ell} needs {size} clauses, over the {MAX_CLAUSES} budget")
    layout = VarLayout(n=n, m=m, ell=ell)
    clauses = []

    # every state active after 0 steps
    for j in range(1, n + 1):
        clauses.append((j,))

    for t in range(1, ell + 1):
        letter_vars = [layout.letter_var(i, t) for i in range(1, m + 1)]
        clauses.append(tuple(letter_vars))
        for r in range(m):
            for s in range(r + 1, m):
                clauses.append((-letter_vars[r], -letter_vars[s]))
        for j in range(1, n + 1):
            active_prev = layout.state_var(j, t - 1)
            for i in range(1, m + 1):
                k = pfa.delta[i - 1][j - 1]
                if k is None:
                    clauses.append((-active_prev, -letter_vars[i - 1]))
                else:
                    clauses.append((-active_prev, -letter_vars[i - 1], layout.state_var(k, t)))

    for r in range(1, n + 1):
        for s in range(r + 1, n + 1):
            clauses.append((-layout.state_var(r, ell), -layout.state_var(s, ell)))
    if dist is not None:
        clauses.extend(pair_clauses(dist, layout))
    if triples is not None:
        clauses.extend(triple_clauses(triples, layout))

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


def pair_clause_count(dist: list, ell: int) -> int:
    """Size of the pair-distance group at length ell:
    sum over p < q of min(ell, dist(p,q) - 1)."""
    return sum(min(ell, d - 1) for i, row in enumerate(dist) for d in row[i + 1 :] if d > 1)


def far_pairs(dist: list) -> list:
    """Every state pair p < q as (dist(p,q), p, q), farthest first, so the
    pairs farther apart than any bound are a prefix."""
    return sorted(
        (
            (d, p, q)
            for p, row in enumerate(dist, start=1)
            for q, d in enumerate(row[p:], start=p + 1)
        ),
        key=lambda pair: -pair[0],
    )


def pair_clauses(dist: list, layout: VarLayout) -> list:
    """The pair-distance group: (-x[p,t], -x[q,t]) for every step t < ell
    and every pair p < q with dist(p,q) > ell - t, step by step and, within
    a step, from the farthest pairs down."""
    ell = layout.ell
    far = far_pairs(dist)
    clauses = []
    for t in range(ell):
        for d, p, q in far:
            if d <= ell - t:
                break
            clauses.append((-layout.state_var(p, t), -layout.state_var(q, t)))
    return clauses


def far_triples(pfa: Pfa, dist: list) -> list:
    """The state triples p < q < r that take longer to merge than their
    farthest pair, as (D, inner, p, q, r), farthest first. D is the length
    of the shortest word that merges the three states and is defined on
    them at every step (math.inf when none does), inner the largest of
    their three pair distances in `dist` (from pair_distances); D >= inner
    always, so the other triples add nothing to the pair group.

    D(S) = 1 + min over letters a defined on S of D(S.a), where the image
    S.a is a triple, a pair (distance from `dist`) or one state (0). A
    backward breadth-first search settles it level by level: level d's
    triples and pairs at distance d send every triple that some letter maps
    onto them to level d + 1. Each (triple, letter) is met once, as a
    preimage of its own image, so this takes O(C(n,3) m) time.
    """
    n = pfa.n
    preimages = _preimages(pfa)
    pair_levels = {}
    for d, p, q in far_pairs(dist):
        if d != math.inf:
            pair_levels.setdefault(d, []).append((p - 1, q - 1))
    top = max(pair_levels, default=0)
    tdist = {}

    def reach(key, d):
        key = tuple(sorted(key))
        if key not in tdist:
            tdist[key] = d
            frontier.append(key)

    # level 0 is the single states, whose preimage triples one letter merges
    frontier = []
    for pre in preimages:
        for group in pre:
            for key in combinations(group, 3):
                reach(key, 1)
    d = 1
    while frontier or d <= top:
        level, frontier = frontier, []
        for pre in preimages:
            for x, y in pair_levels.get(d, ()):
                px, py = pre[x], pre[y]
                for p, q in combinations(px, 2):
                    for r in py:
                        reach((p, q, r), d + 1)
                for p, q in combinations(py, 2):
                    for r in px:
                        reach((p, q, r), d + 1)
            for x, y, z in level:
                for p in pre[x]:
                    for q in pre[y]:
                        for r in pre[z]:
                            reach((p, q, r), d + 1)
        d += 1

    far = []
    for p, q, r in combinations(range(n), 3):
        inner = max(dist[p][q], dist[p][r], dist[q][r])
        D = tdist.get((p, q, r), math.inf)
        if D > inner:
            far.append((D, inner, p + 1, q + 1, r + 1))
    far.sort(key=lambda triple: -triple[0])
    return far


def triple_clause_count(triples: list, ell: int) -> int:
    """Size of the triple-distance group at length ell: for each triple of
    `triples`, the number of s = ell - t in 1..ell with inner <= s < D."""
    return sum(max(0, min(ell, D - 1) - inner + 1) for D, inner, *_ in triples)


def triple_clauses(triples: list, layout: VarLayout) -> list:
    """The triple-distance group: (-x[p,t], -x[q,t], -x[r,t]) for every
    step t < ell and every triple of `triples` (from far_triples) with
    inner <= ell - t < D, so that no pair inside it is forbidden at that
    step already; step by step and, within a step, farthest first."""
    ell = layout.ell
    var = layout.state_var
    clauses = []
    for t in range(ell):
        left = ell - t
        for D, inner, p, q, r in triples:
            if D <= left:
                break
            if inner <= left:
                clauses.append((-var(p, t), -var(q, t), -var(r, t)))
    return clauses


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
