"""Exact minimal-length computation by breadth-first search over state
subsets, the ground truth the solver pipeline is checked against.

Subsets live as bit masks (state j is bit j-1), cut into ceil(n/8)
chunks of one width w = ceil(n / ceil(n/8)) <= 8 bits. The w-bit tables
of up to LETTER_GROUP letters give all their images of a subset side by
side in one int: ceil(n/8) lookups and ORs per group, then a shift and a
mask per letter, inline in the search loops. Even chunks keep the lookup
count of bytes with smaller tables wherever w < 8: 128 + 128 + 64
entries at n = 20, where bytes take 256 + 256 + 16. An undefined
transition leads to the full set, so a subset that meets one maps to the
start, never stored again.

Once its layers grow wide, the breadth-first search bounds itself: a
narrow beam, and later a wide one, give a word of some length U, and an
image at depth d holding two states that no U - d letters merge (by the
checked pair list of an `encoder.DistanceTables`) is dropped. No subset
on a shortest word is ever dropped, so the answer and the witness are
those of the full search.
The test is one more table image: the union, over the subset's
states, of the states too far from each. A search that still runs out of
budget raises with the shortest word its beams have found.
"""

from __future__ import annotations

import math
from typing import Optional

from .automaton import (
    FOUND,
    NOT_SYNCHRONIZING,
    BudgetExceeded,
    ModelVerificationError,
    Pfa,
    SearchOutcome,
    _collector_paused,
    is_carefully_synchronizing,
)
from .encoder import DistanceTables

__all__ = [
    "BOUND_STAGES",
    "DEFAULT_MAX_VISITED",
    "MAX_TABLE_WORDS",
    "power_bfs",
]

# Stored subsets allowed, counted in 64-bit words of mask
DEFAULT_MAX_VISITED = 1 << 20

# Largest tables `power_bfs` builds, in 64-bit words; the letter tables
# and the pair table are each held to it. Each letter is charged
# ceil(n/8) tables of 256 entries, the most a w-bit table holds, and each
# entry ceil(n/64) mask words plus _ENTRY_OVERHEAD_WORDS of Python object
# overhead (list slot, int header, allocator rounding; 3-4 words measured
# with tracemalloc at n = 16..512). So the charge is an upper bound, exact
# where w = 8, and a group's int costs no more than its letters' ints
# would. At the ceiling the tables peak at 122-140 MB RSS for 2 letters at
# n=3968, 52 MB for 1638 at n=64.
MAX_TABLE_WORDS = 1 << 24
_ENTRY_OVERHEAD_WORDS = 4

# Letters sharing one set of chunk tables (sweep: BENCH_letter_groups.json)
LETTER_GROUP = 16

# The bounding beams `power_bfs` runs, each at most once, as (layer size
# past which the beam runs, beam width). A beam layer costs about as much as
# a breadth-first layer of its width, so each waits for layers 8x wider.
BOUND_STAGES = ((512, 64), (8192, 1024))


def _chunk_width(n: int) -> int:
    """Bits per chunk of an n-state subset mask: ceil(n/8) chunks of one
    width, at most 8, so that no chunk's table outgrows the others."""
    return -(-n // -(-n // 8))


def _chunk_tables(targets: list) -> list:
    """One w-bit table per chunk of a subset mask, w = _chunk_width(n) for
    the n targets: entry v of table c is the union of targets[w*c + j] over
    the bits j set in v. Each table doubles once per state of its chunk,
    the new half adding that state's target; the last chunk's table stops
    at its states, since bits past them are never set in a subset."""
    w = _chunk_width(len(targets))
    tables = []
    for base in range(0, len(targets), w):
        table = [0]
        for target in targets[base : base + w]:
            table += [img | target for img in table]
        tables.append(table)
    return tables


def _letter_actions(pfa: Pfa) -> list:
    """Every letter's action on subsets, as (letters, tables) groups of up
    to LETTER_GROUP letters in letter order. With `every` the union of the
    tables' entries at a subset's chunks, the image under the group's i-th
    letter, (letter, i * n) in `letters`, is `every >> i * n & full`: the
    full set where the subset meets an undefined transition. BudgetExceeded
    before building anything when the tables would exceed MAX_TABLE_WORDS."""
    n = pfa.n
    words = -(-n // 64)
    table_words = pfa.m * -(-n // 8) * 256 * (words + _ENTRY_OVERHEAD_WORDS)
    if table_words > MAX_TABLE_WORDS:
        raise BudgetExceeded(
            f"{n} states need {table_words} table words, over the {MAX_TABLE_WORDS} budget"
        )
    full = (1 << n) - 1
    actions = []
    for first in range(0, pfa.m, LETTER_GROUP):
        rows = pfa.delta[first : first + LETTER_GROUP]
        shifted = [
            [full << i * n if t is None else 1 << (t - 1 + i * n) for t in row]
            for i, row in enumerate(rows)
        ]
        letters = [(first + i + 1, i * n) for i in range(len(rows))]
        actions.append((letters, _chunk_tables([sum(col) for col in zip(*shifted)])))
    return actions


class _PairBound:
    """The prune test of `power_bfs`: the shortest word the bounding beams
    have found, of length U, and which subsets hold a state pair too far
    apart to merge in the letters left before U.

    far[q] is the mask of states p with dist(p, q) > radius, so a subset
    S holds such a pair exactly when S & (union of far[q] over q in S) is
    nonzero: one more table image. As the radius falls, the next pairs
    of the checked farthest-first list `distances.far(2)` go into far, so
    the whole test takes O(n^2) memory. That list and its table are charged
    to MAX_TABLE_WORDS, and no beam runs where they would exceed it.
    """

    def __init__(self, pfa: Pfa, actions: list, distances: DistanceTables):
        self.pfa = pfa
        self.actions = actions
        self.word = None
        # the pair table, its check's copies and the far-pair list peak at
        # 7.3-8.7 words per state pair under tracemalloc on random automata
        # at n = 64..1000, and at up to 10.7 on the chain family
        self.pairs = distances.far(2) if 11 * pfa.n * pfa.n <= MAX_TABLE_WORDS else []
        # A word merges every pair, at least as late as the farthest one, so
        # no beam runs where that pair never merges or is farther apart than
        # a beam can store subsets: one per layer.
        storable = DEFAULT_MAX_VISITED // -(-pfa.n // 64)
        self.stages = sorted(BOUND_STAGES) if self.pairs and self.pairs[0][0] <= storable else []
        self.far = [0] * pfa.n
        # pairs[:taken] are in far
        self.taken = 0

    def next_trigger(self) -> float:
        """Layer size past which the next bounding beam runs."""
        return self.stages[0][0] if self.stages else math.inf

    def tighten(self, layer_size: int) -> None:
        """Run, once each, the bounding beams whose trigger `layer_size`
        passes, and keep the shortest word."""
        while self.next_trigger() < layer_size:
            _, width = self.stages.pop(0)
            word = _beam(self.pfa, self.actions, width)
            if word is not None and (self.word is None or len(word) < len(self.word)):
                self.word = word

    def far_map_at(self, depth: int) -> Optional[list]:
        """The chunk tables of far, whose image of a subset S meets S exactly
        when S holds a pair no word of length at most U can hold after
        `depth` letters, one farther apart than U - depth; None while no
        pair is."""
        radius = len(self.word) - depth
        pairs = self.pairs
        while self.taken < len(pairs) and pairs[self.taken][0] > radius:
            _, _, p, q = pairs[self.taken]
            self.far[p - 1] |= 1 << (q - 1)
            self.far[q - 1] |= 1 << (p - 1)
            self.taken += 1
        return _chunk_tables(self.far) if any(self.far) else None


def _trace_back(parent: dict, full: int, mask: int, last_letter: int) -> tuple:
    """The word leading from `full` to `mask`, followed by `last_letter`;
    parent[subset] = (previous subset, letter applied)."""
    word = [last_letter]
    while mask != full:
        mask, letter = parent[mask]
        word.append(letter)
    word.reverse()
    return tuple(word)


def _overrun(max_visited: int, depth: int, visited: int, word: Optional[tuple]) -> BudgetExceeded:
    """`power_bfs`'s overrun. Built here, so that no local of the search's
    frame holds it: its traceback holds that frame, and a local would close
    a cycle keeping the dead search alive until a cyclic collection."""
    exc = BudgetExceeded(
        f"subset budget {max_visited} words exceeded at depth {depth}"
        + (f"; a beam word of length {len(word)} bounds it" if word else "")
    )
    exc.visited, exc.word = visited, word
    return exc


@_collector_paused
def power_bfs(
    pfa: Pfa, max_visited: int = DEFAULT_MAX_VISITED, *, distances: Optional[DistanceTables] = None
) -> SearchOutcome:
    """Shortest carefully synchronizing word by breadth-first search from
    the full state set, expanding every letter defined on the current
    subset. The first singleton reached gives the minimal length; letters
    are tried in ascending order, so the witness is the lexicographically
    least among the shortest.

    Once a layer holds more subsets than a trigger in BOUND_STAGES, a beam
    search of that stage's width runs once; the shortest word any beam has
    found, of length U, bounds the search. No beam runs when the pair table
    would exceed MAX_TABLE_WORDS, when some pair never merges, or when the
    farthest pair is farther apart than the subsets a beam may store: a
    word is at least that long, and a beam stores one subset per layer.
    From then on a new image at depth d is neither stored nor expanded when
    it holds two states whose pair distance exceeds U - d. The distances
    come from `distances` (an `encoder.DistanceTables`, made here when not
    given), which checks its pair table before the bound reads it. The
    answer and witness stay those of the unbounded search: a word of length L <= U
    merges every pair of its image after d letters within its last L - d
    letters, so no subset on such a word is pruned. Such a subset's first
    discoverer lies on such a word too, so among these subsets the
    frontier order and the parent links are unchanged, and the first
    singleton reached is the same.

    Exhausting all reachable subsets without a singleton proves there is no
    such word; it raises ModelVerificationError when pruning was on, since
    the beam's verified word contradicts it, and when the pair table fails
    its check. Raises BudgetExceeded when the
    stored subsets, at ceil(n/64) words each, would exceed max_visited
    words; it carries `visited` and `word`, the shortest word the beams
    run so far have found, or None when none has run or found one. Raises
    BudgetExceeded before building anything when the letter tables would
    exceed MAX_TABLE_WORDS, and ValueError when max_visited is below 1.

    The call runs with the cyclic garbage collector paused, other threads'
    work included, and makes no reference cycles.
    """
    if max_visited < 1:
        raise ValueError(f"max_visited must be >= 1, got {max_visited}")
    n = pfa.n
    full = (1 << n) - 1
    if n == 1:
        return SearchOutcome(status=FOUND, min_length=0, witness=(), visited=1)
    actions = _letter_actions(pfa)
    w = _chunk_width(n)
    mask = (1 << w) - 1
    max_stored = max_visited // -(-n // 64)
    # parent[subset] = (previous subset, letter applied); the start maps to itself
    parent = {full: (full, 0)}
    frontier = [full]
    depth = 0
    bound = far = None
    # layer size past which the next bounding beam runs
    trigger = min([math.inf] + [size for size, _ in BOUND_STAGES])

    while frontier:
        if len(frontier) > trigger:
            if bound is None:
                bound = _PairBound(pfa, actions, distances or DistanceTables(pfa))
            bound.tighten(len(frontier))
            trigger = bound.next_trigger()
        depth += 1
        if bound is not None and bound.word is not None:
            far = bound.far_map_at(depth)
        next_frontier = []
        for subset in frontier:
            for letters, tables in actions:
                every, rest = 0, subset
                for table in tables:
                    every |= table[rest & mask]
                    rest >>= w
                for a, shift in letters:
                    img = every >> shift & full
                    if img in parent:
                        continue
                    if img & (img - 1) == 0:
                        witness = _trace_back(parent, full, subset, a)
                        if len(witness) != depth:
                            raise ModelVerificationError(
                                f"reconstructed word has length {len(witness)}, "
                                f"search depth is {depth}"
                            )
                        if not is_carefully_synchronizing(pfa, witness):
                            raise ModelVerificationError(
                                f"breadth-first witness {witness!r} fails verification"
                            )
                        return SearchOutcome(
                            status=FOUND,
                            min_length=depth,
                            witness=witness,
                            bound=depth,
                            visited=len(parent),
                        )
                    if far is not None:
                        hit, rest = 0, img
                        for table in far:
                            hit |= table[rest & mask]
                            rest >>= w
                        if img & hit:
                            continue
                    parent[img] = (subset, a)
                    if len(parent) > max_stored:
                        word = bound.word if bound is not None else None
                        raise _overrun(max_visited, depth, len(parent), word)
                    next_frontier.append(img)
        frontier = next_frontier

    if bound is not None and bound.word is not None:
        raise ModelVerificationError(
            f"pruned search found no word, yet a beam found one of length {len(bound.word)}"
        )
    return SearchOutcome(
        status=NOT_SYNCHRONIZING, bound=depth - 1, visited=len(parent)
    )


def _beam(pfa: Pfa, actions: list, width: int) -> Optional[tuple]:
    """A carefully synchronizing word found by beam search, or None.

    Like `power_bfs`, but each layer keeps only the `width` smallest images
    not seen before, ties broken by mask: the "Beam" heuristic of Roman and
    Szykula (2015). The first singleton reached ends the search, so the
    word is the shortest the beam finds, an upper bound on the minimal
    length and often equal to it. Returns None when a layer empties or when
    the stored subsets, at ceil(n/64) words each, reach DEFAULT_MAX_VISITED
    words; ModelVerificationError when the word fails verification.
    """
    n = pfa.n
    full = (1 << n) - 1
    w = _chunk_width(n)
    mask = (1 << w) - 1
    max_stored = DEFAULT_MAX_VISITED // -(-n // 64)
    parent = {full: (full, 0)}
    layer = [full]
    while layer and len(parent) < max_stored:
        images = {}
        for subset in layer:
            for letters, tables in actions:
                every, rest = 0, subset
                for table in tables:
                    every |= table[rest & mask]
                    rest >>= w
                for a, shift in letters:
                    img = every >> shift & full
                    if img in parent or img in images:
                        continue
                    if img & (img - 1) == 0:
                        word = _trace_back(parent, full, subset, a)
                        if not is_carefully_synchronizing(pfa, word):
                            raise ModelVerificationError(
                                f"beam witness {word!r} fails verification"
                            )
                        return word
                    images[img] = (subset, a)
        # fewest states first, ties by mask: the sort by size is stable
        layer = sorted(sorted(images), key=int.bit_count)[:width]
        for img in layer:
            parent[img] = images[img]
    return None
