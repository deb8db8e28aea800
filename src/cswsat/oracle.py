"""Exact minimal-length computation by breadth-first search over state
subsets, the ground truth the solver pipeline is checked against, and a
beam search that bounds the length from above where the exact search runs
out of budget.

Subsets live as bit masks (state j is bit j-1), and each letter's action on
a whole subset is assembled from precomputed byte-slice tables: eight
lookups and ORs per step instead of per-state work. A letter applies to a
subset only when defined on all of it, which is one mask test.
"""

from __future__ import annotations

from typing import Optional

from .automaton import (
    FOUND,
    NOT_SYNCHRONIZING,
    BudgetExceeded,
    ModelVerificationError,
    Pfa,
    SearchOutcome,
    is_carefully_synchronizing,
)

__all__ = ["BEAM_WIDTH", "DEFAULT_MAX_VISITED", "MAX_TABLE_WORDS", "beam_word", "power_bfs"]

# Stored subsets allowed, counted in 64-bit words of mask
DEFAULT_MAX_VISITED = 1 << 20

# Largest byte-slice tables `power_bfs` builds, in 64-bit words: each of
# the m * ceil(n/8) * 256 entries costs its ceil(n/64) mask words plus
# _ENTRY_OVERHEAD_WORDS of Python object overhead (list slot, int header,
# allocator rounding; 3-4 words measured with tracemalloc at n = 16..512).
# At this ceiling the tables peak at 91-128 MB RSS for 2 letters at
# n=3968, and at 139-156 MB for 1638 letters at n=64.
MAX_TABLE_WORDS = 1 << 24
_ENTRY_OVERHEAD_WORDS = 4

# Subsets `beam_word` keeps per layer
BEAM_WIDTH = 1024

_CHUNK = 8
_CHUNK_MASK = (1 << _CHUNK) - 1


class _LetterAction:
    """One letter's behavior on bit-mask subsets."""

    __slots__ = ("defined_mask", "tables")

    def __init__(self, pfa: Pfa, letter: int):
        n = pfa.n
        row = pfa.delta[letter - 1]
        self.defined_mask = 0
        chunks = -(-n // _CHUNK)
        # padded to whole chunks; bits past n are never set in a subset
        targets = [0] * (chunks * _CHUNK)
        for q in range(n):
            t = row[q]
            if t is not None:
                self.defined_mask |= 1 << q
                targets[q] = 1 << (t - 1)
        self.tables = []
        for c in range(chunks):
            base = c * _CHUNK
            table = [0] * (1 << _CHUNK)
            # each value's image is its lowest bit's target joined to the rest's
            for value in range(1, 1 << _CHUNK):
                low = value & -value
                table[value] = table[value ^ low] | targets[base + low.bit_length() - 1]
            self.tables.append(table)

    def image(self, subset: int) -> Optional[int]:
        """Image mask, or None when the letter is undefined somewhere on it."""
        if subset & ~self.defined_mask:
            return None
        img = 0
        for table in self.tables:
            img |= table[subset & _CHUNK_MASK]
            subset >>= _CHUNK
        return img


def _letter_actions(pfa: Pfa) -> list:
    """Every letter's action, in letter order; BudgetExceeded before
    building anything when the tables would exceed MAX_TABLE_WORDS."""
    words = -(-pfa.n // 64)
    table_words = pfa.m * -(-pfa.n // _CHUNK) * (1 << _CHUNK) * (words + _ENTRY_OVERHEAD_WORDS)
    if table_words > MAX_TABLE_WORDS:
        raise BudgetExceeded(
            f"{pfa.n} states need {table_words} table words, over the {MAX_TABLE_WORDS} budget"
        )
    return [_LetterAction(pfa, a) for a in range(1, pfa.m + 1)]


def _trace_back(parent: dict, full: int, mask: int, last_letter: int) -> tuple:
    """The word leading from `full` to `mask`, followed by `last_letter`;
    parent[subset] = (previous subset, letter applied)."""
    word = [last_letter]
    while mask != full:
        mask, letter = parent[mask]
        word.append(letter)
    word.reverse()
    return tuple(word)


def power_bfs(pfa: Pfa, max_visited: int = DEFAULT_MAX_VISITED) -> SearchOutcome:
    """Shortest carefully synchronizing word by breadth-first search from
    the full state set, expanding every letter defined on the current
    subset. The first singleton reached gives the minimal length; letters
    are tried in ascending order, so the witness is the lexicographically
    least among the shortest.

    Exhausting all reachable subsets without a singleton proves there is no
    such word. Raises BudgetExceeded (with a `visited` attribute) when the
    stored subsets, at ceil(n/64) words each, would exceed max_visited
    words, and before building anything when the letter tables would
    exceed MAX_TABLE_WORDS.
    """
    n = pfa.n
    full = (1 << n) - 1
    if n == 1:
        return SearchOutcome(status=FOUND, min_length=0, witness=(), visited=1)
    actions = _letter_actions(pfa)
    max_stored = max_visited // -(-n // 64)
    letters = tuple(range(1, pfa.m + 1))
    # parent[subset] = (previous subset, letter applied); the start maps to itself
    parent = {full: (full, 0)}
    frontier = [full]
    depth = 0

    while frontier:
        depth += 1
        next_frontier = []
        for subset in frontier:
            for a in letters:
                img = actions[a - 1].image(subset)
                if img is None or img in parent:
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
                parent[img] = (subset, a)
                if len(parent) > max_stored:
                    exc = BudgetExceeded(
                        f"subset budget {max_visited} words exceeded at depth {depth}"
                    )
                    exc.visited = len(parent)
                    raise exc
                next_frontier.append(img)
        frontier = next_frontier

    return SearchOutcome(
        status=NOT_SYNCHRONIZING, bound=depth - 1, visited=len(parent)
    )


def beam_word(pfa: Pfa) -> Optional[tuple]:
    """A carefully synchronizing word found by beam search, or None.

    Like `power_bfs`, but each layer keeps only the BEAM_WIDTH smallest
    images not seen before, ties broken by mask: the "Beam" heuristic of
    Roman and Szykula (2015). The first singleton reached ends the search,
    so the word is the shortest the beam finds, an upper bound on the
    minimal length and often equal to it.

    Returns None when a layer empties or when the stored subsets, at
    ceil(n/64) words each, reach DEFAULT_MAX_VISITED words. Raises
    BudgetExceeded before building anything when the letter tables would
    exceed MAX_TABLE_WORDS, and ModelVerificationError when the word fails
    `is_carefully_synchronizing`.
    """
    n = pfa.n
    full = (1 << n) - 1
    if n == 1:
        return ()
    actions = _letter_actions(pfa)
    max_stored = DEFAULT_MAX_VISITED // -(-n // 64)
    parent = {full: (full, 0)}
    layer = [full]
    while layer and len(parent) < max_stored:
        images = {}
        for subset in layer:
            for a, action in enumerate(actions, 1):
                img = action.image(subset)
                if img is None or img in parent or img in images:
                    continue
                if img & (img - 1) == 0:
                    word = _trace_back(parent, full, subset, a)
                    if not is_carefully_synchronizing(pfa, word):
                        raise ModelVerificationError(
                            f"beam witness {word!r} fails verification"
                        )
                    return word
                images[img] = (subset, a)
        layer = sorted(images, key=lambda mask: (mask.bit_count(), mask))[:BEAM_WIDTH]
        for img in layer:
            parent[img] = images[img]
    return None
