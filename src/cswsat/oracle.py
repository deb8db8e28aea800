"""Exact minimal-length computation by breadth-first search over state
subsets, the ground truth the solver pipeline is checked against.

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

__all__ = ["DEFAULT_MAX_VISITED", "MAX_TABLE_WORDS", "power_bfs"]

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
    words = -(-n // 64)
    table_words = pfa.m * -(-n // _CHUNK) * (1 << _CHUNK) * (words + _ENTRY_OVERHEAD_WORDS)
    if table_words > MAX_TABLE_WORDS:
        raise BudgetExceeded(
            f"{n} states need {table_words} table words, over the {MAX_TABLE_WORDS} budget"
        )
    max_stored = max_visited // words

    actions = [_LetterAction(pfa, a) for a in range(1, pfa.m + 1)]
    letters = tuple(range(1, pfa.m + 1))
    # parent[subset] = (previous subset, letter applied); the start maps to itself
    parent = {full: (full, 0)}
    frontier = [full]
    depth = 0

    def reconstruct(mask: int, last_letter: int, length: int) -> tuple:
        word = [last_letter]
        while mask != full:
            prev, letter = parent[mask]
            word.append(letter)
            mask = prev
        word.reverse()
        if len(word) != length:
            raise ModelVerificationError(
                f"reconstructed word has length {len(word)}, search depth is {length}"
            )
        return tuple(word)

    while frontier:
        depth += 1
        next_frontier = []
        for subset in frontier:
            for a in letters:
                img = actions[a - 1].image(subset)
                if img is None or img in parent:
                    continue
                if img & (img - 1) == 0:
                    witness = reconstruct(subset, a, depth)
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
