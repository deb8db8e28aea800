"""Small independent checkers the library must agree with.

Everything here works from raw data (clause lists, transition tables) using
plain sets and integers, on purpose: these are the cross-checks, so they
avoid the library code paths they are checking.
"""

import itertools
import math
import random
from functools import lru_cache

from hypothesis import strategies as st

from cswsat.automaton import Pfa


# cached: only nvars^2 distinct tables exist and sweeps reuse them heavily
@lru_cache(maxsize=None)
def truth_table(var: int, nvars: int) -> int:
    """Bit r of the result is the value of variable `var` in row r of the
    2^nvars truth table (row index read as a binary assignment)."""
    p = 1 << (var - 1)
    unit = ((1 << p) - 1) << p
    period = 2 * p
    reps = (1 << nvars) // period
    rep_mask = ((1 << (period * reps)) - 1) // ((1 << period) - 1)
    return unit * rep_mask


def formula_table(var_count: int, clauses) -> int:
    """Truth table of the whole CNF as one big integer."""
    full = (1 << (1 << var_count)) - 1
    acc = full
    for clause in clauses:
        ct = 0
        for lit in clause:
            t = truth_table(abs(lit), var_count)
            ct |= t if lit > 0 else full ^ t
        acc &= ct
        if acc == 0:
            break
    return acc


def brute_force_satisfiable(var_count: int, clauses) -> bool:
    return formula_table(var_count, clauses) != 0


def brute_force_models(var_count: int, clauses):
    """Yield every satisfying assignment as a dict {var: bool}."""
    table = formula_table(var_count, clauses)
    while table:
        low = table & -table
        row = low.bit_length() - 1
        yield {v: bool(row >> (v - 1) & 1) for v in range(1, var_count + 1)}
        table ^= low


def eval_clauses(clauses, assignment) -> bool:
    """assignment maps var -> bool; true iff every clause holds."""
    return all(
        any(assignment[abs(lit)] == (lit > 0) for lit in clause) for clause in clauses
    )


def settled_sets(distances, k: int) -> list:
    """The sets of k states whose key a DistanceTables' search table
    `_settled` holds, each as its states' primes (state q has the q-th
    prime, and a set's key is the product of its states' primes)."""
    primes = []
    candidate = 2
    while len(primes) < distances.pfa.n:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    settled = distances._settled
    return [s for s in itertools.combinations(primes, k) if math.prod(s) in settled]


def set_image(delta, states, letter):
    """Image of a state set under one letter, from the raw table; None when
    the letter is undefined somewhere on the set."""
    row = delta[letter - 1]
    out = set()
    for q in states:
        t = row[q - 1]
        if t is None:
            return None
        out.add(t)
    return out


def word_synchronizes(n: int, delta, word) -> bool:
    cur = set(range(1, n + 1))
    for a in word:
        cur = set_image(delta, cur, a)
        if cur is None:
            return False
    return len(cur) == 1


def shortest_sync_word(n: int, delta, m: int, max_len: int):
    """Shortest carefully synchronizing word by breadth-first search over
    state subsets, or None if there is none of length <= max_len.

    Letters are tried in ascending order and the frontier keeps insertion
    order, so the first hit is the lexicographically least shortest word.
    """
    start = frozenset(range(1, n + 1))
    if len(start) == 1:
        return ()
    seen = {start}
    frontier = [(start, ())]
    for _ in range(max_len):
        nxt = []
        for states, word in frontier:
            for a in range(1, m + 1):
                img = set_image(delta, states, a)
                if img is None:
                    continue
                img = frozenset(img)
                if img in seen:
                    continue
                grown = word + (a,)
                if len(img) == 1:
                    return grown
                seen.add(img)
                nxt.append((img, grown))
        frontier = nxt
    return None


def merge_distance(delta, *states: int):
    """Length of the shortest word that merges the given states and is
    defined on all of them at every step, or math.inf if there is none:
    forward breadth-first search over plain sets."""
    start = frozenset(states)
    if len(start) == 1:
        return 0
    seen = {start}
    frontier = [start]
    length = 0
    while frontier:
        length += 1
        nxt = []
        for current in frontier:
            for a in range(1, len(delta) + 1):
                img = set_image(delta, current, a)
                if img is None:
                    continue
                if len(img) == 1:
                    return length
                img = frozenset(img)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return math.inf


def sync_lengths(n: int, delta, m: int, max_len: int) -> set:
    """Every length 1..max_len at which some word of exactly that length
    carefully synchronizes. Layer l holds the images of all words of
    length l (words with equal images merged), so no word is skipped."""
    layer = {frozenset(range(1, n + 1))}
    found = set()
    for length in range(1, max_len + 1):
        layer = {
            frozenset(img)
            for states in layer
            for a in range(1, m + 1)
            if (img := set_image(delta, states, a)) is not None
        }
        if any(len(states) == 1 for states in layer):
            found.add(length)
    return found


def explicit_power_length(n: int, delta, m: int):
    """Minimal carefully synchronizing length, or None if there is no such
    word, found by building the whole power automaton before searching it.

    The table holds the image of every nonempty subset under every letter
    (None where the letter is undefined somewhere on the subset): all
    2^n - 1 rows, whatever the answer turns out to be. Breadth-first search
    from the full set then reads only the table.
    """
    states = range(1, n + 1)
    table = {}
    for size in range(1, n + 1):
        for subset in itertools.combinations(states, size):
            images = (set_image(delta, subset, a) for a in range(1, m + 1))
            table[frozenset(subset)] = tuple(
                None if img is None else frozenset(img) for img in images
            )
    start = frozenset(states)
    if len(start) == 1:
        return 0
    seen = {start}
    frontier = [start]
    length = 0
    while frontier:
        length += 1
        nxt = []
        for subset in frontier:
            for img in table[subset]:
                if img is None or img in seen:
                    continue
                if len(img) == 1:
                    return length
                seen.add(img)
                nxt.append(img)
        frontier = nxt
    return None


@st.composite
def pfas(draw, max_n: int = 6, max_m: int = 4, min_n: int = 1):
    n = draw(st.integers(min_n, max_n))
    m = draw(st.integers(1, max_m))
    entry = st.one_of(st.none(), st.integers(1, n))
    delta = tuple(tuple(draw(entry) for _ in range(n)) for _ in range(m))
    return Pfa(n=n, m=m, delta=delta)


@st.composite
def pfas_with_subset(draw, max_n: int = 6, max_m: int = 4):
    pfa = draw(pfas(max_n=max_n, max_m=max_m))
    subset = draw(
        st.frozensets(st.integers(1, pfa.n), min_size=1, max_size=pfa.n)
    )
    return pfa, subset


def pfas_with_holes(count: int = 600):
    """`count` seeded transition tables with n <= 7 and m <= 3, each entry
    missing with probability 0.2."""
    for seed in range(count):
        rng = random.Random(seed)
        n, m = rng.randint(2, 7), rng.randint(1, 3)
        delta = tuple(
            tuple(None if rng.random() < 0.2 else rng.randint(1, n) for _ in range(n))
            for _ in range(m)
        )
        yield Pfa(n=n, m=m, delta=delta)
