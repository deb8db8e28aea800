"""Benchmark inputs: seeded random partial automata and the hard P_n family.

The random scheme produces two-letter automata where letter a is total but
never hits the anchor state q_a (so a alone always shrinks the full set),
and letter b is undefined at exactly k states anchored at q_b. Everything is
drawn from random.Random (the Mersenne Twister), which is stable across
platforms and Python versions, so a (config, seed) pair names one automaton
forever.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .automaton import BudgetExceeded, Pfa
from .encoder import MAX_CLAUSES

__all__ = ["GenConfig", "random_pfa", "pn", "trial_seed"]


@dataclass(frozen=True)
class GenConfig:
    """Parameters for one random automaton. `undefined_count` is how many
    states letter b is missing at; `random_pfa` draws the anchors."""

    n: int
    undefined_count: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least 2 states, got {self.n}")
        if self.n > MAX_CLAUSES:
            raise BudgetExceeded(f"{self.n} states, over the {MAX_CLAUSES} budget")
        if not 1 <= self.undefined_count <= self.n:
            raise ValueError(
                f"undefined_count must be in 1..{self.n}, got {self.undefined_count}"
            )


def random_pfa(config: GenConfig) -> Pfa:
    """Draw one automaton. The draw order is part of the contract (it is
    what makes seeds reproducible): the anchor q_a, then q_b, then letter
    a's image state by state (uniform over the states except q_a), then
    the extra undefined positions of letter b (uniform among the states
    except q_b, without replacement), then letter b's image on its defined
    states in state order (uniform over all states)."""
    n = config.n
    rng = random.Random(config.seed)
    q_a = rng.randint(1, n)
    q_b = rng.randint(1, n)

    a_choices = [q for q in range(1, n + 1) if q != q_a]
    row_a = tuple(a_choices[rng.randrange(n - 1)] for _ in range(n))

    undefined = {q_b}
    if config.undefined_count > 1:
        rest = [q for q in range(1, n + 1) if q != q_b]
        undefined.update(rng.sample(rest, config.undefined_count - 1))
    row_b = tuple(
        None if q in undefined else rng.randint(1, n) for q in range(1, n + 1)
    )
    return Pfa(n=n, m=2, delta=(row_a, row_b))


def trial_seed(base: int, trial: int, attempt: int = 0) -> int:
    """Seed for a numbered trial; regeneration attempts (after discarding a
    non-synchronizing draw) move to a disjoint seed plane so they can never
    collide with another trial's seed."""
    return base + trial + (attempt << 48)


def pn(n: int) -> Pfa:
    """The slowly synchronizing chain family: letter a advances states 1
    and 2 and fixes the rest; letter b is undefined at 1, advances
    2..n-1, and wraps n back to 1. Minimal synchronizing words for these
    grow roughly quadratically, which makes them good stress inputs."""
    if n < 3:
        raise ValueError(f"the family needs n >= 3, got {n}")
    if n > MAX_CLAUSES:
        raise BudgetExceeded(f"{n} states, over the {MAX_CLAUSES} budget")
    row_a = tuple(q + 1 if q in (1, 2) else q for q in range(1, n + 1))
    row_b = tuple(
        None if q == 1 else (q + 1 if q < n else 1) for q in range(1, n + 1)
    )
    return Pfa(n=n, m=2, delta=(row_a, row_b))
