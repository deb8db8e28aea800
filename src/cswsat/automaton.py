"""Partial deterministic finite automata and careful-synchronization checks.

States are numbered 1..n and letters 1..m throughout. Subsets of the state
set are plain frozensets of state numbers. A missing transition is held as
None in the table and written as 0 in the text format.
"""

from __future__ import annotations

import functools
import gc
from dataclasses import dataclass
from typing import Iterable, Optional

__all__ = [
    "BudgetExceeded",
    "ModelVerificationError",
    "Pfa",
    "PfaFormatError",
    "parse_pfa",
    "serialize_pfa",
    "full_state_set",
    "apply_letter",
    "image",
    "is_carefully_synchronizing",
    "word_from_letters",
    "word_to_letters",
    "FOUND",
    "NOT_SYNCHRONIZING",
    "UNKNOWN_UP_TO_BOUND",
    "SearchOutcome",
]

Word = tuple  # sequence of letter indices, 1-based
StateSet = frozenset  # subset of {1, .., n}

# SearchOutcome.status values, shared by the solver search and subset search
FOUND = "FOUND"
NOT_SYNCHRONIZING = "NOT_SYNCHRONIZING"
UNKNOWN_UP_TO_BOUND = "UNKNOWN_UP_TO_BOUND"


class BudgetExceeded(RuntimeError):
    """A configured resource limit was hit before reaching a decision."""

    def __init__(self, message: str, stats=None):
        super().__init__(message)
        self.stats = stats


class ModelVerificationError(RuntimeError):
    """A result failed its independent check: a model against the clauses,
    a word against the automaton, or an encoding against its closed-form
    size."""


def _collector_paused(func):
    """Run `func` with CPython's cyclic garbage collector off, turning it
    back on afterwards only if it was on when the call began, so a nested
    call changes nothing. The searches make no reference cycles, so
    reference counting frees all they drop, and the collector would only
    traverse their live clause lists, watch lists and tables in vain. The
    collector is process-wide: other threads run without it meanwhile."""

    @functools.wraps(func)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return func(*args, **kwargs)
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            gc.enable()

    return paused


class PfaFormatError(ValueError):
    """Malformed automaton text; `line` is the 1-based offending line."""

    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = f"{message} at line {line}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Pfa:
    """A partial deterministic automaton over states 1..n and letters 1..m.

    `delta[a-1][q-1]` is the successor of state q under letter a, or None
    when that transition is undefined. Instances are immutable and hashable.
    """

    n: int
    m: int
    delta: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"state count must be positive, got {self.n}")
        if self.m < 1:
            raise ValueError(f"letter count must be positive, got {self.m}")
        if len(self.delta) != self.m:
            raise ValueError(f"expected {self.m} transition rows, got {len(self.delta)}")
        for row in self.delta:
            if len(row) != self.n:
                raise ValueError(f"expected {self.n} entries per row, got {len(row)}")
            for target in row:
                if target is not None and not (1 <= target <= self.n):
                    raise ValueError(f"state index {target} out of range")

    def letter_total(self, a: int) -> bool:
        """True iff letter a is defined at every state."""
        return None not in self.delta[a - 1]

    def has_total_letter(self) -> bool:
        return any(self.letter_total(a) for a in range(1, self.m + 1))

    def undefined_count(self) -> int:
        return sum(row.count(None) for row in self.delta)


@dataclass(frozen=True)
class SearchOutcome:
    """The answer of `min_csw` or `power_bfs` for one automaton."""

    status: str
    min_length: Optional[int] = None
    witness: Optional[tuple] = None
    probes: tuple = ()
    bound: int = 0
    visited: Optional[int] = None  # subsets stored; breadth-first path only
    # where min_csw's first probe length came from: "power_bfs", "beam", or
    # None when the probes gallop from length 1
    upper_bound_source: Optional[str] = None


def full_state_set(pfa: Pfa) -> StateSet:
    return frozenset(range(1, pfa.n + 1))


def apply_letter(pfa: Pfa, s: StateSet, a: int):
    """Image of the subset s under letter a, or None if a is undefined
    anywhere on s."""
    if not s:
        raise ValueError("subset must be nonempty")
    if not 1 <= a <= pfa.m:
        raise ValueError(f"letter index {a} out of range 1..{pfa.m}")
    row = pfa.delta[a - 1]
    out = set()
    for q in s:
        target = row[q - 1]
        if target is None:
            return None
        out.add(target)
    return frozenset(out)


def image(pfa: Pfa, s: StateSet, word: Iterable) -> Optional[StateSet]:
    """Apply a word letter by letter; None as soon as any step is undefined."""
    current = s
    for a in word:
        current = apply_letter(pfa, current, a)
        if current is None:
            return None
    return current


def is_carefully_synchronizing(pfa: Pfa, word: Iterable) -> bool:
    """True iff the word is defined along the whole-set trajectory and takes
    the full state set to a single state.

    The empty word qualifies exactly when the automaton has one state.
    """
    img = image(pfa, full_state_set(pfa), word)
    return img is not None and len(img) == 1


def parse_pfa(text: str) -> Pfa:
    """Read an automaton from its text form.

    Line 1 holds "n m"; the next n lines hold m integers each, giving the
    successor of state q under letter a at row q, column a, with 0 marking
    an undefined transition. Lines starting with '#' are skipped.
    """
    header = None
    rows = []
    n = m = 0
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        last_line = lineno
        if header is None:
            parts = line.split()
            if len(parts) != 2:
                raise PfaFormatError("malformed header, expected 'n m'", lineno)
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise PfaFormatError("malformed header, expected 'n m'", lineno) from None
            if n < 1 or m < 1:
                raise PfaFormatError(f"header counts must be positive, got {n} {m}", lineno)
            header = (n, m)
            continue
        if len(rows) == n:
            raise PfaFormatError("unexpected trailing data", lineno)
        parts = line.split()
        if len(parts) != m:
            raise PfaFormatError(f"expected {m} entries, got {len(parts)}", lineno)
        row = []
        for part in parts:
            try:
                value = int(part)
            except ValueError:
                raise PfaFormatError(f"bad transition entry {part!r}", lineno) from None
            if value == 0:
                row.append(None)
            elif 1 <= value <= n:
                row.append(value)
            else:
                raise PfaFormatError(f"state index {value} out of range", lineno)
        rows.append(tuple(row))
    if header is None:
        raise PfaFormatError("empty input, expected 'n m' header", max(last_line, 1))
    if len(rows) != n:
        raise PfaFormatError(
            f"expected {n} transition rows, got {len(rows)}", max(last_line, 1)
        )
    # rows are per state in the file; delta is per letter in memory
    delta = tuple(tuple(rows[j][i] for j in range(n)) for i in range(m))
    return Pfa(n=n, m=m, delta=delta)


def serialize_pfa(pfa: Pfa, comment: Optional[str] = None) -> str:
    """Canonical text form; parse_pfa(serialize_pfa(p)) == p."""
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"# {part}")
    lines.append(f"{pfa.n} {pfa.m}")
    for j in range(pfa.n):
        entries = (pfa.delta[i][j] for i in range(pfa.m))
        lines.append(" ".join("0" if t is None else str(t) for t in entries))
    return "\n".join(lines) + "\n"


def word_from_letters(text: str) -> Word:
    """Convert 'ab' to (1, 2). Only meaningful for alphabets up to 'z'."""
    return tuple(ord(ch) - ord("a") + 1 for ch in text)


def word_to_letters(word: Iterable) -> str:
    """Render a word as letters when every index fits a..z, else as numbers."""
    letters = tuple(word)
    if all(1 <= a <= 26 for a in letters):
        return "".join(chr(ord("a") + a - 1) for a in letters)
    return " ".join(str(a) for a in letters)
