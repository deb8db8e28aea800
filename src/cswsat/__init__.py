"""SAT-based search for minimum-length carefully synchronizing words.

A word w carefully synchronizes a partial deterministic automaton when every
letter of w is defined along the way from the full state set and the final
image is a single state. The package encodes the bounded question "is there
such a word of length exactly ell" as CNF, decides it with a built-in CDCL
solver or an external one, and finds the minimum length by probing down
from a known word length (or, without one, by doubling plus binary search).
Breadth-first search over the subset construction supplies that length and
cross-checks the answer.
"""

from .automaton import (
    Pfa,
    PfaFormatError,
    apply_letter,
    image,
    is_carefully_synchronizing,
    parse_pfa,
    serialize_pfa,
)
from .encoder import CnfInstance, VarLayout, decode_word, encode
from .generators import GenConfig, pn, random_pfa, trial_seed
from .oracle import power_bfs
from .search import SearchOutcome, min_csw
from .solver import (
    Backend,
    BudgetExceeded,
    SolverLimits,
    backend_from_spec,
    solve,
    solve_external,
)

__all__ = [
    "Pfa",
    "PfaFormatError",
    "apply_letter",
    "image",
    "is_carefully_synchronizing",
    "parse_pfa",
    "serialize_pfa",
    "CnfInstance",
    "VarLayout",
    "decode_word",
    "encode",
    "GenConfig",
    "pn",
    "random_pfa",
    "trial_seed",
    "power_bfs",
    "SearchOutcome",
    "min_csw",
    "Backend",
    "BudgetExceeded",
    "SolverLimits",
    "backend_from_spec",
    "solve",
    "solve_external",
]
