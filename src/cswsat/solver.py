"""Complete CNF solving: a built-in conflict-driven solver plus a subprocess
adapter for external DIMACS solvers.

The built-in engine, `Session`, is a conflict-driven clause-learning loop:
two watched literals per clause, first-unique-implication-point learning
with local clause minimization, exponentially decayed variable activities
breaking ties toward the lowest variable index, saved phases (default
false, which suits the mostly-false models of the synchronization
encoding), reluctant-doubling restarts, and periodic forgetting of
high-glue learned clauses. Runs are deterministic. The assignment is
stored per literal, as in MiniSat: each literal's value has its own slot,
written for both polarities when a variable is assigned, so the watch
loop tests a literal with one lookup. Backtracking clears both slots and
leaves the variable's reason stale, since a reason is read only while
its variable is assigned.

A clause is a list of literal codes, and the engine refers to it by that
list alone: the watch lists of its first two codes hold the list itself,
and so does the reason of each variable it implies (None for a decision
or a level-0 unit). The watch loop tests the third code of a 3-literal
clause directly and scans only clauses of 4 or more; a binary clause has
no other literal and goes straight to the unit or conflict test.
Variable v's literals have codes 2v and 2v + 1, and each clause is taken
in with its codes ascending, so a variable that occurs twice shows as two
neighbouring codes. A clause of 2 or 3 literals is unpacked into its codes
and sorted by one compare-swap or at most three, with each neighbouring
pair tested inline; a longer one is sorted whole.

Decisions come from a lazy binary heap of (-activity, variable) entries.
Bumping a variable makes its old entry stale instead of removing it, and a
stale entry is dropped when popped. The `in_heap` flags keep at most one
live entry per variable: an unassigned variable always has one, bumping a
variable (always an assigned one, from a conflict or reason clause) only
clears its flag, and backtracking pushes the variables whose flag is
clear. Once stale entries make the heap longer than 2 * nvars after a
backtrack, it is rebuilt from the unassigned variables. None of this
changes which variable is picked.

A `Session` outlives its solve, so that more clauses can be added and the
result decided again. `extend` goes back to level 0, takes the clauses in
as the build does, and rewinds the propagation queue to the start of the
trail: the next solve propagates the level-0 assignments again, which
moves any new watch that sits on a literal they falsify. Learned clauses,
activities, saved phases and the learned-clause ceiling carry over; stats,
limits, the deadline and the restart schedule start afresh with each
solve. `solve(pause=N)` returns None after N more conflicts, where it
stands, and `extend` may add clauses then. The next solve on the engine
resumes a paused one as the same solve, its stats, limits, deadline and
restart schedule going on; after a solve that finished or raised, the
next one starts afresh.

Every model, from either backend, is re-checked against the original clauses
(and each batch a Session has added) by the separate `satisfies` evaluator
before being returned; the solver's own bookkeeping is never trusted.
"""

from __future__ import annotations

import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from pathlib import Path
from typing import Optional

from .automaton import BudgetExceeded, ModelVerificationError, _collector_paused
from .encoder import CnfInstance, to_dimacs

__all__ = [
    "SAT",
    "UNSAT",
    "SolverLimits",
    "SolveStats",
    "SolveResult",
    "BudgetExceeded",
    "ModelVerificationError",
    "ExternalSolverError",
    "SolverOutputError",
    "satisfies",
    "solve",
    "solve_external",
    "Session",
    "Backend",
    "backend_from_spec",
]

SAT = "SAT"
UNSAT = "UNSAT"


class ExternalSolverError(RuntimeError):
    """The external solver process could not be run or exited abnormally."""


class SolverOutputError(ExternalSolverError):
    """The external solver ran but produced no interpretable result."""


@dataclass(frozen=True)
class SolverLimits:
    """Optional resource caps; None means unlimited. A cap is at least 0."""

    max_conflicts: Optional[int] = None
    max_decisions: Optional[int] = None
    max_seconds: Optional[float] = None

    def __post_init__(self):
        for name in ("max_conflicts", "max_decisions", "max_seconds"):
            value = getattr(self, name)
            if value is not None and not value >= 0:  # NaN fails as well
                flag = "--" + name.replace("_", "-")
                raise ValueError(f"{name} ({flag}) must be at least 0, got {value}")


@dataclass
class SolveStats:
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0


@dataclass
class SolveResult:
    status: str
    model: Optional[dict]
    stats: SolveStats


def satisfies(instance: CnfInstance, model) -> bool:
    """Independent check that `model` (mapping var -> bool) satisfies every
    clause. Used to vet all solver output."""
    for clause in instance.clauses:
        for lit in clause:
            if model[abs(lit)] == (lit > 0):
                break
        else:
            return False
    return True


# Literal codes: variable v becomes 2v (positive) or 2v+1 (negative), so
# code ^ 1 negates and code >> 1 recovers the variable. The engine keeps
# one value per literal code: lv[c] is 1 (true), 0 (false) or -1
# (unassigned). Assigning a variable writes both of its codes and
# backtracking clears both, so a literal's truth is one lookup.


class Session:
    """The built-in engine. It outlives its solve, so that clauses added at
    level 0 are decided with the learned clauses, activities and saved
    phases of the solves before. Each solve's stats and limits count that
    solve alone. A model must satisfy the instance and every added batch,
    and `clause_count` counts the clauses of them all."""

    def __init__(self, instance: CnfInstance, limits: Optional[SolverLimits] = None):
        self.nvars = instance.var_count
        self.limits = limits or SolverLimits()
        self.stats = SolveStats()
        self.ok = True
        self._parts = [instance]

        nv = self.nvars
        self.lv = [-1] * (2 * nv + 2)
        self.level = [0] * (nv + 1)
        self.reason = [None] * (nv + 1)
        self.polarity = [False] * (nv + 1)
        self.activity = [0.0] * (nv + 1)
        self.seen = bytearray(nv + 1)
        self.watches = [[] for _ in range(2 * nv + 2)]
        # (clause, glue) in creation order; glue counts distinct decision levels
        self.learned = []
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        self.var_inc = 1.0
        self.max_learned = 2000
        self.deadline = None
        # the restart schedule of a paused solve, which the next solve resumes
        self.paused = None

        self._rebuild_heap()

        # code_of(lit) for either sign: 2v at index v, 2v + 1 at index -v
        self.code_of = [*range(0, 2 * nv + 2, 2), *range(2 * nv + 1, 1, -2)].__getitem__
        self._ingest(instance.clauses)

    def _ingest(self, new_clauses):
        """Watch each clause on its two smallest codes and enqueue each unit
        at the current level, 0; clear `ok` at an empty clause or a unit
        that contradicts the trail. A clause of 2 or 3 literals is unpacked
        into its codes and sorted by one compare-swap or at most three; a
        longer one is sorted whole."""
        code = self.code_of
        watches = self.watches
        for clause in new_clauses:
            # codes 2v and 2v + 1 sort side by side, so a variable that
            # occurs twice shows as two neighbouring codes of one variable
            width = len(clause)
            if width == 3:
                a, b, c = map(code, clause)
                if a > b:
                    a, b = b, a
                if b > c:
                    b, c = c, b
                    if a > b:
                        a, b = b, a
                lits = [a, b, c]
                shared = a >> 1 == b >> 1 or b >> 1 == c >> 1
            elif width == 2:
                a, b = map(code, clause)
                lits = [a, b] if a < b else [b, a]
                shared = a >> 1 == b >> 1
            else:
                # sorted over a tuple allocates the list at its exact size
                lits = sorted(tuple(map(code, clause)))
                shared = len({c >> 1 for c in lits}) < width
            if shared:
                lits = sorted(set(lits))
                if len(lits) > len({c >> 1 for c in lits}):
                    continue  # a tautology, always satisfied
            if len(lits) > 1:
                watches[lits[0]].append(lits)
                watches[lits[1]].append(lits)
            elif not lits or not self._enqueue(lits[0], None):
                self.ok = False
                return

    @property
    def clause_count(self) -> int:
        return sum(part.clause_count for part in self._parts)

    def extend(self, clauses) -> None:
        """Add `clauses`, over the instance's variables, before the next
        solve; the module docstring says what carries over."""
        added = CnfInstance(var_count=self.nvars, clauses=tuple(clauses))
        if self.trail_lim:
            self._backtrack(0)
        self._ingest(added.clauses)
        self.qhead = 0
        self._parts.append(added)

    def _enqueue(self, code: int, reason: Optional[list]) -> bool:
        lv = self.lv
        if lv[code] != -1:
            return lv[code] == 1
        lv[code] = 1
        lv[code ^ 1] = 0
        v = code >> 1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(code)
        return True

    def _propagate(self) -> Optional[list]:
        """Exhaust unit propagation; return a conflicting clause or None.
        Each watch list holds the clauses watched on its code, and the
        reason of each implied variable is the clause that implied it."""
        watches = self.watches
        lv = self.lv
        level = self.level
        reason = self.reason
        trail = self.trail
        cur = len(self.trail_lim)  # the decision level, fixed within a call
        qhead = self.qhead
        props = 0
        while qhead < len(trail):
            falsified = trail[qhead] ^ 1
            qhead += 1
            wl = watches[falsified]
            i = j = 0
            end = len(wl)
            while i < end:
                lits = wl[i]
                i += 1
                first = lits[0]
                if first == falsified:
                    first = lits[0] = lits[1]
                    lits[1] = falsified
                if lv[first] == 1:
                    wl[j] = lits
                    j += 1
                    continue
                # look for another watch: the third code of a 3-literal
                # clause, or a scan of a longer one; a binary clause has none
                if len(lits) == 3:
                    lk = lits[2]
                    if lv[lk]:  # not false
                        lits[1] = lk
                        lits[2] = falsified
                        watches[lk].append(lits)
                        continue
                elif len(lits) > 3:
                    for k in range(2, len(lits)):
                        lk = lits[k]
                        if lv[lk]:
                            lits[1] = lk
                            lits[k] = falsified
                            watches[lk].append(lits)
                            break
                    if lv[lk]:  # the scan moved the watch to lk
                        continue
                # no other watch: the clause is unit or conflicting
                wl[j] = lits
                j += 1
                if lv[first] == 0:
                    # conflict: keep the rest of the watch list intact
                    del wl[j:i]
                    self.qhead = len(trail)
                    self.stats.propagations += props
                    return lits
                props += 1
                lv[first] = 1
                lv[first ^ 1] = 0
                v = first >> 1
                level[v] = cur
                reason[v] = lits
                trail.append(first)
            del wl[j:]
        self.qhead = qhead
        self.stats.propagations += props
        return None

    def _rescale(self):
        """Scale activities and increment by 1e-100; rebuilds the heap."""
        activity = self.activity
        for u in range(1, self.nvars + 1):
            activity[u] *= 1e-100
        self.var_inc *= 1e-100
        self._rebuild_heap()

    def _rebuild_heap(self):
        """One current entry per unassigned variable and nothing else;
        in_heap[v] is set exactly when the heap holds (-activity[v], v)."""
        val = self.lv[::2]  # the value of each variable's positive code
        activity = self.activity
        self.heap = [(-activity[v], v) for v in range(1, self.nvars + 1) if val[v] == -1]
        heapify(self.heap)
        self.in_heap = bytearray(val[v] == -1 for v in range(self.nvars + 1))

    def _analyze(self, confl: list):
        """Derive the first-unique-implication-point clause for the current
        conflict. Returns (learnt literal codes, backjump level, glue)."""
        seen = self.seen
        level = self.level
        reason = self.reason
        trail = self.trail
        activity = self.activity
        var_inc = self.var_inc
        in_heap = self.in_heap
        cur = len(self.trail_lim)
        learnt = [0]
        counter = 0
        p = -1
        idx = len(trail) - 1
        while True:
            for k in range(0 if p == -1 else 1, len(confl)):
                q = confl[k]
                vq = q >> 1
                lq = level[vq]
                if not seen[vq] and lq > 0:
                    seen[vq] = 1
                    # bump the activity, keeping one current heap entry
                    act = activity[vq] + var_inc
                    activity[vq] = act
                    if act > 1e100:
                        self._rescale()
                        var_inc = self.var_inc
                        in_heap = self.in_heap
                    else:
                        # vq is assigned, so its old entry is stale now;
                        # _backtrack pushes a current one
                        in_heap[vq] = 0
                    if lq >= cur:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[trail[idx] >> 1]:
                idx -= 1
            p = trail[idx]
            idx -= 1
            vp = p >> 1
            seen[vp] = 0
            counter -= 1
            if counter == 0:
                learnt[0] = p ^ 1
                break
            confl = reason[vp]

        # local minimization: drop literals implied by the rest of the clause
        kept = [learnt[0]]
        for q in learnt[1:]:
            r = reason[q >> 1]
            if r is None:
                kept.append(q)
                continue
            for other in r:
                ov = other >> 1
                if other != q ^ 1 and not seen[ov] and level[ov] > 0:
                    kept.append(q)
                    break
        for q in learnt[1:]:
            seen[q >> 1] = 0

        if len(kept) == 1:
            return kept, 0, 1
        # second position must hold a literal from the backjump level
        best = 1
        for k in range(2, len(kept)):
            if level[kept[k] >> 1] > level[kept[best] >> 1]:
                best = k
        kept[1], kept[best] = kept[best], kept[1]
        back = level[kept[1] >> 1]
        glue = len({level[q >> 1] for q in kept})
        return kept, back, glue

    def _backtrack(self, target: int):
        trail = self.trail
        lv = self.lv
        heap = self.heap
        in_heap = self.in_heap
        polarity = self.polarity
        activity = self.activity
        limit = self.trail_lim[target]
        for code in trail[limit:]:  # each literal an assignment made true
            v = code >> 1
            polarity[v] = not code & 1
            lv[code] = lv[code ^ 1] = -1
            if not in_heap[v]:
                heappush(heap, (-activity[v], v))
                in_heap[v] = 1
        del trail[limit:]
        del self.trail_lim[target:]
        self.qhead = limit
        if len(heap) > 2 * self.nvars:
            self._rebuild_heap()

    def _pick_branch(self) -> int:
        heap = self.heap
        lv = self.lv
        activity = self.activity
        while heap:
            negact, v = heappop(heap)
            if -negact == activity[v]:
                self.in_heap[v] = 0
                if lv[v << 1] == -1:
                    return (v << 1) | (0 if self.polarity[v] else 1)
        return -1

    def _reduce_db(self):
        """Forget the weakest half of the learned clauses, keeping low-glue
        clauses and any clause currently acting as a reason."""
        # the sort is stable, so clauses that tie stay in creation order
        by_worst = sorted(
            (entry for entry in self.learned if entry[1] > 2),
            key=lambda entry: (-entry[1], -len(entry[0])),
        )
        drop = set()  # the ids of the clauses to forget
        for lits, _ in by_worst[: len(by_worst) // 2]:
            if self.reason[lits[0] >> 1] is lits and self.lv[lits[0]] != -1:
                continue
            drop.add(id(lits))
        if not drop:
            return
        self.learned = [entry for entry in self.learned if id(entry[0]) not in drop]
        for code in range(2, 2 * self.nvars + 2):
            self.watches[code] = [lits for lits in self.watches[code] if id(lits) not in drop]

    def _check_budget(self):
        lim = self.limits
        st = self.stats
        if lim.max_conflicts is not None and st.conflicts > lim.max_conflicts:
            raise BudgetExceeded(f"conflict limit {lim.max_conflicts} exceeded", st)
        if lim.max_decisions is not None and st.decisions > lim.max_decisions:
            raise BudgetExceeded(f"decision limit {lim.max_decisions} exceeded", st)
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise BudgetExceeded(f"time limit {lim.max_seconds}s exceeded", st)

    def solve(self, pause: Optional[int] = None) -> Optional[SolveResult]:
        """Decide the instance and the clauses added so far; see `solve`.
        With `pause`, return None after `pause` more conflicts of this
        solve, held in `paused`; the next solve resumes it, and any other
        solve starts stats, limits, deadline and restarts afresh. A `pause`
        other than an int of at least 1 raises ValueError and leaves the
        engine as it was."""
        if pause is not None and not (isinstance(pause, int) and pause >= 1):
            raise ValueError(f"pause must be an int of at least 1, got {pause!r}")
        schedule, self.paused = self.paused, None
        fresh = schedule is None
        if fresh:
            self.stats = SolveStats()
            schedule = (1, 1, 100)
            if self.limits.max_seconds is not None:
                self.deadline = time.perf_counter() + self.limits.max_seconds
        stats = self.stats
        unsat = SolveResult(status=UNSAT, model=None, stats=stats)
        # a resumed solve propagates in its loop, where a conflict counts
        if not self.ok or (fresh and self._propagate() is not None):
            return unsat
        stop = None if pause is None else stats.conflicts + pause

        limited = self.limits != SolverLimits()
        lv = self.lv
        level = self.level
        reason = self.reason
        trail = self.trail
        trail_lim = self.trail_lim
        restart_u, restart_v, conflicts_left = schedule
        while True:
            while conflicts_left > 0:
                confl = self._propagate()
                if confl is not None:
                    stats.conflicts += 1
                    conflicts_left -= 1
                    if not trail_lim:
                        return unsat
                    learnt, back, glue = self._analyze(confl)
                    self._backtrack(back)
                    if len(learnt) == 1:
                        # back at level 0, which leaves the unit's variable free
                        self._enqueue(learnt[0], None)
                    else:
                        self.watches[learnt[0]].append(learnt)
                        self.watches[learnt[1]].append(learnt)
                        self.learned.append((learnt, glue))
                        self._enqueue(learnt[0], learnt)
                    self.var_inc /= 0.95
                    if limited:
                        self._check_budget()
                    if stats.conflicts == stop:
                        self.paused = (restart_u, restart_v, conflicts_left)
                        return None
                    continue
                if len(self.learned) > self.max_learned:
                    self._reduce_db()
                    self.max_learned += 500
                code = self._pick_branch()
                if code == -1:
                    model = {v: lv[v << 1] == 1 for v in range(1, self.nvars + 1)}
                    if not all(satisfies(part, model) for part in self._parts):
                        raise ModelVerificationError(
                            "model verification failed for built-in solver"
                        )
                    return SolveResult(status=SAT, model=model, stats=stats)
                stats.decisions += 1
                if limited:
                    self._check_budget()
                # a new level, decided on an unassigned code
                trail_lim.append(len(trail))
                lv[code] = 1
                lv[code ^ 1] = 0
                v = code >> 1
                level[v] = len(trail_lim)
                reason[v] = None
                trail.append(code)
            # restart: reluctant doubling schedule
            stats.restarts += 1
            if trail_lim:
                self._backtrack(0)
            if restart_u & -restart_u == restart_v:
                restart_u += 1
                restart_v = 1
            else:
                restart_v <<= 1
            conflicts_left = 100 * restart_v
            self._check_budget()


@_collector_paused
def solve(instance: CnfInstance, limits: Optional[SolverLimits] = None) -> SolveResult:
    """Decide the instance with the built-in engine.

    Returns a SolveResult whose model (when SAT) has passed the independent
    evaluator. Raises BudgetExceeded when a limit from `limits` is hit.
    The call runs with the cyclic garbage collector paused, other threads'
    work included, and makes no reference cycles.
    """
    return Session(instance, limits).solve()


def _parse_result_lines(lines):
    """Extract (status, literals) from solver output lines; accepts both the
    's'/'v' line convention and the bare SAT/UNSAT file convention."""
    status = None
    literals = []
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            continue
        if line.startswith("s "):
            word = line[2:].strip()
            if word == "SATISFIABLE":
                status = SAT
            elif word == "UNSATISFIABLE":
                status = UNSAT
            continue
        if line in ("SAT", "SATISFIABLE"):
            status = SAT
            continue
        if line in ("UNSAT", "UNSATISFIABLE"):
            status = UNSAT
            continue
        if line.startswith("v ") or line[0] in "-0123456789":
            body = line[2:] if line.startswith("v ") else line
            for token in body.split():
                try:
                    lit = int(token)
                except ValueError:
                    literals = []
                    break
                if lit != 0:
                    literals.append(lit)
    return status, literals


def solve_external(
    instance: CnfInstance,
    command: str,
    timeout: Optional[float] = None,
) -> SolveResult:
    """Run an external DIMACS solver and vet its answer.

    `command` is a shell-style template. A '{cnf}' placeholder is replaced
    with the path of a temporary DIMACS file and '{out}' with a path the
    solver may write its result to (the two-file convention). Without
    '{cnf}' the DIMACS text is piped to the process's standard input.
    Output is accepted either as 's SATISFIABLE'/'s UNSATISFIABLE' plus 'v'
    model lines, or as a result file starting with SAT/UNSAT.

    A SAT claim is only reported after the model passes `satisfies`.
    """
    dimacs = to_dimacs(instance)
    tokens = shlex.split(command)
    with tempfile.TemporaryDirectory(prefix="cswsat-") as tmp:
        cnf_path = Path(tmp) / "instance.cnf"
        out_path = Path(tmp) / "result.txt"
        uses_file = any("{cnf}" in t for t in tokens)
        uses_out = any("{out}" in t for t in tokens)
        if uses_file:
            cnf_path.write_text(dimacs)
        argv = [
            t.replace("{cnf}", str(cnf_path)).replace("{out}", str(out_path))
            for t in tokens
        ]
        try:
            proc = subprocess.run(
                argv,
                input=None if uses_file else dimacs,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except FileNotFoundError as exc:
            raise ExternalSolverError(f"cannot launch external solver: {exc}") from exc
        except subprocess.TimeoutExpired as exc:
            raise BudgetExceeded(f"external solver exceeded {timeout}s") from exc

        status, literals = _parse_result_lines(proc.stdout.splitlines())
        if status is None and uses_out and out_path.exists():
            status, literals = _parse_result_lines(out_path.read_text().splitlines())
        if status is None:
            if proc.returncode not in (0, 10, 20):
                raise ExternalSolverError(
                    f"external solver exited with code {proc.returncode}: "
                    f"{proc.stderr.strip()[:200]}"
                )
            raise SolverOutputError("no result line found in external solver output")

    stats = SolveStats()
    if status == UNSAT:
        return SolveResult(status=UNSAT, model=None, stats=stats)
    model = {v: False for v in range(1, instance.var_count + 1)}
    for lit in literals:
        if 1 <= abs(lit) <= instance.var_count:
            model[abs(lit)] = lit > 0
    if not satisfies(instance, model):
        raise ModelVerificationError("model verification failed for external solver")
    return SolveResult(status=SAT, model=model, stats=stats)


@dataclass(frozen=True)
class Backend:
    """A solver choice that `search` and the CLI can pass around: the
    built-in solver without a `command`, that external solver with one. An
    external solver takes `max_seconds` alone, as its timeout."""

    command: Optional[str] = None
    limits: SolverLimits = field(default_factory=SolverLimits)

    def __post_init__(self):
        for name in ("max_conflicts", "max_decisions"):
            if self.command is not None and getattr(self.limits, name) is not None:
                flag = "--" + name.replace("_", "-")
                raise ValueError(
                    f"an external solver cannot honour {name} ({flag}); "
                    "it takes only max_seconds (--max-seconds), as its timeout"
                )

    def run(self, instance: CnfInstance) -> SolveResult:
        if self.command is None:
            return solve(instance, limits=self.limits)
        return solve_external(instance, self.command, timeout=self.limits.max_seconds)

    def start(self, instance: CnfInstance) -> Optional[Session]:
        """An engine for `instance` to solve and then extend, or None for an
        external solver, which keeps nothing between runs."""
        if self.command is None:
            return Session(instance, limits=self.limits)
        return None


def backend_from_spec(spec: str, limits: Optional[SolverLimits] = None) -> Backend:
    """Parse a backend flag value: 'builtin' or 'external:<command>'."""
    limits = limits or SolverLimits()
    if spec == "builtin":
        return Backend(limits=limits)
    if spec.startswith("external:"):
        command = spec[len("external:") :].strip()
        if not command:
            raise ValueError("external backend needs a command after the colon")
        return Backend(command=command, limits=limits)
    raise ValueError(f"unknown backend {spec!r}, expected 'builtin' or 'external:<command>'")
