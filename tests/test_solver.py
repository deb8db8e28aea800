import math
import shlex
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cswsat
from cswsat.automaton import Pfa, is_carefully_synchronizing
from cswsat.encoder import CnfInstance, DistanceTables, VarLayout, decode_word, encode, set_clauses
from cswsat.generators import GenConfig, pn, random_pfa
from cswsat.solver import (
    SAT,
    UNSAT,
    Backend,
    BudgetExceeded,
    ExternalSolverError,
    ModelVerificationError,
    Session,
    SolverLimits,
    SolverOutputError,
    _parse_result_lines,
    backend_from_spec,
    satisfies,
    solve,
    solve_external,
)

from helpers import brute_force_satisfiable

A1 = Pfa(n=2, m=2, delta=((1, 1), (2, None)))


def inst(var_count, *clauses):
    return CnfInstance(var_count=var_count, clauses=tuple(tuple(c) for c in clauses))


@st.composite
def cnf_instances(draw, max_vars=8, max_clauses=24, max_width=4):
    nvars = draw(st.integers(1, max_vars))
    lit = st.builds(
        lambda v, neg: -v if neg else v,
        st.integers(1, nvars),
        st.booleans(),
    )
    clauses = draw(
        st.lists(
            st.lists(lit, min_size=1, max_size=max_width).map(tuple),
            max_size=max_clauses,
        )
    )
    return CnfInstance(var_count=nvars, clauses=tuple(clauses))


def pigeonhole(holes: int) -> CnfInstance:
    """holes+1 pigeons into `holes` holes; unsatisfiable, needs real search."""
    pigeons = holes + 1
    var = lambda p, h: p * holes + h + 1
    clauses = [tuple(var(p, h) for h in range(holes)) for p in range(pigeons)]
    for h in range(holes):
        for p in range(pigeons):
            for q in range(p + 1, pigeons):
                clauses.append((-var(p, h), -var(q, h)))
    return CnfInstance(var_count=pigeons * holes, clauses=tuple(clauses))


class TestBuiltinSolve:
    def test_unit_clause(self):
        res = solve(inst(1, [1]))
        assert res.status == SAT
        assert res.model[1] is True

    def test_contradiction(self):
        assert solve(inst(1, [1], [-1])).status == UNSAT

    def test_empty_clause(self):
        assert solve(inst(1, [])).status == UNSAT

    def test_no_clauses_is_sat(self):
        res = solve(inst(3))
        assert res.status == SAT
        assert satisfies(inst(3), res.model)

    def test_encoded_instance_decodes_to_sync_word(self):
        instance = encode(A1, 1)
        res = solve(instance)
        assert res.status == SAT
        assert decode_word(res.model, instance.layout) == (1,)

    def test_no_total_letter_means_unsat(self):
        broken = Pfa(n=2, m=2, delta=((None, 1), (2, None)))
        assert solve(encode(broken, 1)).status == UNSAT
        assert solve(encode(broken, 3)).status == UNSAT

    def test_pigeonhole_unsat(self):
        assert solve(pigeonhole(4)).status == UNSAT

    def test_deterministic_reruns(self):
        instance = pigeonhole(3)
        a = solve(instance)
        b = solve(instance)
        assert (a.stats.decisions, a.stats.propagations, a.stats.conflicts) == (
            b.stats.decisions,
            b.stats.propagations,
            b.stats.conflicts,
        )

    @given(cnf_instances(), st.booleans())
    @settings(max_examples=200)
    def test_agrees_with_exhaustive_enumeration(self, instance, tiny_ceiling):
        session = Session(instance)
        if tiny_ceiling:
            # forget learned clauses from the second one on
            session.max_learned = 1
        res = session.solve()
        expected = brute_force_satisfiable(instance.var_count, instance.clauses)
        assert (res.status == SAT) == expected
        if res.status == SAT:
            assert satisfies(instance, res.model)

    @given(cnf_instances(max_vars=12, max_clauses=40))
    @settings(max_examples=100)
    def test_sound_on_wider_instances(self, instance):
        res = solve(instance)
        assert (res.status == SAT) == brute_force_satisfiable(
            instance.var_count, instance.clauses
        )
        if res.status == SAT:
            assert satisfies(instance, res.model)


def reference_ingest(instance, assigned=()):
    """Clause-by-clause ingestion by the rule the engine must keep: codes
    2v / 2v + 1, each clause as sorted({code(l) for l in clause}); a
    tautology is skipped, the empty clause or a unit contradicting an
    earlier one or the `assigned` codes stops ingestion, another unit is
    assigned, and a longer clause watches its first two codes. Returns
    (ok, clauses, watches, trail): the watch lists hold the clauses
    themselves, and clauses, watches and trail count from what the
    instance adds."""
    code = lambda lit: 2 * abs(lit) + (lit < 0)  # noqa: E731
    clauses, trail, value = [], [], {c // 2: c % 2 for c in assigned}
    watches = [[] for _ in range(2 * instance.var_count + 2)]
    for clause in instance.clauses:
        lits = sorted({code(lit) for lit in clause})
        if len({c // 2 for c in lits}) < len(lits):
            continue
        if not lits:
            return False, clauses, watches, trail
        if len(lits) == 1:
            var, want = divmod(lits[0], 2)
            if var in value:
                if value[var] != want:
                    return False, clauses, watches, trail
                continue
            value[var] = want
            trail.append(lits[0])
            continue
        watches[lits[0]].append(lits)
        watches[lits[1]].append(lits)
        clauses.append(lits)
    return True, clauses, watches, trail


def watched(watches) -> dict:
    """id of each clause in the watch lists -> (the clause, the codes of
    the lists that hold it, one per entry)."""
    held = {}
    for code, wl in enumerate(watches):
        for lits in wl:
            held.setdefault(id(lits), (lits, []))[1].append(code)
    return held


def watched_on_first_two(held) -> bool:
    """Each clause sits once in the list of each of its first two codes
    and in no other list."""
    return all(sorted(codes) == sorted(lits[:2]) for lits, codes in held.values())


@st.composite
def raw_cnfs(draw):
    """Clauses with repeated literals, tautologies, units and, sometimes,
    empty clauses, over few variables so that all of them are common."""
    nvars = draw(st.integers(1, 6))
    lit = st.integers(1, nvars).flatmap(lambda v: st.sampled_from([v, -v]))
    clauses = draw(st.lists(st.lists(lit, max_size=6).map(tuple), max_size=30))
    return CnfInstance(var_count=nvars, clauses=tuple(clauses))


class TestIngestion:
    @given(raw_cnfs())
    @settings(max_examples=300)
    def test_matches_clause_by_clause_reference(self, instance):
        engine = Session(instance)
        ok, clauses, watches, trail = reference_ingest(instance)
        # the engine keeps no list of all its clauses: their order shows in
        # each watch list, compared entry by entry with the reference's
        assert (engine.ok, engine.watches, engine.trail) == (ok, watches, trail)
        held = watched(engine.watches)
        assert sorted(lits for lits, _ in held.values()) == sorted(clauses)
        assert watched_on_first_two(held)
        # the units' codes are true, their negations false, the rest unset
        value = {c: 1 for c in trail} | {c ^ 1: 0 for c in trail}
        assert engine.lv[2:] == [value.get(c, -1) for c in range(2, len(engine.lv))]

    @given(raw_cnfs(), raw_cnfs())
    @settings(max_examples=300)
    def test_extend_matches_the_reference_from_the_level_0_trail(self, first, second):
        # an engine that has solved takes clauses in at level 0 as the
        # build does, its level-0 assignments counting as earlier units
        nvars = max(first.var_count, second.var_count)
        engine = Session(CnfInstance(var_count=nvars, clauses=first.clauses))
        engine.solve()
        level0 = engine.trail[: engine.trail_lim[0]] if engine.trail_lim else engine.trail[:]
        was_ok, before = engine.ok, watched(engine.watches)
        lengths = [len(wl) for wl in engine.watches]
        engine.extend(second.clauses)
        added = CnfInstance(var_count=nvars, clauses=second.clauses)
        ok, clauses, watches, trail = reference_ingest(added, level0)
        assert engine.ok == (was_ok and ok)
        # ingestion appends, so each watch list ends with the new clauses
        assert [wl[n:] for wl, n in zip(engine.watches, lengths)] == watches
        held = watched(engine.watches)
        new = [held[key][0] for key in held.keys() - before.keys()]
        assert sorted(new) == sorted(clauses)
        assert watched_on_first_two(held)
        assert engine.trail == level0 + trail
        value = {c: 1 for c in engine.trail} | {c ^ 1: 0 for c in engine.trail}
        assert engine.lv[2:] == [value.get(c, -1) for c in range(2, len(engine.lv))]

    @given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), min_size=2, max_size=3))
    @settings(max_examples=100)
    # one 3-literal clause in each of its six orders
    @example([1, -2, 3])
    @example([1, 3, -2])
    @example([-2, 1, 3])
    @example([-2, 3, 1])
    @example([3, 1, -2])
    @example([3, -2, 1])
    # one variable at positions (0, 1), (0, 2) and (1, 2), below and above
    # the other: a duplicate with the same sign, a tautology with opposite
    @example([2, 2, 1])
    @example([2, 1, 2])
    @example([1, 2, 2])
    @example([2, 2, 3])
    @example([2, 3, 2])
    @example([3, 2, 2])
    @example([2, -2, 1])
    @example([2, 1, -2])
    @example([1, 2, -2])
    @example([-2, 2, 3])
    @example([-2, 3, 2])
    @example([3, -2, 2])
    # 2-literal clauses: a duplicated unit and a tautology
    @example([2, 2])
    @example([2, -2])
    def test_short_clause_codes_are_sorted_as_the_reference_sorts(self, clause):
        # after a unit on variable 3, which a duplicate may contradict
        instance = inst(3, [-3], clause)
        ok, _, watches, trail = reference_ingest(instance)
        engine = Session(instance)
        assert (engine.ok, engine.watches, engine.trail) == (ok, watches, trail)

    def test_every_case_is_met(self):
        # 2 and -2 give a tautology, (1, 1) a duplicated unit, (-1,) a
        # contradiction that stops ingestion before the last clause
        instance = inst(3, [2, -2, 3], [1, 1], [3, -1, 3], [-3, 2], [-1], [2, 3])
        engine = Session(instance)
        assert not engine.ok
        held = watched(engine.watches)
        assert [lits for lits, _ in held.values()] == [[3, 6], [4, 7]]
        assert engine.trail == [2]
        assert [c for c, wl in enumerate(engine.watches) if wl] == [3, 4, 6, 7]
        assert watched_on_first_two(held)
        assert reference_ingest(instance) == (False, [[3, 6], [4, 7]], engine.watches, [2])
        assert not Session(inst(2, [1, -2], [])).ok


def naive_propagate(clauses, true):
    """Unit propagation by sweeping every clause until none is unit: the set
    of true literals it reaches, or None at a clause with every literal
    false."""
    true = set(true)
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            if not true.isdisjoint(clause):
                continue
            free = [lit for lit in clause if -lit not in true]
            if not free:
                return None
            if len(free) == 1:
                true.add(free[0])
                changed = True
    return true


@st.composite
def level0_cases(draw):
    """Clauses of 2 to 6 distinct variables and a level-0 assignment."""
    nvars = draw(st.integers(6, 9))
    signed = lambda vs: tuple(draw(st.sampled_from([v, -v])) for v in vs)  # noqa: E731
    var_sets = st.lists(st.integers(1, nvars), min_size=2, max_size=6, unique=True)
    clauses = [signed(vs) for vs in draw(st.lists(var_sets, min_size=1, max_size=30))]
    assigned = signed(draw(st.lists(st.integers(1, nvars), min_size=1, max_size=4, unique=True)))
    return CnfInstance(var_count=nvars, clauses=tuple(clauses)), assigned


class TestPropagation:
    """`_propagate` from a level-0 assignment against a naive reference."""

    @given(level0_cases())
    @settings(max_examples=400)
    # x1 true makes (-1, 2) imply x2, and (-1, -2) then conflicts in the
    # middle of x1's watch list, before (-1, 3)
    @example((inst(3, [-1, 2], [-1, -2], [-1, 3]), (1,)))
    def test_matches_naive_unit_propagation(self, case):
        instance, assigned = case
        engine = Session(instance)
        code = engine.code_of
        for lit in assigned:
            engine._enqueue(code(lit), None)
        confl = engine._propagate()
        expected = naive_propagate(instance.clauses, assigned)
        lv = engine.lv
        held = watched(engine.watches)
        # a conflict or not, each clause keeps its two watches; the watch
        # moves reorder a clause's codes
        assert sorted(sorted(lits) for lits, _ in held.values()) == sorted(
            sorted(map(code, clause)) for clause in instance.clauses
        )
        assert watched_on_first_two(held)
        if expected is None:
            assert confl is not None and id(confl) in held
            assert all(lv[c] == 0 for c in confl)
            return
        assert confl is None
        assert {c >> 1 if c & 1 == 0 else -(c >> 1) for c in engine.trail} == expected
        # an implied literal's reason is the clause it heads, the rest false
        for c in engine.trail[len(assigned) :]:
            reason = engine.reason[c >> 1]
            assert id(reason) in held and reason[0] == c
            assert all(lv[other] == 0 for other in reason[1:])


class TestDecisionHeap:
    """At every decision the heap holds a current entry for each unassigned
    variable and at most 2 * nvars entries in all."""

    def run_checked(self, instance, var_inc=1.0):
        engine = Session(instance)
        engine.var_inc = var_inc
        pick = engine._pick_branch

        def checked_pick():
            heap, activity = engine.heap, engine.activity
            assert len(heap) <= 2 * engine.nvars
            current = {v for negact, v in heap if -negact == activity[v]}
            lv = engine.lv
            # both codes of a variable agree: unassigned, or one true and one false
            assert all(
                (lv[c], lv[c ^ 1]) in ((-1, -1), (1, 0), (0, 1)) for c in range(2, len(lv))
            )
            unassigned = {v for v in range(1, engine.nvars + 1) if lv[2 * v] == -1}
            assert unassigned <= current
            return pick()

        engine._pick_branch = checked_pick
        result = engine.solve()
        return engine, result.status, result.model

    def test_bounded_on_unsat_chain_probe(self):
        engine, status, _ = self.run_checked(encode(pn(6), 25))
        assert status == UNSAT
        assert engine.stats.conflicts > 0

    def test_activity_rescale_keeps_invariant(self):
        instance = encode(pn(6), 26)
        engine, status, model = self.run_checked(instance, var_inc=1e99)
        assert engine.var_inc < 1e99  # it only grows unless the 1e-100 rescale ran
        assert status == SAT
        assert satisfies(instance, model)
        assert is_carefully_synchronizing(pn(6), decode_word(model, instance.layout))

        engine, status, _ = self.run_checked(encode(pn(6), 25), var_inc=1e99)
        assert engine.var_inc < 1e99
        assert status == UNSAT


class TestForgetting:
    """Learned-clause forgetting, forced early by a ceiling of 20 learned
    clauses, keeps the answers and the watch and reason bookkeeping."""

    def solve_checked(self, instance):
        session = Session(instance)
        session.max_learned = 20
        reduce_db = session._reduce_db
        originals = watched(session.watches)
        dropped = []

        def checked_reduce():
            # holding the entries keeps every dropped clause, and its id, alive
            learned = list(session.learned)
            reduce_db()
            live = originals.keys() | {id(lits) for lits, _ in session.learned}
            dropped.append(len({id(lits) for lits, _ in learned} - live))
            held = watched(session.watches)
            # no watch list holds a dropped clause, and each live clause is
            # watched on its first two literals and nowhere else
            assert held.keys() == live
            assert watched_on_first_two(held)
            # no assigned variable's reason clause was dropped
            reasons = (session.reason[code >> 1] for code in session.trail)
            assert all(r is None or id(r) in live for r in reasons)

        session._reduce_db = checked_reduce
        return session.solve(), dropped

    @pytest.mark.parametrize(
        "pfa, length",
        [
            (pn(6), 25),
            (pn(6), 26),
            (pn(7), 38),
            (pn(7), 39),
            (random_pfa(GenConfig(n=30, seed=9)), 16),
        ],
        ids=["pn6-25", "pn6-26", "pn7-38", "pn7-39", "random-n30-s9-16"],
    )
    def test_tiny_ceiling_keeps_answers_and_bookkeeping(self, pfa, length):
        instance = encode(pfa, length)
        result, dropped = self.solve_checked(instance)
        assert sum(dropped) > 0
        assert result.status == solve(instance).status
        if result.status == SAT:
            assert is_carefully_synchronizing(pfa, decode_word(result.model, instance.layout))

    def test_nothing_to_drop_leaves_the_database_alone(self):
        # learned clauses of glue 2 or less are always kept
        session = Session(inst(3, [1, 2], [-1, 3], [2, 3]))
        learned = [(session.watches[2][0], 2), (session.watches[3][0], 1)]
        session.learned = list(learned)
        watches = [list(wl) for wl in session.watches]
        session._reduce_db()
        assert session.learned == learned
        assert session.watches == watches


class TestSession:
    """Clauses added at level 0 to an engine that has solved."""

    @given(cnf_instances(max_vars=6), cnf_instances(max_vars=6))
    @settings(max_examples=200)
    def test_extended_engine_decides_the_union(self, first, second):
        nvars = max(first.var_count, second.var_count)
        base = CnfInstance(var_count=nvars, clauses=first.clauses)
        session = Session(base)
        assert (session.solve().status == SAT) == brute_force_satisfiable(nvars, base.clauses)
        session.extend(second.clauses)
        union = first.clauses + second.clauses
        # a SAT model has passed `satisfies` on both parts inside solve
        assert (session.solve().status == SAT) == brute_force_satisfiable(nvars, union)

    def test_clause_on_level_zero_false_literals_propagates(self):
        # x1 and x2 are units, so the new clause watches two codes false
        # at level 0 and only a rerun of the level-0 trail finds it unit
        session = Session(inst(3, [1], [2]))
        assert session.solve().status == SAT
        session.extend([(-1, -2, 3)])
        result = session.solve()
        assert result.status == SAT and result.model[3]
        session.extend([(-3,)])
        assert session.solve().status == UNSAT

    def test_each_solve_counts_alone(self):
        pfa = pn(7)
        distances = DistanceTables(pfa)
        groups = [distances.far(k) for k in (2, 3, 4)]
        top = encode(pfa, 39, groups)
        session = Session(top)
        first = session.solve()
        counts = (first.stats.conflicts, first.stats.decisions, first.stats.propagations)
        fresh = solve(top).stats
        assert counts == (fresh.conflicts, fresh.decisions, fresh.propagations)
        lower = VarLayout(n=7, m=2, ell=38)
        session.extend(c for sets in groups for c in set_clauses(sets, lower, longer=39))
        second = session.solve()
        assert second.status == UNSAT
        assert second.stats is not first.stats
        assert (first.stats.conflicts, first.stats.decisions, first.stats.propagations) == counts
        # the kept learned clauses make the refutation cheaper than the SAT solve
        assert 0 < second.stats.conflicts < first.stats.conflicts

    def test_limits_apply_to_each_solve(self):
        pfa = pn(7)
        distances = DistanceTables(pfa)
        groups = [distances.far(k) for k in (2, 3, 4)]
        top = encode(pfa, 39, groups)
        session = Session(top, SolverLimits(max_conflicts=45))
        first = session.solve()
        lower = VarLayout(n=7, m=2, ell=38)
        session.extend(c for sets in groups for c in set_clauses(sets, lower, longer=39))
        second = session.solve()
        assert first.stats.conflicts + second.stats.conflicts > 45
        assert second.status == UNSAT

    @pytest.mark.parametrize("pfa, length", [(pn(8), 55), (pn(8), 54), (pn(9), 73)])
    def test_pausing_leaves_the_search_alone(self, pfa, length):
        # paused every 7 conflicts and resumed with nothing added, a solve
        # makes the same search as one that never pauses
        distances = DistanceTables(pfa)
        instance = encode(pfa, length, [distances.far(k) for k in (2, 3, 4)])
        whole = Session(instance).solve()
        session = Session(instance)
        result = session.solve(pause=7)
        pauses = 0
        while result is None:
            pauses += 1
            result = session.solve(pause=7)
        assert pauses == whole.stats.conflicts // 7 > 3
        assert (result.status, result.model, result.stats) == (
            whole.status,
            whole.model,
            whole.stats,
        )

    def test_resumed_solve_counts_with_the_paused_one(self):
        # one limit over both parts, with a clause added at the pause
        pfa = pn(8)
        groups = [DistanceTables(pfa).far(k) for k in (2, 3, 4)]
        session = Session(encode(pfa, 55, groups), SolverLimits(max_conflicts=40))
        assert session.solve(pause=30) is None
        session.extend([(-(55 * 10 + 1),)])  # state 1 inactive at the end
        with pytest.raises(BudgetExceeded, match="conflict limit 40") as exc:
            session.solve()
        assert exc.value.stats.conflicts == 41

    def test_solve_after_a_finished_one_starts_afresh(self):
        # pn(8)'s SAT solve at 55 takes 188 conflicts; the refutation at 54
        # on the same engine starts with fresh stats, so its pause counts
        # from zero, and resumed it ends as one that never paused
        pfa = pn(8)
        groups = [DistanceTables(pfa).far(k) for k in (2, 3, 4)]
        layout = VarLayout(n=8, m=2, ell=54)
        lower = [c for sets in groups for c in set_clauses(sets, layout, longer=55)]
        whole = Session(encode(pfa, 55, groups))
        session = Session(encode(pfa, 55, groups))
        for engine in (whole, session):
            assert engine.solve().stats.conflicts == 188
            engine.extend(lower)
        assert session.solve(pause=7) is None
        assert (session.stats.conflicts, session.paused is None) == (7, False)
        result = session.solve()
        assert (result.status, result.stats) == (UNSAT, whole.solve().stats)
        assert (result.stats.conflicts, session.paused) == (101, None)

    def test_overrun_of_a_resumed_solve_leaves_the_engine_unpaused(self):
        # the resumed solve raises at 41 conflicts, as in
        # test_resumed_solve_counts_with_the_paused_one; the next solve
        # starts afresh, so it pauses at 5 conflicts of its own
        pfa = pn(8)
        groups = [DistanceTables(pfa).far(k) for k in (2, 3, 4)]
        session = Session(encode(pfa, 55, groups), SolverLimits(max_conflicts=40))
        assert session.solve(pause=30) is None
        session.extend([(-(55 * 10 + 1),)])
        with pytest.raises(BudgetExceeded, match="conflict limit 40"):
            session.solve()
        assert session.paused is None
        assert session.solve(pause=5) is None
        assert session.stats.conflicts == 5

    @pytest.mark.parametrize("pause", [0, -3, 2.5, math.nan])
    def test_pause_other_than_a_positive_int_is_refused(self, pause):
        # refused before the engine changes: paused at 7 conflicts, it stays
        # paused and resumes to pn(8)'s SAT solve at 188 conflicts
        pfa = pn(8)
        groups = [DistanceTables(pfa).far(k) for k in (2, 3, 4)]
        session = Session(encode(pfa, 55, groups))
        with pytest.raises(ValueError, match="pause must be an int"):
            session.solve(pause=pause)
        assert session.solve(pause=7) is None
        with pytest.raises(ValueError, match="pause must be an int"):
            session.solve(pause=pause)
        assert (session.stats.conflicts, session.paused is None) == (7, False)
        result = session.solve()
        whole = Session(encode(pfa, 55, groups)).solve()
        assert (result.status, result.model, result.stats) == (SAT, whole.model, whole.stats)
        assert result.stats.conflicts == 188

    def test_model_is_checked_against_the_added_clauses(self):
        session = Session(inst(2, [1]))
        assert session.solve().status == SAT
        # an engine fault that forgets the added clause: x2 keeps its
        # saved phase, false
        session._ingest = lambda clauses: None
        session.extend([(2,)])
        with pytest.raises(ModelVerificationError):
            session.solve()

    def test_only_the_builtin_backend_keeps_an_engine(self):
        assert isinstance(Backend().start(inst(1, [1])), Session)
        assert Backend(command="true").start(inst(1, [1])) is None


class TestBudgets:
    def test_conflict_budget(self):
        with pytest.raises(BudgetExceeded) as exc:
            solve(pigeonhole(5), limits=SolverLimits(max_conflicts=2))
        assert exc.value.stats.conflicts > 2

    def test_decision_budget(self):
        with pytest.raises(BudgetExceeded):
            solve(pigeonhole(5), limits=SolverLimits(max_decisions=1))

    def test_time_budget(self):
        with pytest.raises(BudgetExceeded):
            solve(pigeonhole(7), limits=SolverLimits(max_seconds=0.01))

    def test_budget_not_hit_when_generous(self):
        res = solve(pigeonhole(3), limits=SolverLimits(max_conflicts=100000))
        assert res.status == UNSAT

    @pytest.mark.parametrize(
        "name, value",
        [
            ("max_conflicts", -5),
            ("max_decisions", -1),
            ("max_seconds", -1.0),
            ("max_seconds", float("nan")),
        ],
    )
    def test_negative_or_nan_limit_is_refused(self, name, value):
        # a NaN deadline would never pass, and a negative cap would read
        # as a budget already spent
        with pytest.raises(ValueError, match=f"{name} .* must be at least 0"):
            SolverLimits(**{name: value})

    def test_zero_limits_are_caps(self):
        with pytest.raises(BudgetExceeded, match="conflict limit 0"):
            solve(pigeonhole(3), limits=SolverLimits(max_conflicts=0))
        with pytest.raises(BudgetExceeded, match="time limit 0.0s"):
            solve(pigeonhole(3), limits=SolverLimits(max_seconds=0.0))


SHIM_STDIN = """\
import sys
from cswsat.encoder import parse_dimacs
from cswsat.solver import SAT, solve

instance = parse_dimacs(sys.stdin.read())
result = solve(instance)
if result.status == SAT:
    print("s SATISFIABLE")
    lits = [v if result.model[v] else -v for v in sorted(result.model)]
    print("v " + " ".join(map(str, lits)) + " 0")
else:
    print("s UNSATISFIABLE")
"""

SHIM_TWO_FILE = """\
import sys
from pathlib import Path
from cswsat.encoder import parse_dimacs
from cswsat.solver import SAT, solve

instance = parse_dimacs(Path(sys.argv[1]).read_text())
result = solve(instance)
out = Path(sys.argv[2])
if result.status == SAT:
    lits = [v if result.model[v] else -v for v in sorted(result.model)]
    out.write_text("SAT\\n" + " ".join(map(str, lits)) + " 0\\n")
    sys.exit(10)
out.write_text("UNSAT\\n")
sys.exit(20)
"""

SHIM_LIAR = """\
import sys
sys.stdin.read()
print("s SATISFIABLE")
print("v 1 2 0")
"""

SHIM_SLEEPER = """\
import sys, time
sys.stdin.read()
time.sleep(10)
"""


# the directory holding the cswsat package under test, which a shim's own
# interpreter would not otherwise search
CSWSAT_ROOT = str(Path(cswsat.__file__).resolve().parents[1])


def shim_command(tmp_path, source, name, suffix=""):
    """Shell command running `source` as a script that imports the same
    cswsat as the tests."""
    script = tmp_path / f"{name}.py"
    script.write_text(f"import sys\nsys.path.insert(0, {CSWSAT_ROOT!r})\n" + source)
    cmd = f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}"
    return cmd + suffix


class TestExternalSolve:
    def test_stdin_convention_sat(self, tmp_path):
        cmd = shim_command(tmp_path, SHIM_STDIN, "stdin_shim")
        instance = encode(A1, 1)
        res = solve_external(instance, cmd)
        assert res.status == SAT
        assert decode_word(res.model, instance.layout) == (1,)

    def test_stdin_convention_unsat(self, tmp_path):
        cmd = shim_command(tmp_path, SHIM_STDIN, "stdin_shim")
        assert solve_external(inst(1, [1], [-1]), cmd).status == UNSAT

    def test_two_file_convention(self, tmp_path):
        cmd = shim_command(tmp_path, SHIM_TWO_FILE, "file_shim", " {cnf} {out}")
        instance = encode(A1, 2)
        res = solve_external(instance, cmd)
        assert res.status == SAT
        assert satisfies(instance, res.model)
        assert solve_external(inst(1, [1], [-1]), cmd).status == UNSAT

    def test_lying_solver_is_caught(self, tmp_path):
        cmd = shim_command(tmp_path, SHIM_LIAR, "liar")
        with pytest.raises(ModelVerificationError, match="model verification failed"):
            solve_external(inst(2, [1], [-2]), cmd)

    def test_missing_binary(self):
        with pytest.raises(ExternalSolverError):
            solve_external(inst(1, [1]), "definitely-not-a-real-solver-binary")

    def test_process_failure(self):
        with pytest.raises(ExternalSolverError, match="exited with code"):
            solve_external(inst(1, [1]), "false")

    def test_unparseable_output(self):
        with pytest.raises(SolverOutputError):
            solve_external(inst(1, [1]), "true")

    def test_timeout(self, tmp_path):
        cmd = shim_command(tmp_path, SHIM_SLEEPER, "sleeper")
        with pytest.raises(BudgetExceeded):
            solve_external(inst(1, [1]), cmd, timeout=0.3)

    def test_agrees_with_builtin(self, tmp_path):
        cmd = shim_command(tmp_path, SHIM_STDIN, "stdin_shim")
        cases = [
            inst(1, [1]),
            inst(1, [1], [-1]),
            inst(3, [1, 2], [-1, 3], [-3, -2]),
            encode(A1, 1),
            encode(Pfa(n=2, m=2, delta=((None, 1), (2, None))), 2),
        ]
        for instance in cases:
            assert solve_external(instance, cmd).status == solve(instance).status


class TestBackendSpec:
    def test_builtin(self):
        backend = backend_from_spec("builtin")
        assert backend.command is None
        assert backend.run(inst(1, [1])).status == SAT

    def test_external(self, tmp_path):
        cmd = shim_command(tmp_path, SHIM_STDIN, "stdin_shim")
        backend = backend_from_spec(f"external:{cmd}")
        assert backend.command == cmd
        assert backend.run(inst(1, [1], [-1])).status == UNSAT

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            backend_from_spec("quantum")
        with pytest.raises(ValueError):
            backend_from_spec("external:")

    def test_limits_flow_through(self):
        backend = Backend(limits=SolverLimits(max_conflicts=2))
        with pytest.raises(BudgetExceeded):
            backend.run(pigeonhole(5))

    @pytest.mark.parametrize("name", ["max_conflicts", "max_decisions"])
    def test_external_refuses_search_limits(self, name):
        limits = SolverLimits(**{name: 10})
        with pytest.raises(ValueError, match=name):
            Backend(command="true", limits=limits)
        with pytest.raises(ValueError, match=name):
            backend_from_spec("external:true", limits=limits)
        assert backend_from_spec("builtin", limits=limits).limits == limits

    def test_external_time_budget_from_limits(self, tmp_path):
        cmd = shim_command(tmp_path, SHIM_SLEEPER, "sleeper")
        backend = backend_from_spec(
            f"external:{cmd}", limits=SolverLimits(max_seconds=0.3)
        )
        with pytest.raises(BudgetExceeded, match="0.3s"):
            backend.run(inst(1, [1]))


class TestResultParser:
    def test_blank_and_comment_lines_are_skipped(self):
        lines = ["", "c a comment", "   ", "s SATISFIABLE", "c v 9 0", "v 1 -2 0"]
        assert _parse_result_lines(lines) == (SAT, [1, -2])

    def test_malformed_token_drops_the_literals_read_so_far(self):
        # the bad token also ends its line: 4 is never read
        lines = ["s SATISFIABLE", "v 1 -2", "v 3 x 4 0"]
        assert _parse_result_lines(lines) == (SAT, [])
        assert _parse_result_lines(lines + ["v 5 0"]) == (SAT, [5])
