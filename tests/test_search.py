import dataclasses
import math
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings

from cswsat.automaton import (
    Pfa,
    full_state_set,
    image,
    is_carefully_synchronizing,
    serialize_pfa,
    word_from_letters,
)
from cswsat.cli import EXIT_FAULT, main
from cswsat.encoder import (
    DistanceTables,
    clause_count,
    decode_word,
    encode,
    pair_distances,
    set_clause_count,
)
from cswsat.generators import GenConfig, pn, random_pfa
from cswsat import oracle, search
from cswsat.oracle import _beam, _letter_actions, power_bfs
from cswsat.search import (
    BEAM,
    FOUND,
    NOT_SYNCHRONIZING,
    POWER_BFS,
    UNKNOWN_UP_TO_BOUND,
    min_csw,
)
from cswsat.solver import (
    SAT,
    UNSAT,
    Backend,
    BudgetExceeded,
    ModelVerificationError,
    Session,
    SolverLimits,
    satisfies,
    solve,
)

from helpers import pfas, pfas_with_holes, settled_sets, sync_lengths
from test_solver import SHIM_STDIN, shim_command

A1 = Pfa(n=2, m=2, delta=((1, 1), (2, None)))
C3 = Pfa(n=3, m=2, delta=((2, 3, 1), (2, 2, 3)))

# both letters act as the identity, so the image never shrinks
FROZEN = Pfa(n=2, m=2, delta=((1, 2), (1, 2)))


class TestExamples:
    def test_two_state(self):
        out = min_csw(A1)
        assert (out.status, out.min_length, out.witness) == (FOUND, 1, (1,))
        assert out.probes[0].length == 1
        assert out.probes[0].status == SAT

    def test_cerny_three_states(self):
        out = min_csw(C3)
        assert out.min_length == 4
        assert is_carefully_synchronizing(C3, out.witness)

    def test_singleton(self):
        out = min_csw(Pfa(n=1, m=1, delta=((1,),)))
        assert (out.status, out.min_length, out.witness) == (FOUND, 0, ())
        assert out.probes == ()

    def test_no_total_letter_is_refuted_without_probing(self):
        stuck = Pfa(n=2, m=2, delta=((None, 1), (2, None)))
        out = min_csw(stuck)
        assert out.status == NOT_SYNCHRONIZING
        assert out.probes == ()

    def test_reachability_precheck_refutes(self):
        out = min_csw(FROZEN)
        assert out.status == NOT_SYNCHRONIZING
        assert out.probes == ()
        assert out.visited == 1

    def test_unknown_when_precheck_disabled(self):
        # a pair that never merges refutes FROZEN before any probe; pn(5),
        # whose minimum is 15, is unknown up to 8
        out = min_csw(FROZEN, max_length=8, precheck=False)
        assert (out.status, out.probes) == (NOT_SYNCHRONIZING, ())
        out = min_csw(pn(5), max_length=8, precheck=False)
        assert out.status == UNKNOWN_UP_TO_BOUND
        assert out.bound == 8
        assert [p.length for p in out.probes] == [1, 2, 4, 8]
        assert all(p.status == UNSAT for p in out.probes)

    def test_positive_precheck_answers_are_ignored(self):
        # reachability would settle C3 instantly, yet a too-small length
        # budget must still come back unknown: only probes decide upward
        out = min_csw(C3, max_length=3)
        assert out.status == UNKNOWN_UP_TO_BOUND
        assert [p.length for p in out.probes] == [3]

    def test_max_length_validation(self):
        with pytest.raises(ValueError):
            min_csw(A1, max_length=0)


class TestProbeRecord:
    def test_certificate_pair(self):
        out = min_csw(pn(5))
        assert out.status == FOUND
        by_length = {p.length: p.status for p in out.probes}
        assert by_length[out.min_length] == SAT
        assert by_length[out.min_length - 1] == UNSAT

    def test_gallop_prefix_doubles(self):
        out = min_csw(pn(6), precheck=False)
        lengths = [p.length for p in out.probes]
        first_sat = next(i for i, p in enumerate(out.probes) if p.status == SAT)
        assert lengths[: first_sat + 1] == [2**i for i in range(first_sat + 1)]

    def test_exact_bound_needs_two_probes(self):
        out = min_csw(pn(6))
        assert out.upper_bound_source == POWER_BFS
        assert [(p.length, p.status) for p in out.probes] == [(26, SAT), (25, UNSAT)]

    def test_deterministic_replay(self):
        a = min_csw(pn(6))
        b = min_csw(pn(6))
        assert a.witness == b.witness

        def record(out):
            return [
                (p.length, p.status, p.stats.conflicts, p.stats.decisions, p.stats.propagations)
                for p in out.probes
            ]

        assert record(a) == record(b)
        assert sum(p.stats.conflicts for p in a.probes) > 0

    def test_bound_is_largest_probe(self):
        out = min_csw(C3)
        assert out.bound == max(p.length for p in out.probes)


class TestSearchIdentity:
    """Each probe's (length, status, clauses, conflicts, decisions,
    propagations, restarts) and the witness, pinned. A change to the
    solver's data structures that leaves its search alone keeps every one
    of these; one that changes the search, even with the same answers,
    fails here."""

    @pytest.mark.parametrize(
        "pfa, probes, witness",
        [
            (
                random_pfa(GenConfig(n=30, seed=9)),
                [(17, SAT, 3055, 312, 1137, 19423, 2), (16, UNSAT, 3490, 256, 361, 19233, 2)],
                "abbbbaababbbbabbb",
            ),
            (
                random_pfa(GenConfig(n=60, seed=1)),
                [(12, SAT, 8296, 25, 624, 2345, 0), (11, UNSAT, 10066, 34, 87, 2792, 0)],
                "aabaaaaaabab",
            ),
            # pn(7)'s probe at 39 starts with the groups of 3 to 5
            # states, pn(8)'s at 55 with those of 3 to 6: neither escalates
            (
                pn(7),
                [(39, SAT, 1041, 7, 43, 363, 0), (38, UNSAT, 1122, 0, 0, 0, 0)],
                "aababaabababaabbabbabaabbbabbaabbbbabaa",
            ),
            (
                pn(8),
                [(55, SAT, 1834, 9, 65, 563, 0), (54, UNSAT, 2010, 0, 0, 0, 0)],
                "aabababaabababaabbabaabbabaabbbabbbaabbbbabbaabbbbbabaa",
            ),
            # galloping: the triple group joins at length 4, the 4-set
            # group at 16 only, whose plain clauses cover both tables
            (
                (random_pfa(GenConfig(n=10, seed=1)), False),
                [
                    (1, UNSAT, 110, 0, 0, 0, 0),
                    (2, UNSAT, 157, 0, 0, 0, 0),
                    (4, UNSAT, 248, 0, 0, 0, 0),
                    (8, UNSAT, 376, 0, 0, 0, 0),
                    (16, SAT, 559, 0, 102, 90, 0),
                    (12, SAT, 464, 0, 56, 88, 0),
                    (10, SAT, 420, 0, 34, 86, 0),
                    (9, SAT, 398, 0, 29, 79, 0),
                ],
                "ababababa",
            ),
            # about half of the random-min benchmark's solver time
            (
                random_pfa(GenConfig(n=60, seed=0)),
                [(18, SAT, 10332, 372, 2309, 37579, 2), (17, UNSAT, 12102, 475, 573, 53386, 3)],
                "aaaabbbbaaabaabaab",
            ),
        ],
    )
    def test_probe_counts_are_pinned(self, pfa, probes, witness):
        # an input given as (automaton, False) runs without the pre-check
        pfa, precheck = pfa if isinstance(pfa, tuple) else (pfa, True)
        out = min_csw(pfa, precheck=precheck)
        assert [
            (
                p.length,
                p.status,
                p.clauses,
                p.stats.conflicts,
                p.stats.decisions,
                p.stats.propagations,
                p.stats.restarts,
            )
            for p in out.probes
        ] == probes
        assert out.witness == word_from_letters(witness)


class TestBudgets:
    def test_budget_carries_partial_record(self):
        backend = Backend(limits=SolverLimits(max_decisions=0))
        with pytest.raises(BudgetExceeded) as exc:
            min_csw(C3, backend=backend, precheck=False)
        # pair distances refute lengths 1 and 2 without a decision; 4 needs one
        assert [(p.length, p.status) for p in exc.value.probes] == [(1, UNSAT), (2, UNSAT)]

    def test_limits_count_per_probe(self):
        # random n=60 seed 1's probes need 25 and 34 conflicts on one
        # engine: a limit of 34 covers each probe but not their sum
        pfa = random_pfa(GenConfig(n=60, seed=1))
        out = min_csw(pfa, backend=Backend(limits=SolverLimits(max_conflicts=34)))
        assert [(p.length, p.status, p.stats.conflicts) for p in out.probes] == [
            (12, SAT, 25),
            (11, UNSAT, 34),
        ]

    @pytest.mark.parametrize(
        "limits", [SolverLimits(max_conflicts=80), SolverLimits(max_decisions=500)]
    )
    def test_limits_bound_the_sum_of_a_probes_solves(self, limits):
        # pn(12)'s probe at 141 pauses at 32 and 64 conflicts for a group
        # to join, and needs 94 conflicts and 542 decisions in all; no one
        # of its three solves reaches either limit
        with pytest.raises(BudgetExceeded, match="limit") as exc:
            min_csw(pn(12), backend=Backend(limits=limits))
        assert exc.value.probes == ()

    def test_overrun_below_keeps_the_sat_probe(self):
        # random n=60 seed 1: 25 conflicts at 12, then 34 at 11
        backend = Backend(limits=SolverLimits(max_conflicts=30))
        with pytest.raises(BudgetExceeded) as exc:
            min_csw(random_pfa(GenConfig(n=60, seed=1)), backend=backend)
        assert [(p.length, p.status) for p in exc.value.probes] == [(12, SAT)]

    def test_clause_budget_counts_the_added_clauses(self, monkeypatch):
        # pn(7) holds 1,041 clauses at 39, its 5-set group's 30 included,
        # and 1,122 once taken down to 38
        monkeypatch.setattr("cswsat.encoder.MAX_CLAUSES", 1050)
        with pytest.raises(BudgetExceeded, match="length 38 needs 1122 clauses") as exc:
            min_csw(pn(7))
        assert [(p.length, p.status, p.clauses) for p in exc.value.probes] == [(39, SAT, 1041)]

    def test_group_over_the_clause_budget_stays_out(self, monkeypatch):
        # the 5-set group would take pn(7)'s probe at 39 from 1,011 to
        # 1,041 clauses: it stays out of the probe's start, and when the
        # probe pauses for it, the probe goes on as if it had never paused
        monkeypatch.setattr("cswsat.encoder.MAX_CLAUSES", 1030)
        with pytest.raises(BudgetExceeded, match="length 38 needs 1081 clauses") as exc:
            min_csw(pn(7))
        (sat,) = exc.value.probes
        assert (sat.length, sat.status, sat.clauses, sat.escalations) == (39, SAT, 1011, ())
        assert (sat.stats.conflicts, sat.stats.decisions, sat.stats.propagations) == (41, 145, 969)

    def test_start_stops_at_the_first_group_over_the_clause_budget(self, monkeypatch):
        # pn(7)'s probe at 39 would start with 1,011 clauses with the
        # 4-set group, 1,041 with the 5-set group too: under a budget of
        # 990 it starts with the pairs and triples alone, and the probe
        # below, at 1,000 clauses, is refused
        monkeypatch.setattr("cswsat.encoder.MAX_CLAUSES", 990)
        pfa = pn(7)
        with pytest.raises(BudgetExceeded, match="length 38 needs 1000 clauses") as exc:
            min_csw(pfa)
        (sat,) = exc.value.probes
        distances = DistanceTables(pfa)
        assert (sat.length, sat.status, sat.escalations) == (39, SAT, ())
        assert sat.clauses == 953 == len(encode(pfa, 39, [distances.far(2), distances.far(3)]).clauses)

    def test_oversized_probe_is_refused(self):
        # the final at-most-one block alone is 1500*1499/2 clauses
        identity = Pfa(n=1500, m=1, delta=(tuple(range(1, 1501)),))
        with pytest.raises(BudgetExceeded, match="clauses") as exc:
            min_csw(identity, precheck=False)
        assert exc.value.probes == ()


    def test_table_waits_for_the_size_check(self, monkeypatch):
        def refuse(pfa):
            raise AssertionError("pair table built for an oversized probe")

        monkeypatch.setattr("cswsat.encoder.pair_distances", refuse)
        identity = Pfa(n=1500, m=1, delta=(tuple(range(1, 1501)),))
        with pytest.raises(BudgetExceeded, match="clauses"):
            min_csw(identity, precheck=False)

    def test_pair_group_is_checked_before_building(self):
        # the plain encoding at length 1 fits; one clause per pair that no
        # one letter merges, all but (1445, 1446) here, does not
        shift = Pfa(n=1446, m=1, delta=(tuple(min(q + 1, 1446) for q in range(1, 1447)),))
        with pytest.raises(BudgetExceeded, match="length 1 needs 2092362 clauses") as exc:
            min_csw(shift, precheck=False)
        assert exc.value.probes == ()

    def test_never_merging_pair_is_settled_before_the_gallop(self, monkeypatch):
        # the plain encoding at length 1 fits, so the checked pair table
        # refutes the automaton before any CNF is built, its pair group
        # over the budget or not
        def refuse(*args, **kwargs):
            raise AssertionError("a CNF built for a refuted automaton")

        monkeypatch.setattr("cswsat.search.encode", refuse)
        identity = Pfa(n=1446, m=1, delta=(tuple(range(1, 1447)),))
        out = min_csw(identity, precheck=False)
        assert (out.status, out.probes) == (NOT_SYNCHRONIZING, ())


def _word_model(pfa, word, layout):
    """The assignment a real word induces: its letters, and state j true
    after t steps exactly when j lies in the image of the first t letters."""
    model = {v: False for v in range(1, layout.var_count + 1)}
    current = full_state_set(pfa)
    for t in range(len(word) + 1):
        if t:
            model[layout.letter_var(word[t - 1], t)] = True
            current = image(pfa, current, (word[t - 1],))
        for j in current:
            model[layout.state_var(j, t)] = True
    return model


class TestPairDistanceGroup:
    """Pair- and set-distance clauses must not change SAT/UNSAT at any
    length."""

    @given(pfas(max_n=7, max_m=3))
    @settings(max_examples=60, deadline=None)
    @example(pn(6))
    @example(random_pfa(GenConfig(n=30, seed=1)))
    def test_subset_search_witness_satisfies_strengthened_instance(self, pfa):
        exact = power_bfs(pfa)
        if exact.status != FOUND or exact.min_length == 0:
            return
        distances = DistanceTables(pfa)
        for top in (2, 3, 4):
            groups = [distances.far(k) for k in range(2, top + 1)]
            instance = encode(pfa, exact.min_length, groups)
            assert satisfies(instance, _word_model(pfa, exact.witness, instance.layout))

    # from two states on, a word of length min_length + k exists for all k
    @given(pfas(max_n=7, max_m=3, min_n=2))
    @settings(max_examples=60, deadline=None)
    @example(pn(7))
    @example(FROZEN)
    def test_agrees_with_word_search_at_every_length(self, pfa):
        self._check_every_length(pfa)

    def test_seeded_sweep_with_holes(self):
        for pfa in pfas_with_holes():
            self._check_every_length(pfa)

    @staticmethod
    def _check_every_length(pfa):
        exact = power_bfs(pfa)
        top = exact.min_length + 2 if exact.status == FOUND else 8
        groups = [DistanceTables(pfa).far(k) for k in (2, 3, 4)]
        found = sync_lengths(pfa.n, pfa.delta, pfa.m, top)
        for ell in range(1, top + 1):
            for size in (2, 3, 4):
                instance = encode(pfa, ell, groups[: size - 1])
                result = solve(instance)
                assert (result.status == SAT) == (ell in found)
                assert (result.status == SAT) == (
                    exact.status == FOUND and ell >= exact.min_length
                )
                if result.status == SAT:
                    word = decode_word(result.model, instance.layout)
                    assert is_carefully_synchronizing(pfa, word)


def bindings(name):
    """Every cswsat module that binds `name`: patching them all reaches a
    module's own import too."""
    return [m for k, m in sys.modules.items() if k.startswith("cswsat") and name in vars(m)]


def log_calls(monkeypatch, log, entry, name, *owners):
    """Wrap `name` on each of `owners`, or on all its bindings given none,
    so that each call first appends entry(*args) to `log`."""
    for owner in owners or bindings(name):
        original = getattr(owner, name)

        def logged(*args, original=original):
            log.append(entry(*args))
            return original(*args)

        monkeypatch.setattr(owner, name, logged)


def _probe_sizes(pfa, out, sets=()):
    """Each probe's expected clause count: plain, pair and set groups."""
    pairs = DistanceTables(pfa).far(2)
    return [
        clause_count(pfa.n, pfa.m, p.length)
        + set_clause_count(pairs, p.length)
        + sum(set_clause_count(group, p.length) for group in sets)
        for p in out.probes
    ]


def _descent_sizes(pfa, out, sets=()):
    """The clause counts of an exact bound's two probes: the CNF at the
    minimum, then that CNF plus what the CNF one shorter adds to it."""
    groups = [DistanceTables(pfa).far(2), *sets]
    hi, lo = (encode(pfa, p.length, groups).clauses for p in out.probes)
    return [len(hi), len(hi) + len(set(lo) - set(hi))]


class TestTripleGate:
    """A probe starts with the groups of sets of k = 3, 4, ... states
    while k <= n - 2 and C(n, 3) + ... + C(n, k) is at most its plain
    clause count."""

    def test_short_words_on_wide_automata_keep_the_pair_encoding(self, monkeypatch):
        def refuse(self, k):
            raise AssertionError("set table built for a short probe")

        monkeypatch.setattr(DistanceTables, "_search", refuse)
        pfa = random_pfa(GenConfig(n=30, seed=1))
        out = min_csw(pfa)
        assert out.status == FOUND
        # 4060 triples against at most 1457 plain clauses
        assert all(clause_count(30, pfa.m, p.length) < math.comb(30, 3) for p in out.probes)
        assert [p.clauses for p in out.probes] == _descent_sizes(pfa, out)

    def test_long_words_carry_the_triple_group(self):
        pfa = pn(6)
        out = min_csw(pfa)
        distances = DistanceTables(pfa)
        sets = [distances.far(3), distances.far(4)]
        assert all(set_clause_count(sets[0], p.length) > 0 for p in out.probes)
        assert [p.clauses for p in out.probes] == _descent_sizes(pfa, out, sets)

    def test_long_words_carry_the_four_set_group(self):
        pfa = pn(6)
        out = min_csw(pfa)
        quads = DistanceTables(pfa).far(4)
        assert all(set_clause_count(quads, p.length) > 0 for p in out.probes)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_no_probe_starts_past_two_below_the_state_count(self, n):
        # long words pass every sum of C(n, k), so n - 2 alone stops them
        pfa = pn(n)
        distances = DistanceTables(pfa)
        tops = {len(search._probe_groups(pfa, distances, length)) + 1 for length in range(1, 200)}
        assert max(tops) == max(2, n - 2)

    @pytest.mark.parametrize(
        "pfa",
        [pn(n) for n in range(3, 15)]
        + [random_pfa(GenConfig(n=n, seed=seed)) for n in range(4, 13) for seed in range(6)],
        ids=[f"pn{n}" for n in range(3, 15)]
        + [f"n{n}-s{seed}" for n in range(4, 13) for seed in range(6)],
    )
    def test_starting_tables_fit_the_probe_together(self, monkeypatch, pfa):
        # at every probed length, gallops included, the set tables a probe
        # starts with have no more sets in all than its plain clauses
        starts = []
        original = search._probe_groups

        def logged(pfa, distances, length):
            groups = original(pfa, distances, length)
            starts.append((length, len(groups) + 1))
            return groups

        monkeypatch.setattr(search, "_probe_groups", logged)
        found = power_bfs(pfa).status == FOUND
        for precheck in (True, False) if found and pfa.n < 13 else (True,):
            min_csw(pfa, precheck=precheck)
        assert bool(starts) == found
        for length, top in starts:
            assert top <= max(2, pfa.n - 2)
            tables = sum(math.comb(pfa.n, k) for k in range(3, top + 1))
            assert tables <= clause_count(pfa.n, pfa.m, length)

    @pytest.mark.parametrize("pfa", [C3, pn(4)], ids=["C3", "pn4"])
    def test_short_automata_search_no_set_table(self, monkeypatch, pfa):
        def refuse(self, k):
            raise AssertionError(f"{k}-set table searched")

        monkeypatch.setattr(DistanceTables, "_search", refuse)
        monkeypatch.setattr("cswsat.search.ESCALATE_AFTER", 1)
        for precheck in (True, False):
            assert min_csw(pfa, precheck=precheck).min_length == power_bfs(pfa).min_length

    def test_three_states_are_refuted_by_search(self):
        # with the pair group alone, C3's probe at 3 takes conflicts: no
        # group of the whole state set refutes it at level 0
        sat, unsat = min_csw(C3).probes
        assert [(p.length, p.status) for p in (sat, unsat)] == [(4, SAT), (3, UNSAT)]
        assert unsat.stats.conflicts > 0

    def test_table_is_built_once(self, monkeypatch):
        # one search per set size, the triples' included, over all probes
        calls = []
        log_calls(monkeypatch, calls, lambda self, k: k, "_search", DistanceTables)
        out = min_csw(pn(6), precheck=False)
        assert len(out.probes) > 2
        assert calls == [3, 4]

    def test_pair_list_is_built_once(self, monkeypatch):
        # the pre-check bounds itself, and its bound's list is the probes'
        calls = []
        log_calls(monkeypatch, calls, len, "far_pairs")
        out = min_csw(random_pfa(GenConfig(n=60, seed=0)))
        assert len(out.probes) == 2
        assert calls == [60]

    def test_gate_is_per_probe(self):
        # galloping from length 1: the triple group waits for the first
        # probe whose plain encoding has at least C(10, 3) = 120 clauses,
        # the 4-set group for one with at least C(10, 3) + C(10, 4) = 330,
        # and the 5-set group would need 330 + C(10, 5) = 582
        pfa = random_pfa(GenConfig(n=10, seed=1))
        out = min_csw(pfa, precheck=False)
        distances = DistanceTables(pfa)
        triples, quads = distances.far(3), distances.far(4)
        plain = [clause_count(10, pfa.m, p.length) for p in out.probes]
        assert plain[0] < 120 <= plain[-1] < 330 <= max(plain) < 582
        # C(10, 4) = 210 alone would have let the 4-set group in here
        assert any(210 <= count < 330 for count in plain)
        assert [p.clauses for p in out.probes] == [
            size
            + (set_clause_count(triples, p.length) if count >= 120 else 0)
            + (set_clause_count(quads, p.length) if count >= 330 else 0)
            for p, size, count in zip(out.probes, _probe_sizes(pfa, out), plain)
        ]

    def test_tables_grow_with_the_gate(self, monkeypatch):
        # the probe at 4 builds the triple list, the one at 16 the 4-set
        # list by resuming that search: the triples are searched once
        events = []
        log_calls(monkeypatch, events, lambda self, k: k, "_search", DistanceTables)
        log_calls(monkeypatch, events, lambda pfa, length, groups: f"probe {length}", "encode", search)
        min_csw(random_pfa(GenConfig(n=10, seed=1)), precheck=False)
        assert events[:7] == ["probe 1", "probe 2", 3, "probe 4", "probe 8", 4, "probe 16"]
        assert all(isinstance(event, str) for event in events[7:])


class TestEscalation:
    """A probe on the built-in engine takes the next set size's group at
    level 0 after each ESCALATE_AFTER conflicts of its own, for sizes up
    to n - 2 states that pass the C(n, k) gate."""

    def test_hard_probe_takes_the_five_and_six_set_groups(self, monkeypatch):
        # random n=8 seed 10's probe at 7 starts with the triples and the
        # 4-set group, 56 + 70 sets against 162 plain clauses, and at a
        # limit of 1 takes the 5- and 6-set groups after 1 and 2 conflicts
        monkeypatch.setattr("cswsat.search.ESCALATE_AFTER", 1)
        pfa = random_pfa(GenConfig(n=8, seed=10))
        out = min_csw(pfa)
        assert [p.escalations for p in out.probes] == [((1, 5), (2, 6)), ()]
        groups = [DistanceTables(pfa).far(k) for k in range(2, 7)]
        sat, unsat = out.probes
        assert sat.clauses == clause_count(8, pfa.m, 7) + sum(
            set_clause_count(group, 7) for group in groups
        )
        # the probe below takes every group the engine holds down to 54
        hi, lo = (set(encode(pfa, p.length, groups).clauses) for p in out.probes)
        assert unsat.clauses == sat.clauses + len(lo - hi)

    def test_sizes_stop_two_below_the_state_count(self, monkeypatch):
        # pn(7)'s probe at 39 starts with sizes up to 5 and needs 7
        # conflicts; even at a limit of 1, 6 states would be n - 1
        monkeypatch.setattr("cswsat.search.ESCALATE_AFTER", 1)
        out = min_csw(pn(7))
        assert out.probes[0].stats.conflicts == 7
        assert [p.escalations for p in out.probes] == [(), ()]

    def test_sizes_run_up_to_two_below_the_state_count(self):
        # pn(13)'s hard probe starts with sizes up to 6 and takes every
        # size up to 11 = n - 2, and no more: it needs 193 conflicts
        out = min_csw(pn(13))
        assert out.min_length == 168
        assert out.probes[0].stats.conflicts > 6 * search.ESCALATE_AFTER
        assert [p.escalations for p in out.probes] == [
            ((32, 7), (64, 8), (96, 9), (128, 10), (160, 11)),
            (),
        ]

    @pytest.mark.parametrize(
        "pfa, after, records",
        [
            (
                pn(12),
                32,
                [
                    (141, SAT, 13015, 94, 542, 3794, 0, ((32, 9), (64, 10))),
                    (140, UNSAT, 16027, 0, 0, 0, 0, ()),
                ],
            ),
            (
                pn(13),
                32,
                [
                    (
                        *(168, SAT, 21185, 193, 1095, 9241, 1),
                        ((32, 7), (64, 8), (96, 9), (128, 10), (160, 11)),
                    ),
                    (167, UNSAT, 27232, 0, 0, 0, 0, ()),
                ],
            ),
            (
                random_pfa(GenConfig(n=8, seed=10)),
                1,
                [
                    (7, SAT, 258, 5, 25, 103, 0, ((1, 5), (2, 6))),
                    (6, UNSAT, 312, 0, 0, 0, 0, ()),
                ],
            ),
        ],
        ids=["pn-12", "pn-13", "random-n8-s10-after-1"],
    )
    def test_escalating_probes_are_pinned(self, monkeypatch, pfa, after, records):
        # each probe's counts run over all its paused and resumed solves;
        # pn(13)'s probe at 168 restarts once across its pauses
        monkeypatch.setattr("cswsat.search.ESCALATE_AFTER", after)
        out = min_csw(pfa)
        assert [
            (
                p.length,
                p.status,
                p.clauses,
                p.stats.conflicts,
                p.stats.decisions,
                p.stats.propagations,
                p.stats.restarts,
                p.escalations,
            )
            for p in out.probes
        ] == records

    def test_probes_past_the_table_gate_never_pause(self, monkeypatch):
        # C(30, 3) = 4060 sets against at most 3,055 clauses
        pauses = []
        original = Session.solve

        def logged(self, pause=None):
            pauses.append(pause)
            return original(self, pause)

        monkeypatch.setattr(Session, "solve", logged)
        out = min_csw(random_pfa(GenConfig(n=30, seed=9)))
        assert pauses == [None, None]
        assert [p.escalations for p in out.probes] == [(), ()]

    def test_escalating_at_every_conflict_keeps_the_answers(self, monkeypatch):
        # with a limit of 1, about a quarter of these runs escalate, gallops
        # included; every answer still matches subset search
        monkeypatch.setattr("cswsat.search.ESCALATE_AFTER", 1)
        escalated = 0
        for n in (7, 8, 9, 10, 11):
            for seed in range(15):
                pfa = random_pfa(GenConfig(n=n, seed=seed))
                exact = power_bfs(pfa)
                for precheck in (True, False) if exact.status == FOUND else (True,):
                    out = min_csw(pfa, precheck=precheck)
                    assert (out.status, out.min_length) == (exact.status, exact.min_length)
                    assert all(k <= n - 2 for p in out.probes for _, k in p.escalations)
                    escalated += any(p.escalations for p in out.probes)
        assert escalated >= 30

    def test_warm_probe_escalates_further(self, monkeypatch):
        # descending from a word two letters too long with a limit of 100,
        # the 9-set group joins the first probe, at 143, and the 10-set
        # group the probe at 142 on the same engine
        pfa = pn(12)
        monkeypatch.setattr("cswsat.search.ESCALATE_AFTER", 100)
        monkeypatch.setattr("cswsat.search.power_bfs", _overrun_two_letters_long)
        out = min_csw(pfa)
        assert (out.status, out.min_length) == (FOUND, 141)
        assert [(p.length, p.status, p.escalations) for p in out.probes] == [
            (143, SAT, ((100, 9),)),
            (142, SAT, ((100, 10),)),
            (141, SAT, ()),
            (140, UNSAT, ()),
            (141, SAT, ((100, 9),)),
        ]
        distances = DistanceTables(pfa)
        groups = [distances.far(k) for k in range(2, 10)]
        hi, lo = (set(encode(pfa, length, groups).clauses) for length in (143, 142))
        assert out.probes[1].clauses == out.probes[0].clauses + len(lo - hi) + set_clause_count(
            distances.far(10), 142
        )

    def test_warm_group_over_the_clause_budget_stays_out(self, monkeypatch):
        # the engine holds 12,848 clauses from its build, 13,018 with the
        # 9-set group and 16,004 once taken down to 142; the 10-set group's
        # 49 would take it to 16,053, one over the budget, so it stays out,
        # and the probe at 141 is refused
        monkeypatch.setattr("cswsat.search.ESCALATE_AFTER", 100)
        monkeypatch.setattr("cswsat.search.power_bfs", _overrun_two_letters_long)
        monkeypatch.setattr("cswsat.encoder.MAX_CLAUSES", 16052)
        with pytest.raises(BudgetExceeded, match="length 141 needs 18990 clauses") as exc:
            min_csw(pn(12))
        assert [(p.length, p.status, p.clauses, p.escalations) for p in exc.value.probes] == [
            (143, SAT, 13018, ((100, 9),)),
            (142, SAT, 16004, ()),
        ]


def _overrun_two_letters_long(pfa, *args, **kwargs):
    """A `power_bfs` that overruns with its word two letters too long."""
    exc = BudgetExceeded("subset budget exceeded")
    exc.word = power_bfs(pfa).witness + (1, 1)
    raise exc


class TestBeyondSixtyFourStates:
    def test_identity_is_refuted_without_probing(self):
        out = min_csw(Pfa(n=70, m=1, delta=(tuple(range(1, 71)),)))
        assert (out.status, out.probes, out.visited) == (NOT_SYNCHRONIZING, (), 1)

    @pytest.mark.parametrize("seed", [1, 4])
    def test_random_draws_are_refuted_without_probing(self, seed):
        out = min_csw(random_pfa(GenConfig(n=100, seed=seed)))
        assert (out.status, out.probes) == (NOT_SYNCHRONIZING, ())


class TestAgainstSubsetSearch:
    @given(pfas(max_n=6, max_m=3))
    @settings(max_examples=60)
    def test_agrees_with_exact_reachability(self, pfa):
        exact = power_bfs(pfa)
        out = min_csw(pfa, max_length=64)
        assert out.status == exact.status
        if exact.status == FOUND:
            assert out.min_length == exact.min_length
            assert is_carefully_synchronizing(pfa, out.witness)

    def test_chain_family_matches(self):
        for n in range(4, 13):
            pfa = pn(n)
            out = min_csw(pfa)
            assert out.min_length == power_bfs(pfa).min_length
        # pn(12)'s first probe starts with sizes 3 to 8, C(12, 3) + ...
        # + C(12, 8) = 3,718 sets within its 3,744 plain clauses (3,938
        # with 9), and takes 9 and 10 = n - 2 by escalation
        assert len(search._probe_groups(pfa, DistanceTables(pfa), 141)) + 1 == 8
        assert [k for _, k in out.probes[0].escalations] == [9, 10]


def _exhausted(pfa, *args, **kwargs):
    raise BudgetExceeded("subset budget exceeded")


def _exhausted_with_beam_word(pfa, *args, **kwargs):
    exc = BudgetExceeded("subset budget exceeded")
    exc.word = _beam(pfa, _letter_actions(pfa), 1024)
    raise exc


# pn(8) by gallop and bisection: 1..32 UNSAT, 64 SAT, then down to 55
PN8_GALLOP = [(length, UNSAT) for length in (1, 2, 4, 8, 16, 32)] + [
    (64, SAT), (48, UNSAT), (56, SAT), (52, UNSAT), (54, UNSAT), (55, SAT)
]


class TestProbeSchedule:
    """Three ways to the first probe length must reach the same answer."""

    @given(pfas(max_n=6, max_m=3, min_n=2))
    @settings(max_examples=60, deadline=None)
    @example(pn(6))
    @example(C3)
    def test_bound_paths_agree_with_gallop(self, pfa):
        exact = power_bfs(pfa)
        if exact.status != FOUND:
            return
        exact_path = min_csw(pfa)
        with mock.patch("cswsat.search.power_bfs", _exhausted_with_beam_word):
            beam_path = min_csw(pfa)
        gallop_path = min_csw(pfa, precheck=False)
        assert exact_path.upper_bound_source == POWER_BFS
        assert beam_path.upper_bound_source == BEAM
        assert gallop_path.upper_bound_source is None
        outcomes = (exact_path, beam_path, gallop_path)
        answers = {(out.status, out.min_length, out.witness) for out in outcomes}
        assert answers == {(FOUND, exact.min_length, exact_path.witness)}
        for out in outcomes:
            record = {(p.length, p.status) for p in out.probes}
            assert (out.min_length, SAT) in record
            if out.min_length >= 2:
                assert (out.min_length - 1, UNSAT) in record

    def test_beam_bound_when_subset_search_runs_out(self, monkeypatch):
        monkeypatch.setattr("cswsat.search.power_bfs", _exhausted_with_beam_word)
        out = min_csw(pn(6))
        assert out.upper_bound_source == BEAM
        assert (out.status, out.min_length) == (FOUND, 26)
        assert [(p.length, p.status) for p in out.probes] == [(26, SAT), (25, UNSAT)]

    def test_capped_entry_descends_from_max_length(self, monkeypatch):
        # a known word longer than max_length, with max_length satisfiable:
        # the descent starts with a probe at max_length, not at the word
        def overrun(pfa, *args, **kwargs):
            exc = BudgetExceeded("subset budget exceeded")
            exc.word = power_bfs(pfa).witness + (1,) * 4  # letter 1 is total
            raise exc

        exact_path = min_csw(pn(6))
        monkeypatch.setattr("cswsat.search.power_bfs", overrun)
        out = min_csw(pn(6), max_length=28)
        assert (out.status, out.min_length, out.upper_bound_source) == (FOUND, 26, BEAM)
        assert [(p.length, p.status) for p in out.probes] == [
            (28, SAT), (27, SAT), (26, SAT), (25, UNSAT), (26, SAT)
        ]
        assert out.witness == exact_path.witness

    @pytest.mark.parametrize(
        "stages, widths",
        [
            # both beams run at the first layer; the overrun's word is the
            # bound, with no third beam
            (((0, 64), (0, 1024)), [64, 1024]),
            # pn(8)'s layers pass no default trigger: no beam runs, and the
            # overrun carries no word, so the probes gallop
            (oracle.BOUND_STAGES, []),
        ],
    )
    def test_overrun_bound_runs_each_beam_once(self, monkeypatch, stages, widths):
        ran = []

        def counted(pfa, actions, width):
            ran.append(width)
            return _beam(pfa, actions, width)

        monkeypatch.setattr("cswsat.oracle.BOUND_STAGES", stages)
        monkeypatch.setattr("cswsat.oracle._beam", counted)
        monkeypatch.setattr(
            "cswsat.search.power_bfs",
            lambda pfa, **kwargs: power_bfs(pfa, max_visited=50, **kwargs),
        )
        out = min_csw(pn(8))
        source, schedule = (BEAM, [(55, SAT), (54, UNSAT)]) if widths else (None, PN8_GALLOP)
        assert (out.upper_bound_source, out.min_length) == (source, 55)
        assert [(p.length, p.status) for p in out.probes] == schedule
        assert ran == widths

    def test_overrun_without_a_word_gallops(self, monkeypatch):
        def refuse(pfa, *args, **kwargs):
            raise AssertionError("a beam ran after the pre-check")

        monkeypatch.setattr("cswsat.search.power_bfs", _exhausted)
        monkeypatch.setattr("cswsat.oracle._beam", refuse)
        out = min_csw(pn(8))
        assert out.upper_bound_source is None
        assert (out.status, out.min_length) == (FOUND, 55)
        assert [(p.length, p.status) for p in out.probes] == PN8_GALLOP

    def test_no_precheck_skips_both_bounds(self, monkeypatch):
        def refuse(pfa, *args, **kwargs):
            raise AssertionError("pre-check ran with precheck=False")

        monkeypatch.setattr("cswsat.search.power_bfs", refuse)
        monkeypatch.setattr("cswsat.oracle._beam", refuse)
        out = min_csw(pn(5), precheck=False)
        assert (out.min_length, out.upper_bound_source) == (15, None)

    @pytest.mark.parametrize("offset", [1, -1])
    def test_wrong_exact_length_is_a_fault(self, monkeypatch, tmp_path, capsys, offset):
        def misreport(pfa, *args, **kwargs):
            out = power_bfs(pfa, *args, **kwargs)
            return dataclasses.replace(out, min_length=out.min_length + offset)

        monkeypatch.setattr("cswsat.search.power_bfs", misreport)
        with pytest.raises(ModelVerificationError):
            min_csw(C3)
        path = tmp_path / "c3.txt"
        path.write_text(serialize_pfa(C3))
        assert main(["min", str(path)]) == EXIT_FAULT
        assert "error" in capsys.readouterr().err


class TestDistanceTableCheck:
    """min_csw's distance tables are each checked once by their defining
    equation before a probe or the pre-check's bound uses them; a wrong
    entry is a fault (exit 3)."""

    @staticmethod
    def _run_cli(tmp_path, capsys, pfa):
        path = tmp_path / "pfa.txt"
        path.write_text(serialize_pfa(pfa))
        code = main(["min", str(path)])
        return code, capsys.readouterr().err

    def test_corrupt_pair_entry_is_a_fault(self, monkeypatch, tmp_path, capsys):
        def corrupt(pfa):
            dist = pair_distances(pfa)
            dist[0][1] = dist[1][0] = dist[0][1] + 1
            return dist

        monkeypatch.setattr("cswsat.encoder.pair_distances", corrupt)
        code, err = self._run_cli(tmp_path, capsys, pn(6))
        assert code == EXIT_FAULT
        assert "distance of states (1, 2)" in err

    @pytest.mark.parametrize("size", [3, 4])
    def test_corrupt_set_entry_is_a_fault(self, monkeypatch, tmp_path, capsys, size):
        def corrupt(self, k):
            search_sets(self, k)
            if k == size:
                # one settled set of `size` states, as its states' primes
                states = settled_sets(self, k)[0]
                self._settled[math.prod(states)] += 1

        search_sets = DistanceTables._search
        monkeypatch.setattr(DistanceTables, "_search", corrupt)
        code, err = self._run_cli(tmp_path, capsys, pn(6))
        assert code == EXIT_FAULT
        assert "defining equation" in err

    def test_each_table_is_checked_once(self, monkeypatch):
        # pairs, triples and 4-sets, each once over the whole gallop
        calls = []
        log_calls(monkeypatch, calls, lambda pfa, dist: 2, "check_distances")
        log_calls(monkeypatch, calls, lambda self, k: k, "_check", DistanceTables)
        min_csw(random_pfa(GenConfig(n=10, seed=1)), precheck=False)
        assert calls == [2, 3, 4]

    def test_precheck_table_is_the_probes_table(self, monkeypatch):
        # the pre-check bounds itself on this draw: its bound and the
        # probes read one pair table, built once and checked once
        builds, checks = [], []
        log_calls(monkeypatch, builds, lambda pfa: pfa.n, "pair_distances")
        log_calls(monkeypatch, checks, lambda pfa, *tables: pfa.n, "check_distances")
        bounds = []
        log_calls(monkeypatch, bounds, lambda *args: "bound", "__init__", oracle._PairBound)
        out = min_csw(random_pfa(GenConfig(n=60, seed=0)))
        assert (bounds, len(out.probes)) == (["bound"], 2)
        assert builds == checks == [60]


class RunOnly:
    """A backend with nothing but `run`: it solves each CNF it is handed
    with the built-in solver and keeps it."""

    def __init__(self):
        self.instances = []

    def run(self, instance):
        self.instances.append(instance)
        return solve(instance)


def _own_cnf(pfa, length):
    """The CNF a probe of `length` builds: the encoding with its length's groups."""
    return encode(pfa, length, search._probe_groups(pfa, DistanceTables(pfa), length))


class TestExternalBackend:
    def test_external_solver_drives_search(self, tmp_path):
        cmd = shim_command(tmp_path, SHIM_STDIN, "stdin_solver")
        backend = Backend(command=cmd)
        out = min_csw(pn(5), backend=backend)
        assert out.min_length == min_csw(pn(5)).min_length
        assert is_carefully_synchronizing(pn(5), out.witness)
        # an external solver keeps no engine: the probe below is its own CNF
        assert [(p.length, p.status, p.clauses) for p in out.probes] == [
            (15, SAT, _own_cnf(pn(5), 15).clause_count),
            (14, UNSAT, _own_cnf(pn(5), 14).clause_count),
        ]

    def test_run_only_backend_never_escalates(self):
        # the built-in engine's probe at 55 takes the 5- and 6-set groups
        backend = RunOnly()
        out = min_csw(pn(8), backend=backend)
        assert [instance.clauses for instance in backend.instances] == [
            _own_cnf(pn(8), length).clauses for length in (55, 54)
        ]
        assert [(p.length, p.status, p.escalations) for p in out.probes] == [
            (55, SAT, ()),
            (54, UNSAT, ()),
        ]

    @pytest.mark.parametrize(
        "pfa", [pn(6), random_pfa(GenConfig(n=30, seed=9)), random_pfa(GenConfig(n=60, seed=1))]
    )
    def test_run_only_backend_gets_each_length_its_own_cnf(self, pfa):
        backend = RunOnly()
        out = min_csw(pfa, backend=backend)
        builtin = min_csw(pfa)
        assert (out.status, out.min_length, out.witness) == (
            builtin.status,
            builtin.min_length,
            builtin.witness,
        )
        assert [instance.clauses for instance in backend.instances] == [
            _own_cnf(pfa, length).clauses for length in (out.min_length, out.min_length - 1)
        ]
        assert [(p.length, p.status) for p in out.probes] == [
            (out.min_length, SAT),
            (out.min_length - 1, UNSAT),
        ]
