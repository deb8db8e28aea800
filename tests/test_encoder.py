import hashlib
import math
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cswsat.automaton import Pfa, full_state_set, image, is_carefully_synchronizing
from cswsat.encoder import (
    MAX_CLAUSES,
    CnfInstance,
    DecodeError,
    DimacsError,
    DistanceTables,
    VarLayout,
    check_distances,
    clause_count,
    decode_word,
    encode,
    far_pairs,
    layout_comment,
    pair_distances,
    parse_dimacs,
    set_clause_count,
    set_clauses,
    to_dimacs,
    variable_count,
)
from cswsat.generators import GenConfig, pn, random_pfa
from cswsat.search import _probe_groups, min_csw
from cswsat.solver import BudgetExceeded, ModelVerificationError, Session, solve

from helpers import (
    brute_force_models,
    eval_clauses,
    merge_distance,
    pfas,
    pfas_with_holes,
    shortest_sync_word,
)

A1 = Pfa(n=2, m=2, delta=((1, 1), (2, None)))


class TestLayout:
    def test_concrete_rule(self):
        lay = VarLayout(n=2, m=2, ell=1)
        assert [lay.state_var(j, 0) for j in (1, 2)] == [1, 2]
        assert [lay.letter_var(i, 1) for i in (1, 2)] == [3, 4]
        assert [lay.state_var(j, 1) for j in (1, 2)] == [5, 6]

    @given(st.integers(1, 5), st.integers(1, 4), st.integers(1, 5))
    def test_bijection_onto_variable_range(self, n, m, ell):
        lay = VarLayout(n=n, m=m, ell=ell)
        seen = [lay.state_var(j, 0) for j in range(1, n + 1)]
        for t in range(1, ell + 1):
            seen.extend(lay.letter_var(i, t) for i in range(1, m + 1))
            seen.extend(lay.state_var(j, t) for j in range(1, n + 1))
        assert sorted(seen) == list(range(1, (m + n) * ell + n + 1))
        assert lay.var_count == variable_count(n, m, ell)


class TestEncode:
    def test_small_instance_counts(self):
        inst = encode(A1, 1)
        assert inst.var_count == 6
        assert inst.clause_count == 9

    def test_two_step_counts(self):
        inst = encode(A1, 2)
        assert inst.var_count == 10
        assert inst.clause_count == 15

    def test_exact_clause_list(self):
        # Hand-checked against the construction: unit clauses for step 0,
        # exactly-one letter, the four transition clauses in (state, letter)
        # order with the undefined (2, b) pair as a veto, final at-most-one.
        inst = encode(A1, 1)
        assert list(inst.clauses) == [
            (1,),
            (2,),
            (3, 4),
            (-3, -4),
            (-1, -3, 5),
            (-1, -4, 6),
            (-2, -3, 5),
            (-2, -4),
            (-5, -6),
        ]

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            encode(A1, 0)

    def test_size_budget(self):
        # 1447 states at length 1 need 1,049,076 clauses, just over the budget
        assert clause_count(1447, 1, 1) > MAX_CLAUSES >= clause_count(1446, 1, 1)
        identity = Pfa(n=1447, m=1, delta=(tuple(range(1, 1448)),))
        with pytest.raises(BudgetExceeded, match="1049076 clauses"):
            encode(identity, 1)

    def test_miscount_is_a_fault(self, monkeypatch):
        # the closed-form check must survive `python -O`, so it is no assert
        monkeypatch.setattr("cswsat.encoder.clause_count", lambda n, m, ell: -1)
        with pytest.raises(ModelVerificationError, match="closed form"):
            encode(A1, 2)

    @pytest.mark.parametrize(
        "pfa, ell, k, digest",
        [
            # random n=60 seed 0 at its first probe length, pair group only
            (
                random_pfa(GenConfig(n=60, seed=0)),
                17,
                2,
                "ae6e59e5b9264da7becb9cd88021ea609d958669d52ce27003fa9df91cef1cb3",
            ),
            # pn(8) at its UNSAT probe, with the 3- and 4-set groups
            (pn(8), 54, 4, "279744f8f110182997d18d5b86bd3109a290fef69a65ea9571b584355351e6c0"),
        ],
    )
    def test_dimacs_digest_is_pinned(self, pfa, ell, k, digest):
        """Digests of two instances with thousands of clauses and every
        group: a change to the encoder's variable arithmetic or emission
        order moves them."""
        text = to_dimacs(encode(pfa, ell, _groups(pfa, k)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @given(pfas(max_n=8, max_m=8), st.integers(1, 6))
    @settings(max_examples=60)
    def test_counts_match_closed_forms(self, pfa, ell):
        inst = encode(pfa, ell)
        n, m = pfa.n, pfa.m
        assert inst.var_count == (m + n) * ell + n
        assert inst.clause_count == ell * (m * (m - 1) // 2 + m * n + 1) + n * (n + 1) // 2

    @given(pfas(max_n=5, max_m=4), st.integers(1, 4))
    def test_transition_block_shape(self, pfa, ell):
        """Each (step, state, letter) triple yields exactly one transition
        clause: an implication when defined, a two-literal veto when not."""
        inst = encode(pfa, ell)
        lay = inst.layout
        n, m = pfa.n, pfa.m
        per_step = m * (m - 1) // 2 + 1 + m * n
        for t in range(1, ell + 1):
            block_start = n + (t - 1) * per_step + (m * (m - 1) // 2 + 1)
            idx = block_start
            for j in range(1, n + 1):
                for i in range(1, m + 1):
                    clause = inst.clauses[idx]
                    k = pfa.delta[i - 1][j - 1]
                    expected = (-lay.state_var(j, t - 1), -lay.letter_var(i, t))
                    if k is not None:
                        expected = expected + (lay.state_var(k, t),)
                    assert clause == expected
                    idx += 1


class TestRoundTrip:
    def test_unique_model_of_small_instance(self):
        inst = encode(A1, 1)
        words = set()
        for model in brute_force_models(inst.var_count, inst.clauses):
            words.add(decode_word(model, inst.layout))
        assert words == {(1,)}

    @given(pfas(max_n=4, max_m=3), st.integers(1, 2))
    @settings(max_examples=40)
    def test_every_model_decodes_to_synchronizing_word(self, pfa, ell):
        inst = encode(pfa, ell)
        if inst.var_count > 14:
            return
        for model in brute_force_models(inst.var_count, inst.clauses):
            word = decode_word(model, inst.layout)
            assert is_carefully_synchronizing(pfa, word)

    @given(pfas(max_n=4, max_m=3))
    @settings(max_examples=60)
    def test_synchronizing_word_yields_model(self, pfa):
        """Build the assignment straight off a synchronizing word: letters
        as written, a state variable true at step t exactly when the state
        lies in the image of the prefix. That assignment must satisfy the
        instance."""
        word = shortest_sync_word(pfa.n, pfa.delta, pfa.m, max_len=10)
        if word is None or len(word) == 0:
            return
        ell = len(word)
        inst = encode(pfa, ell)
        lay = inst.layout
        assignment = {v: False for v in range(1, inst.var_count + 1)}
        for t, a in enumerate(word, start=1):
            assignment[lay.letter_var(a, t)] = True
        current = full_state_set(pfa)
        for j in current:
            assignment[lay.state_var(j, 0)] = True
        for t, a in enumerate(word, start=1):
            current = image(pfa, current, (a,))
            for j in current:
                assignment[lay.state_var(j, t)] = True
        assert eval_clauses(inst.clauses, assignment)

    @given(pfas(max_n=4, max_m=3), st.integers(1, 3))
    @settings(max_examples=40)
    def test_unsatisfiable_when_no_word_of_that_length(self, pfa, ell):
        if variable_count(pfa.n, pfa.m, ell) > 14:
            return
        inst = encode(pfa, ell)
        has_word = any(
            is_carefully_synchronizing(pfa, w)
            for w in _words_of_length(pfa.m, ell)
        )
        has_model = any(True for _ in brute_force_models(inst.var_count, inst.clauses))
        assert has_model == has_word


def _words_of_length(m, ell):
    if ell == 0:
        yield ()
        return
    for prefix in _words_of_length(m, ell - 1):
        for a in range(1, m + 1):
            yield prefix + (a,)


# each pair merges under one letter, but no letter is defined on all three
PAIRWISE = Pfa(n=3, m=3, delta=((1, 1, None), (None, 2, 2), (1, None, 1)))


def _merging_below(n):
    """n states that merge in one letter whenever one state is left out,
    since letter a sends all but state n + 1 - a to one state, but no
    letter is defined on all n."""
    return Pfa(
        n=n,
        m=n,
        delta=tuple(
            tuple(None if q == n + 1 - a else 1 + (a == n) for q in range(1, n + 1))
            for a in range(1, n + 1)
        ),
    )


# each triple merges under one letter, but no letter is defined on all
# four states
TRIPLEWISE = _merging_below(4)


def _set_table(pfa, size):
    """Brute force: {states: (D, inner)} over every set of `size` states."""
    table = {}
    for states in combinations(range(1, pfa.n + 1), size):
        inner = max(merge_distance(pfa.delta, *sub) for sub in combinations(states, size - 1))
        table[states] = (merge_distance(pfa.delta, *states), inner)
    return table


def _groups(pfa, size):
    """The distance lists for sets of 2..size states."""
    distances = DistanceTables(pfa)
    return [distances.far(k) for k in range(2, size + 1)]


class _SetDistanceChecks:
    """The distance list and group for sets of SIZE states, against a
    forward search over plain sets."""

    SIZE = 3

    def _check_table(self, pfa):
        far = _groups(pfa, self.SIZE)[-1]
        assert [D for D, *_ in far] == sorted((D for D, *_ in far), reverse=True)
        kept = {tuple(states): (D, inner) for D, inner, *states in far}
        assert len(kept) == len(far)
        for states, (D, inner) in _set_table(pfa, self.SIZE).items():
            # merging a set merges each subset inside
            assert D >= inner
            if D > inner:
                assert kept[states] == (D, inner)
            else:
                assert states not in kept

    def _check_group(self, pfa, ell, table):
        groups = _groups(pfa, self.SIZE)
        lay = VarLayout(n=pfa.n, m=pfa.m, ell=ell)
        group = set_clauses(groups[-1], lay)
        expected = {
            tuple(-lay.state_var(j, t) for j in states)
            for t in range(ell)
            for states, (D, inner) in table.items()
            if inner <= ell - t < D
        }
        assert set(group) == expected
        assert len(group) == len(expected) == set_clause_count(groups[-1], ell)
        inst = encode(pfa, ell, groups)
        # appended after the smaller sets' groups, which come after the
        # plain encoding
        assert inst.clauses == encode(pfa, ell, groups[:-1]).clauses + tuple(group)


class TestPairDistances(_SetDistanceChecks):
    SIZE = 2

    @given(pfas(max_n=7, max_m=3))
    @settings(max_examples=150)
    # a hole stops the only letter that would merge 1 and 2
    @example(Pfa(n=3, m=2, delta=((2, 2, None), (2, 3, 1))))
    # identity letters: no pair ever merges
    @example(Pfa(n=3, m=2, delta=((1, 2, 3), (1, 2, 3))))
    # letter a is everywhere undefined
    @example(Pfa(n=2, m=2, delta=((None, None), (2, 1))))
    def test_matches_plain_set_pair_search(self, pfa):
        dist = pair_distances(pfa)
        for p in range(1, pfa.n + 1):
            for q in range(1, pfa.n + 1):
                assert dist[p - 1][q - 1] == merge_distance(pfa.delta, p, q)

    def test_chain_of_merges(self):
        # a sends 1 and 2 to 1 and each later state one place down; b
        # merges 1 and 2 as well but fixes 3 and 4
        pfa = Pfa(n=4, m=2, delta=((1, 1, 2, 3), (1, 1, 3, 4)))
        dist = pair_distances(pfa)
        assert [dist[0][q] for q in range(4)] == [0, 1, 2, 3]
        assert dist[2][3] == 3

    def test_never_merging_pairs_are_infinite(self):
        dist = pair_distances(random_pfa(GenConfig(n=30, seed=3)))
        assert sum(1 for p in range(30) for q in range(p + 1, 30) if dist[p][q] == math.inf) == 20

    @given(pfas(max_n=6, max_m=3))
    @settings(max_examples=40)
    def test_far_pairs_lists_every_pair_farthest_first(self, pfa):
        dist = pair_distances(pfa)
        far = far_pairs(dist)
        assert sorted((p, q) for _, _, p, q in far) == list(combinations(range(1, pfa.n + 1), 2))
        # single states merge at distance 0
        assert all(d == dist[p - 1][q - 1] and inner == 0 for d, inner, p, q in far)
        assert [d for d, *_ in far] == sorted((d for d, *_ in far), reverse=True)

    @given(pfas(max_n=6, max_m=3), st.integers(1, 30))
    @settings(max_examples=80, deadline=None)
    @example(Pfa(n=3, m=2, delta=((2, 2, None), (2, 3, 1))), 5)
    @example(pn(6), 26)
    def test_group_matches_closed_form(self, pfa, ell):
        self._check_group(pfa, ell, _set_table(pfa, 2))

    @given(pfas(max_n=6, max_m=3), st.integers(1, 8))
    @settings(max_examples=80)
    def test_group_count_matches_closed_form(self, pfa, ell):
        pairs = far_pairs(pair_distances(pfa))
        group = set_clauses(pairs, VarLayout(n=pfa.n, m=pfa.m, ell=ell))
        closed = sum(
            min(ell, merge_distance(pfa.delta, p, q) - 1)
            for p in range(1, pfa.n + 1)
            for q in range(p + 1, pfa.n + 1)
        )
        assert len(group) == set_clause_count(pairs, ell) == closed
        assert len(set(group)) == len(group)
        inst = encode(pfa, ell, [pairs])
        assert inst.clause_count == clause_count(pfa.n, pfa.m, ell) + len(group)
        # the plain encoding comes first, unchanged
        assert inst.clauses == encode(pfa, ell).clauses + tuple(group)

    @given(pfas(max_n=6, max_m=3), st.integers(1, 8))
    @settings(max_examples=60)
    def test_group_forbids_exactly_the_far_pairs(self, pfa, ell):
        lay = VarLayout(n=pfa.n, m=pfa.m, ell=ell)
        expected = {
            (-lay.state_var(p, t), -lay.state_var(q, t))
            for t in range(ell)
            for p in range(1, pfa.n + 1)
            for q in range(p + 1, pfa.n + 1)
            if merge_distance(pfa.delta, p, q) > ell - t
        }
        assert set(set_clauses(far_pairs(pair_distances(pfa)), lay)) == expected

    def test_group_counts_toward_the_budget(self):
        # 20 pairs never merge: 16384 * 20 more clauses push length 16384 over
        pfa = random_pfa(GenConfig(n=30, seed=3))
        assert clause_count(30, pfa.m, 16384) <= MAX_CLAUSES
        with pytest.raises(BudgetExceeded, match="length 16384 needs 1345026 clauses"):
            encode(pfa, 16384, [far_pairs(pair_distances(pfa))])


class TestTripleDistances(_SetDistanceChecks):
    @given(pfas(max_n=7, max_m=3))
    @settings(max_examples=150, deadline=None)
    @example(PAIRWISE)
    # identity letters: nothing ever merges
    @example(Pfa(n=3, m=2, delta=((1, 2, 3), (1, 2, 3))))
    def test_matches_plain_set_triple_search(self, pfa):
        self._check_table(pfa)

    def test_matches_on_the_holes_sweep(self):
        for pfa in pfas_with_holes():
            self._check_table(pfa)

    def test_pairwise_merging_triple_is_infinite(self):
        triples = _groups(PAIRWISE, 3)[-1]
        assert triples == [(math.inf, 1, 1, 2, 3)]
        lay = VarLayout(n=3, m=3, ell=4)
        assert set_clauses(triples, lay) == [
            (-lay.state_var(1, t), -lay.state_var(2, t), -lay.state_var(3, t)) for t in range(4)
        ]

    @given(pfas(max_n=6, max_m=3), st.integers(1, 30))
    @settings(max_examples=80, deadline=None)
    @example(PAIRWISE, 5)
    @example(pn(6), 26)
    def test_group_matches_closed_form(self, pfa, ell):
        self._check_group(pfa, ell, _set_table(pfa, 3))

    def test_group_on_the_holes_sweep(self):
        for pfa in pfas_with_holes():
            table = _set_table(pfa, 3)
            for ell in range(1, 9):
                self._check_group(pfa, ell, table)

    def test_group_counts_toward_the_budget(self, monkeypatch):
        pairs, triples = _groups(PAIRWISE, 3)
        ell = 1000
        size = clause_count(3, 3, ell) + set_clause_count(pairs, ell)
        monkeypatch.setattr("cswsat.encoder.MAX_CLAUSES", size)
        encode(PAIRWISE, ell, [pairs])
        with pytest.raises(BudgetExceeded, match=f"needs {size + ell} clauses"):
            encode(PAIRWISE, ell, [pairs, triples])

    def test_miscount_is_a_fault(self, monkeypatch):
        groups = _groups(PAIRWISE, 3)
        monkeypatch.setattr("cswsat.encoder.set_clause_count", lambda sets, ell: 0)
        with pytest.raises(ModelVerificationError, match="closed form"):
            encode(PAIRWISE, 3, groups)


class TestFourSetDistances(_SetDistanceChecks):
    SIZE = 4

    @given(pfas(max_n=7, max_m=3))
    @settings(max_examples=150, deadline=None)
    @example(TRIPLEWISE)
    @example(Pfa(n=4, m=2, delta=((1, 2, 3, 4), (1, 2, 3, 4))))
    def test_matches_plain_set_search(self, pfa):
        self._check_table(pfa)

    def test_matches_on_the_holes_sweep(self):
        for pfa in pfas_with_holes():
            self._check_table(pfa)

    def test_triple_list_is_the_same_at_every_size(self):
        # the 4-set search resumes from the triples' levels and leaves
        # their list as it was
        for pfa in (pn(6), PAIRWISE, TRIPLEWISE, random_pfa(GenConfig(n=12, seed=2))):
            distances = DistanceTables(pfa)
            triples = list(distances.far(3))
            distances.far(4)
            assert distances.far(3) == triples == DistanceTables(pfa).far(3)

    def test_triplewise_merging_set_is_infinite(self):
        quads = _groups(TRIPLEWISE, 4)[-1]
        assert quads == [(math.inf, 1, 1, 2, 3, 4)]
        lay = VarLayout(n=4, m=4, ell=3)
        assert set_clauses(quads, lay) == [
            tuple(-lay.state_var(j, t) for j in (1, 2, 3, 4)) for t in range(3)
        ]

    @given(pfas(max_n=6, max_m=3), st.integers(1, 30))
    @settings(max_examples=80, deadline=None)
    @example(TRIPLEWISE, 5)
    @example(pn(6), 26)
    def test_group_matches_closed_form(self, pfa, ell):
        self._check_group(pfa, ell, _set_table(pfa, 4))

    def test_group_on_the_holes_sweep(self):
        for pfa in pfas_with_holes(200):
            table = _set_table(pfa, 4)
            for ell in range(1, 9):
                self._check_group(pfa, ell, table)


class _LargeSetDistanceChecks(_SetDistanceChecks):
    """far(SIZE) against the forward search, past the sizes a probe
    carries from its start. (Hypothesis wants each @given test on the
    class that runs it.)"""

    def test_matches_on_the_holes_sweep(self):
        for pfa in pfas_with_holes():
            self._check_table(pfa)

    def test_merging_below_the_whole_set_is_infinite(self):
        assert _groups(_merging_below(self.SIZE), self.SIZE)[-1] == [
            (math.inf, 1, *range(1, self.SIZE + 1))
        ]


class TestFiveSetDistances(_LargeSetDistanceChecks):
    SIZE = 5

    @given(pfas(max_n=8, max_m=3))
    @settings(max_examples=150, deadline=None)
    @example(_merging_below(5))
    def test_matches_plain_set_search(self, pfa):
        self._check_table(pfa)


class TestSixSetDistances(_LargeSetDistanceChecks):
    SIZE = 6

    @given(pfas(max_n=8, max_m=3))
    @settings(max_examples=150, deadline=None)
    @example(_merging_below(6))
    def test_matches_plain_set_search(self, pfa):
        self._check_table(pfa)


class TestDistanceTablesState:
    def test_search_state_goes_with_the_largest_size(self):
        # one table and one set of levels serve every size, each holding
        # sets of at most the largest size built; asking for a smaller size
        # again leaves them be, and every list agrees with a fresh object's
        for pfa in (pn(8), TRIPLEWISE, random_pfa(GenConfig(n=12, seed=2))):
            distances = DistanceTables(pfa)
            before = [list(distances.far(k)) for k in (2, 3)]
            settled, levels = distances._settled, distances._levels
            for k in (4, 5, 6):
                distances.far(k)
                assert distances._settled is settled and distances._levels is levels
                assert max(len(s) for level in levels.values() for s in level) <= k
            held = len(settled)
            for k in (4, 5, 6):
                assert DistanceTables(pfa).far(k) == distances.far(k)
            assert [distances.far(k) for k in (2, 3)] == before
            assert len(settled) == held

    def test_each_size_is_searched_once(self, monkeypatch):
        # each size resumes the smaller sizes' search, and every list
        # agrees with a fresh object's
        calls = []
        search = DistanceTables._search

        def logged(self, k):
            calls.append(k)
            return search(self, k)

        monkeypatch.setattr(DistanceTables, "_search", logged)
        distances = DistanceTables(pn(8))
        lists = [distances.far(k) for k in (4, 5, 6)]
        assert calls == [3, 4, 5, 6]
        assert lists == [DistanceTables(pn(8)).far(k) for k in (4, 5, 6)]
        assert [distances.far(k) for k in (2, 3)] == _groups(pn(8), 3)

    def test_sizes_past_the_state_count_list_nothing(self):
        distances = DistanceTables(pn(5))
        assert distances.far(7) == distances.far(6) == []

    @pytest.mark.parametrize("k", [0, 1])
    def test_sizes_outside_the_range_are_refused(self, k):
        with pytest.raises(ValueError, match="set size"):
            DistanceTables(pn(5)).far(k)


def _shorter(pfa, groups, lo, hi):
    """set_clauses(..., longer=hi) over each group, as min_csw builds its delta."""
    layout = VarLayout(pfa.n, pfa.m, lo)
    return [c for sets in groups for c in set_clauses(sets, layout, longer=hi)]


class TestShorterClauses:
    """set_clauses(sets, layout, longer=hi) over each group is what the
    encoding at layout.ell adds to the one at hi, under the same groups."""

    @given(pfas(max_n=6, max_m=3))
    @settings(max_examples=100, deadline=None)
    @example(pn(6))
    @example(TRIPLEWISE)
    def test_is_the_set_difference_of_the_encodings(self, pfa):
        distances = DistanceTables(pfa)
        for hi in range(2, 13):
            groups = _probe_groups(pfa, distances, hi)
            upper = set(encode(pfa, hi, groups).clauses)
            for lo in range(1, hi):
                delta = _shorter(pfa, groups, lo, hi)
                lower = set(encode(pfa, lo, groups).clauses)
                assert len(delta) == len(set(delta))
                assert set(delta) == lower - upper

    @given(pfas(max_n=5, max_m=3))
    @settings(max_examples=40, deadline=None)
    @example(pn(5))
    def test_longer_encoding_plus_clauses_decides_the_shorter(self, pfa):
        groups = _groups(pfa, 4)
        for hi in range(2, 9):
            top = encode(pfa, hi, groups)
            # the same engine, taken down one length at a time
            session = Session(top)
            assert session.solve().status == solve(top).status
            for lo in range(hi - 1, 0, -1):
                delta = _shorter(pfa, groups, lo, hi)
                union = CnfInstance(var_count=top.var_count, clauses=top.clauses + tuple(delta))
                expected = solve(encode(pfa, lo, groups)).status
                assert solve(union).status == expected
                session.extend(_shorter(pfa, groups, lo, lo + 1))
                assert session.solve().status == expected

    def test_one_step_adds_one_clause_per_entry_that_merges_in_time(self):
        # from hi = lo + 1, each entry with D <= hi appears once, at step hi - D
        pfa = pn(6)
        groups = _groups(pfa, 4)
        delta = _shorter(pfa, groups, 19, 20)
        width = pfa.m + pfa.n
        assert delta == [
            tuple(-((20 - D) * width + q) for q in states)
            for group in groups
            for t in range(20)
            for D, inner, *states in group
            if D == 20 - t and inner <= 19 - t
        ]

    def test_rejects_a_length_not_below(self):
        layout = VarLayout(n=3, m=2, ell=3)
        sets = _groups(pn(3), 2)[0]
        for longer in (2, 3):
            with pytest.raises(ValueError, match="longer"):
                set_clauses(sets, layout, longer=longer)
            with pytest.raises(ValueError, match="longer"):
                set_clauses([], layout, longer=longer)


def _step_major(sets, layout, longer=None):
    """set_clauses by its definition, step by step and, within a step, in
    list order: entries with inner <= ell - t < D, and with `longer` also
    D <= longer - t, over steps t < ell, or t <= ell with `longer`."""
    ell = layout.ell
    return [
        tuple(-layout.state_var(q, t) for q in states)
        for t in range(ell if longer is None else ell + 1)
        for D, inner, *states in sets
        if inner <= ell - t < D and (longer is None or D <= longer - t)
    ]


class TestSetClauseOrder:
    """set_clauses gives its clauses in exactly the step-major order, list
    for list, for every group of 2 to n - 2 states, with and without
    `longer`, so a change to how it builds them cannot reorder a CNF."""

    def _check(self, pfa, lengths):
        distances = DistanceTables(pfa)
        for k in range(2, pfa.n - 1):
            sets = distances.far(k)
            for hi in lengths:
                layout = VarLayout(pfa.n, pfa.m, hi)
                assert set_clauses(sets, layout) == _step_major(sets, layout)
                for lo in range(1, hi):
                    layout = VarLayout(pfa.n, pfa.m, lo)
                    assert set_clauses(sets, layout, hi) == _step_major(sets, layout, hi)

    @pytest.mark.parametrize("n", range(5, 10))
    def test_chain(self, n):
        # up to the minimum, where every group has clauses
        top = min_csw(pn(n)).min_length
        self._check(pn(n), [*range(1, 21), top - 1, top])
        for k in range(2, n - 1):
            assert set_clauses(DistanceTables(pn(n)).far(k), VarLayout(n, 2, top))

    @given(pfas(max_n=7, max_m=3, min_n=4))
    @settings(max_examples=40, deadline=None)
    def test_drawn(self, pfa):
        self._check(pfa, range(1, 21))

    def test_no_entry_fits_any_step(self):
        sets = DistanceTables(pn(7)).far(4)
        lowest = min(inner for _, inner, *_ in sets)
        assert lowest > 1
        layout = VarLayout(7, 2, lowest - 1)
        assert set_clauses(sets, layout) == []
        assert set_clauses(sets, layout, longer=lowest + 5) == []
        assert set_clauses(sets, VarLayout(7, 2, lowest))


class TestCheckDistances:
    @given(pfas(max_n=7, max_m=3))
    @settings(max_examples=80, deadline=None)
    @example(PAIRWISE)
    @example(TRIPLEWISE)
    def test_true_tables_pass(self, pfa):
        # far checks each list it builds
        DistanceTables(pfa).far(4)

    def test_every_corrupt_pair_entry_fails(self):
        pfa = pn(5)
        for p, q in combinations(range(5), 2):
            for wrong in (0, merge_distance(pfa.delta, p + 1, q + 1) + 1, math.inf):
                dist = pair_distances(pfa)
                dist[p][q] = dist[q][p] = wrong
                with pytest.raises(ModelVerificationError, match="equation"):
                    check_distances(pfa, dist)

    def test_asymmetric_pair_table_fails(self):
        dist = pair_distances(pn(5))
        dist[3][1] += 1
        with pytest.raises(ModelVerificationError, match="symmetric"):
            check_distances(pn(5), dist)

    def test_every_corrupt_set_entry_fails(self):
        # each settled distance of a set of k states, raised, lowered, made
        # infinite or dropped, breaks the equation that far(k) is built on
        for pfa in (pn(6), random_pfa(GenConfig(n=8, seed=1))):
            for k in (3, 4):
                distances = DistanceTables(pfa)
                distances.far(k - 1)
                distances._search(k)
                settled = distances._settled
                sets = [s for level in distances._levels.values() for s in level if len(s) == k]
                assert sets
                for key in map(math.prod, sets):
                    D = settled[key]
                    for wrong in (D + 1, D - 1, math.inf, None):
                        distances._settled = dict(settled)
                        if wrong is None:
                            del distances._settled[key]
                        else:
                            distances._settled[key] = wrong
                        with pytest.raises(ModelVerificationError, match="equation"):
                            distances._check(k)
                distances._settled = settled
                assert distances._check(k) == DistanceTables(pfa).far(k)


class TestPinnedLists:
    @pytest.mark.parametrize(
        "pfa, digests",
        [
            pytest.param(
                pn(20),
                [
                    "eeb742ecbf2e55463ea50c9ab69c5f8d7a298a9cbbbd39cd00233e6690393774",
                    "d6a42198d6b464a3cce5dedf0a6dcff3eb0fc4f4d0678cad2031e64711c5aeb2",
                    "a716e1e29f2726fd39e53b35aa14b610aa899e600c6676329fdafa50f848e2d8",
                ],
                id="pn20",
            ),
            pytest.param(
                random_pfa(GenConfig(n=40, seed=1)),
                [
                    "eaf96d868832c0e3cc88932837f10c7ca100d5dfd67a522f23d76cc17959b961",
                    "ce870d8c16a20c7abf8664b202a981d30bcdfc37ffd55e9e7e5f4d902b50e511",
                    "c791613edcf8d3b1097d75e5db2c4ca98a964670b02d26dac3a88b87cf9a5f95",
                ],
                id="random-n40-s1",
            ),
            pytest.param(
                random_pfa(GenConfig(n=60, seed=0)),
                [
                    "2033188db0f8c64d42a9940b7471d207fe6566779154eccc81d46e15b05be4ac",
                    "7ef2833223fe5903b8b19d292637cc1d10c086ea630c95f05e79612c8c2f5a7c",
                ],
                id="random-n60-s0",
            ),
            pytest.param(
                pn(16),
                [
                    "80cc528094d08c7261951c7b7128e78b904e781ea5416c6c3102d188ce061cbc",
                    "ca3dd8a8c13dcc5ec2888d2e7e23b98461a13b0a73d2efe899ed329cb60523b5",
                    "5dbe04aea6dcccb98f0196aaa74375652f8e939aa23ab3d8454a5faf4c233631",
                    "71dbcdff94e50a87550ababdc673569997749338ed51e1edc45295d3654148a1",
                    "e770f53ffbc91e4b5b2c364af7fb18df63bc84edf24d6ee347d460d11cb48a51",
                ],
                id="pn16",
            ),
            pytest.param(
                random_pfa(GenConfig(n=16, seed=1)),
                [
                    "65d2c00a4f3c90aa201a925970ed57481f6b07f66840bbf60e921a4c5e47f27f",
                    "ccb680b3e5a052c3f39a28eb76755d9eff3cc5a02a4068cbc01d7dadc7cac40f",
                    "7305fc3651eb94844ad0b4624f32a9b53de3ef4140bd8b3eab0854ae32fd80b8",
                    "7d19277f8c544e4732df588078eb1ec5e9f47c16745083a4924363a7fb101bd9",
                    "0abef7fa93a5eb60f5b2b292c6474fc872eedce9894cffca08c662e11cdd2b85",
                ],
                id="random-n16-s1",
            ),
        ],
    )
    def test_lists_are_pinned(self, pfa, digests):
        # sha256 of repr(far(k)) for k = 2, 3, ...
        distances = DistanceTables(pfa)
        got = [
            hashlib.sha256(repr(distances.far(k)).encode()).hexdigest()
            for k in range(2, len(digests) + 2)
        ]
        assert got == digests


class TestDecode:
    def test_single_letter_readout(self):
        lay = VarLayout(n=2, m=2, ell=1)
        model = {1: True, 2: True, 3: True, 4: False, 5: True, 6: False}
        assert decode_word(model, lay) == (1,)

    def test_double_letter_rejected(self):
        lay = VarLayout(n=2, m=2, ell=1)
        model = {1: True, 2: True, 3: True, 4: True, 5: True, 6: False}
        with pytest.raises(DecodeError, match="step 1"):
            decode_word(model, lay)


class TestDimacs:
    def test_smallest_instance(self):
        inst = CnfInstance(var_count=1, clauses=((1,),))
        assert to_dimacs(inst) == "p cnf 1 1\n1 0\n"

    def test_encoded_instance(self):
        text = to_dimacs(encode(A1, 1))
        lines = text.splitlines()
        assert len(lines) == 10
        assert lines[0] == "p cnf 6 9"

    def test_comment_line(self):
        inst = encode(A1, 1)
        text = to_dimacs(inst, comment=layout_comment(inst.layout))
        assert text.splitlines()[0] == "c layout n=2 m=2 l=1"

    @given(pfas(max_n=5, max_m=4), st.integers(1, 4))
    def test_round_trip(self, pfa, ell):
        inst = encode(pfa, ell)
        back = parse_dimacs(to_dimacs(inst))
        assert back.var_count == inst.var_count
        assert back.clauses == inst.clauses
        assert back.layout is None

    def test_layout_recovered_from_comment(self):
        inst = encode(A1, 2)
        back = parse_dimacs(to_dimacs(inst, comment=layout_comment(inst.layout)))
        assert back.layout == inst.layout

    @pytest.mark.parametrize(
        "comment, layout",
        [
            ("c layout n=2 m=2 l=1", VarLayout(n=2, m=2, ell=1)),
            ("c layout n=2 m 2 l=1", None),
            ("c layout n=2 m=two l=1", None),
            ("c layout n=2 m=2", None),
        ],
    )
    def test_malformed_layout_comment_ignored(self, comment, layout):
        # (2 + 2) * 1 + 2 = 6 variables, as the well-formed comment needs
        assert parse_dimacs(f"{comment}\np cnf 6 1\n1 0\n").layout == layout

    def test_blank_lines_skipped(self):
        inst = parse_dimacs("\np cnf 2 2\n\n   \n1 -2 0\n\n2 0\n\n")
        assert (inst.var_count, inst.clauses) == (2, ((1, -2), (2,)))

    def test_mismatched_layout_comment_dropped(self):
        text = "c layout n=5 m=5 l=5\np cnf 2 1\n1 -2 0\n"
        assert parse_dimacs(text).layout is None

    def test_missing_header(self):
        with pytest.raises(DimacsError, match="p cnf"):
            parse_dimacs("1 0\n")
        with pytest.raises(DimacsError, match="missing"):
            parse_dimacs("c nothing here\n")

    @pytest.mark.parametrize("header", ["p cnf x 1", "p cnf 2 1.5"])
    def test_non_integer_header_counts(self, header):
        with pytest.raises(DimacsError, match="bad header counts at line 2"):
            parse_dimacs(f"c note\n{header}\n1 0\n")

    def test_bad_literal(self):
        with pytest.raises(DimacsError, match="line 2"):
            parse_dimacs("p cnf 1 1\n1 x 0\n")

    def test_unterminated_clause(self):
        with pytest.raises(DimacsError, match="unterminated"):
            parse_dimacs("p cnf 2 1\n1 2\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(DimacsError, match="declares 2"):
            parse_dimacs("p cnf 2 2\n1 0\n")

    def test_literal_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            parse_dimacs("p cnf 1 1\n2 0\n")

    @pytest.mark.parametrize("bad", [0, 11, -11])
    def test_range_check_names_a_literal_in_the_last_clause(self, bad):
        """The check runs over all literals at once; a bad literal deep in a
        large instance must still be found and named."""
        clauses = [(v % 10 + 1, -(v * 7 % 10 + 1)) for v in range(9999)]
        clauses.append((3, bad, -4))
        with pytest.raises(ValueError, match=f"^literal {bad} out of range for 10 variables$"):
            CnfInstance(var_count=10, clauses=tuple(clauses))
        clauses[-1] = (3, -10, 4)
        assert CnfInstance(var_count=10, clauses=tuple(clauses)).clause_count == 10000

    def test_multiline_and_multi_clause_lines(self):
        inst = parse_dimacs("p cnf 3 2\n1 2 0 -3\n0\n")
        assert inst.clauses == ((1, 2), (-3,))

    def test_clause_count_formula_helper(self):
        assert clause_count(2, 2, 1) == 9
        assert clause_count(2, 2, 2) == 15
