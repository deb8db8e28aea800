import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cswsat.automaton import Pfa, full_state_set, image, is_carefully_synchronizing
from cswsat.encoder import (
    MAX_CLAUSES,
    CnfInstance,
    DecodeError,
    DimacsError,
    VarLayout,
    clause_count,
    decode_word,
    encode,
    layout_comment,
    parse_dimacs,
    to_dimacs,
    variable_count,
)
from cswsat.solver import BudgetExceeded, ModelVerificationError

from helpers import (
    brute_force_models,
    eval_clauses,
    pfas,
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

    def test_mismatched_layout_comment_dropped(self):
        text = "c layout n=5 m=5 l=5\np cnf 2 1\n1 -2 0\n"
        assert parse_dimacs(text).layout is None

    def test_missing_header(self):
        with pytest.raises(DimacsError, match="p cnf"):
            parse_dimacs("1 0\n")
        with pytest.raises(DimacsError, match="missing"):
            parse_dimacs("c nothing here\n")

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

    def test_multiline_and_multi_clause_lines(self):
        inst = parse_dimacs("p cnf 3 2\n1 2 0 -3\n0\n")
        assert inst.clauses == ((1, 2), (-3,))

    def test_clause_count_formula_helper(self):
        assert clause_count(2, 2, 1) == 9
        assert clause_count(2, 2, 2) == 15
