import pytest
from hypothesis import given
from hypothesis import strategies as st

from cswsat.automaton import (
    Pfa,
    PfaFormatError,
    apply_letter,
    full_state_set,
    image,
    is_carefully_synchronizing,
    parse_pfa,
    serialize_pfa,
    word_from_letters,
    word_to_letters,
)

from helpers import pfas, pfas_with_subset, set_image, word_synchronizes

# Two states, two letters. a sends both states to 1, b sends 1 to 2 and is
# undefined at 2. Small enough to reason about every case by hand.
A1 = Pfa(n=2, m=2, delta=((1, 1), (2, None)))
A1_TEXT = "2 2\n1 2\n1 0\n"

# Four-state chain: a advances 1 and 2 and fixes 3 and 4; b is undefined at
# 1, advances 2 and 3, and wraps 4 to 1.
P4 = Pfa(n=4, m=2, delta=((2, 3, 3, 4), (None, 3, 4, 1)))


class TestParse:
    def test_two_state_example(self):
        assert parse_pfa(A1_TEXT) == A1

    def test_singleton(self):
        pfa = parse_pfa("1 1\n1\n")
        assert pfa == Pfa(n=1, m=1, delta=((1,),))

    def test_out_of_range_state(self):
        with pytest.raises(PfaFormatError, match=r"state index 3 out of range at line 3"):
            parse_pfa("2 2\n1 2\n3 0\n")

    def test_malformed_header(self):
        with pytest.raises(PfaFormatError, match=r"header.* at line 1"):
            parse_pfa("2\n1 2\n")

    @pytest.mark.parametrize("text", ["2 x\n1 2\n1 0\n", "2.0 2\n1 2\n1 0\n"])
    def test_non_integer_header(self, text):
        with pytest.raises(PfaFormatError, match=r"malformed header, expected 'n m' at line 1"):
            parse_pfa(text)

    @pytest.mark.parametrize("text, counts", [("0 2\n", "0 2"), ("2 -1\n1\n1\n", "2 -1")])
    def test_non_positive_header(self, text, counts):
        with pytest.raises(PfaFormatError, match=f"must be positive, got {counts} at line 1"):
            parse_pfa(text)

    def test_wrong_entry_count(self):
        with pytest.raises(PfaFormatError, match=r"expected 2 entries, got 3 at line 2"):
            parse_pfa("2 2\n1 2 1\n1 0\n")

    def test_missing_rows(self):
        with pytest.raises(PfaFormatError, match=r"expected 2 transition rows, got 1"):
            parse_pfa("2 2\n1 2\n")

    def test_trailing_rows(self):
        with pytest.raises(PfaFormatError, match=r"trailing data at line 4"):
            parse_pfa("2 2\n1 2\n1 0\n1 1\n")

    def test_non_integer_entry(self):
        with pytest.raises(PfaFormatError, match=r"at line 2"):
            parse_pfa("2 2\nx 2\n1 0\n")

    def test_comments_and_blanks_skipped(self):
        text = "# generated\n\n2 2\n# rows follow\n1 2\n1 0\n"
        assert parse_pfa(text) == A1

    def test_empty_input(self):
        with pytest.raises(PfaFormatError):
            parse_pfa("")

    @given(pfas())
    def test_serialize_then_parse_is_identity(self, pfa):
        assert parse_pfa(serialize_pfa(pfa)) == pfa

    @given(pfas())
    def test_comment_survives_round_trip(self, pfa):
        text = serialize_pfa(pfa, comment="seed 7\nfamily random")
        assert text.startswith("# seed 7\n# family random\n")
        assert parse_pfa(text) == pfa


class TestPfaValidation:
    def test_rejects_zero_states(self):
        with pytest.raises(ValueError):
            Pfa(n=0, m=1, delta=((),))

    def test_rejects_zero_letters(self):
        with pytest.raises(ValueError, match="letter count must be positive, got 0"):
            Pfa(n=2, m=0, delta=())

    def test_rejects_a_row_count_other_than_the_letter_count(self):
        with pytest.raises(ValueError, match="expected 2 transition rows, got 1"):
            Pfa(n=2, m=2, delta=((1, 2),))

    def test_rejects_a_row_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="expected 2 entries per row, got 3"):
            Pfa(n=2, m=2, delta=((1, 2), (1, 2, 1)))

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            Pfa(n=2, m=1, delta=((1, 3),))

    def test_counts(self):
        assert A1.undefined_count() == 1
        assert A1.letter_total(1)
        assert not A1.letter_total(2)
        assert A1.has_total_letter()


class TestApplyLetter:
    def test_merges_states(self):
        assert apply_letter(A1, frozenset({1, 2}), 1) == {1}

    def test_undefined_letter_on_p4(self):
        assert apply_letter(P4, frozenset({1, 2, 3, 4}), 2) is None

    def test_total_letter_on_p4(self):
        assert apply_letter(P4, frozenset({1, 2, 3, 4}), 1) == {2, 3, 4}

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            apply_letter(A1, frozenset(), 1)

    def test_bad_letter_rejected(self):
        with pytest.raises(ValueError):
            apply_letter(A1, frozenset({1}), 3)

    @given(pfas_with_subset())
    def test_image_never_grows(self, pfa_subset):
        pfa, subset = pfa_subset
        for a in range(1, pfa.m + 1):
            out = apply_letter(pfa, subset, a)
            if out is not None:
                assert len(out) <= len(subset)
                assert out == set_image(pfa.delta, subset, a)

    @given(pfas_with_subset())
    def test_monotone_on_subsets(self, pfa_subset):
        """If a letter is defined on s, it is defined on any sub-subset and
        the images nest."""
        pfa, subset = pfa_subset
        smaller = frozenset(list(subset)[: max(1, len(subset) // 2)])
        for a in range(1, pfa.m + 1):
            out = apply_letter(pfa, subset, a)
            if out is not None:
                inner = apply_letter(pfa, smaller, a)
                assert inner is not None
                assert inner <= out


class TestImage:
    def test_empty_word(self):
        assert image(A1, frozenset({1, 2}), ()) == {1, 2}

    def test_single_step(self):
        assert image(A1, frozenset({1, 2}), (1,)) == {1}

    def test_undefined_mid_word(self):
        assert image(A1, frozenset({1, 2}), (2, 1)) is None

    @given(pfas_with_subset(), st.lists(st.integers(1, 2), max_size=6))
    def test_composition(self, pfa_subset, raw_word):
        pfa, subset = pfa_subset
        word = tuple(a for a in raw_word if a <= pfa.m)
        cut = len(word) // 2
        u, v = word[:cut], word[cut:]
        whole = image(pfa, subset, word)
        first = image(pfa, subset, u)
        if whole is not None:
            assert first is not None
            assert image(pfa, first, v) == whole
        elif first is not None:
            assert image(pfa, first, v) is None


class TestCarefulSynchronization:
    def test_a_synchronizes(self):
        assert is_carefully_synchronizing(A1, (1,))

    def test_partial_letter_fails_first_condition(self):
        assert not is_carefully_synchronizing(A1, (2,))

    def test_empty_word_fails_on_two_states(self):
        assert not is_carefully_synchronizing(A1, ())

    def test_empty_word_on_singleton(self):
        assert is_carefully_synchronizing(Pfa(n=1, m=1, delta=((1,),)), ())

    @given(pfas(), st.lists(st.integers(1, 4), min_size=1, max_size=8))
    def test_agrees_with_plain_set_fold(self, pfa, raw_word):
        word = tuple((a - 1) % pfa.m + 1 for a in raw_word)
        assert is_carefully_synchronizing(pfa, word) == word_synchronizes(
            pfa.n, pfa.delta, word
        )

    @given(pfas(), st.lists(st.integers(1, 4), min_size=1, max_size=6))
    def test_prepending_first_letter_preserves(self, pfa, raw_word):
        """A synchronizing word stays synchronizing when its own first
        letter is prepended; this is what makes binary search on the
        length sound."""
        word = tuple((a - 1) % pfa.m + 1 for a in raw_word)
        if is_carefully_synchronizing(pfa, word):
            assert is_carefully_synchronizing(pfa, (word[0],) + word)


class TestWordText:
    def test_letters_to_indices(self):
        assert word_from_letters("ab") == (1, 2)

    def test_indices_to_letters(self):
        assert word_to_letters((1, 2, 1)) == "aba"

    def test_large_alphabet_falls_back_to_numbers(self):
        assert word_to_letters((27, 1)) == "27 1"

    def test_full_state_set(self):
        assert full_state_set(P4) == {1, 2, 3, 4}
