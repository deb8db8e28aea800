import gc
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings

from cswsat.automaton import (
    Pfa,
    apply_letter,
    is_carefully_synchronizing,
    serialize_pfa,
    word_from_letters,
)
from cswsat.cli import EXIT_FAULT, main
from cswsat.encoder import DistanceTables, pair_distances
from cswsat.generators import GenConfig, pn, random_pfa, trial_seed
from cswsat.oracle import (
    _ENTRY_OVERHEAD_WORDS,
    BOUND_STAGES,
    LETTER_GROUP,
    MAX_TABLE_WORDS,
    _beam,
    _chunk_width,
    _letter_actions,
    _PairBound,
    power_bfs,
)
from cswsat.search import FOUND, NOT_SYNCHRONIZING
from cswsat.solver import BudgetExceeded, ModelVerificationError

from helpers import explicit_power_length, pfas, shortest_sync_word
from test_search import bindings, log_calls


def _identity(n, m=1):
    return Pfa(n=n, m=m, delta=(tuple(range(1, n + 1)),) * m)


A1 = Pfa(n=2, m=2, delta=((1, 1), (2, None)))

# bounding stages that both run before the first layer
FIRST_LAYER_STAGES = ((0, 64), (0, 1024))

# complete three-state automaton whose shortest synchronizing word has
# length 4: a cycles the states, b merges 1 into 2
C3 = Pfa(n=3, m=2, delta=((2, 3, 1), (2, 2, 3)))


def _table_image(tables, subset, n):
    """The union of the chunk tables' entries at an n-state subset's
    chunks, as the search loops compute it inline."""
    w = _chunk_width(n)
    img, rest = 0, subset
    for table in tables:
        img |= table[rest & (1 << w) - 1]
        rest >>= w
    return img


def _mask(states):
    return sum(1 << (q - 1) for q in states)


def _states(mask):
    return frozenset(q for q in range(1, mask.bit_length() + 1) if mask >> (q - 1) & 1)


class TestExamples:
    def test_two_state(self):
        out = power_bfs(A1)
        assert (out.status, out.min_length, out.witness) == (FOUND, 1, (1,))

    def test_singleton_needs_nothing(self):
        out = power_bfs(Pfa(n=1, m=1, delta=((1,),)))
        assert (out.status, out.min_length, out.witness) == (FOUND, 0, ())

    def test_no_letter_on_full_set(self):
        stuck = Pfa(n=2, m=2, delta=((None, 1), (2, None)))
        assert power_bfs(stuck).status == NOT_SYNCHRONIZING

    def test_cerny_three_states(self):
        out = power_bfs(C3)
        assert out.min_length == 4
        assert is_carefully_synchronizing(C3, out.witness)

    def test_chain_family_hard_instance(self):
        # the eleven-state chain needs a 116-letter word; the subset search
        # settles it in milliseconds
        out = power_bfs(pn(11))
        assert out.min_length == 116


class TestBudgetAndCap:
    def test_budget_raises_with_count(self):
        with pytest.raises(BudgetExceeded) as exc:
            power_bfs(pn(8), max_visited=5)
        assert exc.value.visited > 5

    def test_overrun_frees_its_search_by_reference_counting(self, collector_off):
        # the exception holds the search's frame through its traceback, and
        # no local of that frame holds the exception, so dropping it frees
        # the subsets without the cyclic collector
        carried = None
        try:
            power_bfs(random_pfa(GenConfig(n=30, seed=9)), max_visited=1000)
        except BudgetExceeded as exc:
            carried = (exc.visited, exc.word)
        assert carried == (1001, None)
        assert gc.collect() == 0

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_is_refused(self, budget):
        with pytest.raises(ValueError, match=f"max_visited must be >= 1, got {budget}"):
            power_bfs(pn(6), max_visited=budget)

    def test_wide_masks_count_double(self):
        # above 64 states each stored subset costs two words of the budget
        for n, stored in ((64, 100), (100, 50)):
            with pytest.raises(BudgetExceeded) as exc:
                power_bfs(pn(n), max_visited=100)
            assert exc.value.visited == stored + 1

    def test_table_ceiling(self):
        # each entry costs its mask words plus four words of overhead: two
        # letters at n=3968 fit MAX_TABLE_WORDS, and one more state is
        # refused before any table is built
        assert 2 * 496 * 256 * (62 + 4) <= MAX_TABLE_WORDS < 2 * 497 * 256 * (63 + 4)
        assert power_bfs(_identity(3968, m=2)).status == NOT_SYNCHRONIZING
        with pytest.raises(BudgetExceeded, match="table words"):
            power_bfs(_identity(3969, m=2))

    def test_table_ceiling_counts_entry_overhead(self):
        # at n=64 an entry costs one mask word and four of overhead, so the
        # ceiling admits 1638 letters, not the 8192 that masks alone would
        assert 1638 * 8 * 256 * 5 <= MAX_TABLE_WORDS < 1639 * 8 * 256 * 5
        with pytest.raises(BudgetExceeded, match="table words"):
            power_bfs(_identity(64, m=1639))


def _random_letters(n, m, seed):
    """An automaton with m random letters and about n/4 undefined
    transitions per letter."""
    rng = random.Random(seed)
    delta = tuple(
        tuple(None if rng.random() < 0.25 else rng.randint(1, n) for _ in range(n))
        for _ in range(m)
    )
    return Pfa(n=n, m=m, delta=delta)


class TestLetterTables:
    """Each letter's image of a subset, read from its group's chunk tables,
    is the set-based image, or the full set where the letter is undefined
    on the subset. Each group has ceil(n/8) tables of at most 2^w <= 256
    entries."""

    @staticmethod
    def _check(pfa, subsets):
        n, full = pfa.n, (1 << pfa.n) - 1
        actions = _letter_actions(pfa)
        assert [[a for a, _ in letters] for letters, _ in actions] == [
            list(range(first + 1, min(first + LETTER_GROUP, pfa.m) + 1))
            for first in range(0, pfa.m, LETTER_GROUP)
        ]
        w = _chunk_width(n)
        assert w <= 8
        for letters, tables in actions:
            assert len(tables) == -(-n // 8)
            assert all(len(table) <= 1 << w for table in tables)
            assert [shift for _, shift in letters] == [i * n for i in range(len(letters))]
            for subset in subsets:
                every = _table_image(tables, subset, n)
                assert every >> len(letters) * n == 0
                for a, shift in letters:
                    expected = apply_letter(pfa, _states(subset), a)
                    assert every >> shift & full == (full if expected is None else _mask(expected))

    @given(pfas(max_n=9, max_m=3))
    @settings(max_examples=100)
    @example(Pfa(n=8, m=1, delta=(tuple(range(8, 0, -1)),)))  # one whole byte
    def test_every_subset_of_small_automata(self, pfa):
        self._check(pfa, range(1, 1 << pfa.n))

    # chunk edges at 8, 16, 64 and 128 states, masks past 64 bits, and
    # chunks narrower than a byte (w = 5, 7 and 7 at n = 10, 20 and 33)
    @pytest.mark.parametrize("n", [9, 10, 17, 20, 33, 40, 65, 130])
    def test_random_subsets(self, n):
        rng = random.Random(n)
        pfa = random_pfa(GenConfig(n=n, undefined_count=n // 4, seed=n))
        full = (1 << n) - 1
        subsets = [full, 1 << (n - 1)] + [1 << q for q in range(0, n, 7)]
        for _ in range(300):
            # sparse draws avoid the undefined states more often
            subset = rng.getrandbits(n)
            for _ in range(rng.randrange(4)):
                subset &= rng.getrandbits(n)
            subsets.append(subset or 1)
        self._check(pfa, subsets)

    # one group, a full one, one letter past it, and a third group
    @pytest.mark.parametrize("m", [1, 16, 17, 40])
    def test_group_boundaries(self, m):
        self._check(_random_letters(9, m, seed=m), range(1, 1 << 9))
        rng = random.Random(m)
        subsets = [rng.getrandbits(70) & rng.getrandbits(70) or 1 for _ in range(100)]
        self._check(_random_letters(70, m, seed=m), [(1 << 70) - 1] + subsets)

    def test_second_group_matches_plain_set_bfs(self):
        # Cerny's seven-state automaton with its merging letter last, behind
        # fifteen shifts that are each undefined at one state
        n = 7
        cycle = tuple(q % n + 1 for q in range(1, n + 1))
        merge = (2,) + tuple(range(2, n + 1))
        shifts = tuple(
            tuple(None if q == i % n + 1 else (q + i - 1) % n + 1 for q in range(1, n + 1))
            for i in range(2, 17)
        )
        pfa = Pfa(n=n, m=17, delta=(cycle,) + shifts + (merge,))
        out = power_bfs(pfa)
        assert (out.status, out.min_length) == (FOUND, 14)
        assert out.witness == shortest_sync_word(n, pfa.delta, pfa.m, max_len=2**n)
        assert 17 in out.witness

    @pytest.mark.parametrize(
        "pfa",
        [_identity(1000, m=2), _random_letters(64, 200, seed=0), _random_letters(33, 200, seed=0)],
        ids=["n1000", "m200", "n33-m200"],
    )
    def test_tables_stay_within_their_charge(self, pfa):
        # one int holds a group's images; it may not cost more than the
        # mask and overhead words charged for them one letter at a time,
        # 256 entries a table even where w < 8 (n = 33, w = 7)
        charged = pfa.m * -(-pfa.n // 8) * 256 * (-(-pfa.n // 64) + _ENTRY_OVERHEAD_WORDS)
        tracemalloc.start()
        try:
            actions = _letter_actions(pfa)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(actions) == -(-pfa.m // LETTER_GROUP)
        assert peak <= 8 * charged


class TestBeyondSixtyFourStates:
    @pytest.mark.parametrize(
        "n, seed, length", [(65, 1, 19), (72, 2, 19), (80, 3, 33), (100, 3, 18)]
    )
    def test_matches_plain_set_bfs(self, n, seed, length):
        pfa = random_pfa(GenConfig(n=n, seed=seed))
        out = power_bfs(pfa)
        reference = shortest_sync_word(pfa.n, pfa.delta, pfa.m, max_len=length)
        assert (out.status, out.min_length) == (FOUND, length)
        assert out.witness == reference

    def test_identity_is_refuted_at_once(self):
        out = power_bfs(_identity(70))
        assert (out.status, out.visited) == (NOT_SYNCHRONIZING, 1)


class TestFaults:
    def test_unverified_witness_exits_as_fault(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr("cswsat.oracle.is_carefully_synchronizing", lambda pfa, word: False)
        with pytest.raises(ModelVerificationError, match="fails verification"):
            power_bfs(C3)
        path = tmp_path / "c3.txt"
        path.write_text(serialize_pfa(C3))
        assert main(["oracle", str(path)]) == EXIT_FAULT
        assert "fails verification" in capsys.readouterr().err


class TestAgainstIndependentSearch:
    @given(pfas(max_n=6, max_m=3))
    @settings(max_examples=150)
    def test_matches_plain_set_bfs(self, pfa):
        out = power_bfs(pfa)
        reference = shortest_sync_word(pfa.n, pfa.delta, pfa.m, max_len=200)
        if out.status == FOUND:
            assert reference is not None
            assert out.min_length == len(reference)
            assert out.witness == reference
            assert is_carefully_synchronizing(pfa, out.witness)
        else:
            assert reference is None

    @given(pfas(max_n=4, max_m=3))
    @settings(max_examples=60)
    def test_no_shorter_word_exists(self, pfa):
        """Brute-force word enumeration below the reported minimum."""
        out = power_bfs(pfa)
        if out.status != FOUND or out.min_length > 7:
            return
        for length in range(out.min_length):
            assert not any(
                is_carefully_synchronizing(pfa, w)
                for w in _all_words(pfa.m, length)
            )

    @given(pfas(max_n=6, max_m=3))
    @settings(max_examples=100)
    def test_visited_bound(self, pfa):
        out = power_bfs(pfa)
        assert out.visited <= 2**pfa.n - 1


def _beam_word(pfa, width=1024):
    return _beam(pfa, _letter_actions(pfa), width)


class TestBeam:
    """The beam words a subset-budget overrun carries, and the beam itself."""

    @given(pfas(max_n=7, max_m=3))
    @settings(max_examples=100)
    @example(C3)
    def test_bounds_the_minimum_from_above(self, pfa):
        exact = power_bfs(pfa)
        try:
            # a trigger of 0 runs both beams before the first layer
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr("cswsat.oracle.BOUND_STAGES", FIRST_LAYER_STAGES)
                out = power_bfs(pfa, max_visited=1)
        except BudgetExceeded as exc:
            word = exc.word
        else:
            # settled before storing a subset: no word, or one of at most
            # one letter
            assert (out.status, out.min_length, out.witness) == (
                exact.status,
                exact.min_length,
                exact.witness,
            )
            return
        if word is None:
            return
        assert exact.status == FOUND
        assert len(word) >= exact.min_length
        assert is_carefully_synchronizing(pfa, word)

    @pytest.mark.parametrize("n", range(5, 9))
    def test_matches_the_chain_family(self, n):
        assert len(_beam_word(pn(n))) == power_bfs(pn(n)).min_length

    def test_no_word_when_a_layer_empties(self):
        frozen = Pfa(n=2, m=2, delta=((1, 2), (1, 2)))
        assert _beam_word(frozen) is None
        assert _beam_word(_identity(70)) is None

    def test_stops_at_the_subset_budget(self, monkeypatch):
        # pn(8) needs 55 layers; at 8 subsets per word budget it runs out
        monkeypatch.setattr("cswsat.oracle.DEFAULT_MAX_VISITED", 8)
        assert _beam_word(pn(8)) is None
        monkeypatch.setattr("cswsat.oracle.DEFAULT_MAX_VISITED", 200)
        assert len(_beam_word(pn(8))) == 55

    def test_overrun_carries_the_beams_word(self, monkeypatch):
        monkeypatch.setattr("cswsat.oracle.BOUND_STAGES", FIRST_LAYER_STAGES)
        with pytest.raises(BudgetExceeded, match="beam word of length 55") as info:
            power_bfs(pn(8), max_visited=50)
        assert len(info.value.word) == 55
        assert info.value.visited == 51

    def test_overrun_runs_no_beam(self, monkeypatch):
        # pn(8)'s layers never pass a default trigger, and the overrun adds
        # neither a beam nor a pair table past the caller's budget
        def refuse(*args):
            raise AssertionError("overrun ran a beam")

        monkeypatch.setattr("cswsat.oracle._beam", refuse)
        monkeypatch.setattr("cswsat.encoder.pair_distances", refuse)
        with pytest.raises(BudgetExceeded) as info:
            power_bfs(pn(8), max_visited=50)
        assert info.value.word is None
        assert "beam word" not in str(info.value)


class TestBoundedSearch:
    """Pruning by the beam's bound must not change an answer, a witness or
    a refutation's stored-subset count."""

    # a trigger of 0 runs every beam before the first layer, so pruning
    # starts at depth 1
    @pytest.mark.parametrize("stages", [((0, 1),), ((0, 4),), ((0, 2), (0, 1024))])
    @given(pfa=pfas(max_n=8, max_m=3))
    @settings(max_examples=150)
    @example(pfa=C3)
    def test_forced_prune_matches_plain_set_bfs(self, stages, pfa):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("cswsat.oracle.BOUND_STAGES", stages)
            out = power_bfs(pfa)
        reference = shortest_sync_word(pfa.n, pfa.delta, pfa.m, max_len=2**pfa.n)
        if reference is None:
            assert out.status == NOT_SYNCHRONIZING
        else:
            assert (out.status, out.min_length, out.witness) == (
                FOUND,
                len(reference),
                reference,
            )

    @pytest.mark.parametrize(
        "pfa",
        [
            _identity(70),
            random_pfa(GenConfig(n=30, seed=3)),
            random_pfa(GenConfig(n=30, seed=4)),
        ],
    )
    def test_forced_prune_keeps_refutations(self, monkeypatch, pfa):
        monkeypatch.setattr("cswsat.oracle.BOUND_STAGES", ())
        unbounded = power_bfs(pfa)
        monkeypatch.setattr("cswsat.oracle.BOUND_STAGES", ((0, 1), (0, 1024)))
        out = power_bfs(pfa)
        assert unbounded.status == out.status == NOT_SYNCHRONIZING
        assert out.visited == unbounded.visited

    def test_finishes_where_the_unbounded_search_runs_out(self, monkeypatch):
        pfa = random_pfa(GenConfig(n=60, seed=5))
        out = power_bfs(pfa, max_visited=2**14)
        assert (out.status, out.min_length) == (FOUND, 21)
        assert out.visited <= 2**14
        assert out.witness == power_bfs(pfa).witness
        monkeypatch.setattr("cswsat.oracle.BOUND_STAGES", ())
        with pytest.raises(BudgetExceeded):
            power_bfs(pfa, max_visited=2**14)

    def test_a_bound_below_the_minimum_is_a_fault(self, monkeypatch, tmp_path, capsys):
        # C3 needs four letters; a bound of three prunes every way there
        monkeypatch.setattr("cswsat.oracle.BOUND_STAGES", ((0, 1),))
        monkeypatch.setattr("cswsat.oracle._beam", lambda pfa, actions, width: (1, 1, 1))
        with pytest.raises(ModelVerificationError, match="pruned search"):
            power_bfs(C3)
        path = tmp_path / "c3.txt"
        path.write_text(serialize_pfa(C3))
        for command in ("oracle", "min"):
            assert main([command, str(path)]) == EXIT_FAULT
            assert "pruned search" in capsys.readouterr().err


class TestHeaviestCurveDraws:
    """The two heaviest draws of the benchmark's length curve, pinned: a
    change to pruning or to frontier order moves `visited`."""

    @pytest.mark.parametrize(
        "seed, length, visited, witness",
        [
            (15, 23, 11715, "abbbbbbbbbbbbbbaabaabab"),
            (27, 22, 9057, "aaabbbabbabaaabbbababa"),
        ],
    )
    def test_search_is_pinned(self, seed, length, visited, witness):
        out = power_bfs(random_pfa(GenConfig(n=40, seed=seed)))
        assert (out.min_length, out.visited) == (length, visited)
        assert out.witness == word_from_letters(witness)


def _record(pfa, **budget):
    """power_bfs's (status, min_length, witness, visited, bound), or
    ("overrun", visited, word) where it runs out of budget."""
    try:
        out = power_bfs(pfa, **budget)
    except BudgetExceeded as exc:
        return ("overrun", exc.visited, exc.word)
    return (out.status, out.min_length, out.witness, out.visited, out.bound)


class TestCurveDraws:
    """Length-curve draws at sizes whose chunks are narrower than a byte,
    pinned: the search with its default budget and with max_visited=1000
    (no draw here stores more than 943 subsets), and with both beams run
    before the first layer, the pruned search and its overrun at
    max_visited=10 (None where the pruned search stores at most 10)."""

    @pytest.mark.parametrize(
        "n, trial, witness, visited, bound, pruned_visited, overrun_word",
        [
            (10, 0, "abbba", 14, 5, 5, None),
            (10, 1, "ababababa", 33, 9, 13, "ababababa"),
            (10, 2, None, 4, 3, 4, None),
            (12, 0, "aabaaabaaab", 107, 11, 47, "abaabaabaab"),
            (12, 1, "aaaaabbb", 61, 8, 10, None),
            (12, 2, "aabbba", 10, 6, 6, None),
            (17, 0, "aaaaaabbaaaa", 39, 12, 15, "aaaaaabbbaaa"),
            (17, 1, "abbaababab", 191, 10, 34, "abbaababab"),
            (17, 2, None, 9, 8, 9, None),
            (20, 0, None, 6, 5, 6, None),
            (20, 1, "ababbbabab", 112, 10, 25, "ababbbabab"),
            (20, 2, None, 6, 5, 6, None),
            (25, 0, None, 7, 6, 7, None),
            (25, 1, "abbababaabbbb", 943, 13, 63, "abbababaabbbb"),
            (25, 2, None, 5, 4, 5, None),
            (33, 0, "aaaaabaabaabaa", 571, 14, 93, "aaabbaabaabaab"),
            (33, 1, "abaaba", 32, 6, 8, None),
            (33, 2, "aaaaabababab", 340, 12, 76, "aaaaabababab"),
        ],
    )
    def test_search_is_pinned(
        self, monkeypatch, n, trial, witness, visited, bound, pruned_visited, overrun_word
    ):
        assert _chunk_width(n) < 8
        pfa = random_pfa(GenConfig(n=n, seed=trial_seed(0, trial)))
        word = word_from_letters(witness) if witness else None
        status = FOUND if word else NOT_SYNCHRONIZING
        record = (status, word and len(word), word, visited, bound)
        assert _record(pfa) == record
        assert _record(pfa, max_visited=1000) == record
        monkeypatch.setattr("cswsat.oracle.BOUND_STAGES", FIRST_LAYER_STAGES)
        pruned = (status, word and len(word), word, pruned_visited, bound)
        assert _record(pfa) == pruned
        assert _record(pfa, max_visited=10) == (
            ("overrun", 11, word_from_letters(overrun_word)) if overrun_word else pruned
        )


class TestPairBound:
    @pytest.mark.parametrize("pfa", [pn(12), random_pfa(GenConfig(n=40, seed=1))])
    def test_far_masks_follow_the_radius(self, pfa):
        dist = pair_distances(pfa)
        bound = _PairBound(pfa, _letter_actions(pfa), DistanceTables(pfa))
        bound.word = (1,) * max(map(max, dist))
        rng = random.Random(pfa.n)
        subsets = [(1 << pfa.n) - 1] + [rng.getrandbits(pfa.n) or 1 for _ in range(100)]
        for depth in range(len(bound.word) + 2):
            radius = max(len(bound.word) - depth, 0)
            far_tables = bound.far_map_at(depth)
            expected = [
                sum(1 << p for p, d in enumerate(row) if d > radius) for row in dist
            ]
            assert bound.far == expected
            assert (far_tables is None) == (not any(expected))
            if far_tables is None:
                continue
            for subset in subsets:
                states = _states(subset)
                image = _table_image(far_tables, subset, pfa.n)
                assert image == _mask(
                    {p for q in states for p in range(1, pfa.n + 1) if dist[q - 1][p - 1] > radius}
                )
                # the prune test: the subset holds a pair farther apart
                assert bool(subset & image) == any(
                    dist[p - 1][q - 1] > radius for p in states for q in states
                )

    def test_memory_is_quadratic_on_the_chain_family(self):
        # pn(300)'s largest pair distance is 44,849: a dense radius x n
        # table of masks took 111 MB
        pfa = pn(300)
        actions = _letter_actions(pfa)
        tracemalloc.start()
        try:
            _PairBound(pfa, actions, DistanceTables(pfa))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20


    def test_stages_need_a_word_a_beam_can_store(self, monkeypatch):
        # pn(8)'s farthest pair is 27 letters apart, and every word at least
        # that long; a beam stores one subset per layer
        pfa = pn(8)
        assert max(map(max, pair_distances(pfa))) == 27
        actions = _letter_actions(pfa)
        monkeypatch.setattr("cswsat.oracle.DEFAULT_MAX_VISITED", 27)
        assert _PairBound(pfa, actions, DistanceTables(pfa)).stages == sorted(BOUND_STAGES)
        monkeypatch.setattr("cswsat.oracle.DEFAULT_MAX_VISITED", 26)
        assert _PairBound(pfa, actions, DistanceTables(pfa)).stages == []

    def test_pair_table_is_held_to_the_table_ceiling(self, monkeypatch):
        # the pair table costs 11 words per state pair: pn(8)'s fits 704 words
        pfa = pn(8)
        actions = _letter_actions(pfa)
        with mock.patch("cswsat.encoder.pair_distances", wraps=pair_distances) as dist:
            monkeypatch.setattr("cswsat.oracle.MAX_TABLE_WORDS", 703)
            assert _PairBound(pfa, actions, DistanceTables(pfa)).stages == []
            dist.assert_not_called()
            monkeypatch.setattr("cswsat.oracle.MAX_TABLE_WORDS", 704)
            assert _PairBound(pfa, actions, DistanceTables(pfa)).stages == sorted(BOUND_STAGES)
            dist.assert_called_once()
        # at the default ceiling, 1234 states fit and 1235 do not
        assert 11 * 1234**2 <= MAX_TABLE_WORDS < 11 * 1235**2
        with mock.patch("cswsat.encoder.pair_distances") as dist:
            assert _PairBound(_identity(1235), [], DistanceTables(_identity(1235))).stages == []
        dist.assert_not_called()

    def test_a_search_past_the_pair_ceiling_is_unbounded(self, monkeypatch):
        # random n=60 seed 5 settles within 2^14 words only when bounded; its
        # letter tables take 20,480 words and its pair table 39,600
        pfa = random_pfa(GenConfig(n=60, seed=5))
        monkeypatch.setattr("cswsat.oracle.MAX_TABLE_WORDS", 39600)
        out = power_bfs(pfa, max_visited=2**14)
        assert (out.status, out.min_length) == (FOUND, 21)
        monkeypatch.setattr("cswsat.oracle.MAX_TABLE_WORDS", 39599)
        with mock.patch("cswsat.encoder.pair_distances") as dist:
            with pytest.raises(BudgetExceeded) as info:
                power_bfs(pfa, max_visited=2**14)
        dist.assert_not_called()
        assert info.value.word is None

    def test_table_is_checked_once_before_it_prunes(self, monkeypatch):
        events = []
        log_calls(monkeypatch, events, lambda *args: "check", "check_distances")
        log_calls(monkeypatch, events, lambda *args: "prune", "far_map_at", _PairBound)
        monkeypatch.setattr("cswsat.oracle.BOUND_STAGES", FIRST_LAYER_STAGES)
        assert power_bfs(pn(8)).min_length == 55
        assert events[:2] == ["check", "prune"]
        assert events.count("check") == 1

    def test_a_wrong_table_in_the_bound_is_a_fault(self, monkeypatch, tmp_path, capsys):
        # both beams run before the first layer, so the bound reads the
        # pair table at once
        def corrupt(pfa):
            dist = pair_distances(pfa)
            dist[0][1] = dist[1][0] = dist[0][1] + 1
            return dist

        for module in bindings("pair_distances"):
            monkeypatch.setattr(module, "pair_distances", corrupt)
        monkeypatch.setattr("cswsat.oracle.BOUND_STAGES", FIRST_LAYER_STAGES)
        path = tmp_path / "pn8.txt"
        path.write_text(serialize_pfa(pn(8)))
        for command in ("oracle", "min"):
            assert main([command, str(path)]) == EXIT_FAULT
            assert "distance of states (1, 2)" in capsys.readouterr().err

    def test_long_chain_runs_no_beam(self):
        # pn(800)'s farthest pair is 319,599 letters apart, against 80,659
        # subsets of 13 words that a beam may store
        with mock.patch("cswsat.oracle._beam") as beam:
            with pytest.raises(BudgetExceeded) as info:
                power_bfs(pn(800))
        beam.assert_not_called()
        assert info.value.word is None


class TestExplicitConstruction:
    """The slow side of acceptance criterion 7 must be an exact method, or
    its timing says nothing."""

    @given(pfas(max_n=6, max_m=3))
    @example(Pfa(n=1, m=1, delta=((None,),)))  # one state, no total letter
    @example(Pfa(n=3, m=2, delta=((None, 1, 2), (3, None, 1))))  # no total letter
    @example(Pfa(n=3, m=2, delta=((2, 3, 1), (1, 3, 2))))  # permutations only
    @example(C3)
    @settings(max_examples=150)
    def test_matches_both_searches(self, pfa):
        length = explicit_power_length(pfa.n, pfa.delta, pfa.m)
        # a shortest word never revisits a subset, so 2^n letters is exhaustive
        reference = shortest_sync_word(pfa.n, pfa.delta, pfa.m, max_len=2**pfa.n)
        out = power_bfs(pfa)
        if reference is None:
            assert length is None
            assert out.status == NOT_SYNCHRONIZING
        else:
            assert length == len(reference) == out.min_length


def _all_words(m, length):
    if length == 0:
        yield ()
        return
    for prefix in _all_words(m, length - 1):
        for a in range(1, m + 1):
            yield prefix + (a,)
