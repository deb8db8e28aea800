import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cswsat.generators import GenConfig, pn, random_pfa, trial_seed
from cswsat.oracle import power_bfs
from cswsat.search import min_csw


class TestChainFamily:
    def test_three_states(self):
        assert pn(3).delta == ((2, 3, 3), (None, 3, 1))

    def test_four_states(self):
        assert pn(4).delta == ((2, 3, 3, 4), (None, 3, 4, 1))

    def test_too_small(self):
        with pytest.raises(ValueError):
            pn(2)

    def test_shape(self):
        for n in range(3, 12):
            pfa = pn(n)
            assert (pfa.n, pfa.m) == (n, 2)
            assert pfa.undefined_count() == 1
            assert pfa.letter_total(1)

    def test_solver_and_reachability_agree(self):
        for n in range(4, 7):
            assert min_csw(pn(n)).min_length == power_bfs(pn(n)).min_length


def drawn_anchors(n: int, seed: int) -> tuple:
    """(q_a, q_b) as the generator draws them, first of all its draws."""
    rng = random.Random(seed)
    return rng.randint(1, n), rng.randint(1, n)


class TestRandomPfa:
    def test_first_letter_total_and_avoids_anchor(self):
        q_a, _ = drawn_anchors(7, 11)
        pfa = random_pfa(GenConfig(n=7, undefined_count=1, seed=11))
        assert pfa.letter_total(1)
        assert q_a not in pfa.delta[0]

    def test_second_letter_undefined_exactly_k_times(self):
        for k in (1, 2, 4):
            pfa = random_pfa(GenConfig(n=8, undefined_count=k, seed=5))
            holes = [q for q, t in enumerate(pfa.delta[1], start=1) if t is None]
            assert len(holes) == k

    def test_hole_anchor_always_undefined(self):
        for seed in range(20):
            _, q_b = drawn_anchors(6, seed)
            pfa = random_pfa(GenConfig(n=6, undefined_count=2, seed=seed))
            assert pfa.delta[1][q_b - 1] is None

    def test_fully_undefined_second_letter(self):
        pfa = random_pfa(GenConfig(n=5, undefined_count=5, seed=1))
        assert all(t is None for t in pfa.delta[1])
        assert pfa.letter_total(1)

    def test_deterministic(self):
        cfg = GenConfig(n=9, undefined_count=3, seed=123)
        assert random_pfa(cfg).delta == random_pfa(cfg).delta

    def test_seed_changes_output(self):
        a = random_pfa(GenConfig(n=9, undefined_count=1, seed=0))
        b = random_pfa(GenConfig(n=9, undefined_count=1, seed=1))
        assert a.delta != b.delta

    @given(
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=0, max_value=2**32),
        st.data(),
    )
    @settings(max_examples=100)
    def test_shape_invariants(self, n, seed, data):
        k = data.draw(st.integers(min_value=1, max_value=n))
        pfa = random_pfa(GenConfig(n=n, undefined_count=k, seed=seed))
        assert (pfa.n, pfa.m) == (n, 2)
        assert pfa.letter_total(1)
        assert pfa.undefined_count() == k
        assert all(1 <= t <= n for t in pfa.delta[0])


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=1),
            dict(n=5, undefined_count=0),
            dict(n=5, undefined_count=6),
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GenConfig(**kwargs)


class TestTrialSeed:
    def test_trial_offsets(self):
        assert trial_seed(5, 7) == 12
        assert trial_seed(5, 7, attempt=0) == 12

    def test_retry_changes_high_bits(self):
        assert trial_seed(5, 7, attempt=2) == 12 + (2 << 48)

    def test_distinct_across_grid(self):
        seen = {trial_seed(1000, t, a) for t in range(50) for a in range(4)}
        assert len(seen) == 200


ANCHOR_N = 10
ANCHOR_SAMPLES = 10_000


@pytest.fixture(scope="module")
def draws():
    out = []
    for t in range(ANCHOR_SAMPLES):
        seed = trial_seed(0, t)
        q_a = random.Random(seed).randint(1, ANCHOR_N)
        out.append((random_pfa(GenConfig(n=ANCHOR_N, seed=seed)), q_a))
    return out


class TestAnchorDistribution:
    """Statistical checks over 10,000 draws with a fixed master seed.

    The avoided state cannot always be read off the table (a small target
    sample may skip other states too), so it is recovered by replaying the
    documented first draw of the generator's RNG.
    """

    N = ANCHOR_N
    SAMPLES = ANCHOR_SAMPLES

    def test_avoided_state_is_uniform(self, draws):
        counts = dict.fromkeys(range(1, self.N + 1), 0)
        for pfa, q_a in draws:
            assert q_a not in pfa.delta[0]
            counts[q_a] += 1
        self._assert_near_uniform(counts)

    def test_hole_state_is_uniform(self, draws):
        counts = dict.fromkeys(range(1, self.N + 1), 0)
        for pfa, _ in draws:
            hole = next(q for q, t in enumerate(pfa.delta[1], start=1) if t is None)
            counts[hole] += 1
        self._assert_near_uniform(counts)

    def test_transition_targets_are_uniform(self, draws):
        # rank delta(1, a) within the nine allowed targets, then chi-square
        # against the uniform law; 20.09 is the 1% critical value at df=8
        counts = [0] * (self.N - 1)
        for pfa, q_a in draws:
            allowed = sorted(set(range(1, self.N + 1)) - {q_a})
            counts[allowed.index(pfa.delta[0][0])] += 1
        expected = self.SAMPLES / (self.N - 1)
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < 20.09

    def _assert_near_uniform(self, counts):
        # binomial standard error for p = 1/n over the sample count
        p = 1 / self.N
        se = (p * (1 - p) / self.SAMPLES) ** 0.5
        for q, c in counts.items():
            assert abs(c / self.SAMPLES - p) <= 3 * se, f"state {q}: {c}"
