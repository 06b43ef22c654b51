"""Statistical test implementations, cross-checked by enumeration."""

import itertools
import math
import random

import pytest

from smash.errors import SmashError
from smash.stats_tests import (
    PairedSample,
    average_ranks,
    paired_t_test,
    regularized_incomplete_beta,
    wilcoxon_signed_rank,
)


def sample_from_diffs(diffs):
    return PairedSample([float(d) for d in diffs], [0.0] * len(diffs))


def brute_force_wilcoxon_p(diffs):
    """Two-sided p by literal enumeration of all sign assignments."""
    ranks = average_ranks([abs(d) for d in diffs])
    w_plus = sum(r for d, r in zip(diffs, ranks) if d > 0)
    w_minus = sum(r for d, r in zip(diffs, ranks) if d < 0)
    stat = min(w_plus, w_minus)
    n = len(diffs)
    favorable = 0
    for signs in itertools.product([0, 1], repeat=n):
        w = sum(r for s, r in zip(signs, ranks) if s)
        if w <= stat + 1e-9:
            favorable += 1
    return min(1.0, 2 * favorable / 2**n)


class TestWilcoxon:
    def test_all_positive_exact(self):
        stat, p = wilcoxon_signed_rank(sample_from_diffs([1, 2, 3, 4, 5]))
        assert stat == 0
        assert p == pytest.approx(2 / 32)

    def test_symmetric_pair(self):
        stat, p = wilcoxon_signed_rank(sample_from_diffs([1, -1]))
        assert stat == pytest.approx(1.5)  # tied |d| share average rank
        assert p == 1.0

    def test_all_zero(self):
        with pytest.raises(SmashError, match="^all paired differences are zero$"):
            wilcoxon_signed_rank(PairedSample([1.0, 2.0], [1.0, 2.0]))

    def test_too_few(self):
        with pytest.raises(SmashError, match="^need >= 2 nonzero differences$"):
            wilcoxon_signed_rank(PairedSample([1.0, 2.0], [0.0, 2.0]))

    def test_matches_enumeration_oracle(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(2, 10)
            diffs = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n)]
            _, p = wilcoxon_signed_rank(sample_from_diffs(diffs))
            assert p == pytest.approx(brute_force_wilcoxon_p(diffs))

    def test_statistic_bounds_and_p_range(self):
        rng = random.Random(12)
        for _ in range(50):
            n = rng.randint(2, 20)
            diffs = [rng.uniform(-1, 1) or 0.5 for _ in range(n)]
            stat, p = wilcoxon_signed_rank(sample_from_diffs(diffs))
            assert 0 <= stat <= n * (n + 1) / 2
            assert 0 < p <= 1

    def test_sign_flip_antisymmetry(self):
        rng = random.Random(13)
        for _ in range(100):
            n = rng.randint(2, 30)  # covers exact and approximate branches
            diffs = [rng.uniform(-1, 1) or 0.5 for _ in range(n)]
            _, p1 = wilcoxon_signed_rank(sample_from_diffs(diffs))
            _, p2 = wilcoxon_signed_rank(sample_from_diffs([-d for d in diffs]))
            assert p1 == pytest.approx(p2)

    def test_normal_approximation_continuity(self):
        # approximate branch should be close to exact near the cut-over
        rng = random.Random(14)
        diffs = [rng.uniform(0.5, 2) * rng.choice([-1, 1]) for _ in range(25)]
        stat, p_exact = wilcoxon_signed_rank(sample_from_diffs(diffs))
        _, p_approx = wilcoxon_signed_rank(sample_from_diffs(diffs + [1e-12]))
        # adding a near-zero 26th pair switches to the normal branch
        assert p_approx == pytest.approx(p_exact, abs=0.02)


class TestPairedT:
    def test_formula_example(self):
        t, p = paired_t_test(sample_from_diffs([1, 2, 3, 4, 5]))
        assert t == pytest.approx(3 * math.sqrt(5) / math.sqrt(2.5), abs=1e-4)
        assert t == pytest.approx(4.2426, abs=1e-4)

    def test_zero_variance(self):
        with pytest.raises(SmashError, match="^all differences identical; t undefined$"):
            paired_t_test(sample_from_diffs([2, 2, 2]))

    def test_symmetric_gives_p_one(self):
        t, p = paired_t_test(sample_from_diffs([3, -3]))
        assert t == 0.0 and p == 1.0

    def test_too_few(self):
        with pytest.raises(SmashError, match="^need >= 2 pairs$"):
            paired_t_test(sample_from_diffs([1]))

    def test_known_critical_value(self):
        # t = 2.776 with 4 degrees of freedom sits at the 5% two-sided level
        nu, t = 4, 2.776
        p = regularized_incomplete_beta(nu / 2, 0.5, nu / (nu + t * t))
        assert p == pytest.approx(0.05, abs=1e-3)

    def test_incomplete_beta_accuracy(self):
        assert regularized_incomplete_beta(1, 1, 0.3) == pytest.approx(0.3, abs=1e-12)
        assert regularized_incomplete_beta(2, 2, 0.5) == pytest.approx(0.5, abs=1e-10)
        # I_x(2,3) = 6x^2 - 8x^3 + 3x^4
        x = 0.37
        assert regularized_incomplete_beta(2, 3, x) == pytest.approx(
            6 * x**2 - 8 * x**3 + 3 * x**4, abs=1e-10
        )

    def test_sign_flip_antisymmetry(self):
        rng = random.Random(15)
        for _ in range(100):
            n = rng.randint(2, 30)
            diffs = [rng.uniform(-1, 1) + 0.01 for _ in range(n)]
            try:
                _, p1 = paired_t_test(sample_from_diffs(diffs))
                _, p2 = paired_t_test(sample_from_diffs([-d for d in diffs]))
            except SmashError as exc:
                assert str(exc) == "all differences identical; t undefined"
                continue
            assert p1 == pytest.approx(p2)


class TestPairedSample:
    def test_length_mismatch(self):
        with pytest.raises(SmashError, match="^paired sample lengths differ: 1 vs 2$"):
            PairedSample([1.0], [1.0, 2.0])
