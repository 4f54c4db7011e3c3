import pytest

from billiardknots.distributions import BETA, crossing_pmf
from billiardknots.sampler import sample_pmf, tv_distance
from billiardknots.selfcheck import check_sampler_crossings


def test_tv_distance_basics():
    assert tv_distance({"a": 1.0}, {"a": 1.0}) == 0
    assert tv_distance({"a": 1.0}, {"b": 1.0}) == 1
    assert tv_distance({0: 0.5, 3: 0.5}, {0: 0.75, 3: 0.25}) == pytest.approx(0.25)


def test_batch_reduction_matches_words_crossing_number():
    name, ok, detail = check_sampler_crossings(14)
    assert ok, detail


def test_empty_report_is_valid():
    report = sample_pmf(6, 0, seed=1)
    assert report.sample_count == 0
    assert report.counts == {}
    assert report.empirical == {}


def test_determinism_is_bitwise():
    a = sample_pmf(12, 3000, seed=99)
    b = sample_pmf(12, 3000, seed=99)
    assert a == b
    c = sample_pmf(12, 3000, seed=100)
    assert a != c


# Reports recorded from the per-word reduction that preceded the lockstep
# batch reduction: a changed stream or a changed reduction shows here.
# (30, 5000, 4, 1) spans two 4096-word batches; 1001 and 1000 are not
# multiples of their worker counts.
PINNED = {
    (0, 10, 1, 1): {0: 10},
    (1, 50, 2, 1): {0: 50},
    (3, 1001, 3, 2): {0: 762, 3: 239},
    (30, 5000, 4, 1): {
        0: 362, 3: 324, 4: 123, 5: 370, 6: 292, 7: 428, 8: 372, 9: 420,
        10: 409, 11: 393, 12: 335, 13: 265, 14: 250, 15: 210, 16: 154,
        17: 113, 18: 72, 19: 45, 20: 28, 21: 21, 22: 6, 23: 4, 24: 3, 26: 1,
    },
    (30, 1000, 5, 3): {
        0: 81, 3: 67, 4: 39, 5: 69, 6: 50, 7: 88, 8: 74, 9: 79, 10: 94,
        11: 68, 12: 69, 13: 59, 14: 47, 15: 31, 16: 30, 17: 22, 18: 9,
        19: 10, 20: 7, 21: 5, 22: 2,
    },
    (300, 40, 6, 3): {
        48: 1, 71: 2, 72: 1, 75: 1, 81: 1, 82: 1, 83: 2, 84: 1, 85: 2,
        89: 1, 91: 1, 92: 1, 93: 1, 94: 2, 95: 1, 96: 1, 97: 1, 98: 6,
        101: 4, 102: 1, 103: 1, 104: 1, 106: 1, 107: 2, 108: 1, 109: 1,
        127: 1,
    },
}


@pytest.mark.parametrize("key", PINNED)
def test_reports_match_the_pinned_counts(key):
    n, count, seed, workers = key
    report = sample_pmf(n, count, seed, workers)
    assert report.counts == PINNED[key]
    assert all(type(c) is int and type(k) is int for c, k in report.counts.items())


def test_workers_change_the_stream_but_stay_deterministic():
    one = sample_pmf(12, 2000, seed=5, workers=1)
    four_a = sample_pmf(12, 2000, seed=5, workers=4)
    four_b = sample_pmf(12, 2000, seed=5, workers=4)
    assert four_a == four_b
    assert sum(four_a.counts.values()) == sum(one.counts.values()) == 2000


def test_unknot_frequency_near_three_quarters():
    report = sample_pmf(3, 100_000, seed=20260809)
    assert report.empirical[0] == pytest.approx(0.75, abs=0.01)


def test_frequencies_sum_to_one():
    report = sample_pmf(9, 10_000, seed=3)
    assert sum(report.empirical.values()) == pytest.approx(1.0, abs=1e-12)


def test_tv_against_exact_attached_to_report():
    exact = crossing_pmf(12)
    report = sample_pmf(12, 20_000, seed=7, exact=exact)
    assert report.tv_distance_to_exact is not None
    assert report.tv_distance_to_exact < 0.05
    with pytest.raises(ValueError):
        sample_pmf(9, 10, seed=1, exact=exact)


def test_tv_shrinks_with_more_samples():
    exact = crossing_pmf(30)
    small, large = [], []
    for seed in range(5):
        small.append(sample_pmf(30, 1_000, seed=seed, exact=exact).tv_distance_to_exact)
        large.append(sample_pmf(30, 100_000, seed=seed, exact=exact).tv_distance_to_exact)
    assert sum(large) / 5 < sum(small) / 5
    assert sum(1 for s, l in zip(small, large) if l < s) >= 4


def test_concentration_at_large_length():
    report = sample_pmf(3000, 10_000, seed=41)
    stray = sum(
        freq for c, freq in report.empirical.items() if abs(c / 3000 - BETA) > 0.05
    )
    assert stray < 0.02


def test_invalid_inputs():
    with pytest.raises(ValueError):
        sample_pmf(5, 10, seed=1)
    with pytest.raises(ValueError):
        sample_pmf(6, -1, seed=1)
    with pytest.raises(ValueError):
        sample_pmf(6, 10, seed=1, workers=0)


def test_seed_must_fit_64_bits():
    # the seed is one 64-bit Philox key word; masking -1 or 2**64 into range
    # would give another seed's report under this seed's name
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            sample_pmf(30, 10, seed=seed)
    assert sample_pmf(30, 10, seed=2**64 - 1).sample_count == 10


def test_report_json():
    report = sample_pmf(3, 100, seed=2)
    data = report.to_json()
    assert data["n"] == 3 and data["count"] == 100 and data["seed"] == 2
    assert isinstance(data["empirical"], dict)
