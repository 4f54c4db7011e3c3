from collections import Counter

import numpy as np
import pytest

from billiardknots import sampler, words
from billiardknots.distributions import BETA, crossing_pmf
from billiardknots.sampler import sample_pmf, tv_distance
from billiardknots.selfcheck import check_sampler_crossings


def test_tv_distance_basics():
    assert tv_distance({"a": 1.0}, {"a": 1.0}) == 0
    assert tv_distance({"a": 1.0}, {"b": 1.0}) == 1
    assert tv_distance({0: 0.5, 3: 0.5}, {0: 0.75, 3: 0.25}) == pytest.approx(0.25)


def test_batch_reduction_matches_words_crossing_number():
    ok, detail = check_sampler_crossings(14)
    assert ok, detail


def test_empty_report_is_valid():
    report = sample_pmf(6, 0, seed=1, exact=crossing_pmf(6))
    assert report.sample_count == 0
    assert report.counts == {}
    assert report.empirical == {}
    assert report.tv_distance_to_exact is None


def test_one_word_report_has_all_its_mass_at_one_crossing_number():
    exact = crossing_pmf(6)
    report = sample_pmf(6, 1, seed=1, exact=exact)
    ((c, k),) = report.counts.items()
    assert k == 1 and report.empirical == {c: 1.0}
    assert report.tv_distance_to_exact == tv_distance({c: 1.0}, exact.as_float_dict())


def test_workers_default_to_one():
    report = sample_pmf(12, 300, seed=5)
    assert report.workers == 1
    assert report == sample_pmf(12, 300, seed=5, workers=1)


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
    # recorded before letters came from raw 32-bit words: the workers draw
    # 3 and 2 rows, so 90003 and 60002 letters (3 and 2 mod 4), and 30001
    # columns are not a whole number of slabs
    (30001, 5, 11, 2): {9145: 1, 9160: 1, 9299: 1, 9312: 1, 9316: 1},
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


def test_mismatched_exact_pmf_is_rejected_before_drawing(monkeypatch):
    def no_draws(*args):
        raise AssertionError("words drawn before the exact pmf was checked")
    monkeypatch.setattr(sampler, "_draws", no_draws)
    with pytest.raises(ValueError, match="exact pmf is for n=30, not n=300"):
        sample_pmf(300, 100_000, 1, exact=crossing_pmf(30))


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


def test_count_seed_and_workers_must_be_integers():
    # numpy would truncate a float seed: 1.5 drew seed 1's words under the name 1.5
    for kwargs in ({"seed": 1.5}, {"seed": 1.0}, {"seed": 1, "workers": 2.0}):
        with pytest.raises(TypeError):
            sample_pmf(30, 500, **kwargs)
    with pytest.raises(TypeError):
        sample_pmf(30, 500.0, seed=1)
    report = sample_pmf(30, 500, seed=np.uint64(1), workers=np.int64(2))
    assert report == sample_pmf(30, 500, seed=1, workers=2)
    assert type(report.seed) is int and type(report.workers) is int


def test_one_walk_of_long_rows_matches_words_crossing_number():
    # 100 workers draw 4 rows each, held and walked in place 344 and 56 rows
    # at a time; the reference reduces each drawn row as a word
    rows = np.concatenate(list(sampler._draws(12205, 400, 7, 100)))
    texts = ("".join("01"[b] for b in row) for row in rows.tolist())
    expected = Counter(map(words.crossing_number, texts))
    assert sample_pmf(12205, 400, 7, 100).counts == expected


# n = 0; one row of 1 letter; 4096-row batches (rows * n = 0 mod 4) ending
# in 2 and 1 rows of 3 letters (2 and 3 mod 4), 2 workers; three batches,
# the last 809 rows of 5 letters (1 mod 4)
@pytest.mark.parametrize(
    "n, count, seed, workers", [(0, 5, 1, 2), (1, 1, 2, 1), (3, 16387, 3, 2), (5, 9001, 4, 1)]
)
def test_draws_equal_numpys_bounded_uint8_stream(n, count, seed, workers):
    # _draws keeps the top bit of each byte of raw 32-bit words; a numpy
    # release that changes how integers(0, 2, dtype=np.uint8) uses those
    # words, or how many it takes, fails here before any pinned report does
    expected = []
    base, extra = divmod(count, workers)
    for worker in range(workers):
        rng = sampler._substream(seed, worker)
        quota = base + (worker < extra)
        for start in range(0, quota, sampler._BATCH):
            rows = min(sampler._BATCH, quota - start)
            expected.append(rng.integers(0, 2, size=(rows, n), dtype=np.uint8))
    drawn = list(sampler._draws(n, count, seed, workers))
    assert [a.shape for a in drawn] == [a.shape for a in expected]
    for got, want in zip(drawn, expected):
        assert got.dtype == np.uint8
        assert np.array_equal(got, want)


def test_report_json():
    report = sample_pmf(3, 100, seed=2)
    data = report.to_json()
    assert data["n"] == 3 and data["count"] == 100 and data["seed"] == 2
    assert isinstance(data["empirical"], dict)
