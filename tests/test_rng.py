import json
from pathlib import Path

import pytest

from fsro.rng import RngStream

REFERENCE = Path(__file__).parent / "data" / "rng_reference.json"


def test_matches_committed_reference_sequence():
    # frozen from an independently compiled C transcription of the canonical
    # xoshiro256**/splitmix64 reference code
    fixture = json.loads(REFERENCE.read_text())
    for seed_text, expected in fixture.items():
        stream = RngStream(int(seed_text))
        assert [stream.next_raw() for _ in range(len(expected))] == expected


def test_same_seed_same_first_draw():
    assert RngStream(123).uniform() == RngStream(123).uniform()


def test_uniform_mean_near_half():
    stream = RngStream(5)
    n = 10**5
    mean = sum(stream.uniform() for _ in range(n)) / n
    assert abs(mean - 0.5) < 0.01


def test_uniform_range():
    stream = RngStream(11)
    for _ in range(10**4):
        u = stream.uniform()
        assert 0.0 <= u < 1.0


def test_index_single_outcome():
    stream = RngStream(2)
    assert all(stream.index(1) == 0 for _ in range(100))


def test_index_two_outcome_frequencies():
    stream = RngStream(3)
    n = 10**4
    ones = sum(stream.index(2) for _ in range(n))
    assert 0.45 <= ones / n <= 0.55


def test_index_covers_range_uniformly():
    stream = RngStream(17)
    seen = [stream.index(7) for _ in range(7000)]
    assert set(seen) == set(range(7))


def test_index_empty_domain_rejected():
    with pytest.raises(ValueError):
        RngStream(1).index(0)


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        RngStream(-1)


def test_seed_of_2_64_or_more_rejected():
    # masking it to 64 bits would replay seed 0
    with pytest.raises(ValueError, match=r"2\*\*64"):
        RngStream(2**64)
    assert RngStream(2**64 - 1).next_raw() != RngStream(0).next_raw()


def test_shuffle_is_deterministic():
    a = list(range(20))
    b = list(range(20))
    RngStream(9).shuffle(a)
    RngStream(9).shuffle(b)
    assert a == b
    assert sorted(a) == list(range(20))
