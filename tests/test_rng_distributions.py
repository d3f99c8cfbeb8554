"""Tests for RandomSource distributions and scripted sources."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng import RandomSource


class _Scripted:
    """A uniform stream fed from a list; IndexError once it runs out."""

    def __init__(self, values):
        self._values = list(values)

    def random(self):
        return self._values.pop(0)


@pytest.fixture
def source():
    return RandomSource(seed=2024)


def test_uniform_bounds(source):
    for _ in range(1000):
        v = source.uniform(3.0, 7.0)
        assert 3.0 <= v <= 7.0


def test_uniform_degenerate_interval(source):
    """Tr = 0 is expressed as uniform(x, x)."""
    assert source.uniform(5.0, 5.0) == 5.0


def test_uniform_rejects_inverted_interval(source):
    with pytest.raises(ValueError):
        source.uniform(2.0, 1.0)


def test_exponential_positive_and_mean(source):
    n = 20000
    values = [source.exponential(4.0) for _ in range(n)]
    assert all(v > 0 for v in values)
    assert abs(sum(values) / n - 4.0) < 0.15


def test_exponential_rejects_nonpositive_mean(source):
    with pytest.raises(ValueError):
        source.exponential(0.0)


def test_triangular_symmetric_bounds_and_mean(source):
    n = 20000
    values = [source.triangular_symmetric(2.0) for _ in range(n)]
    assert all(-2.0 <= v <= 2.0 for v in values)
    assert abs(sum(values) / n) < 0.05


def test_normal_moments(source):
    n = 20000
    values = [source.normal(10.0, 3.0) for _ in range(n)]
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    assert abs(mean - 10.0) < 0.15
    assert abs(math.sqrt(var) - 3.0) < 0.15


def test_randint_covers_range(source):
    seen = {source.randint(1, 6) for _ in range(2000)}
    assert seen == {1, 2, 3, 4, 5, 6}


def test_randint_single_point(source):
    assert source.randint(4, 4) == 4


def test_bernoulli_probability(source):
    n = 20000
    hits = sum(source.bernoulli(0.3) for _ in range(n))
    assert abs(hits / n - 0.3) < 0.02


def test_bernoulli_extremes(source):
    assert not any(source.bernoulli(0.0) for _ in range(100))
    assert all(source.bernoulli(1.0) for _ in range(100))


def test_choice_and_empty(source):
    items = ["a", "b", "c"]
    assert source.choice(items) in items
    with pytest.raises(ValueError):
        source.choice([])


def test_shuffle_is_permutation(source):
    items = list(range(20))
    shuffled = items.copy()
    source.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items  # astronomically unlikely to be identity


def test_spawn_streams_differ_and_reproduce():
    a = RandomSource(seed=5)
    b = RandomSource(seed=5)
    child_a0 = a.spawn(0)
    child_b0 = b.spawn(0)
    child_a1 = RandomSource(seed=5).spawn(1)
    seq_a0 = [child_a0.random() for _ in range(20)]
    seq_b0 = [child_b0.random() for _ in range(20)]
    seq_a1 = [child_a1.random() for _ in range(20)]
    assert seq_a0 == seq_b0
    assert seq_a0 != seq_a1


def test_scripted_source_replays_and_exhausts():
    src = RandomSource(generator=_Scripted([0.25, 0.75]))
    assert src.uniform(0.0, 4.0) == pytest.approx(1.0)
    assert src.uniform(0.0, 4.0) == pytest.approx(3.0)
    with pytest.raises(IndexError):
        src.random()


@given(low=st.floats(-100, 100), width=st.floats(0, 100))
@settings(max_examples=50)
def test_uniform_always_within_interval(low, width):
    src = RandomSource(seed=7)
    value = src.uniform(low, low + width)
    assert low <= value <= low + width
