import random

import pytest

from helpers import bareiss_det, fraction_det


def test_known_determinants():
    assert bareiss_det([]) == 1
    assert bareiss_det([[7]]) == 7
    assert bareiss_det([[1, 2], [3, 4]]) == -2
    assert bareiss_det([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1


def test_det_matches_fraction_oracle():
    rng = random.Random(42)
    for _ in range(200):
        h = rng.randint(1, 7)
        m = [[rng.randint(-9, 9) for _ in range(h)] for _ in range(h)]
        assert bareiss_det(m) == fraction_det(m)


def test_det_of_singular_matrix():
    m = [[1, 2, 3], [2, 4, 6], [0, 1, 5]]
    assert bareiss_det(m) == 0
    # pivoting path: leading zero column entry
    assert bareiss_det([[0, 1], [1, 0]]) == -1


def test_rejects_non_square():
    with pytest.raises(ValueError):
        bareiss_det([[1, 2], [3, 4], [5, 6]])
