"""Tests for repro.utils: RNG derivation, units, validation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils import (
    check_in_range,
    check_positive,
    check_power_of_two,
    check_probability,
    derive_rng,
    derive_seed,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", 1) == derive_seed(42, "a", 1)

    def test_labels_matter(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_root_matters(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_label_order_matters(self):
        assert derive_seed(0, "a", "b") != derive_seed(0, "b", "a")

    def test_no_concatenation_collision(self):
        # ("ab",) must differ from ("a", "b") — the separator guarantees it.
        assert derive_seed(0, "ab") != derive_seed(0, "a", "b")

    @given(st.integers(min_value=0, max_value=2**62), st.text(max_size=20))
    def test_always_in_64bit_range(self, root, label):
        seed = derive_seed(root, label)
        assert 0 <= seed < 2**64


class TestDeriveRng:
    def test_same_stream(self):
        a = derive_rng(7, "x").random(5)
        b = derive_rng(7, "x").random(5)
        assert np.array_equal(a, b)

    def test_different_streams(self):
        a = derive_rng(7, "x").random(5)
        b = derive_rng(7, "y").random(5)
        assert not np.array_equal(a, b)



class TestValidation:
    def test_check_positive_rejects_zero(self):
        with pytest.raises(ValueError):
            check_positive("x", 0)

    def test_check_positive_accepts(self):
        check_positive("x", 0.1)

    def test_check_probability_bounds(self):
        check_probability("p", 0.0)
        check_probability("p", 1.0)
        with pytest.raises(ValueError):
            check_probability("p", 1.0001)
        with pytest.raises(ValueError):
            check_probability("p", -0.1)

    def test_check_in_range(self):
        check_in_range("v", 5, 1, 10)
        with pytest.raises(ValueError):
            check_in_range("v", 11, 1, 10)

    def test_check_power_of_two(self):
        check_power_of_two("n", 8)
        for bad in (0, -4, 3, 12):
            with pytest.raises(ValueError):
                check_power_of_two("n", bad)
