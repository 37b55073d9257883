"""Tests for ECC accounting: histograms and Monte-Carlo evaluation."""

import numpy as np
import pytest

from repro.ecc import (
    DecodeStatus,
    EccEvaluation,
    ParityCode,
    SECDED_72_64,
    evaluate_code_against_histogram,
    flips_per_word,
)
from repro.ecc.bitops import parity


class TestBitops:
    def test_parity(self):
        assert parity(np.array([1, 1, 0], dtype=np.uint8)) == 0
        assert parity(np.array([1, 0, 0], dtype=np.uint8)) == 1


class TestFlipsPerWord:
    def test_empty(self):
        assert flips_per_word([]) == {}

    def test_single_word_groups(self):
        # bits 0, 5, 63 live in word 0; bit 64 in word 1.
        assert flips_per_word([0, 5, 63, 64]) == {1: 1, 3: 1}

    def test_word_size_respected(self):
        assert flips_per_word([0, 100], word_bits=128) == {2: 1}

    def test_rejects_bad_word_bits(self):
        with pytest.raises(ValueError):
            flips_per_word([0], word_bits=0)


class TestEvaluation:
    def test_secded_corrects_single_flip_class(self):
        rng = np.random.default_rng(0)
        ev = evaluate_code_against_histogram(SECDED_72_64, {1: 50}, rng)
        assert ev.outcomes.get(DecodeStatus.CORRECTED, 0) == 50
        assert ev.uncorrected_words == 0

    def test_secded_fails_double_flip_class(self):
        rng = np.random.default_rng(0)
        ev = evaluate_code_against_histogram(SECDED_72_64, {2: 50}, rng)
        assert ev.uncorrected_words == 50

    def test_parity_detects_odd_misses_even(self):
        rng = np.random.default_rng(0)
        code = ParityCode(64)
        odd = evaluate_code_against_histogram(code, {1: 30}, rng)
        assert odd.outcomes.get(DecodeStatus.DETECTED_UNCORRECTABLE, 0) == 30
        even = evaluate_code_against_histogram(code, {2: 30}, rng)
        # Even flips pass the parity check -> silent corruption.
        assert even.silent_corruptions == 30

    def test_scaling_to_population(self):
        rng = np.random.default_rng(1)
        ev = evaluate_code_against_histogram(SECDED_72_64, {1: 10_000}, rng, trials_per_class=50)
        assert ev.words_total == pytest.approx(10_000, rel=0.01)

    def test_rates(self):
        ev = EccEvaluation()
        ev.add(DecodeStatus.CLEAN, 3)
        ev.add(DecodeStatus.MISCORRECTED, 1)
        assert ev.rate(DecodeStatus.CLEAN) == pytest.approx(0.75)
        assert ev.silent_corruptions == 1
