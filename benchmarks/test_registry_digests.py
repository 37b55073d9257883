"""Behaviour lock: every registered experiment's payload at fixed seeds.

``registry_digests.json`` maps ``<experiment>@<seed>`` to the sha256 of
the payload's canonical JSON (:func:`repro.experiments.result.canonical_json`),
with every float rounded to 9 significant digits first, for all
registered experiments at seeds 0, 1 and 2.  A refactor or speedup of
the simulator must leave all of them unchanged; a change that is meant
to alter results regenerates the corpus and says so::

    PYTHONPATH=src python benchmarks/test_registry_digests.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments import registry
from repro.experiments.result import canonical_json
from repro.experiments.runner import execute_job

CORPUS = Path(__file__).with_name("registry_digests.json")
SEEDS = (0, 1, 2)


def _rounded(value):
    """``value`` with every float rounded to 9 significant digits."""
    if isinstance(value, float):
        return float(f"{value:.9g}")
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_rounded(item) for item in value]
    return value


def payload_digest(name: str, seed: int) -> str:
    """sha256 of ``name``'s rounded canonical payload at ``seed``."""
    payload = execute_job(name, seed=seed).payload
    return hashlib.sha256(canonical_json(_rounded(payload)).encode()).hexdigest()


def _keys():
    return [f"{name}@{seed}" for name in registry.names() for seed in SEEDS]


def _load():
    return json.loads(CORPUS.read_text())


def test_corpus_covers_the_registry():
    assert sorted(_load()) == sorted(_keys())


@pytest.mark.parametrize("key", _keys())
def test_payload_digest_unchanged(key):
    name, seed = key.rsplit("@", 1)
    assert payload_digest(name, int(seed)) == _load()[key]


if __name__ == "__main__":
    corpus = {}
    for key in _keys():
        name, seed = key.rsplit("@", 1)
        corpus[key] = payload_digest(name, int(seed))
        print(key, corpus[key][:16], flush=True)
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
