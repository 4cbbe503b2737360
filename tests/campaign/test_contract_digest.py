"""The record contract, as one committed number.

The sha256 over the sorted ``(cache_key, record_digest)`` pairs of the
peptide-tiny 48-point factorial (two steps, default seeds) pins every
store key and every :class:`ResponseRecord` byte at once.  PRs 12-15
each recomputed it from a scratch script; a change that moves it has
changed what a design point *means* and must bump ``SCHEMA_VERSION``.
"""

from __future__ import annotations

import hashlib
import json

from repro.campaign import ResultStore, record_digest
from repro.core.design import full_factorial
from repro.parallel import MDRunConfig

from .conftest import oracle_store, tiny_engine

CONTRACT_DIGEST = "230dae462db741ee131b4962633f21b975f4c38a7d8c05de41f54d689f3e67fa"


def _digest(store: ResultStore) -> str:
    pairs = sorted((e.key, record_digest(e.record)) for e in store.entries())
    assert len(pairs) == 48
    return hashlib.sha256(json.dumps(pairs).encode()).hexdigest()


def test_inline_engine_with_its_trajectory_session():
    engine = tiny_engine(config=MDRunConfig(n_steps=2))
    assert engine.run(full_factorial()).ok
    assert _digest(engine.store) == CONTRACT_DIGEST


def test_oracle_without_any_shared_compute():
    engine = tiny_engine(config=MDRunConfig(n_steps=2))
    assert _digest(oracle_store(engine, full_factorial())) == CONTRACT_DIGEST
