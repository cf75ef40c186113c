"""Differential tests: the sealed (vectorized) BM25 path must return
byte-identical hit lists to the dict-postings oracle
(tests/bm25_oracle.py), including on the seeded medium experiment
workload."""

import random
import string

import pytest

from repro.datalake.serialize import serialize_row
from repro.datalake.types import Modality
from repro.experiments import get_context
from repro.index.inverted import InvertedIndex

from tests.bm25_oracle import oracle_search


def as_tuples(hits):
    return [(hit.score, hit.instance_id, hit.index_name) for hit in hits]


@pytest.fixture(scope="module")
def medium_context():
    return get_context("medium")


class TestSealedLifecycle:
    def test_search_seals_lazily(self):
        index = InvertedIndex()
        index.add("d1", "alpha beta gamma")
        assert not index.is_sealed
        index.search("alpha", 5)
        assert index.is_sealed

    def test_add_invalidates_seal(self):
        index = InvertedIndex()
        index.add("d1", "alpha beta")
        index.search("alpha", 5)
        index.add("d2", "alpha alpha alpha")
        assert not index.is_sealed
        hits = index.search("alpha", 5)
        assert as_tuples(hits) == as_tuples(oracle_search(index, "alpha", 5))
        assert hits[0].instance_id == "d2"

    def test_seal_is_idempotent(self):
        index = InvertedIndex()
        index.add("d1", "alpha")
        index.seal()
        sealed = index._sealed
        index.seal()
        assert index._sealed is sealed

    def test_empty_index_and_empty_query(self):
        index = InvertedIndex()
        assert index.search("anything", 5) == []
        index.add("d1", "alpha")
        assert index.search("", 5) == []
        assert index.search("zzz-not-there", 5) == []


class TestDifferentialRandom:
    def test_random_corpus_bit_identical(self):
        rng = random.Random(1234)
        vocab = [
            "".join(rng.choices(string.ascii_lowercase, k=5))
            for _ in range(250)
        ]
        index = InvertedIndex()
        for i in range(400):
            payload = " ".join(rng.choices(vocab, k=rng.randint(2, 50)))
            index.add(f"doc-{i:04d}", payload)
        for _ in range(100):
            query = " ".join(rng.choices(vocab, k=rng.randint(1, 6)))
            k = rng.choice([1, 2, 5, 20, 500])
            assert as_tuples(index.search(query, k)) == as_tuples(
                oracle_search(index, query, k)
            )


class TestDifferentialMediumWorkload:
    """The acceptance bar: sealed == oracle on the seeded medium lake."""

    @pytest.mark.parametrize("modality", [Modality.TUPLE, Modality.TABLE,
                                          Modality.TEXT])
    def test_bit_identical_hits(self, medium_context, modality):
        index = medium_context.system.indexer.content_index(modality)
        queries = [
            serialize_row(
                medium_context.bundle.lake.table(g.table_id).row(g.row_index)
            )
            for g in medium_context.generated[:25]
        ]
        for query in queries:
            for k in (3, 10, 50):
                assert as_tuples(index.search(query, k)) == as_tuples(
                    oracle_search(index, query, k)
                ), f"sealed/oracle divergence on {modality} k={k}"
