"""Differential proof of the query-matrix BM25 kernel.

The contract under test (src/repro/index/inverted.py): scoring a whole
campaign of queries against a sealed shard in one vectorized pass
(``search_matrix`` / ``search_batch``) returns, query for query, the
bit-identical ``(instance_id, score)`` rankings of the per-query paths
— the sealed single-query kernel AND the dict-postings oracle
(tests/bm25_oracle.py).  Equality
is exact float64 equality, never approx: both paths accumulate
contributions in the same canonical sorted-token order, so IEEE
addition order matches and the scores agree to the last bit.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.config import VerifAIConfig
from repro.core.indexer import IndexerModule
from repro.datalake.types import Modality
from repro.index.inverted import InvertedIndex
from repro.index.shard import ShardedInvertedIndex

from tests.bm25_oracle import oracle_search

SHARD_COUNTS = [1, 2, 4]

QUERIES = [
    "largest cities by population",
    "points per game shooting guard",
    "gold silver bronze medal total",
    "season player statistics games",
    "eastern province area",
    "summer games delegation",
]

MODALITIES = [Modality.TUPLE, Modality.TABLE, Modality.TEXT]

DOCS = [
    ("d1", "the quick brown fox jumps over the lazy dog"),
    ("d2", "a quick brown dog barks at the fox"),
    ("d3", "lazy afternoons in the brown meadow"),
    ("d4", "the fox and the hound are friends"),
    ("d5", "dogs and foxes share the meadow at dusk"),
    ("d6", "quick reflexes help the hound catch nothing"),
    ("d7", "the meadow fox naps while the dog watches"),
    ("d8", "hounds bark and foxes listen at dusk"),
]

MICRO_QUERIES = [
    "quick brown fox",
    "lazy meadow",
    "hound dusk",
    "dog dog dog",  # repeated query term exercises the qtf weight
    "",  # empty query
    "absent tokens only here",
    "quick brown fox",  # duplicate of an earlier query (dedup-free path)
]


def pairs(hits):
    return [(h.instance_id, h.score) for h in hits]


def build_index():
    index = InvertedIndex(name="micro")
    for doc_id, text in DOCS:
        index.add(doc_id, text)
    return index


# ---------------------------------------------------------------------------
# the kernel itself, on a single index
# ---------------------------------------------------------------------------
class TestMatrixKernel:
    def test_matrix_matches_sealed_and_dict_paths_bitwise(self):
        index = build_index()
        expected_dict = [
            pairs(oracle_search(index, q, 5)) for q in MICRO_QUERIES
        ]
        index.seal()
        expected_sealed = [pairs(index.search(q, 5)) for q in MICRO_QUERIES]
        got = [pairs(hits) for hits in index.search_matrix(MICRO_QUERIES, 5)]
        assert got == expected_sealed
        assert got == expected_dict

    def test_matrix_seals_an_unsealed_index(self):
        index = build_index()
        assert not index.is_sealed
        got = [pairs(h) for h in index.search_matrix(MICRO_QUERIES, 5)]
        assert index.is_sealed
        assert got == [pairs(index.search(q, 5)) for q in MICRO_QUERIES]

    def test_matrix_empty_campaign(self):
        assert build_index().search_matrix([], 5) == []

    def test_matrix_k_edge_cases(self):
        index = build_index()
        for k in (0, 1, len(DOCS), 10 * len(DOCS)):
            got = [pairs(h) for h in index.search_matrix(MICRO_QUERIES, k)]
            assert got == [
                pairs(index.search(q, k)) for q in MICRO_QUERIES
            ]

    def test_matrix_after_mutation_reseals_correctly(self):
        index = build_index()
        index.search_matrix(MICRO_QUERIES, 5)  # seals
        index.remove("d1")
        index.update("d3", "sunny mornings in the green meadow")
        got = [pairs(h) for h in index.search_matrix(MICRO_QUERIES, 5)]
        oracle = InvertedIndex(name="micro")
        for doc_id, text in DOCS:
            if doc_id == "d1":
                continue
            if doc_id == "d3":
                text = "sunny mornings in the green meadow"
            oracle.add(doc_id, text)
        assert got == [pairs(oracle.search(q, 5)) for q in MICRO_QUERIES]


# ---------------------------------------------------------------------------
# sharded scatter-gather over the matrix kernel
# ---------------------------------------------------------------------------
class TestShardedBatch:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_search_batch_matches_per_query(self, num_shards):
        sharded = ShardedInvertedIndex(num_shards, name="micro")
        for doc_id, text in DOCS:
            sharded.add(doc_id, text)
        per_query = [pairs(sharded.search(q, 6)) for q in MICRO_QUERIES]
        batched = [
            pairs(h) for h in sharded.search_batch(MICRO_QUERIES, 6)
        ]
        assert batched == per_query

    def test_search_batch_empty(self):
        sharded = ShardedInvertedIndex(2, name="micro")
        assert sharded.search_batch([], 5) == []


# ---------------------------------------------------------------------------
# the full indexer surface: every modality, every retrieval path
# ---------------------------------------------------------------------------
class TestIndexerBatch:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_all_modalities_identical(self, small_bundle, num_shards):
        indexer = IndexerModule(
            small_bundle.lake, VerifAIConfig(num_shards=num_shards)
        ).build()
        for modality in MODALITIES:
            per_query = [
                pairs(indexer.search(q, modality, 10)) for q in QUERIES
            ]
            batched = [
                pairs(h)
                for h in indexer.search_batch(QUERIES, modality, 10)
            ]
            assert batched == per_query, (
                f"shards={num_shards} {modality.value}"
            )
            assert any(per_query), (
                f"vacuous comparison: {modality.value} matched nothing"
            )

    def test_semantic_fusion_batch_identical(self, small_bundle):
        indexer = IndexerModule(
            small_bundle.lake,
            VerifAIConfig(use_semantic_index=True, num_shards=2),
        ).build()
        for modality in MODALITIES:
            assert [
                pairs(h)
                for h in indexer.search_batch(QUERIES[:4], modality, 10)
            ] == [
                pairs(indexer.search(q, modality, 10)) for q in QUERIES[:4]
            ]

    def test_chunked_text_fold_batch_identical(self, small_bundle):
        indexer = IndexerModule(
            small_bundle.lake,
            VerifAIConfig(chunk_text=True, chunk_max_tokens=24, num_shards=2),
        ).build()
        assert [
            pairs(h)
            for h in indexer.search_batch(QUERIES, Modality.TEXT, 10)
        ] == [pairs(indexer.search(q, Modality.TEXT, 10)) for q in QUERIES]

    def test_batch_after_live_mutation_identical(self, small_bundle):
        indexer = IndexerModule(
            small_bundle.lake, VerifAIConfig(num_shards=2)
        ).build()
        indexer.search_batch(QUERIES, Modality.TUPLE, 10)  # warm/seal
        victim = small_bundle.tables[0]
        indexer.remove_instance(victim)
        assert [
            pairs(h)
            for h in indexer.search_batch(QUERIES, Modality.TABLE, 10)
        ] == [pairs(indexer.search(q, Modality.TABLE, 10)) for q in QUERIES]


# ---------------------------------------------------------------------------
# property: every search face equals the oracle on churned corpora
# ---------------------------------------------------------------------------
#: small vocabulary (with a stopword) so random documents share terms
PROPERTY_WORDS = ["fox", "dog", "meadow", "dusk", "hound", "brown", "the"]

PROPERTY_QUERIES = ["fox", "dog dog meadow", "brown hound dusk", "the", ""]

document = st.lists(st.sampled_from(PROPERTY_WORDS), max_size=6).map(
    " ".join
)


@st.composite
def churned_corpus(draw):
    """``(ops, k)``: 0–12 adds, then removals and re-adds of any of them.

    Removals may take every document (an all-removed corpus), and with
    so few documents some of three shards are usually empty.
    """
    texts = draw(st.lists(document, max_size=12))
    ids = [f"d{i:02d}" for i in range(len(texts))]
    ops = [("add", doc_id, text) for doc_id, text in zip(ids, texts)]
    removed = draw(st.lists(st.sampled_from(ids), unique=True)) if ids else []
    ops += [("remove", doc_id, None) for doc_id in removed]
    if removed:
        readded = draw(st.lists(st.sampled_from(removed), unique=True))
        ops += [("add", doc_id, draw(document)) for doc_id in readded]
    k = draw(st.sampled_from([-1, 0, 1, 3, len(texts) + 5]))
    return ops, k


def apply_ops(index, ops, probe):
    """Replay ``ops``; search once between the adds and the first
    removal so the removals invalidate a live seal."""
    searched = False
    for op, doc_id, text in ops:
        if op == "remove" and not searched:
            index.search(probe, 3)
            searched = True
        if op == "add":
            index.add(doc_id, text)
        else:
            index.remove(doc_id)
    return index


class TestOracleProperty:
    @settings(max_examples=150, deadline=None)
    @given(churned_corpus())
    @example(([], 3))  # empty corpus
    @example((
        [("add", "d00", "fox dog"), ("add", "d01", "fox"),
         ("remove", "d00", None), ("remove", "d01", None)],
        1,
    ))  # every document removed
    def test_every_search_face_equals_oracle(self, case):
        ops, k = case
        probe = PROPERTY_QUERIES[0]
        # the oracle scores a fresh build of the corpus the ops leave
        # behind, so a mutation bug cannot hide in shared index state
        final = {}
        for op, doc_id, text in ops:
            if op == "add":
                final[doc_id] = text
            else:
                del final[doc_id]
        fresh = InvertedIndex(name="prop")
        for doc_id, text in final.items():
            fresh.add(doc_id, text)
        expected = [
            pairs(oracle_search(fresh, q, k)) for q in PROPERTY_QUERIES
        ]
        mono = apply_ops(InvertedIndex(name="prop"), ops, probe)
        assert [pairs(mono.search(q, k)) for q in PROPERTY_QUERIES] == expected
        assert [
            pairs(h) for h in mono.search_batch(PROPERTY_QUERIES, k)
        ] == expected
        for num_shards in (1, 3):
            sharded = apply_ops(
                ShardedInvertedIndex(num_shards, name="prop"), ops, probe
            )
            assert [
                pairs(h) for h in sharded.search_batch(PROPERTY_QUERIES, k)
            ] == expected, num_shards
            assert [
                pairs(sharded.search(q, k)) for q in PROPERTY_QUERIES
            ] == expected, num_shards
