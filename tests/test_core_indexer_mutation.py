"""Post-seal mutation audit and payload- and verifier-cache coherence.

The sealed (compiled) BM25 read form must never serve stale rankings:
any mutation after a ``search()`` — add, remove, or update — has to
invalidate the seal, and the next search has to re-seal over the
mutated corpus.  Likewise the Indexer's payload LRU must never return a
removed or pre-update serialization, and the Verifier's outcome cache
must never return a verdict computed from pre-update evidence.
"""

import pytest

from repro.core.config import VerifAIConfig
from repro.core.indexer import IndexerModule
from repro.core.pipeline import VerifAI
from repro.datalake.serialize import serialize_instance
from repro.datalake.types import Modality, Source, Table, TextDocument
from repro.index.inverted import InvertedIndex
from repro.verify.objects import ClaimObject, TupleObject
from repro.verify.verdict import Verdict
from repro.workloads.builder import LakeConfig, build_lake

from tests.bm25_oracle import oracle_search


def make_doc(doc_id, text):
    return TextDocument(
        doc_id=doc_id, title=doc_id, text=text, source=Source("test")
    )


def make_table(table_id, rows):
    return Table(
        table_id=table_id,
        caption=f"{table_id} caption about medals",
        columns=("nation", "gold"),
        rows=rows,
        source=Source("test"),
    )


@pytest.fixture()
def lake_and_indexer():
    lake = build_lake(LakeConfig(num_tables=10, seed=41)).lake
    return lake, IndexerModule(lake, VerifAIConfig()).build()


# ---------------------------------------------------------------------------
# the raw index: seal lifecycle under mutation
# ---------------------------------------------------------------------------
class TestInvertedIndexSealLifecycle:
    def build(self):
        index = InvertedIndex(name="seal-test")
        index.add("a", "red apples in the orchard")
        index.add("b", "green apples and red pears")
        index.add("c", "the orchard gate is green")
        return index

    def test_add_after_search_invalidates_and_reseals(self):
        index = self.build()
        index.search("apples", 5)
        assert index.is_sealed
        index.add("d", "red apples everywhere")
        assert not index.is_sealed
        hits = index.search("red apples", 5)
        assert index.is_sealed
        assert "d" in [h.instance_id for h in hits]

    def test_remove_after_search_invalidates_and_reseals(self):
        index = self.build()
        index.search("apples", 5)
        assert index.is_sealed
        index.remove("a")
        assert not index.is_sealed
        assert [h.instance_id for h in index.search("orchard", 5)] == ["c"]

    def test_update_after_search_matches_fresh_build(self):
        index = self.build()
        index.search("apples", 5)
        index.update("b", "yellow bananas and red pears")
        fresh = InvertedIndex(name="seal-test")
        fresh.add("a", "red apples in the orchard")
        fresh.add("b", "yellow bananas and red pears")
        fresh.add("c", "the orchard gate is green")
        for query in ("red", "bananas", "apples orchard"):
            assert [
                (h.instance_id, h.score) for h in index.search(query, 5)
            ] == [(h.instance_id, h.score) for h in fresh.search(query, 5)]

    def test_dict_path_compacts_tombstones(self):
        index = InvertedIndex(name="dict")
        index.add("a", "shared token alpha")
        index.add("b", "shared token beta")
        index.remove("a")
        assert index.pending_tombstones == 1
        hits = oracle_search(index, "shared token", 5)
        assert [h.instance_id for h in hits] == ["b"]
        assert index.pending_tombstones == 0

    def test_remove_then_readd_same_id(self):
        index = self.build()
        index.remove("a")
        index.add("a", "completely new words about plums")
        hits = index.search("plums", 5)
        assert [h.instance_id for h in hits] == ["a"]
        # the old payload's tokens no longer reach "a"
        assert "a" not in [
            h.instance_id for h in index.search("orchard", 5)
        ]

    def test_remove_unknown_raises_and_changes_nothing(self):
        index = self.build()
        with pytest.raises(KeyError):
            index.remove("ghost")
        assert len(index) == 3

    def test_stats_corrected_before_compaction(self):
        index = self.build()
        before = index.avg_doc_length
        index.remove("a")
        # stats reflect the removal immediately, tombstone or not
        assert index.pending_tombstones == 1
        assert len(index) == 2
        assert index.avg_doc_length != before or index._total_length >= 0
        # df is over post-analysis tokens ("apples" stems to "apple");
        # "orchard" appeared in docs a and c, and a is now tombstoned
        assert index.local_df("orchard") == 1  # compacts on read


# ---------------------------------------------------------------------------
# the indexer module: mutation after retrieval
# ---------------------------------------------------------------------------
class TestIndexerPostSealMutation:
    def test_add_instance_after_search_is_retrievable(self, lake_and_indexer):
        lake, indexer = lake_and_indexer
        indexer.search("anything at all", Modality.TEXT, 5)
        doc = make_doc("post-seal-doc", "ultramarine voyages of the kestrel")
        lake.add_document(doc)
        indexer.add_instance(doc)
        hits = indexer.search("ultramarine kestrel", Modality.TEXT, 5)
        assert hits and hits[0].instance_id == "post-seal-doc"

    def test_remove_instance_after_search_disappears(self, lake_and_indexer):
        lake, indexer = lake_and_indexer
        doc = lake.documents()[0]
        # warm the sealed path first
        indexer.search(doc.text[:40], Modality.TEXT, 5)
        removed = lake.remove_instance(doc.doc_id)
        indexer.remove_instance(removed)
        hits = indexer.search(doc.text[:40], Modality.TEXT, 50)
        assert all(h.instance_id != doc.doc_id for h in hits)

    def test_table_removal_drops_its_tuples_too(self, lake_and_indexer):
        lake, indexer = lake_and_indexer
        table = lake.tables()[0]
        row_ids = [row.instance_id for row in table.iter_rows()]
        indexer.search(table.caption, Modality.TUPLE, 5)
        removed = lake.remove_instance(table.table_id)
        indexer.remove_instance(removed)
        tuple_index = indexer.content_index(Modality.TUPLE)
        for row_id in row_ids:
            assert row_id not in tuple_index._doc_length
        assert table.table_id not in (
            indexer.content_index(Modality.TABLE)._doc_length
        )

    def test_update_with_different_row_count(self, lake_and_indexer):
        lake, indexer = lake_and_indexer
        table = lake.tables()[0]
        indexer.search(table.caption, Modality.TUPLE, 5)
        new = Table(
            table_id=table.table_id, caption="shrunk to one row",
            columns=("nation", "gold"), rows=[("valoria", "10")],
            source=table.source,
        )
        old = lake.update_instance(new)
        indexer.update_instance(old, new)
        tuple_index = indexer.content_index(Modality.TUPLE)
        assert f"{table.table_id}#r0" in tuple_index._doc_length
        for row in old.iter_rows()[1:]:
            assert row.instance_id not in tuple_index._doc_length

    def test_update_id_mismatch_rejected(self, lake_and_indexer):
        lake, indexer = lake_and_indexer
        doc = lake.documents()[0]
        other = make_doc("different-id", "text")
        with pytest.raises(ValueError):
            indexer.update_instance(doc, other)

    def test_mutation_before_build_is_noop(self):
        lake = build_lake(LakeConfig(num_tables=6, seed=42)).lake
        indexer = IndexerModule(lake, VerifAIConfig())
        doc = lake.remove_instance(lake.documents()[0].doc_id)
        indexer.remove_instance(doc)  # not built: must not raise
        indexer.build()
        hits = indexer.search(doc.text[:40], Modality.TEXT, 50)
        assert all(h.instance_id != doc.doc_id for h in hits)


# ---------------------------------------------------------------------------
# payload-cache coherence
# ---------------------------------------------------------------------------
class TestPayloadCacheCoherence:
    def test_fetch_after_update_returns_new_payload(self):
        lake = build_lake(LakeConfig(num_tables=8, seed=43)).lake
        system = VerifAI(lake).build_indexes()
        doc = lake.documents()[0]
        stale = system.indexer.fetch_payload(doc.doc_id)
        new = TextDocument(
            doc_id=doc.doc_id, title=doc.title,
            text=doc.text + " freshly updated content",
            source=doc.source, entity=doc.entity,
        )
        system.update_instance(new)
        fetched = system.indexer.fetch_payload(doc.doc_id)
        assert fetched != stale
        assert fetched == serialize_instance(new)

    def test_fetch_after_remove_raises_lake_keyerror(self):
        lake = build_lake(LakeConfig(num_tables=8, seed=44)).lake
        system = VerifAI(lake).build_indexes()
        doc = lake.documents()[0]
        system.indexer.fetch_payload(doc.doc_id)  # cache it
        system.remove_instance(doc.doc_id)
        with pytest.raises(KeyError):
            system.indexer.fetch_payload(doc.doc_id)

    def test_table_update_evicts_row_payloads(self):
        lake = build_lake(LakeConfig(num_tables=8, seed=45)).lake
        system = VerifAI(lake).build_indexes()
        table = lake.tables()[0]
        row_id = f"{table.table_id}#r0"
        stale = system.indexer.fetch_payload(row_id)
        new_rows = [tuple(f"{cell} updated" for cell in row)
                    for row in table.rows]
        new = Table(
            table_id=table.table_id, caption=table.caption,
            columns=table.columns, rows=new_rows, source=table.source,
            entity_columns=table.entity_columns,
            key_column=table.key_column, metadata=dict(table.metadata),
        )
        system.update_instance(new)
        assert system.indexer.fetch_payload(row_id) != stale

    def test_unbuilt_update_still_evicts_cached_payload(self):
        """Regression: eviction used to be skipped entirely when the
        indexes weren't built yet, so a fetch_payload() before build()
        could pin a stale payload across an update forever."""
        lake = build_lake(LakeConfig(num_tables=8, seed=47)).lake
        indexer = IndexerModule(lake, VerifAIConfig())  # never built
        doc = lake.documents()[0]
        stale = indexer.fetch_payload(doc.doc_id)
        new = TextDocument(
            doc_id=doc.doc_id, title=doc.title,
            text=doc.text + " rewritten before any index existed",
            source=doc.source, entity=doc.entity,
        )
        lake.update_instance(new)
        indexer.update_instance(doc, new)
        fetched = indexer.fetch_payload(doc.doc_id)
        assert fetched != stale
        assert fetched == serialize_instance(new)

    def test_unbuilt_remove_evicts_table_row_payloads(self):
        lake = build_lake(LakeConfig(num_tables=8, seed=48)).lake
        indexer = IndexerModule(lake, VerifAIConfig())  # never built
        table = lake.tables()[0]
        row_id = f"{table.table_id}#r0"
        indexer.fetch_payload(row_id)  # cache a row of the table
        lake.remove_instance(table.table_id)
        indexer.remove_instance(table)
        with pytest.raises(KeyError):
            indexer.fetch_payload(row_id)

    def test_hit_counters_still_work(self):
        lake = build_lake(LakeConfig(num_tables=6, seed=46)).lake
        indexer = IndexerModule(lake, VerifAIConfig()).build()
        doc_id = lake.documents()[0].doc_id
        indexer.fetch_payload(doc_id)
        misses = indexer.payload_cache_misses
        indexer.fetch_payload(doc_id)
        assert indexer.payload_cache_hits >= 1
        assert indexer.payload_cache_misses == misses


# ---------------------------------------------------------------------------
# verifier-cache coherence
# ---------------------------------------------------------------------------
def _edit_cell(table, row_index, column, value):
    """``table`` with one cell replaced."""
    rows = [tuple(row) for row in table.rows]
    cells = list(rows[row_index])
    cells[table.columns.index(column)] = value
    rows[row_index] = tuple(cells)
    return Table(
        table_id=table.table_id, caption=table.caption,
        columns=table.columns, rows=rows, source=table.source,
        entity_columns=table.entity_columns,
        key_column=table.key_column, metadata=dict(table.metadata),
    )


def _answer(report):
    return (
        report.final_verdict,
        report.evidence_ids,
        [(o.evidence_id, o.verdict, o.explanation) for o in report.outcomes],
    )


class TestVerifierCacheCoherence:
    def test_reverify_after_cell_edit_matches_fresh_system(self):
        """Regression: outcomes were cached by evidence id alone, so a
        tuple re-verified after its table changed got the verdict
        computed from the old cell."""
        lake = build_lake(LakeConfig(num_tables=8, seed=49)).lake
        system = VerifAI(lake).build_indexes()
        table = lake.tables()[0]
        row = table.row(0)
        column = next(c for c in table.columns if c != table.key_column)
        obj = TupleObject("t0", row, attribute=column)
        before = system.verify(obj)
        assert f"{table.table_id}#r0" in before.evidence_ids
        system.update_instance(_edit_cell(table, 0, column, "999,999"))
        after = system.verify(obj)
        fresh = VerifAI(lake).build_indexes().verify(obj)
        assert _answer(after) == _answer(fresh)
        assert _answer(after) != _answer(before)

    def test_reverify_after_document_edit_matches_fresh_system(self):
        lake = build_lake(LakeConfig(num_tables=8, seed=50)).lake
        system = VerifAI(lake).build_indexes()
        doc = next(d for d in lake.documents() if d.entity)
        obj = ClaimObject("c0", f"{doc.entity} is a record holder")
        before = system.verify(obj, modalities=[Modality.TEXT])
        assert doc.doc_id in before.evidence_ids
        system.update_instance(TextDocument(
            doc_id=doc.doc_id, title=doc.title,
            text=f"{doc.entity} is a record holder. " + doc.text,
            source=doc.source, entity=doc.entity,
        ))
        after = system.verify(obj, modalities=[Modality.TEXT])
        fresh = VerifAI(lake).build_indexes().verify(
            obj, modalities=[Modality.TEXT]
        )
        assert _answer(after) == _answer(fresh)
        assert _answer(after) != _answer(before)

    def test_update_retires_only_the_changed_instances_outcomes(self):
        lake = build_lake(LakeConfig(num_tables=8, seed=51)).lake
        system = VerifAI(lake).build_indexes()
        first, second = lake.tables()[:2]

        def verify_all(table):
            """Verify every row and the table; returns the cache hits."""
            before = system.verifier.cache_hits
            for row in table.iter_rows():
                system.verifier.verify_one(TupleObject("o", row), row)
            system.verifier.verify_one(TupleObject("o", table.row(0)), table)
            return system.verifier.cache_hits - before

        assert verify_all(first) == 0 and verify_all(second) == 0
        system.update_instance(_edit_cell(
            first, 0, first.columns[-1], "edited"
        ))
        assert verify_all(second) == second.num_rows + 1
        # unchanged rows of the edited table too: same content, same id
        assert verify_all(lake.table(first.table_id)) == 0

    def test_remove_then_readd_recomputes(self):
        lake = build_lake(LakeConfig(num_tables=8, seed=52)).lake
        system = VerifAI(lake).build_indexes()
        table = lake.tables()[0]
        column = table.columns[-1]
        obj = TupleObject("o", table.row(0), attribute=column)
        before = system.verifier.verify_one(obj, table.row(0))
        assert before.verdict is Verdict.VERIFIED
        system.remove_instance(table.table_id)
        edited = _edit_cell(table, 0, column, "999,999")
        lake.add_table(edited)
        system.add_instance(edited)
        after = system.verifier.verify_one(obj, edited.row(0))
        assert after.verdict is Verdict.REFUTED
