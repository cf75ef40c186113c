"""The Indexer module: task-agnostic retrieval over the lake.

Per modality (tuples, tables, text files, KG entities) it maintains a
content-based BM25 index and, optionally, a semantic vector index; the
Combiner fuses their rankings.  All indexes speak instance ids, which
the lake resolves back to data instances.

Text documents may be indexed as sentence-aligned chunks
(``config.chunk_text``): retrieval then scores passages — long pages no
longer drown a single relevant sentence in length normalization — and
chunk hits are folded back to their parent documents.

With ``config.num_shards > 1`` every modality's content + semantic
index is partitioned into N shards by stable hash of the instance id's
root (chunks co-locate with their parent document, tuples with their
parent table), and ``search()`` runs scatter-gather.  Shard results are
proven hit-for-hit identical — ids *and* scores — to the monolithic
build (tests/test_index_sharding.py), so downstream modules never know
shards exist.

The module supports the full incremental lifecycle: instances added to
the lake after :meth:`build` fold in with :meth:`add_instance`, and
lake churn flows through :meth:`remove_instance` /
:meth:`update_instance` (tombstone + lazy compaction + re-seal, vector
eviction, payload-cache eviction) — no full rebuild required.
Mutations are single-writer: do not interleave them with concurrent
searches.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis import sanitizer as _sanitizer
from repro.datalake.lake import DataLake
from repro.datalake.serialize import serialize_instance
from repro.datalake.types import DataInstance, Modality, Table, TextDocument
from repro.embed.chunker import chunk_document
from repro.embed.vectorizers import HashingVectorizer
from repro.index.base import SearchHit, SearchIndex
from repro.index.combiner import Combiner, FusionMethod
from repro.index.inverted import InvertedIndex
from repro.index.shard import (
    ShardedInvertedIndex,
    ShardedVectorIndex,
    shard_of,
)
from repro.index.vector import FlatVectorIndex
from repro.core.config import VerifAIConfig
from repro.obs.clock import Clock, MonotonicClock
from repro.obs.metrics import get_registry
from repro.obs.trace import NULL_BRANCH

_INDEXED_MODALITIES = (
    Modality.TUPLE,
    Modality.TABLE,
    Modality.TEXT,
    Modality.KG_ENTITY,
)

#: (shard number, build start, build end, entries built) timings the
#: shard build reports for metrics and spans
_ShardTiming = Tuple[int, float, float, int]


def _fold_chunks_to_documents(hits: List[SearchHit], k: int) -> List[SearchHit]:
    """Collapse chunk hits (``doc#cN``) onto their parent documents,
    keeping each document's best chunk score.  Documents are re-ranked
    by ``(-score, instance_id)`` afterwards: a document whose best chunk
    appears late in the chunk ranking must not be stuck at the position
    of its first (weaker) chunk."""
    best: Dict[str, SearchHit] = {}
    for hit in hits:
        doc_id = hit.instance_id.split("#c", 1)[0]
        current = best.get(doc_id)
        if current is None or hit.score > current.score:
            best[doc_id] = SearchHit(hit.score, doc_id, hit.index_name)
    return sorted(
        best.values(), key=lambda hit: (-hit.score, hit.instance_id)
    )[:k]


class IndexerModule:
    """Per-modality content + semantic indexes with a Combiner on top."""

    def __init__(
        self,
        lake: DataLake,
        config: Optional[VerifAIConfig] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.lake = lake
        self.config = config or VerifAIConfig()
        if self.config.num_shards < 1:
            raise ValueError(
                f"num_shards must be >= 1, got {self.config.num_shards}"
            )
        self.clock: Clock = clock or MonotonicClock()
        self._content: Dict[Modality, SearchIndex] = {}
        self._semantic: Dict[Modality, SearchIndex] = {}
        self._combiners: Dict[Modality, Combiner] = {}
        self._vectorizer = HashingVectorizer(dim=self.config.embedding_dim)
        self._built = False
        # guards the lazy build: search()/verify paths may race to build
        # from the batch engine's worker threads
        self._build_lock = threading.Lock()
        # serialized payloads are immutable while an instance is in the
        # lake, so rerankers can share one serialization per instance
        # instead of re-serializing it for every query; remove/update
        # evict, so a mutated instance is never served stale
        self._payload_cache: "OrderedDict[str, str]" = OrderedDict()
        self._payload_lock = threading.Lock()
        self.payload_cache_hits = 0
        self.payload_cache_misses = 0
        self._metrics = get_registry()

    @property
    def is_built(self) -> bool:
        return self._built

    @property
    def num_shards(self) -> int:
        """Configured shard count (1 = monolithic indexes)."""
        return self.config.num_shards

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _payload_entries(self, instance: DataInstance):
        """(index id, payload) entries for one instance — one per chunk
        for text documents when chunking is on."""
        if (
            self.config.chunk_text
            and isinstance(instance, TextDocument)
        ):
            chunks = chunk_document(
                instance, max_tokens=self.config.chunk_max_tokens
            )
            if chunks:
                return [(chunk.chunk_id, chunk.text) for chunk in chunks]
        return [(instance.instance_id, serialize_instance(instance))]

    def _new_content_index(self, modality: Modality) -> SearchIndex:
        if self.config.num_shards > 1:
            return ShardedInvertedIndex(
                self.config.num_shards,
                name=f"bm25-{modality.value}",
            )
        return InvertedIndex(name=f"bm25-{modality.value}")

    def _new_semantic_index(self, modality: Modality) -> Optional[SearchIndex]:
        if not self.config.use_semantic_index:
            return None
        if self.config.num_shards > 1:
            return ShardedVectorIndex(
                self.config.num_shards,
                dim=self.config.embedding_dim,
                encoder=self._vectorizer.transform,
                name=f"vec-{modality.value}",
            )
        return FlatVectorIndex(
            dim=self.config.embedding_dim,
            encoder=self._vectorizer.transform,
            name=f"vec-{modality.value}",
        )

    def _add_to_indexes(self, modality: Modality, instance: DataInstance) -> None:
        content = self._content[modality]
        semantic = self._semantic.get(modality)
        for index_id, payload in self._payload_entries(instance):
            content.add(index_id, payload)
            if semantic is not None:
                semantic.add(index_id, payload)

    def _modality_entries(self, modality: Modality) -> List[Tuple[str, str]]:
        """Every (index id, payload) entry of one modality, in lake
        iteration order."""
        if modality is Modality.KG_ENTITY:
            return [
                (entity.instance_id, entity.serialize())
                for entity in self.lake.kg.entities()
            ]
        entries: List[Tuple[str, str]] = []
        for instance in self.lake.iter_instances(modality):
            entries.extend(self._payload_entries(instance))
        return entries

    def build(self, branch=None, parent=None) -> "IndexerModule":
        """Index every instance of every modality (idempotent, and safe
        to race: the first caller builds under the lock, later callers
        see the completed indexes).

        A tracing ``branch`` (plus ``parent`` span) emits one
        ``index.build:<modality>`` span per modality with per-shard
        children when the build is sharded.
        """
        if self._built:
            return self
        with self._build_lock:
            if self._built:
                return self
            self._build_locked(branch=branch or NULL_BRANCH, parent=parent)
        return self

    def _build_locked(self, branch=NULL_BRANCH, parent=None) -> None:
        for modality in _INDEXED_MODALITIES:
            content = self._new_content_index(modality)
            self._content[modality] = content
            semantic = self._new_semantic_index(modality)
            if semantic is not None:
                self._semantic[modality] = semantic
            entries = self._modality_entries(modality)
            if self.config.num_shards > 1:
                timings = self._build_shards(content, semantic, entries)
                self._record_shard_build(branch, parent, modality, timings)
            else:
                for index_id, payload in entries:
                    content.add(index_id, payload)
                    if semantic is not None:
                        semantic.add(index_id, payload)
            indexes: List[SearchIndex] = [content]
            if semantic is not None:
                indexes.append(semantic)
            self._combiners[modality] = Combiner(
                indexes,
                method=self.config.fusion,
                name=f"combined-{modality.value}",
            )
        self.seal_indexes()
        self._metrics.gauge("indexer.shard.count").set(self.config.num_shards)
        self._built = True

    def _build_shards(
        self,
        content: ShardedInvertedIndex,
        semantic: Optional[ShardedVectorIndex],
        entries: Sequence[Tuple[str, str]],
    ) -> List[_ShardTiming]:
        """Partition the entries and build every shard, one after
        another.

        Entries are added to the shard sub-indexes directly, skipping
        the wrapper's per-add seal invalidation (nothing is sealed yet).
        """
        num_shards = self.config.num_shards
        buckets: List[List[Tuple[str, str]]] = [[] for _ in range(num_shards)]
        for entry in entries:
            buckets[shard_of(entry[0], num_shards)].append(entry)

        timings: List[_ShardTiming] = []
        for shard_no in range(num_shards):
            start = self.clock.now()
            content_shard = content.shards[shard_no]
            semantic_shard = (
                semantic.shards[shard_no] if semantic is not None else None
            )
            for index_id, payload in buckets[shard_no]:
                content_shard.add(index_id, payload)
                if semantic_shard is not None:
                    semantic_shard.add(index_id, payload)
            timings.append(
                (shard_no, start, self.clock.now(), len(buckets[shard_no]))
            )
        return timings

    def _record_shard_build(
        self, branch, parent, modality: Modality, timings: List[_ShardTiming]
    ) -> None:
        """Report per-shard build metrics, and spans when tracing.

        Span indexes are the shard numbers; start/end are backfilled
        from the times measured around each shard's build."""
        build_seconds = self._metrics.histogram("indexer.shard.build_seconds")
        for _, start, end, _ in timings:
            build_seconds.observe(end - start)
        self._metrics.counter("indexer.shard.builds").inc(len(timings))
        if branch is None or branch is NULL_BRANCH:
            return
        with branch.span(
            f"index.build:{modality.value}",
            parent=parent,
            attributes={
                "modality": modality.value,
                "shards": len(timings),
            },
        ) as mod_span:
            shard_spans = []
            for shard_no, start, end, entry_count in timings:
                with branch.span(
                    "index.build.shard",
                    parent=mod_span,
                    index=shard_no,
                    attributes={"shard": shard_no, "entries": entry_count},
                ) as shard_span:
                    shard_spans.append((shard_span, start, end))
        # replace open/close stamps with the measured build windows
        for shard_span, start, end in shard_spans:
            shard_span.start = start
            shard_span.end = end
        if timings:
            mod_span.start = min(t[1] for t in timings)
            mod_span.end = max(t[2] for t in timings)

    # ------------------------------------------------------------------
    # incremental updates
    # ------------------------------------------------------------------
    def add_instance(self, instance: DataInstance) -> None:
        """Fold a newly added lake instance into the live indexes.

        Tables also index each of their tuples (matching :meth:`build`'s
        coverage).  The instance must already be registered in the lake.
        """
        if not self._built:
            self.build()
            return
        if isinstance(instance, Table):
            self._add_to_indexes(Modality.TABLE, instance)
            for row in instance.iter_rows():
                self._add_to_indexes(Modality.TUPLE, row)
        elif isinstance(instance, TextDocument):
            self._add_to_indexes(Modality.TEXT, instance)
        else:
            self._add_to_indexes(Modality.TUPLE, instance)
        self._metrics.counter("indexer.mutations.added").inc()

    def remove_instance(self, instance: DataInstance) -> None:
        """Unindex an instance that was removed from the lake.

        Takes the removed instance itself (what
        :meth:`DataLake.remove_instance` returns) because its derived
        index entries — a table's tuples, a chunked document's chunks —
        are recomputed from it.  Content indexes tombstone and compact
        lazily on the next read; vector and payload-cache entries are
        evicted eagerly.  Before :meth:`build` the indexes need nothing
        (the next build reads the already-mutated lake), but the
        payload cache predates the build and must still evict, or
        :meth:`fetch_payload` keeps serving an instance the lake no
        longer holds.
        """
        if not self._built:
            self._evict_instance_payloads(instance)
            return
        if isinstance(instance, Table):
            self._remove_from_indexes(Modality.TABLE, instance)
            for row in instance.iter_rows():
                self._remove_from_indexes(Modality.TUPLE, row)
        elif isinstance(instance, TextDocument):
            self._remove_from_indexes(Modality.TEXT, instance)
        else:
            self._remove_from_indexes(Modality.TUPLE, instance)
        self._metrics.counter("indexer.mutations.removed").inc()

    def update_instance(
        self, old: DataInstance, new: DataInstance
    ) -> None:
        """Replace an instance's index entries with its new version.

        Needs both versions: the old one names the entries to drop
        (its chunk/tuple ids may differ from the new one's), the new
        one is what :meth:`DataLake.update_instance` registered.
        Before :meth:`build` only the payload cache needs work: the old
        version's cached serializations are evicted so
        :meth:`fetch_payload` re-serializes the new one.
        """
        if old.instance_id != new.instance_id:
            raise ValueError(
                f"update must keep the instance id: "
                f"{old.instance_id!r} != {new.instance_id!r}"
            )
        if not self._built:
            self._evict_instance_payloads(old)
            return
        self.remove_instance(old)
        self.add_instance(new)
        self._metrics.counter("indexer.mutations.updated").inc()

    def _remove_from_indexes(
        self, modality: Modality, instance: DataInstance
    ) -> None:
        content = self._content[modality]
        semantic = self._semantic.get(modality)
        for index_id, _ in self._payload_entries(instance):
            content.remove(index_id)
            if semantic is not None:
                semantic.remove(index_id)
        self._evict_payload(instance.instance_id)

    def _evict_instance_payloads(self, instance: DataInstance) -> None:
        """Evict every payload-cache entry an instance can be fetched
        under: its own id, and — for tables — each row's tuple id."""
        self._evict_payload(instance.instance_id)
        if isinstance(instance, Table):
            for row in instance.iter_rows():
                self._evict_payload(row.instance_id)

    def _evict_payload(self, instance_id: str) -> None:
        """Drop one instance's cached serialization (coherence with
        remove/update; a miss is fine)."""
        with self._payload_lock:
            self._payload_cache.pop(instance_id, None)
            entries = len(self._payload_cache)
        self._metrics.gauge("indexer.payload_cache.entries").set(entries)

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def search(
        self, query: str, modality: Modality, k: Optional[int] = None
    ) -> List[SearchHit]:
        """Coarse top-k for one modality (content + semantic fused).

        With shards configured this is a scatter-gather: every shard
        answers, the merged ranking is provably identical to the
        monolithic index's."""
        if not self._built:
            self.build()
        self._metrics.counter(f"indexer.search.{modality.value}").inc()
        if self.config.num_shards > 1:
            self._metrics.counter("indexer.shard.search.fanout").inc(
                self.config.num_shards
            )
        depth = k if k is not None else self.config.k_coarse
        if modality is Modality.TEXT and self.config.chunk_text:
            raw = self._combiners[modality].search(query, depth * 3)
            return _fold_chunks_to_documents(raw, depth)
        return self._combiners[modality].search(query, depth)

    def search_batch(
        self, queries: List[str], modality: Modality, k: Optional[int] = None
    ) -> List[List[SearchHit]]:
        """Coarse top-k for a whole query batch against one modality.

        One query-matrix pass per underlying index scores every query
        at once; fusion, chunk folding, and metrics then mirror
        :meth:`search` per query, so the hit lists are identical to
        ``[self.search(q, modality, k) for q in queries]`` — the batch
        engine relies on that to swap this in transparently.
        """
        queries = list(queries)
        if not queries:
            return []
        if not self._built:
            self.build()
        self._metrics.counter(f"indexer.search.{modality.value}").inc(
            len(queries)
        )
        if self.config.num_shards > 1:
            self._metrics.counter("indexer.shard.search.fanout").inc(
                self.config.num_shards * len(queries)
            )
        depth = k if k is not None else self.config.k_coarse
        combiner = self._combiners[modality]
        if modality is Modality.TEXT and self.config.chunk_text:
            raw_lists = combiner.search_batch(queries, depth * 3)
            return [
                _fold_chunks_to_documents(raw, depth) for raw in raw_lists
            ]
        return combiner.search_batch(queries, depth)

    def content_index(self, modality: Modality) -> SearchIndex:
        """Direct access to one modality's BM25 index (for ablations).

        An :class:`InvertedIndex`, or a :class:`ShardedInvertedIndex`
        when ``config.num_shards > 1``."""
        if not self._built:
            self.build()
        return self._content[modality]

    def semantic_index(self, modality: Modality) -> Optional[SearchIndex]:
        """Direct access to one modality's vector index, if enabled."""
        if not self._built:
            self.build()
        return self._semantic.get(modality)

    def seal_indexes(self) -> "IndexerModule":
        """Compile every content index's vectorized read form up front
        (otherwise sealing happens lazily on first search)."""
        for index in self._content.values():
            index.seal()
        return self

    def fetch_payload(self, instance_id: str) -> str:
        """Serialized payload of any indexed instance, LRU-cached.

        Cache entries are evicted on :meth:`remove_instance` /
        :meth:`update_instance`, so a removed instance raises the
        lake's ``KeyError`` and an updated one serializes fresh."""
        with self._payload_lock:
            payload = self._payload_cache.get(instance_id)
            if payload is not None:
                self.payload_cache_hits += 1
                self._payload_cache.move_to_end(instance_id)
        if payload is not None:
            self._metrics.counter("indexer.payload_cache.hits").inc()
            return payload
        payload = serialize_instance(self.lake.instance(instance_id))
        with self._payload_lock:
            self.payload_cache_misses += 1
            self._payload_cache[instance_id] = payload
            self._payload_cache.move_to_end(instance_id)
            _sanitizer.note_write(
                self, "_payload_cache", lock=self._payload_lock
            )
            while len(self._payload_cache) > self.config.payload_cache_size:
                self._payload_cache.popitem(last=False)
            entries = len(self._payload_cache)
        self._metrics.counter("indexer.payload_cache.misses").inc()
        self._metrics.gauge("indexer.payload_cache.entries").set(entries)
        return payload
