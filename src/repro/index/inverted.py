"""Inverted index with Okapi BM25 ranking — the Elasticsearch stand-in.

This is the content-based index the paper's experiments actually use
("We use Elasticsearch to retrieve the top-3 tuples and top-3 text
files..."), so its ranking function matches ES defaults: BM25 with
k1 = 1.2, b = 0.75.

The index has two execution forms:

* the **dict form** — token -> ``{instance_id: tf}`` postings — is the
  write path: ``add`` is cheap and incremental;
* the **sealed form** is a compiled read path: one flat contiguous
  CSR-style postings layout (sorted token table, ``tok_start`` offsets
  into concatenated document-index + term-frequency arrays), precomputed
  idf and length-normalization arrays, dense score accumulation over a
  single float64 buffer, and ``argpartition``-based top-k selection.

Every search scores against the sealed form: ``search`` compiles it
lazily and any write invalidates it, so callers never see a stale
ranking.  The sealed scorer replays the exact arithmetic of a plain
BM25 walk over the dict postings (same operation order, same IEEE
doubles, ties broken on instance id) — the test suite keeps that walk
as its oracle (``tests/bm25_oracle.py``) and asserts hit-for-hit
equality.  Token contributions accumulate in **sorted token order** on
both the per-query kernel and the batched
:meth:`InvertedIndex.search_matrix` kernel, which is what lets the
query-matrix kernel (one vectorized pass per token over all queries)
reproduce the per-query float64 sums bit for bit.

Because the sealed form is a handful of flat arrays, it is also the
**persistence unit**: :mod:`repro.index.persistence` writes the arrays
as raw binaries plus a versioned manifest, and a fresh process can
``np.memmap``-attach them read-only — zero-copy, no corpus pickling,
no re-analysis — producing the exact same rankings (see
``attach_sealed_index``).  An attached index refuses mutation.

Two extensions support the sharded deployment
(:mod:`repro.index.shard`):

* **pluggable corpus statistics** — BM25's idf and length
  normalization depend on corpus-wide aggregates (document count,
  total token length, per-token document frequency).  By default an
  index scores against its own postings; assigning
  :attr:`InvertedIndex.corpus_stats` makes it score against an
  external :class:`CorpusStats` view instead, which is how N shards
  of one logical index all rank with *global* statistics and stay
  score-identical to the unsharded build;
* **live mutation** — :meth:`remove` tombstones a document in O(1)
  (statistics are corrected immediately; postings keep the dead
  entries), and the next scoring read compacts the postings lazily
  and re-seals.  :meth:`update` is remove + add.
"""

from __future__ import annotations

import math
import threading
from collections import Counter, defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import sanitizer as _sanitizer
from repro.index.base import SearchHit, SearchIndex
from repro.text import analyze


class CorpusStats:
    """Corpus-wide aggregates BM25 scoring depends on.

    The base implementation mirrors a single index's own postings; the
    sharded layer substitutes an aggregating view so every shard scores
    with the statistics of the *whole* logical corpus.  All three
    quantities are integers, so aggregation across shards reproduces
    the unsharded values exactly (no float summation-order drift).
    """

    def __init__(self, index: "InvertedIndex") -> None:
        self._index = index

    def doc_count(self) -> int:
        """Number of live (non-tombstoned) documents."""
        return len(self._index._doc_length)

    def total_token_length(self) -> int:
        """Sum of live document lengths (for average length)."""
        return self._index._total_length

    def df(self, token: str) -> int:
        """Number of live documents containing ``token``."""
        return self._index.local_df(token)


class _SealedPostings:
    """Compiled, read-only view of one index generation.

    Storage is four flat contiguous arrays in CSR layout — ``tokens``
    (sorted), ``tok_start`` offsets, concatenated ``doc_idx`` /
    ``tf_flat`` postings — plus per-doc ``norm`` and per-token
    ``idf_flat``.  The flat arrays are the persistence unit
    (:mod:`repro.index.persistence` memmaps them directly); the
    ``postings`` / ``idf`` dict attributes are zero-copy *views* over
    them, kept for the per-token scoring loops.
    """

    __slots__ = (
        "doc_ids", "norm",
        "tokens", "tok_start", "doc_idx", "tf_flat", "idf_flat",
        "tok_pos", "contrib_flat",
    )

    def __init__(
        self,
        doc_ids: List[str],
        norm: "np.ndarray",
        tokens: List[str],
        tok_start: "np.ndarray",
        doc_idx: "np.ndarray",
        tf_flat: "np.ndarray",
        idf_flat: "np.ndarray",
    ) -> None:
        self.doc_ids = doc_ids
        self.norm = norm            # per-doc k1 * (1 - b + b * len/avg)
        self.tokens = tokens        # sorted vocabulary
        self.tok_start = tok_start  # CSR offsets, len(tokens) + 1
        self.doc_idx = doc_idx      # concatenated doc-index postings
        self.tf_flat = tf_flat      # concatenated term frequencies
        self.idf_flat = idf_flat    # per-token BM25+ idf, token order
        #: token -> position in the sorted vocabulary (CSR row index)
        self.tok_pos: Dict[str, int] = {
            token: i for i, token in enumerate(tokens)
        }
        #: per-posting BM25 contribution for qtf = 1, lazily compiled by
        #: the query-matrix kernel (derived data, never persisted)
        self.contrib_flat: Optional["np.ndarray"] = None

    def posting(
        self, token: str
    ) -> Optional[Tuple["np.ndarray", "np.ndarray", float]]:
        """``(doc index slice, tf slice, idf)`` for one token, or None.

        Sliced on demand rather than pre-built per token: a memmap
        attach must stay O(1) in vocabulary size — touching every
        token's offsets at construction would page in the whole
        snapshot and erase the cold-attach advantage the persistence
        layer exists for."""
        i = self.tok_pos.get(token)
        if i is None:
            return None
        start, end = int(self.tok_start[i]), int(self.tok_start[i + 1])
        return (
            self.doc_idx[start:end],
            self.tf_flat[start:end],
            float(self.idf_flat[i]),
        )


class MatrixPlan:
    """A campaign of queries analyzed and inverted once.

    Shard-independent: ``tokens`` is the sorted union vocabulary, and
    per token ``token_rows`` / ``token_counts`` hold the carrying query
    rows (ascending) and their query term frequencies.  Built by
    :meth:`InvertedIndex.plan_matrix`, consumed by
    :meth:`InvertedIndex.search_matrix_planned` on every shard.
    """

    __slots__ = ("queries", "tokens", "token_rows", "token_counts")

    def __init__(
        self,
        queries: List[str],
        tokens: List[str],
        token_rows: Dict[str, List[int]],
        token_counts: Dict[str, List[float]],
    ) -> None:
        self.queries = queries
        self.tokens = tokens
        self.token_rows = token_rows
        self.token_counts = token_counts


class InvertedIndex(SearchIndex):
    """Token -> postings index scored with Okapi BM25."""

    def __init__(
        self,
        name: str = "bm25",
        k1: float = 1.2,
        b: float = 0.75,
        remove_stopwords: bool = True,
        stemming: bool = True,
    ) -> None:
        if k1 < 0:
            raise ValueError(f"k1 must be >= 0, got {k1}")
        if not 0 <= b <= 1:
            raise ValueError(f"b must be in [0, 1], got {b}")
        self.name = name
        self.k1 = k1
        self.b = b
        self.remove_stopwords = remove_stopwords
        self.stemming = stemming
        self._postings: Dict[str, Dict[str, int]] = defaultdict(dict)
        self._doc_length: Dict[str, int] = {}
        self._total_length = 0
        self._sealed: Optional[_SealedPostings] = None
        # serializes the lazy compile in seal()/_contrib_flat(): batch
        # workers and serve request threads search one shared index,
        # and two of them hitting it unsealed must not compact
        # concurrently
        self._seal_lock = threading.Lock()
        # ids removed but not yet purged from the postings; any scoring
        # read compacts first, so stale entries are never scored
        self._tombstones: Dict[str, None] = {}
        #: True for an index memmap-attached from a persisted sealed
        #: snapshot: its dict postings are absent, so mutation (which
        #: would silently lose the corpus) is refused
        self._attached = False
        #: statistics provider BM25 scores against; ``None`` = this
        #: index's own postings.  The sharded layer assigns a global
        #: aggregating view here.
        self.corpus_stats: Optional[CorpusStats] = None

    def _stats(self) -> CorpusStats:
        return self.corpus_stats or CorpusStats(self)

    def _analyze(self, text: str) -> List[str]:
        return analyze(
            text,
            remove_stopwords=self.remove_stopwords,
            stemming=self.stemming,
        )

    def _forbid_attached_mutation(self, action: str) -> None:
        if self._attached:
            from repro.verify.base import VerificationError

            raise VerificationError(
                f"cannot {action} on a memmap-attached index "
                f"({self.name!r}): attached snapshots are read-only; "
                "mutate the writable index and re-persist"
            )

    def add(self, instance_id: str, payload: str) -> None:
        self._forbid_attached_mutation("add")
        if instance_id in self._doc_length:
            raise ValueError(f"duplicate instance id: {instance_id}")
        if instance_id in self._tombstones:
            # re-adding a tombstoned id: purge its stale postings first,
            # or compaction would later delete the fresh entries too
            self.compact()
        self._sealed = None  # any write invalidates the compiled form
        tokens = self._analyze(payload)
        self._doc_length[instance_id] = len(tokens)
        self._total_length += len(tokens)
        for token, count in Counter(tokens).items():
            self._postings[token][instance_id] = count

    def remove(self, instance_id: str) -> None:
        """Tombstone one document in O(1).

        Statistics (document count, total length) are corrected
        immediately so idf/avg-length reads stay exact; the document's
        postings entries are purged lazily by :meth:`compact` on the
        next scoring read.  Raises ``KeyError`` for an unknown id.
        """
        self._forbid_attached_mutation("remove")
        length = self._doc_length.pop(instance_id)  # KeyError when absent
        self._total_length -= length
        self._tombstones[instance_id] = None
        self._sealed = None  # any write invalidates the compiled form

    def update(self, instance_id: str, payload: str) -> None:
        """Replace one document's payload (remove + add)."""
        self.remove(instance_id)
        self.add(instance_id, payload)

    def compact(self) -> None:
        """Purge tombstoned documents from the postings (idempotent).

        Deferred from :meth:`remove` to the next scoring read so a
        burst of removals pays for one postings walk, not one per
        delete.
        """
        if not self._tombstones:
            return
        dead = self._tombstones
        empty_tokens = []
        for token, entry in self._postings.items():
            stale = [doc_id for doc_id in entry if doc_id in dead]
            for doc_id in stale:
                del entry[doc_id]
            if not entry:
                empty_tokens.append(token)
        for token in empty_tokens:
            del self._postings[token]
        self._tombstones = {}

    @property
    def pending_tombstones(self) -> int:
        """Removed documents not yet compacted out of the postings."""
        return len(self._tombstones)

    def invalidate_seal(self) -> None:
        """Drop the compiled read form (next search re-seals).

        The sharded layer calls this on *every* shard when *any* shard
        mutates: global corpus statistics changed, so every shard's
        compiled idf/norm tables are stale even though its own postings
        did not move.
        """
        self._forbid_attached_mutation("invalidate the seal")
        self._sealed = None

    def __len__(self) -> int:
        return len(self._doc_length)

    def local_df(self, token: str) -> int:
        """Document frequency of ``token`` in *this* index's postings
        (compacting first, so tombstoned documents never count)."""
        self.compact()
        return len(self._postings.get(token, ()))

    @property
    def avg_doc_length(self) -> float:
        stats = self._stats()
        num_docs = stats.doc_count()
        if not num_docs:
            return 0.0
        return stats.total_token_length() / num_docs

    def idf(self, token: str) -> float:
        """BM25+ style idf, floored at a small positive value."""
        stats = self._stats()
        num_docs = stats.doc_count()
        df = stats.df(token)
        if num_docs == 0:
            return 0.0
        raw = math.log((num_docs - df + 0.5) / (df + 0.5) + 1.0)
        return max(raw, 1e-6)

    # ------------------------------------------------------------------
    # sealed (compiled) form
    # ------------------------------------------------------------------
    @property
    def is_sealed(self) -> bool:
        return self._sealed is not None

    @property
    def is_attached(self) -> bool:
        """True for a read-only memmap attachment of a persisted seal."""
        return self._attached

    def seal(self) -> "InvertedIndex":
        """Compile the postings into the flat vectorized read form.

        Idempotent; called lazily by :meth:`search`.  The next
        :meth:`add` invalidates the compiled form.
        Safe under concurrent readers: the compile (which includes a
        :meth:`compact` postings walk) runs under a lock, so a second
        searching thread blocks instead of reading half-compacted
        postings or publishing a duplicate seal.
        """
        if self._sealed is not None:
            return self
        with self._seal_lock:
            if self._sealed is None:
                self._seal_build_locked()
        return self

    def _seal_build_locked(self) -> None:
        """Compile and publish the sealed form; caller holds
        ``_seal_lock``."""
        self.compact()
        doc_ids = list(self._doc_length)
        doc_pos = {doc_id: i for i, doc_id in enumerate(doc_ids)}
        avg_len = self.avg_doc_length
        norm = np.empty(len(doc_ids), dtype=np.float64)
        for i, doc_id in enumerate(doc_ids):
            doc_len = self._doc_length[doc_id]
            # the per-document BM25 denominator term, hoisted per doc
            norm[i] = self.k1 * (
                1 - self.b + self.b * doc_len / avg_len if avg_len else 1.0
            )
        tokens = sorted(self._postings)
        tok_start = np.zeros(len(tokens) + 1, dtype=np.int64)
        for i, token in enumerate(tokens):
            tok_start[i + 1] = tok_start[i] + len(self._postings[token])
        total = int(tok_start[-1])
        doc_idx = np.empty(total, dtype=np.int64)
        tf_flat = np.empty(total, dtype=np.float64)
        for i, token in enumerate(tokens):
            entry = self._postings[token]
            start, end = int(tok_start[i]), int(tok_start[i + 1])
            doc_idx[start:end] = np.fromiter(
                (doc_pos[doc_id] for doc_id in entry),
                dtype=np.int64, count=len(entry),
            )
            tf_flat[start:end] = np.fromiter(
                entry.values(), dtype=np.float64, count=len(entry)
            )
        idf_flat = np.array(
            [self.idf(token) for token in tokens], dtype=np.float64
        )
        self._sealed = _SealedPostings(
            doc_ids, norm, tokens, tok_start, doc_idx, tf_flat, idf_flat
        )
        _sanitizer.note_write(self, "_sealed", lock=self._seal_lock)

    def _rank_candidates(
        self, scores: "np.ndarray", matched: "np.ndarray", k: int
    ) -> List[Tuple[int, float]]:
        """Top-k ``(doc index, score)`` pairs under the ``(-score, id)``
        total order."""
        sealed = self._sealed
        candidates = np.nonzero(matched)[0]
        if candidates.size == 0 or k <= 0:
            return []
        if candidates.size > k:
            cand_scores = scores[candidates]
            keep = np.argpartition(-cand_scores, k - 1)[:k]
            kth_score = cand_scores[keep].min()
            candidates = candidates[cand_scores >= kth_score]
        ranked = sorted(
            ((scores[i], sealed.doc_ids[i], i) for i in candidates),
            key=lambda triple: (-triple[0], triple[1]),
        )[:k]
        return [(i, float(score)) for score, _, i in ranked]

    def _hits_from_ranked(
        self, ranked: List[Tuple[int, float]]
    ) -> List[SearchHit]:
        doc_ids = self._sealed.doc_ids
        return [
            SearchHit(
                score=score, instance_id=doc_ids[i], index_name=self.name
            )
            for i, score in ranked
        ]

    def _search_sealed(self, query: str, k: int) -> List[SearchHit]:
        sealed = self._sealed
        assert sealed is not None
        tokens = self._analyze(query)
        if not tokens or not sealed.doc_ids:
            return []
        num_docs = len(sealed.doc_ids)
        scores = np.zeros(num_docs, dtype=np.float64)
        matched = np.zeros(num_docs, dtype=bool)
        # sorted token order: the canonical accumulation order shared
        # with the query-matrix kernel, so both produce identical
        # float64 sums
        for token, query_count in sorted(Counter(tokens).items()):
            entry = sealed.posting(token)
            if entry is None:
                continue
            idx, tf, idf = entry
            scores[idx] += (
                idf * (tf * (self.k1 + 1)) / (tf + sealed.norm[idx])
                * query_count
            )
            matched[idx] = True
        return self._hits_from_ranked(self._rank_candidates(scores, matched, k))

    # ------------------------------------------------------------------
    # query-matrix (batched) scoring
    # ------------------------------------------------------------------
    def plan_matrix(self, queries: Sequence[str]) -> "MatrixPlan":
        """Analyze a campaign once into a shard-independent plan.

        The plan holds the inverted campaign — sorted union vocabulary,
        and per token the carrying query rows and their counts — which
        depends only on the queries and the analyzer settings, never on
        any shard's postings.  A sharded index therefore plans once and
        scores the same plan against every shard
        (:meth:`search_matrix_planned`)."""
        queries = list(queries)
        token_rows: Dict[str, List[int]] = {}
        token_counts: Dict[str, List[float]] = {}
        for qi, query in enumerate(queries):
            for token, query_count in sorted(
                Counter(self._analyze(query)).items()
            ):
                token_rows.setdefault(token, []).append(qi)
                token_counts.setdefault(token, []).append(float(query_count))
        return MatrixPlan(
            queries, sorted(token_rows), token_rows, token_counts
        )

    def _score_matrix(
        self, plan: "MatrixPlan", k: int
    ) -> List[List[Tuple[int, float]]]:
        """Rank every campaign query against the sealed shard in one
        vectorized pass (rows = queries, columns = documents).

        Accumulation runs over the union vocabulary in sorted order with
        the exact per-token arithmetic of :meth:`_search_sealed`, so the
        float64 sums — and therefore the rankings — are bit-identical to
        running each query through the per-query sealed path."""
        sealed = self._sealed
        num_docs = len(sealed.doc_ids)
        num_queries = len(plan.queries)
        if not num_docs or not num_queries or k <= 0:
            return [[] for _ in plan.queries]
        contrib_flat = self._contrib_flat()
        # One (token-position, query-row, query-count) triple per pair of
        # a union-vocabulary token and a query carrying it, token-major
        # in sorted token order, rows ascending within a token — the
        # canonical accumulation order.
        token_rows = plan.token_rows
        token_counts = plan.token_counts
        pair_tok: List[int] = []
        pair_rows: List[int] = []
        pair_qc: List[float] = []
        for token in plan.tokens:
            position = sealed.tok_pos.get(token)
            if position is None:
                continue
            rows = token_rows[token]
            pair_tok.extend([position] * len(rows))
            pair_rows.extend(rows)
            pair_qc.extend(token_counts[token])
        if not pair_tok:
            return [[] for _ in plan.queries]
        # Expand the pairs into one flat contribution stream: for pair
        # (t, q) the values are qc * contrib_flat[block of t] and the
        # cells are q * num_docs + doc_idx[block of t].  ``np.bincount``
        # folds the stream into the score matrix in a single C pass,
        # accumulating sequentially in stream order — so each cell's
        # float64 sum replays the per-query path's sorted-token
        # accumulation exactly (and qc * contrib == contrib * qc bit
        # for bit: IEEE multiplication commutes).
        tok_arr = np.asarray(pair_tok, dtype=np.int64)
        starts = sealed.tok_start[tok_arr]
        lengths = sealed.tok_start[tok_arr + 1] - starts
        total = int(lengths.sum())
        if not total:
            return [[] for _ in plan.queries]
        # gather[j] walks each pair's CSR block: start + 0..len-1
        ends = np.cumsum(lengths)
        ramp = np.arange(total, dtype=np.int64) - np.repeat(
            ends - lengths, lengths
        )
        gather = np.repeat(starts, lengths) + ramp
        values = (
            np.repeat(np.asarray(pair_qc, dtype=np.float64), lengths)
            * contrib_flat[gather]
        )
        cells = (
            np.repeat(
                np.asarray(pair_rows, dtype=np.int64) * num_docs, lengths
            )
            + sealed.doc_idx[gather]
        )
        scores = np.bincount(
            cells, weights=values, minlength=num_queries * num_docs
        ).reshape(num_queries, num_docs)
        return self._rank_matrix(scores, k)

    def _contrib_flat(self) -> "np.ndarray":
        """Per-posting BM25 contribution at query term frequency 1 —
        ``idf * (tf * (k1 + 1)) / (tf + norm[doc])`` over the whole CSR
        layout, exactly the per-query path's token term.  Derived from
        the sealed arrays on first use and cached on the seal (works for
        memmap attachments too; never persisted)."""
        sealed = self._sealed
        if sealed.contrib_flat is None:
            with self._seal_lock:
                if sealed.contrib_flat is None:
                    idf_rep = np.repeat(
                        sealed.idf_flat, np.diff(sealed.tok_start)
                    )
                    sealed.contrib_flat = (
                        idf_rep * (sealed.tf_flat * (self.k1 + 1))
                        / (sealed.tf_flat + sealed.norm[sealed.doc_idx])
                    )
                    _sanitizer.note_write(
                        sealed, "contrib_flat", lock=self._seal_lock
                    )
        return sealed.contrib_flat

    def _rank_matrix(
        self, scores: "np.ndarray", k: int
    ) -> List[List[Tuple[int, float]]]:
        """Per-row top-k of a score matrix under the ``(-score, id)``
        total order, selecting with one matrix-wide ``argpartition``.

        Equivalent to :meth:`_rank_candidates` row by row: matched docs
        are exactly those with score > 0 (every BM25 contribution is
        strictly positive — idf is floored at 1e-6, tf >= 1, qc >= 1 —
        so a matched sum cannot be 0.0), and the k-th largest score over
        all docs equals the k-th largest over matched docs whenever at
        least k docs matched, with ties kept on both sides of the cut.
        """
        sealed = self._sealed
        num_queries, num_docs = scores.shape
        kk = min(k, num_docs)
        part = np.argpartition(-scores, kk - 1, axis=1)[:, :kk]
        kth = np.take_along_axis(scores, part, axis=1).min(axis=1)
        ranked: List[List[Tuple[int, float]]] = []
        for qi in range(num_queries):
            row = scores[qi]
            if kth[qi] > 0.0:
                candidates = np.nonzero(row >= kth[qi])[0]
            else:  # fewer than k matches: keep every matched doc
                candidates = np.nonzero(row > 0.0)[0]
            ordered = sorted(
                ((row[i], sealed.doc_ids[i], i) for i in candidates),
                key=lambda triple: (-triple[0], triple[1]),
            )[:k]
            ranked.append([(i, float(score)) for score, _, i in ordered])
        return ranked

    def search_matrix(
        self, queries: Sequence[str], k: int = 10
    ) -> List[List[SearchHit]]:
        """Score a whole batch of queries in one query-matrix pass.

        Bit-identical to ``[self.search(q, k) for q in queries]``
        (differential-tested)."""
        queries = list(queries)
        if len(queries) == 1:
            # a 1-row matrix pays the stream-assembly overhead for no
            # sharing; the per-query kernel is bit-identical and faster
            return [self.search(queries[0], k)]
        return self.search_matrix_planned(self.plan_matrix(queries), k)

    def search_matrix_planned(
        self, plan: "MatrixPlan", k: int = 10
    ) -> List[List[SearchHit]]:
        """Score a pre-analyzed campaign plan against this index.

        The sharded scatter paths plan the campaign once
        (:meth:`plan_matrix`) and call this on every shard, so the
        per-query analysis and inversion cost is paid once per campaign
        instead of once per shard."""
        if self._sealed is None:
            self.seal()
        ranked = self._score_matrix(plan, k)
        return [self._hits_from_ranked(r) for r in ranked]

    def search_batch(
        self, queries: Sequence[str], k: int = 10
    ) -> List[List[SearchHit]]:
        """Batched search (the query-matrix kernel)."""
        return self.search_matrix(queries, k)

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def search(self, query: str, k: int = 10) -> List[SearchHit]:
        if self._sealed is None:
            self.seal()
        return self._search_sealed(query, k)
