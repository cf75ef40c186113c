"""Reference BM25 scorer the differential suites compare against.

A plain walk over an :class:`~repro.index.inverted.InvertedIndex`'s
dict postings: no sealing, no numpy, no matrix tricks.  Contributions
accumulate in sorted token order with the same operation order as the
sealed kernels, so a correct index returns exactly these
``(instance_id, score)`` pairs — float64 equality, never approx — with
ties broken on instance id.

The oracle reads ``index.idf`` (so a shard scores with whatever
``corpus_stats`` view it carries) and compacts tombstones first, as any
scoring read does.
"""

from collections import Counter, defaultdict
from typing import Dict, List

from repro.index.base import SearchHit, top_k
from repro.index.inverted import InvertedIndex


def oracle_search(
    index: InvertedIndex, query: str, k: int = 10
) -> List[SearchHit]:
    """Top-k BM25 hits for ``query`` from the dict postings."""
    index.compact()
    tokens = index._analyze(query)
    if not tokens or not index._doc_length:
        return []
    avg_len = index.avg_doc_length
    scores: Dict[str, float] = defaultdict(float)
    for token, query_count in sorted(Counter(tokens).items()):
        postings = index._postings.get(token)
        if not postings:
            continue
        idf = index.idf(token)
        for instance_id, tf in postings.items():
            doc_len = index._doc_length[instance_id]
            denom = tf + index.k1 * (
                1 - index.b + index.b * doc_len / avg_len if avg_len else 1.0
            )
            scores[instance_id] += (
                idf * (tf * (index.k1 + 1)) / denom * query_count
            )
    return top_k(scores, k, index.name)
