"""The Verifier module: Agent dispatch plus evidence pooling.

Multiple retrieved instances may verify or refute the same object
(Section 3.3's remark); the module pools per-evidence verdicts into a
final decision with a trust-weighted vote, where each vote carries the
trust of the lake source that supplied the evidence.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.datalake.lake import DataLake
from repro.datalake.types import DataInstance, Row
from repro.index.shard import shard_key
from repro.obs.metrics import get_registry
from repro.obs.trace import NULL_BRANCH
from repro.trust.model import weighted_vote
from repro.verify.agent import VerifierAgent
from repro.verify.base import VerificationOutcome
from repro.verify.objects import DataObject
from repro.verify.verdict import Verdict


def _pair_key(obj: DataObject, evidence: DataInstance) -> tuple:
    """Cache key: the pair's *content*, not object identity."""
    attribute = getattr(obj, "attribute", None)
    context = getattr(obj, "context", None)
    return (
        type(obj).__name__,
        obj.query_text(),
        attribute,
        context,
        evidence.instance_id,
    )


class VerifierModule:
    """Verify an object against a pool of evidence and decide.

    Verification is deterministic per (object content, evidence), so
    repeated pairs — common when benchmarks sweep configurations — are
    served from an in-process LRU cache (``cache=False`` disables it;
    ``cache_size`` bounds it).  The cache is thread-safe: the batch
    engine verifies objects from worker threads.

    Outcomes are keyed by evidence instance id, so a lake write must
    :meth:`invalidate` the written instance before its new content is
    verified.
    """

    def __init__(
        self,
        agent: VerifierAgent,
        lake: DataLake,
        source_trust: Optional[Mapping[str, float]] = None,
        cache: bool = True,
        cache_size: int = 65536,
    ) -> None:
        if cache_size <= 0:
            raise ValueError(f"cache_size must be positive, got {cache_size}")
        self.agent = agent
        self.lake = lake
        self.source_trust: Dict[str, float] = dict(source_trust or {})
        self._cache: Optional["OrderedDict[tuple, VerificationOutcome]"] = (
            OrderedDict() if cache else None
        )
        #: write generation per evidence root id (see :meth:`invalidate`)
        self._generations: Dict[str, int] = {}
        self._cache_lock = threading.Lock()
        self.cache_size = cache_size
        self.cache_hits = 0
        self._metrics = get_registry()

    def __len__(self) -> int:
        """Number of memoized (object, evidence) outcomes, counting those
        :meth:`invalidate` retired until the LRU evicts them."""
        with self._cache_lock:
            return len(self._cache) if self._cache is not None else 0

    def verify_one(
        self, obj: DataObject, evidence: DataInstance
    ) -> VerificationOutcome:
        """Verify a single pair through the Agent, with caching."""
        outcome, _ = self._verify_one(obj, evidence)
        return outcome

    def _verify_one(
        self, obj: DataObject, evidence: DataInstance
    ) -> Tuple[VerificationOutcome, bool]:
        """(outcome, served-from-cache) for one pair."""
        self._metrics.counter("verifier.verifications").inc()
        if self._cache is None:
            return self.agent.verify(obj, evidence), False
        content = _pair_key(obj, evidence)
        root = shard_key(evidence.instance_id)
        with self._cache_lock:
            key = (content, self._generations.get(root, 0))
            cached = self._cache.get(key)
            if cached is not None:
                self.cache_hits += 1
                self._cache.move_to_end(key)
        if cached is not None:
            self._metrics.counter("verifier.cache.hits").inc()
            return cached, True
        self._metrics.counter("verifier.cache.misses").inc()
        # verify outside the lock; a concurrent duplicate recomputes the
        # same deterministic outcome, which is cheaper than serializing
        # every verification behind one mutex
        outcome = self.agent.verify(obj, evidence)
        with self._cache_lock:
            self._cache[key] = outcome
            self._cache.move_to_end(key)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
            entries = len(self._cache)
        self._metrics.gauge("verifier.cache.entries").set(entries)
        return outcome, False

    def invalidate(self, instance_id: str) -> None:
        """Retire every cached outcome whose evidence is ``instance_id``
        or derived from it (a table's ``#rN`` tuples, a document's
        passages).

        Every cache key carries the write generation of its evidence's
        root id; this bumps it, so a write costs O(1) instead of a scan
        of the cache, and the retired outcomes age out of the LRU
        unreachable.  A verification that read the old content while the
        write ran caches under the old generation, so it cannot bring a
        stale outcome back either.
        """
        root = shard_key(instance_id)
        with self._cache_lock:
            self._generations[root] = self._generations.get(root, 0) + 1

    def source_of(self, evidence: DataInstance) -> str:
        """Lake source name of an evidence instance."""
        if isinstance(evidence, Row):
            return self.lake.table(evidence.table_id).source.name
        source = getattr(evidence, "source", None)
        if source is None:  # KG entities have no per-instance source
            return "knowledge-graph"
        return source.name

    def verify_pool(
        self,
        obj: DataObject,
        evidence_list: Sequence[DataInstance],
        branch=None,
        parent=None,
    ) -> Tuple[List[VerificationOutcome], Verdict, float]:
        """Verify against every instance and pool into a final verdict.

        Returns (per-evidence outcomes, final verdict, vote margin).
        When a tracing ``branch`` (and ``parent`` span) is supplied, one
        ``verdict`` span is emitted per evidence instance.  Span
        attributes stay deterministic per input — whether a pair was
        served from the outcome cache is a runtime race under thread
        parallelism, so that lives in the ``verifier.cache.*`` metrics,
        not on the span.
        """
        if branch is None:
            branch = NULL_BRANCH
        outcomes: List[VerificationOutcome] = []
        for evidence in evidence_list:
            with branch.span(
                "verdict",
                parent=parent,
                attributes={"evidence_id": evidence.instance_id},
            ) as span:
                outcome = self.verify_one(obj, evidence)
                span.set("verifier", outcome.verifier)
                span.set("verdict", outcome.verdict.name)
            outcomes.append(outcome)
        votes = [
            (self.source_of(evidence), outcome.verdict)
            for evidence, outcome in zip(evidence_list, outcomes)
        ]
        final, margin = weighted_vote(votes, self.source_trust, default_trust=1.0)
        return outcomes, final, margin
