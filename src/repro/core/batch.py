"""Batch-first execution through the VerifAI pipeline.

``VerifAI.verify_batch`` delegates here.  The engine takes a sequence of
data objects and runs retrieval + rerank + verify for all of them with
three scaling moves the serial loop cannot make:

* **retrieval dedup** — objects that issue the identical retrieval
  (same object type, query text, modality, and depths) share one
  execution; each object still gets the full stage list replayed into
  its own provenance record.  The dedup plan is computed up front from
  the inputs alone, so the reported dedup counters (and the ``dedup``
  span attribute) are deterministic regardless of which worker happens
  to execute a shared retrieval first;
* **query-matrix retrieval** — the deduplicated queries of each
  modality are scored as *one* query-matrix BM25 pass per index
  (:meth:`VerifAI.retrieval_stages_batch`) that prefills the
  retrieval cache before workers start; the matrix kernel is
  bit-identical to the per-query path, and spans are always replayed
  from the cached stage lists, so reports and traces cannot tell the
  two apart.  A prefill fault falls back to per-object retrieval
  under the normal error boundary;
* **thread parallelism** — a ``ThreadPoolExecutor`` fans objects out to
  ``max_workers`` threads (1 = the serial path, the default).  Every
  shared structure the workers touch (verifier outcome cache, payload
  cache, retrieval dedup map, provenance records pre-created in input
  order) is either lock-protected or owned by exactly one worker, and
  all components are deterministic per input, so the parallel run is
  report-for-report identical to the serial one;
* **observability** — the campaign activates a per-run metrics
  :class:`~repro.obs.metrics.Scope` on every thread that works for it,
  so the :class:`BatchStats` attached to the
  :class:`~repro.core.pipeline.BatchReport` reflects *this* campaign's
  cache traffic even when other campaigns interleave in the same
  process.  ``run(..., trace=True)`` additionally records a span tree
  (``verify_batch`` → per-object ``verify`` → retrieval stages →
  ``verify_pool`` → per-evidence ``verdict``) whose export is
  byte-identical for serial and parallel runs under a deterministic
  clock.

Every object additionally runs inside a **per-object error boundary**:
a fault anywhere in its retrieve→rerank→verify chain never propagates
out of the pool.  The object gets ``max_retries`` extra attempts
(immediate and deterministic — no sleeps or jitter), and if they are
exhausted its report comes back with ``status="FAILED"``, the error
string, and ``final_verdict=NOT_RELATED``, while its provenance record
is finalized with the same failure (never left dangling).  Stage and
outcome writes — and span commits — are deferred until an attempt
succeeds or fails for the last time, so retried attempts never
duplicate provenance or trace spans.  ``fail_fast=True`` restores
raise-on-first-error for callers that prefer a crash (the failing
object's record is still finalized before the raise; records of other
in-flight objects may remain open because the campaign aborted).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.pipeline import (
    DEFAULT_MODALITIES,
    STATUS_FAILED,
    BatchReport,
    VerifAI,
    VerificationReport,
    format_error,
    safe_query_text,
)
from repro.datalake.types import DataInstance, Modality
from repro.index.base import SearchHit
from repro.obs.events import get_event_log
from repro.obs.metrics import Scope
from repro.obs.profile import StageProfile
from repro.obs.trace import NULL_BRANCH, Span, Tracer
from repro.verify.objects import DataObject
from repro.verify.verdict import Verdict

#: a cached retrieval: the provenance stages of one (object type, query,
#: modality, depths) execution; the last stage holds the shortlist
_Stages = List[Tuple[str, List[SearchHit]]]


@dataclass
class BatchStats:
    """What one ``verify_batch`` run cost and what the caches saved.

    Built from the campaign's metrics :class:`~repro.obs.metrics.Scope`
    (see :meth:`from_scope`), so cache counters attribute to *this*
    campaign's threads rather than to process-wide deltas.
    """

    objects: int = 0
    max_workers: int = 1
    failed: int = 0
    retries: int = 0
    unique_retrievals: int = 0
    retrieval_cache_hits: int = 0
    matrix_batches: int = 0
    verifier_cache_hits: int = 0
    verifier_cache_entries: int = 0
    verifier_cache_size: int = 0
    payload_cache_hits: int = 0
    analyze_cache_hits: int = 0
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_scope(
        cls,
        scope: Scope,
        *,
        objects: int,
        max_workers: int,
        unique_retrievals: int,
        retrieval_cache_hits: int,
        verifier_cache_entries: int,
        verifier_cache_size: int,
        stage_seconds: Dict[str, float],
    ) -> "BatchStats":
        """Assemble stats from the campaign's scope plus plan-derived
        values the scope cannot know (dedup plan, cache geometry)."""
        return cls(
            objects=objects,
            max_workers=max_workers,
            failed=int(scope.value("batch.failed")),
            retries=int(scope.value("batch.retries")),
            unique_retrievals=unique_retrievals,
            retrieval_cache_hits=retrieval_cache_hits,
            matrix_batches=int(scope.value("batch.matrix_batches")),
            verifier_cache_hits=int(scope.value("verifier.cache.hits")),
            verifier_cache_entries=verifier_cache_entries,
            verifier_cache_size=verifier_cache_size,
            payload_cache_hits=int(
                scope.value("indexer.payload_cache.hits")
            ),
            analyze_cache_hits=int(scope.value("text.analyze_cache.hits")),
            stage_seconds=dict(stage_seconds),
        )

    def per_object_seconds(self) -> Dict[str, float]:
        """Mean seconds per object for each stage, sorted by stage.

        The service path reports these per campaign; an **empty**
        campaign (0 objects) must yield well-formed zero means, never a
        ``ZeroDivisionError`` — long-lived servers see empty batches as
        a matter of course (health probes, drained queues).
        """
        if self.objects <= 0:
            return {name: 0.0 for name in sorted(self.stage_seconds)}
        return {
            name: self.stage_seconds[name] / self.objects
            for name in sorted(self.stage_seconds)
        }

    def to_dict(self) -> Dict[str, object]:
        """Stable JSON-shaped view (the ``/verify-batch`` response body
        carries this); keys sorted, nested dicts sorted too."""
        return {
            "analyze_cache_hits": self.analyze_cache_hits,
            "failed": self.failed,
            "matrix_batches": self.matrix_batches,
            "max_workers": self.max_workers,
            "objects": self.objects,
            "payload_cache_hits": self.payload_cache_hits,
            "per_object_seconds": self.per_object_seconds(),
            "retries": self.retries,
            "retrieval_cache_hits": self.retrieval_cache_hits,
            "stage_seconds": {
                name: self.stage_seconds[name]
                for name in sorted(self.stage_seconds)
            },
            "unique_retrievals": self.unique_retrievals,
            "verifier_cache_entries": self.verifier_cache_entries,
            "verifier_cache_hits": self.verifier_cache_hits,
            "verifier_cache_size": self.verifier_cache_size,
        }

    def summary(self) -> str:
        """One-line cost/caching view of the batch.

        Stage timings print in sorted stage-name order so the line is
        stable however the ``stage_seconds`` dict was populated."""
        stages = ", ".join(
            f"{name} {seconds:.3f}s"
            for name, seconds in sorted(self.stage_seconds.items())
        )
        return (
            f"{self.objects} objects on {self.max_workers} workers "
            f"({stages}); "
            f"{self.failed} failed, {self.retries} retries; "
            f"{self.unique_retrievals} unique retrievals "
            f"({self.retrieval_cache_hits} deduped, "
            f"{self.matrix_batches} matrix batches); cache hits: "
            f"{self.verifier_cache_hits} verifier, "
            f"{self.payload_cache_hits} payload, "
            f"{self.analyze_cache_hits} analyze"
        )


class BatchEngine:
    """Run one verification campaign over a ``VerifAI`` system.

    ``fail_fast`` re-raises the first per-object fault instead of
    reporting it; ``max_retries`` (default
    ``system.config.batch_max_retries``) grants each object that many
    extra attempts before it is reported FAILED.
    """

    def __init__(
        self,
        system: VerifAI,
        max_workers: int = 1,
        fail_fast: bool = False,
        max_retries: Optional[int] = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        retries = (
            max_retries if max_retries is not None
            else system.config.batch_max_retries
        )
        if retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {retries}")
        self.system = system
        self.max_workers = max_workers
        self.fail_fast = fail_fast
        self.max_retries = retries

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        objects: Sequence[DataObject],
        modalities: Optional[Sequence[Modality]] = None,
        k_coarse: Optional[int] = None,
        k_fine: Optional[int] = None,
        trace: bool = False,
        profile: bool = False,
    ) -> BatchReport:
        """Verify every object; reports come back in input order.

        ``profile=True`` (implies ``trace``) stamps spans with
        thread-CPU readings and attaches a
        :class:`~repro.obs.profile.StageProfile` to the report; the
        default path builds byte-identical traces to an unprofiled run.
        """
        system = self.system
        clock = system.clock
        registry = system.metrics
        events = get_event_log()
        object_list = list(objects)

        trace = trace or profile
        scope = registry.scope()
        tracer: Optional[Tracer] = None
        root_span: Optional[Span] = None
        # profile-only measurements of work that deliberately emits no
        # span (the matrix prefill): (stack, wall, cpu) entries folded
        # into the StageProfile and subtracted from the root's self time
        profile_extras: List[Tuple[Tuple[str, ...], float, float]] = []
        if trace:
            tracer = Tracer(
                system.next_trace_id(), clock=clock,
                cpu_clock=system.cpu_clock if profile else None,
            )
            # deliberately no worker-count attribute: serial and
            # parallel runs of one campaign must export the same bytes
            root_span = tracer.root(
                "verify_batch", attributes={"objects": len(object_list)}
            )

        # build (and seal) indexes up front so worker threads never race
        # on the lazy build path; build cost is not attributed to the
        # campaign scope.  A traced cold build hangs its spans (sharded
        # builds emit per-shard children) under the campaign root.
        if tracer is not None and not system.indexer.is_built:
            build_cpu_start = system.cpu_clock.now() if profile else 0.0
            build_start = clock.now() if profile else 0.0
            build_branch = tracer.branch()
            system.indexer.build(branch=build_branch, parent=root_span)
            build_branch.commit()
            # a monolithic cold build emits no spans (sharded builds
            # do), so attribute its cost via a profile-only stage — it
            # would otherwise inflate the root's unexplained self time
            if profile and system.config.num_shards <= 1:
                profile_extras.append((
                    ("verify_batch", "index.build"),
                    clock.now() - build_start,
                    system.cpu_clock.now() - build_cpu_start,
                ))
        else:
            system.indexer.build()

        def modalities_for(obj: DataObject) -> Tuple[Modality, ...]:
            if modalities is not None:
                return tuple(modalities)
            return DEFAULT_MODALITIES.get(type(obj), (Modality.TABLE,))

        with registry.activate(scope):
            batch_start = clock.now()

            # provenance records are allocated serially in input order so
            # record ids are deterministic regardless of worker
            # scheduling; a broken query_text() must not abort allocation
            # — the boundary in run_one reports it per object
            records = [
                system.provenance.new_record(
                    obj.object_id, safe_query_text(obj)
                )
                for obj in object_list
            ]
            if tracer is not None:
                for record in records:
                    record.trace_id = tracer.trace_id

            # the dedup plan: which position first issues each retrieval
            # key.  Computed from the inputs alone, so dedup counters and
            # span attributes never depend on worker interleaving.
            def plan_query(obj: DataObject) -> Optional[str]:
                """``query_text()``, or ``None`` for an object too broken
                to plan — its fault is reported by the error boundary in
                ``run_one``; here it just contributes nothing to dedup."""
                try:
                    return obj.query_text()
                except Exception:
                    return None

            plan_first: Dict[tuple, int] = {}
            planned_refs = 0
            for position, obj in enumerate(object_list):
                query = plan_query(obj)
                if query is None:
                    continue
                for modality in modalities_for(obj):
                    key = (
                        type(obj).__name__, query, modality,
                        k_coarse, k_fine,
                    )
                    planned_refs += 1
                    plan_first.setdefault(key, position)
            plan_dedup_hits = planned_refs - len(plan_first)

            retrieval_cache: Dict[tuple, _Stages] = {}
            cache_lock = threading.Lock()

            # query-matrix prefill: score each modality's deduplicated
            # campaign queries in one matrix pass and seed the cache, so
            # workers only ever hit.  The kernel is bit-identical to the
            # per-query path and spans are replayed from stage lists
            # either way, so reports and traces are unchanged; a prefill
            # fault just leaves the cache cold and the per-object error
            # boundary tells the story as usual.
            if plan_first:
                by_modality: Dict[Modality, List[tuple]] = {}
                for key in plan_first:  # insertion = input order
                    by_modality.setdefault(key[2], []).append(key)
                prefill_cpu_start = (
                    system.cpu_clock.now() if profile else 0.0
                )
                prefill_start = clock.now()
                for modality, keys in by_modality.items():
                    reps = [
                        object_list[plan_first[key]] for key in keys
                    ]
                    try:
                        stage_lists = system.retrieval_stages_batch(
                            reps, modality, k_coarse, k_fine
                        )
                    except Exception:
                        # leave this modality's cache cold: each object
                        # retries its own retrieval inside the normal
                        # per-object error boundary, which reports the
                        # fault properly
                        registry.counter(
                            "batch.matrix_prefill_failures"
                        ).inc()
                        events.emit(
                            "batch.matrix_prefill_failed",
                            modality=modality.value,
                            queries=len(keys),
                        )
                        continue
                    for key, stages in zip(keys, stage_lists):
                        retrieval_cache[key] = stages
                    registry.counter("batch.matrix_batches").inc()
                prefill_end = clock.now()
                registry.histogram("pipeline.retrieve_seconds").observe(
                    prefill_end - prefill_start
                )
                if profile:
                    # the prefill runs inside the root span but emits no
                    # child span (trace shape must not change); record it
                    # as a profile-only stage instead
                    profile_extras.append((
                        ("verify_batch", "retrieve:prefill"),
                        prefill_end - prefill_start,
                        system.cpu_clock.now() - prefill_cpu_start,
                    ))

            def replay_stage_spans(
                branch, parent, stages: _Stages,
                modality: Modality, deduped: bool,
            ) -> None:
                """Emit one span per retrieval stage.  Spans are always
                replayed from the stage list (whether this object
                executed the retrieval or took it from the dedup cache),
                so the trace shape never depends on execution order."""
                fine = (
                    k_fine if k_fine is not None
                    else system.config.fine_k(modality)
                )
                coarse_depth = (
                    k_coarse if k_coarse is not None
                    else system.config.k_coarse
                )
                for stage_name, hits in stages:
                    if stage_name.startswith("coarse:"):
                        span_name = f"retrieve:{stage_name}"
                        # a lone coarse stage retrieves at fine depth
                        depth = coarse_depth if len(stages) > 1 else fine
                    else:
                        span_name = stage_name
                        depth = fine
                    with branch.span(
                        span_name,
                        parent=parent,
                        attributes={
                            "modality": modality.value,
                            "k": depth,
                            "hits": len(hits),
                            "dedup": deduped,
                        },
                    ):
                        pass

            def attempt_one(
                position: int, final_attempt: bool
            ) -> VerificationReport:
                """One guarded attempt; only mutates the provenance
                record after the full chain succeeded, so retries never
                duplicate stages or outcomes.  Spans follow the same
                rule: committed on success or on the final failure,
                discarded on a retried attempt."""
                obj = object_list[position]
                record = records[position]
                branch = (
                    tracer.branch() if tracer is not None else NULL_BRANCH
                )
                try:
                    with branch.span(
                        "verify",
                        parent=root_span,
                        index=position,
                        attributes={"object_id": obj.object_id},
                        record_id=record.record_id,
                    ) as obj_span:
                        retrieve_start = clock.now()
                        stage_log: _Stages = []
                        evidence: List[DataInstance] = []
                        for modality in modalities_for(obj):
                            key = (
                                type(obj).__name__, obj.query_text(),
                                modality, k_coarse, k_fine,
                            )
                            with cache_lock:
                                stages = retrieval_cache.get(key)
                            if stages is None:
                                stages = system.retrieval_stages(
                                    obj, modality, k_coarse, k_fine
                                )
                                # a concurrent miss recomputes the same
                                # deterministic stages; first writer
                                # wins, results are equal
                                with cache_lock:
                                    stages = retrieval_cache.setdefault(
                                        key, stages
                                    )
                            deduped = (
                                plan_first.get(key, position) != position
                            )
                            replay_stage_spans(
                                branch, obj_span, stages, modality, deduped
                            )
                            stage_log.extend(stages)
                            evidence.extend(system.resolve(stages[-1][1]))
                        verify_start = clock.now()
                        with branch.span(
                            "verify_pool",
                            parent=obj_span,
                            attributes={"evidence": len(evidence)},
                        ) as pool_span:
                            outcomes, final, margin = (
                                system.verifier.verify_pool(
                                    obj, evidence,
                                    branch=branch, parent=pool_span,
                                )
                            )
                            pool_span.set("verdict", final.name)
                        obj_span.set("verdict", final.name)
                        verify_end = clock.now()
                except Exception:
                    # the failed attempt's spans (each marked FAILED on
                    # unwind) are the record of what happened — but only
                    # if no retry will produce a cleaner story
                    if final_attempt:
                        branch.commit()
                    else:
                        branch.discard()
                    raise
                branch.commit()
                for stage_name, hits in stage_log:
                    record.add_stage(stage_name, hits)
                record.record_outcomes(outcomes)
                record.finalize(final, margin)
                registry.histogram("pipeline.retrieve_seconds").observe(
                    verify_start - retrieve_start
                )
                registry.histogram("pipeline.verify_seconds").observe(
                    verify_end - verify_start
                )
                return VerificationReport(
                    object_id=obj.object_id,
                    final_verdict=final,
                    margin=margin,
                    outcomes=outcomes,
                    evidence_ids=[o.evidence_id for o in outcomes],
                    record_id=record.record_id,
                )

            def run_one(position: int) -> VerificationReport:
                """The per-object error boundary around ``attempt_one``.

                Re-activates the campaign scope so worker-thread cache
                traffic attributes to this campaign (a no-op on the main
                thread, where the scope is already active)."""
                with registry.activate(scope):
                    attempts = self.max_retries + 1
                    for attempt in range(attempts):
                        final_attempt = attempt + 1 == attempts
                        try:
                            return attempt_one(position, final_attempt)
                        except Exception as exc:
                            if not final_attempt:
                                registry.counter("batch.retries").inc()
                                events.emit(
                                    "batch.retry",
                                    object_id=(
                                        object_list[position].object_id
                                    ),
                                    attempt=attempt + 1,
                                )
                                continue
                            obj = object_list[position]
                            record = records[position]
                            error = format_error(exc)
                            record.mark_failed(error)
                            registry.counter("batch.failed").inc()
                            events.emit(
                                "batch.object_failed",
                                object_id=obj.object_id,
                                error=error,
                            )
                            if self.fail_fast:
                                raise
                            return VerificationReport(
                                object_id=obj.object_id,
                                final_verdict=Verdict.NOT_RELATED,
                                margin=0.0,
                                record_id=record.record_id,
                                status=STATUS_FAILED,
                                error=error,
                            )
                raise AssertionError(
                    "unreachable: attempts >= 1"
                )  # pragma: no cover

            if self.max_workers == 1 or len(object_list) <= 1:
                reports = [run_one(i) for i in range(len(object_list))]
            else:
                with ThreadPoolExecutor(
                    max_workers=self.max_workers
                ) as pool:
                    reports = list(
                        pool.map(run_one, range(len(object_list)))
                    )

            # generation-log linking is append-order-sensitive; do it
            # once, serially, in input order
            for obj, report in zip(object_list, reports):
                system.generation_log.link_verification(
                    obj.object_id, report.record_id
                )

            stats = BatchStats.from_scope(
                scope,
                objects=len(object_list),
                max_workers=self.max_workers,
                unique_retrievals=len(plan_first),
                retrieval_cache_hits=plan_dedup_hits,
                verifier_cache_entries=len(system.verifier),
                verifier_cache_size=system.verifier.cache_size,
                stage_seconds={
                    "retrieve": scope.value("pipeline.retrieve_seconds.sum"),
                    "verify": scope.value("pipeline.verify_seconds.sum"),
                    "total": clock.now() - batch_start,
                },
            )

        campaign_trace = None
        campaign_profile = None
        if tracer is not None:
            tracer.close(root_span)
            campaign_trace = tracer.trace()
            if profile:
                campaign_profile = StageProfile.from_trace(
                    campaign_trace, extras=profile_extras
                )
        return BatchReport(
            reports=reports, stats=stats, trace=campaign_trace,
            profile=campaign_profile,
        )
