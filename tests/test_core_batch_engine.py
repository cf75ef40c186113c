"""The batch engine: parallel == serial, retrieval dedup, and stats."""

import pytest

from repro.core.batch import BatchEngine, BatchStats
from repro.core.config import VerifAIConfig
from repro.core.pipeline import VerifAI
from repro.llm.model import SimulatedLLM
from repro.obs.clock import TickClock
from repro.obs.export import render_trace_json
from repro.obs.metrics import get_registry
from repro.verify.objects import TupleObject
from repro.workloads.builder import LakeConfig, build_lake


@pytest.fixture(scope="module")
def bundle():
    return build_lake(LakeConfig(num_tables=40, seed=21))


@pytest.fixture(scope="module")
def workload(bundle):
    """A mixed batch: correct rows, corrupted rows, and one duplicate."""
    objects = []
    for i, table in enumerate(bundle.tables[:8]):
        row = table.row(0)
        if i % 3 == 2:  # corrupt every third object
            column = table.columns[-1]
            row = row.replace_value(column, "999,999,999")
            objects.append(TupleObject(f"obj-{i}", row, attribute=column))
        else:
            objects.append(
                TupleObject(f"obj-{i}", row, attribute=table.columns[1])
            )
    # exact duplicate retrieval of obj-0 under a different object id
    objects.append(
        TupleObject(
            "obj-dup", bundle.tables[0].row(0),
            attribute=bundle.tables[0].columns[1],
        )
    )
    return objects


def make_system(bundle):
    llm = SimulatedLLM(knowledge=None, seed=26)
    return VerifAI(bundle.lake, llm=llm).build_indexes()


def report_fingerprint(batch):
    """Everything that must match between serial and parallel runs."""
    return [
        (
            r.object_id,
            r.final_verdict,
            r.margin,
            [(o.evidence_id, o.verdict, o.verifier) for o in r.outcomes],
            r.evidence_ids,
            r.record_id,
        )
        for r in batch.reports
    ]


class TestParallelEquivalence:
    def test_parallel_matches_serial(self, bundle, workload):
        serial_system = make_system(bundle)
        parallel_system = make_system(bundle)
        serial = serial_system.verify_batch(workload, max_workers=1)
        parallel = parallel_system.verify_batch(workload, max_workers=4)
        assert report_fingerprint(serial) == report_fingerprint(parallel)
        assert len(serial_system.provenance) == len(parallel_system.provenance)

    def test_provenance_records_complete(self, bundle, workload):
        system = make_system(bundle)
        batch = system.verify_batch(workload, max_workers=4)
        assert len(system.provenance) == len(workload)
        for report in batch.reports:
            record = system.provenance.get(report.record_id)
            assert record.object_id == report.object_id
            assert record.retrieval, "stages must be replayed into the record"
            assert record.final_verdict == int(report.final_verdict)

    def test_serial_verify_and_batch_produce_identical_records(
        self, bundle, workload
    ):
        """The serial path and the batch engine share one
        record-outcomes helper; their provenance must be equal
        field-for-field for the same objects."""
        from dataclasses import asdict

        serial_system = make_system(bundle)
        batch_system = make_system(bundle)
        for obj in workload:
            serial_system.verify(obj)
        batch = batch_system.verify_batch(workload)
        assert len(serial_system.provenance) == len(batch_system.provenance)
        for report in batch.reports:
            serial_record = serial_system.provenance.get(report.record_id)
            batch_record = batch_system.provenance.get(report.record_id)
            assert asdict(serial_record) == asdict(batch_record)

    def test_report_order_matches_input_order(self, bundle, workload):
        system = make_system(bundle)
        batch = system.verify_batch(workload, max_workers=4)
        assert [r.object_id for r in batch.reports] == [
            o.object_id for o in workload
        ]


class TestDedupAndStats:
    def test_duplicate_queries_deduped(self, bundle, workload):
        system = make_system(bundle)
        batch = system.verify_batch(workload)
        stats = batch.stats
        # obj-dup repeats obj-0's retrieval on both TUPLE and TEXT
        assert stats.retrieval_cache_hits >= 2
        assert stats.unique_retrievals < 2 * len(workload)

    def test_stats_populated(self, bundle, workload):
        system = make_system(bundle)
        batch = system.verify_batch(workload, max_workers=2)
        stats = batch.stats
        assert isinstance(stats, BatchStats)
        assert stats.objects == len(workload)
        assert stats.max_workers == 2
        assert set(stats.stage_seconds) == {"retrieve", "verify", "total"}
        assert stats.stage_seconds["total"] > 0
        assert stats.verifier_cache_size == system.verifier.cache_size
        assert "workers" in stats.summary()

    def test_summary_exposes_verifier_cache(self, bundle, workload):
        system = make_system(bundle)
        batch = system.verify_batch(workload)
        assert "verifier cache" in batch.summary()
        assert f"/{system.verifier.cache_size} entries" in batch.summary()

    def test_duplicate_object_hits_verifier_cache(self, bundle, workload):
        system = make_system(bundle)
        batch = system.verify_batch(workload)
        # obj-dup verifies the same (content, evidence) pairs as obj-0
        assert batch.stats.verifier_cache_hits > 0
        dup = batch.reports[-1]
        first = batch.reports[0]
        assert dup.final_verdict is first.final_verdict
        assert dup.margin == first.margin


class TestEngineEdges:
    def test_empty_batch(self, bundle):
        system = make_system(bundle)
        batch = system.verify_batch([], max_workers=4)
        assert len(batch) == 0
        assert batch.stats.objects == 0

    def test_bad_worker_count_rejected(self, bundle):
        system = make_system(bundle)
        with pytest.raises(ValueError):
            BatchEngine(system, max_workers=0)

    def test_config_default_workers_used(self, bundle, workload):
        system = make_system(bundle)
        system.config.batch_max_workers = 3
        batch = system.verify_batch(workload[:2])
        assert batch.stats.max_workers == 3


# ---------------------------------------------------------------------------
# system level: the matrix prefill is invisible in reports AND traces
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def trace_bundle():
    return build_lake(LakeConfig(num_tables=12, seed=33))


@pytest.fixture(scope="module")
def trace_workload(trace_bundle):
    return [
        TupleObject(f"obj-{i}", table.row(0), attribute=table.columns[1])
        for i, table in enumerate(trace_bundle.tables[:5])
    ]


def traced_run(bundle, workload):
    system = VerifAI(
        bundle.lake,
        llm=SimulatedLLM(knowledge=None, seed=26),
        config=VerifAIConfig(num_shards=2),
        clock=TickClock(),
    ).build_indexes()
    return system.verify_batch(workload, trace=True)


class TestSystemInvariance:
    def test_matrix_prefill_is_invisible_in_traces(
        self, trace_bundle, trace_workload, monkeypatch
    ):
        with_matrix = traced_run(trace_bundle, trace_workload)

        def broken_prefill(self, *args, **kwargs):
            raise RuntimeError("injected prefill fault")

        # a failing prefill leaves the retrieval cache cold, so every
        # object falls back to its own per-object retrieval
        monkeypatch.setattr(VerifAI, "retrieval_stages_batch", broken_prefill)
        failures = get_registry().counter("batch.matrix_prefill_failures")
        before = failures.value
        without = traced_run(trace_bundle, trace_workload)
        assert failures.value > before
        assert without.stats.matrix_batches == 0
        assert render_trace_json(with_matrix.trace) == render_trace_json(
            without.trace
        )
        assert [
            (r.object_id, r.final_verdict) for r in with_matrix.reports
        ] == [(r.object_id, r.final_verdict) for r in without.reports]

    def test_matrix_prefill_counted(self, trace_bundle, trace_workload):
        batch = traced_run(trace_bundle, trace_workload)
        assert batch.stats.matrix_batches > 0
        assert "matrix batches" in batch.stats.summary()
