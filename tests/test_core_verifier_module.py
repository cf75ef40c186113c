"""VerifierModule: agent + trust-weighted evidence pooling."""

import pytest

from repro.core.verifier import VerifierModule
from repro.llm.model import SimulatedLLM
from repro.verify.agent import VerifierAgent
from repro.verify.llm_verifier import LLMVerifier
from repro.verify.objects import TupleObject
from repro.verify.verdict import Verdict


@pytest.fixture()
def module(tiny_lake, quiet_profile):
    llm = SimulatedLLM(knowledge=None, profile=quiet_profile, seed=20)
    agent = VerifierAgent([], fallback=LLMVerifier(llm))
    return VerifierModule(agent, tiny_lake)


class TestSourceOf:
    def test_row_source_from_parent_table(self, module, election_table):
        assert module.source_of(election_table.row(0)) == "tabfact"

    def test_document_source(self, module, tiny_lake):
        assert module.source_of(tiny_lake.document("page-jenkins")) == "wikipages"

    def test_kg_entity_source(self, module, tiny_lake):
        tiny_lake.kg.add("some entity", "p", "o")
        entity = tiny_lake.kg.entity("some entity")
        assert module.source_of(entity) == "knowledge-graph"


class TestVerifyPool:
    def test_pool_aggregates_majority(self, module, election_table, tiny_lake):
        obj = TupleObject("p1", election_table.row(0), attribute="party")
        evidence = [
            election_table.row(0),                 # verifies
            tiny_lake.document("page-jenkins"),    # verifies (page says republican)
            election_table.row(3),                 # unrelated entity
        ]
        outcomes, final, margin = module.verify_pool(obj, evidence)
        assert len(outcomes) == 3
        assert final is Verdict.VERIFIED
        assert margin == 1.0  # the unrelated outcome abstains

    def test_trust_weights_change_decision(self, tiny_lake, election_table,
                                           quiet_profile):
        llm = SimulatedLLM(knowledge=None, profile=quiet_profile, seed=21)
        agent = VerifierAgent([], fallback=LLMVerifier(llm))
        # distrust the tabfact source entirely, trust wikipages
        module = VerifierModule(
            agent, tiny_lake,
            source_trust={"tabfact": 0.0, "wikipages": 1.0},
        )
        wrong = election_table.row(0).replace_value("votes", "55,000")
        obj = TupleObject("p2", wrong, attribute="votes")
        outcomes, final, margin = module.verify_pool(
            obj, [election_table.row(0), tiny_lake.document("page-jenkins")]
        )
        # both refute, but only the trusted source carries weight
        assert final is Verdict.REFUTED
        assert margin == 1.0

    def test_all_unrelated_gives_not_related(self, module, election_table,
                                             medal_table):
        obj = TupleObject("p3", election_table.row(0), attribute="party")
        outcomes, final, margin = module.verify_pool(
            obj, [medal_table.row(0), medal_table.row(1)]
        )
        assert final is Verdict.NOT_RELATED
        assert margin == 0.0

    def test_empty_evidence(self, module, election_table):
        obj = TupleObject("p4", election_table.row(0), attribute="party")
        outcomes, final, margin = module.verify_pool(obj, [])
        assert outcomes == []
        assert final is Verdict.NOT_RELATED


class TestCache:
    def test_repeated_pairs_hit_cache(self, module, election_table):
        obj = TupleObject("c1", election_table.row(0), attribute="party")
        evidence = election_table.row(0)
        before = module.cache_hits
        first = module.verify_one(obj, evidence)
        second = module.verify_one(obj, evidence)
        assert module.cache_hits == before + 1
        assert first == second

    def test_same_content_different_object_id_hits(self, module,
                                                   election_table):
        evidence = election_table.row(1)
        a = TupleObject("idA", election_table.row(1), attribute="party")
        b = TupleObject("idB", election_table.row(1), attribute="party")
        module.verify_one(a, evidence)
        before = module.cache_hits
        module.verify_one(b, evidence)
        assert module.cache_hits == before + 1

    def test_different_attribute_misses(self, module, election_table):
        evidence = election_table.row(2)
        a = TupleObject("x", election_table.row(2), attribute="party")
        b = TupleObject("x", election_table.row(2), attribute="votes")
        module.verify_one(a, evidence)
        before = module.cache_hits
        module.verify_one(b, evidence)
        assert module.cache_hits == before

    def test_cache_disabled(self, tiny_lake, quiet_profile, election_table):
        from repro.llm.model import SimulatedLLM
        from repro.verify.agent import VerifierAgent
        from repro.verify.llm_verifier import LLMVerifier

        llm = SimulatedLLM(knowledge=None, profile=quiet_profile, seed=22)
        module = VerifierModule(
            VerifierAgent([], fallback=LLMVerifier(llm)), tiny_lake,
            cache=False,
        )
        obj = TupleObject("c2", election_table.row(0), attribute="party")
        module.verify_one(obj, election_table.row(0))
        module.verify_one(obj, election_table.row(0))
        assert module.cache_hits == 0


class TestCacheBound:
    def make_module(self, tiny_lake, quiet_profile, cache_size):
        from repro.llm.model import SimulatedLLM
        from repro.verify.agent import VerifierAgent
        from repro.verify.llm_verifier import LLMVerifier

        llm = SimulatedLLM(knowledge=None, profile=quiet_profile, seed=23)
        return VerifierModule(
            VerifierAgent([], fallback=LLMVerifier(llm)), tiny_lake,
            cache_size=cache_size,
        )

    def test_cache_never_exceeds_bound(self, tiny_lake, quiet_profile,
                                       election_table):
        module = self.make_module(tiny_lake, quiet_profile, cache_size=2)
        for i in range(4):
            obj = TupleObject("b", election_table.row(i), attribute="party")
            module.verify_one(obj, election_table.row(i))
        assert len(module) == 2

    def test_lru_evicts_oldest_first(self, tiny_lake, quiet_profile,
                                     election_table):
        module = self.make_module(tiny_lake, quiet_profile, cache_size=2)
        objs = [
            TupleObject("b", election_table.row(i), attribute="party")
            for i in range(3)
        ]
        module.verify_one(objs[0], election_table.row(0))
        module.verify_one(objs[1], election_table.row(1))
        # touch 0 so 1 becomes the eviction victim
        module.verify_one(objs[0], election_table.row(0))
        module.verify_one(objs[2], election_table.row(2))  # evicts 1
        before = module.cache_hits
        module.verify_one(objs[0], election_table.row(0))
        assert module.cache_hits == before + 1
        module.verify_one(objs[1], election_table.row(1))  # was evicted
        assert module.cache_hits == before + 1

    def test_invalid_cache_size_rejected(self, tiny_lake, quiet_profile):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            self.make_module(tiny_lake, quiet_profile, cache_size=0)


class TestInvalidate:
    @staticmethod
    def hits(module, obj, evidence):
        before = module.cache_hits
        module.verify_one(obj, evidence)
        return module.cache_hits - before

    def test_retires_a_table_and_its_tuples_only(self, module, election_table,
                                                medal_table, tiny_lake):
        obj = TupleObject("i", election_table.row(0), attribute="party")
        page = tiny_lake.document("page-jenkins")
        evidence = [
            election_table.row(0), election_table.row(1), election_table,
            medal_table.row(0), page,
        ]
        for item in evidence:
            module.verify_one(obj, item)
        module.invalidate(election_table.table_id)
        module.invalidate("no-such-instance")
        assert [self.hits(module, obj, item) for item in evidence] == [
            0, 0, 0, 1, 1,
        ]
        module.invalidate("page-jenkins")
        assert self.hits(module, obj, page) == 0
        assert self.hits(module, obj, page) == 1

    def test_cache_disabled_is_a_noop(self, tiny_lake, quiet_profile,
                                      election_table):
        llm = SimulatedLLM(knowledge=None, profile=quiet_profile, seed=22)
        module = VerifierModule(
            VerifierAgent([], fallback=LLMVerifier(llm)), tiny_lake,
            cache=False,
        )
        module.invalidate(election_table.table_id)
        module.verify_one(
            TupleObject("i", election_table.row(0)), election_table.row(0)
        )
        assert len(module) == 0

    def test_no_outcome_survives_invalidation_under_threads(
        self, tiny_lake, quiet_profile, election_table, medal_table
    ):
        """Eight threads verify through a 5-entry cache while a ninth
        invalidates; once every root is invalidated, no pair may be
        served from the cache."""
        import sys
        import threading

        llm = SimulatedLLM(knowledge=None, profile=quiet_profile, seed=24)
        module = VerifierModule(
            VerifierAgent([], fallback=LLMVerifier(llm)), tiny_lake,
            cache_size=5,
        )
        evidence = (
            list(election_table.iter_rows()) + list(medal_table.iter_rows())
            + [election_table, medal_table] + tiny_lake.documents()
        )
        roots = sorted({item.instance_id.split("#")[0] for item in evidence})
        objs = [
            TupleObject("s", row, attribute="party")
            for row in election_table.iter_rows()
        ]
        errors = []

        def reader(worker):
            try:
                for step in range(60):
                    obj = objs[(worker + step) % len(objs)]
                    item = evidence[(worker * 7 + step) % len(evidence)]
                    module.verify_one(obj, item)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        def writer():
            for step in range(60):
                module.invalidate(roots[step % len(roots)])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=reader, args=(worker,))
                for worker in range(8)
            ] + [threading.Thread(target=writer)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert 0 < len(module) <= 5
        for root in roots:
            module.invalidate(root)
        assert sum(
            self.hits(module, obj, item) for obj in objs for item in evidence
        ) == 0
