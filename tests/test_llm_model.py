"""The simulated chat model's three behaviours."""

import pytest

from repro.datalake.serialize import serialize_row, serialize_table
from repro.llm.knowledge import WorldKnowledge
from repro.llm.model import SimulatedLLM
from repro.llm.profile import LLMProfile
from repro.llm.prompts import (
    claim_question_prompt,
    parse_boolean_response,
    parse_completed_table,
    parse_verification_response,
    split_feedback,
    tuple_completion_prompt,
    tuple_revision_prompt,
    verification_prompt,
)


@pytest.fixture()
def perfect_llm(election_table, medal_table, quiet_profile):
    """Full-coverage knowledge, zero slips: the oracle configuration."""
    knowledge = WorldKnowledge(
        [election_table, medal_table], coverage=1.0, wrong_rate=0.0,
        confusion_rate=0.0,
    )
    return SimulatedLLM(knowledge=knowledge, profile=quiet_profile, seed=1)


@pytest.fixture()
def verifier_llm(quiet_profile):
    """Evidence-grounded verifier with no parametric knowledge."""
    return SimulatedLLM(knowledge=None, profile=quiet_profile, seed=2)


class TestDeterminism:
    def test_same_prompt_same_answer(self, perfect_llm, election_table):
        prompt = claim_question_prompt("the party of ohio 1 is republican",
                                       election_table.caption)
        assert perfect_llm.chat(prompt) == perfect_llm.chat(prompt)

    def test_call_counter(self, verifier_llm):
        before = verifier_llm.num_calls
        verifier_llm.chat("anything")
        assert verifier_llm.num_calls == before + 1

    def test_unknown_prompt_fallback(self, verifier_llm):
        assert "not sure" in verifier_llm.chat("what is the meaning of life?")


class TestTupleCompletion:
    def test_perfect_memory_fills_correctly(self, perfect_llm, election_table):
        masked = election_table.row(0).replace_value("party", "NaN")
        prompt = tuple_completion_prompt(
            election_table.caption, masked.columns, [masked.values]
        )
        header, rows = parse_completed_table(perfect_llm.chat(prompt))
        assert dict(zip(header, rows[0]))["party"] == "republican"

    def test_multiple_nans_filled(self, perfect_llm, election_table):
        masked = (
            election_table.row(1)
            .replace_value("party", "NaN")
            .replace_value("result", "NaN")
        )
        prompt = tuple_completion_prompt(
            election_table.caption, masked.columns, [masked.values]
        )
        header, rows = parse_completed_table(perfect_llm.chat(prompt))
        completed = dict(zip(header, rows[0]))
        assert completed["party"] == "republican"
        assert completed["result"] == "re-elected"

    def test_batch_of_rows(self, perfect_llm, election_table):
        masked = [
            election_table.row(i).replace_value("party", "NaN").values
            for i in range(3)
        ]
        prompt = tuple_completion_prompt(
            election_table.caption, election_table.columns, masked
        )
        header, rows = parse_completed_table(perfect_llm.chat(prompt))
        assert len(rows) == 3
        assert all("NaN" not in row for row in rows)

    def test_no_knowledge_model_degrades_gracefully(self, verifier_llm):
        response = verifier_llm.chat(
            tuple_completion_prompt("cap", ("a",), [("NaN",)])
        )
        assert "enough information" in response


@pytest.fixture()
def amnesic_llm(election_table, quiet_profile):
    """No memory at all: every fill is a hallucination from the domain."""
    knowledge = WorldKnowledge(
        [election_table], coverage=0.0, wrong_rate=0.0, confusion_rate=0.0,
    )
    return SimulatedLLM(knowledge=knowledge, profile=quiet_profile, seed=1)


class TestRevisionPrompts:
    """Retry-aware chat: feedback adoption and attempt-keyed rng."""

    def _revision(self, table, feedback, iteration=1, column="votes"):
        masked = table.row(0).replace_value(column, "NaN")
        return tuple_revision_prompt(
            table.caption, masked.columns, [masked.values],
            feedback, iteration,
        )

    def test_iteration_must_be_positive(self, election_table):
        with pytest.raises(ValueError, match="iteration"):
            self._revision(election_table, [], iteration=0)

    def test_split_feedback_roundtrip(self, election_table):
        prompt = self._revision(
            election_table,
            [("votes", "102,000", ""), ("party", None, "no evidence")],
            iteration=2,
        )
        feedback, iteration = split_feedback(prompt)
        assert feedback == {"votes": "102,000", "party": None}
        assert iteration == 2

    def test_plain_prompt_has_no_feedback(self, election_table):
        masked = election_table.row(0).replace_value("votes", "NaN")
        prompt = tuple_completion_prompt(
            election_table.caption, masked.columns, [masked.values]
        )
        assert split_feedback(prompt) == ({}, 0)

    def test_stated_value_is_adopted(self, amnesic_llm, election_table):
        prompt = self._revision(
            election_table, [("votes", "102,000", "")], iteration=1
        )
        header, rows = parse_completed_table(amnesic_llm.chat(prompt))
        assert dict(zip(header, rows[0]))["votes"] == "102,000"

    def test_revision_rolls_a_fresh_deterministic_guess(
        self, amnesic_llm, election_table
    ):
        """Without a stated value the retry re-draws with an
        attempt-keyed rng: stable per iteration, and the first draft's
        rng stream is untouched."""
        masked = election_table.row(0).replace_value("votes", "NaN")
        plain = tuple_completion_prompt(
            election_table.caption, masked.columns, [masked.values]
        )
        note = [("votes", None, "no related evidence was found")]

        def value_of(response):
            header, rows = parse_completed_table(response)
            return dict(zip(header, rows[0]))["votes"]

        first = value_of(amnesic_llm.chat(plain))
        retries = {
            iteration: value_of(
                amnesic_llm.chat(
                    self._revision(election_table, note, iteration)
                )
            )
            for iteration in (1, 2, 3)
        }
        # identical prompts still yield identical answers
        assert value_of(amnesic_llm.chat(plain)) == first
        for iteration, value in retries.items():
            assert value_of(
                amnesic_llm.chat(
                    self._revision(election_table, note, iteration)
                )
            ) == value
        # the retry stream explores the domain rather than repeating
        # one draw: across attempts 0..3 at least two values appear
        assert len({first, *retries.values()}) >= 2

    def test_call_count_is_pinned(self, amnesic_llm, election_table):
        """One chat call per draft — the loop never hides extra calls."""
        prompt = self._revision(
            election_table, [("votes", "102,000", "")], iteration=1
        )
        before = amnesic_llm.num_calls
        amnesic_llm.chat(prompt)
        amnesic_llm.chat(prompt)
        assert amnesic_llm.num_calls == before + 2

    def test_feedback_only_touches_disputed_columns(
        self, perfect_llm, election_table
    ):
        """Columns without feedback still fill from memory on a retry."""
        masked = (
            election_table.row(0)
            .replace_value("party", "NaN")
            .replace_value("votes", "NaN")
        )
        prompt = tuple_revision_prompt(
            election_table.caption, masked.columns, [masked.values],
            [("votes", "999,999", "")], iteration=1,
        )
        header, rows = parse_completed_table(perfect_llm.chat(prompt))
        completed = dict(zip(header, rows[0]))
        assert completed["votes"] == "999,999"   # adopted from feedback
        assert completed["party"] == "republican"  # recalled from memory


class TestClaimQA:
    def test_true_claim_with_perfect_memory(self, perfect_llm, medal_table):
        prompt = claim_question_prompt(
            "the gold of valoria is 10", medal_table.caption
        )
        assert parse_boolean_response(perfect_llm.chat(prompt)) is True

    def test_false_claim_with_perfect_memory(self, perfect_llm, medal_table):
        prompt = claim_question_prompt(
            "the gold of valoria is 99", medal_table.caption
        )
        assert parse_boolean_response(perfect_llm.chat(prompt)) is False

    def test_unknown_context_still_answers(self, perfect_llm):
        prompt = claim_question_prompt("the x of y is z", "no such table")
        assert parse_boolean_response(perfect_llm.chat(prompt)) is not None


class TestVerification:
    def test_tuple_vs_matching_tuple_verified(self, verifier_llm, election_table):
        row = election_table.row(0)
        prompt = verification_prompt(
            serialize_row(row), serialize_row(row), attribute="party"
        )
        verdict, _ = parse_verification_response(verifier_llm.chat(prompt))
        assert verdict == "verified"

    def test_tuple_vs_conflicting_tuple_refuted(self, verifier_llm, election_table):
        row = election_table.row(0)
        wrong = row.replace_value("party", "democratic")
        prompt = verification_prompt(
            serialize_row(row), serialize_row(wrong), attribute="party"
        )
        verdict, explanation = parse_verification_response(
            verifier_llm.chat(prompt)
        )
        assert verdict == "refuted"
        assert "republican" in explanation

    def test_tuple_vs_other_entity_not_related(self, verifier_llm, election_table):
        data = election_table.row(0)
        other = election_table.row(3)  # different district entirely
        prompt = verification_prompt(
            serialize_row(other), serialize_row(data), attribute="party"
        )
        verdict, _ = parse_verification_response(verifier_llm.chat(prompt))
        assert verdict == "not related"

    def test_tuple_vs_supporting_text(self, verifier_llm, election_table, tiny_lake):
        page = tiny_lake.document("page-jenkins")
        row = election_table.row(0)
        prompt = verification_prompt(
            f"{page.title}\n{page.text}", serialize_row(row), attribute="votes"
        )
        verdict, _ = parse_verification_response(verifier_llm.chat(prompt))
        assert verdict == "verified"

    def test_tuple_vs_refuting_text(self, verifier_llm, election_table, tiny_lake):
        page = tiny_lake.document("page-jenkins")
        wrong = election_table.row(0).replace_value("votes", "55,000")
        prompt = verification_prompt(
            f"{page.title}\n{page.text}", serialize_row(wrong), attribute="votes"
        )
        verdict, _ = parse_verification_response(verifier_llm.chat(prompt))
        assert verdict == "refuted"

    def test_tuple_vs_unrelated_text(self, verifier_llm, election_table, tiny_lake):
        page = tiny_lake.document("page-valoria")
        row = election_table.row(0)
        prompt = verification_prompt(
            f"{page.title}\n{page.text}", serialize_row(row), attribute="votes"
        )
        verdict, _ = parse_verification_response(verifier_llm.chat(prompt))
        assert verdict == "not related"

    def test_claim_vs_table_verified(self, verifier_llm, medal_table):
        prompt = verification_prompt(
            serialize_table(medal_table),
            "the gold of valoria is 10",
            context=medal_table.caption,
        )
        verdict, _ = parse_verification_response(verifier_llm.chat(prompt))
        assert verdict == "verified"

    def test_claim_vs_table_refuted_by_aggregation(self, verifier_llm, medal_table):
        prompt = verification_prompt(
            serialize_table(medal_table),
            f"the total gold in {medal_table.caption} is 99",
            context=medal_table.caption,
        )
        verdict, explanation = parse_verification_response(
            verifier_llm.chat(prompt)
        )
        assert verdict == "refuted"
        assert "19" in explanation  # the computed aggregate is shown

    def test_claim_vs_wrong_year_table_not_related(self, verifier_llm, medal_table):
        claim_context = "1984 summer games in lakeview medal table"
        prompt = verification_prompt(
            serialize_table(medal_table),
            "the total gold in 1984 summer games in lakeview medal table is 19",
            context=claim_context,
        )
        verdict, explanation = parse_verification_response(
            verifier_llm.chat(prompt)
        )
        assert verdict == "not related"
        assert "1960" in explanation or "1984" in explanation

    def test_claim_vs_tuple(self, verifier_llm, medal_table):
        prompt = verification_prompt(
            serialize_row(medal_table.row(0)),
            "the gold of valoria is 10",
        )
        verdict, _ = parse_verification_response(verifier_llm.chat(prompt))
        assert verdict == "verified"

    def test_claim_vs_text_fact_check(self, verifier_llm, tiny_lake):
        page = tiny_lake.document("page-jenkins")
        prompt = verification_prompt(
            f"{page.title}\n{page.text}",
            "the party of tom jenkins is democratic",
        )
        verdict, _ = parse_verification_response(verifier_llm.chat(prompt))
        assert verdict == "refuted"


# ---------------------------------------------------------------------------
# golden: every verification response, byte for byte
# ---------------------------------------------------------------------------

#: sha256 over every response of :func:`_golden_verification_prompts`,
#: recorded before the verifier's text path was optimised.  A change to
#: normalization, tokenization or the verification handlers that moves
#: any verdict *or* explanation moves this digest.
GOLDEN_VERIFICATION_DIGEST = (
    "708f1e15b295c69b40781e9d54af4b0df672c623a7043fd87096db9146c5584f"
)


def _accented(text: str) -> str:
    """Non-ASCII variant of ``text``: accents and a no-break space."""
    return text.replace("e", "\u00e9", 1).replace(" ", "\u00a0", 1)


def _golden_verification_prompts():
    """A fixed, seeded corpus of (family, prompt) pairs.

    Tuples are checked against tuples (same row, a sibling row),
    whole tables and entity pages; claims against their own table, a
    foreign table, a row of their table and an entity page.  Some data
    strings are corrupted and some carry non-ASCII text, so every
    verdict and both normalization paths occur.
    """
    import random

    from repro.workloads.builder import LakeConfig, build_lake
    from repro.workloads.claimwl import build_claim_workload

    bundle = build_lake(LakeConfig(num_tables=10, seed=5))
    lake = bundle.lake
    rng = random.Random(12)
    documents = lake.documents()
    tables = bundle.tables

    def page_for(row):
        for cell in row.values:
            doc_id = bundle.pages_of(cell)
            if doc_id is not None:
                return lake.document(doc_id)
        return rng.choice(documents)

    def page_text(doc):
        return f"{doc.title}\n{doc.text}"

    prompts = []
    for table in tables:
        for row in list(table.iter_rows())[:4]:
            attribute = rng.choice(list(row.columns) + [None])
            data_row = row
            if attribute is not None and rng.random() < 0.5:
                data_row = row.replace_value(attribute, "999,999")
            data = serialize_row(data_row)
            if rng.random() < 0.2:
                data = _accented(data)
            sibling = table.row(rng.randrange(table.num_rows))
            evidence = {
                "tuple-vs-tuple": [serialize_row(row), serialize_row(sibling)],
                "tuple-vs-table": [
                    serialize_table(table),
                    serialize_table(rng.choice(tables)),
                ],
                "tuple-vs-text": [
                    page_text(page_for(row)),
                    page_text(rng.choice(documents)),
                ],
            }
            for family, payloads in evidence.items():
                for payload in payloads:
                    prompts.append((
                        family,
                        verification_prompt(payload, data, attribute=attribute),
                    ))
    claims = build_claim_workload(bundle, num_claims=30, seed=13)
    for task in claims:
        claim = task.claim
        table = lake.table(task.table_id)
        text = _accented(claim.text) if rng.random() < 0.2 else claim.text
        subject = claim.spec.subject if claim.spec is not None else None
        subject_rows = [
            row for row in table.iter_rows() if subject in row.values
        ]
        row = subject_rows[0] if subject_rows else table.row(0)
        evidence = {
            "claim-vs-table": [
                serialize_table(table), serialize_table(rng.choice(tables)),
            ],
            "claim-vs-tuple": [serialize_row(row)],
            "claim-vs-text": [
                page_text(page_for(row)), page_text(rng.choice(documents)),
            ],
        }
        for family, payloads in evidence.items():
            for payload in payloads:
                prompts.append((
                    family,
                    verification_prompt(
                        payload, text, context=claim.context or None
                    ),
                ))
    return prompts


class TestVerificationGolden:
    def test_responses_match_the_recorded_digest(self):
        import hashlib

        llm = SimulatedLLM(knowledge=None, profile=LLMProfile(), seed=3)
        digest = hashlib.sha256()
        verdicts = {}
        for family, prompt in _golden_verification_prompts():
            response = llm.chat(prompt)
            digest.update(response.encode("utf-8") + b"\x00")
            verdict, _ = parse_verification_response(response)
            verdicts.setdefault(family, set()).add(verdict)
        # the corpus reaches every handler and more than one verdict in each
        assert sorted(verdicts) == [
            "claim-vs-table", "claim-vs-text", "claim-vs-tuple",
            "tuple-vs-table", "tuple-vs-text", "tuple-vs-tuple",
        ]
        assert all(len(seen) >= 2 for seen in verdicts.values()), verdicts
        assert digest.hexdigest() == GOLDEN_VERIFICATION_DIGEST
