"""Seeded inputs for the three workloads.

Everything the program sees is made here from ``--seed``: the lake, the
campaign's objects, the served request schedule and the churn operation
stream.  Gold verdicts come from the lake cell a tuple was read from or
from the label the claim generator proved against its table.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.claims.generator import ClaimGenerator
from repro.datalake.lake import DataLake
from repro.datalake.types import Table, TextDocument
from repro.serve.loadgen import PlannedRequest, build_request_mix, mix_digest
from repro.text.tokenize import sentences
from repro.verify.objects import ClaimObject, TupleObject
from repro.workloads import LakeBundle, LakeConfig, build_claim_workload

import harness

#: the ``medium`` experiment scale: every workload runs on this lake,
#: and ``--seed`` draws the workloads' objects, requests and operations
#: from it (a lake of another seed costs visibly more or less to verify,
#: which would drown the run-to-run comparison)
LAKE_TABLES = 400
LAKE_SEED = 0

VERIFIED = "VERIFIED"
REFUTED = "REFUTED"


def lake_config() -> LakeConfig:
    return LakeConfig(seed=LAKE_SEED, num_tables=LAKE_TABLES)


def lake_identity(lake: DataLake) -> Dict[str, int]:
    stats = lake.stats()
    return {
        "seed": LAKE_SEED,
        "tables": stats.num_tables,
        "tuples": stats.num_tuples,
        "text_files": stats.num_text_files,
    }


def _object_key(obj) -> list:
    if isinstance(obj, TupleObject):
        return [obj.object_id, obj.query_text(), obj.attribute]
    return [obj.object_id, obj.text, obj.context]


def _value_columns(table: Table) -> List[str]:
    return [c for c in table.columns if c != table.key_column]


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------
#: objects per campaign round: three tuples to every claim
ROUND_TUPLES = 18
ROUND_CLAIMS = 6
#: rounds kept apart for the set-up warm-up
WARMUP_ROUNDS = 2


@dataclass
class CampaignInputs:
    """Disjoint rounds of never-seen objects with their gold verdicts."""

    rounds: List[list]
    gold: List[List[str]]
    warmup: List[list]
    digest: str

    @property
    def objects(self) -> int:
        return sum(len(r) for r in self.rounds)


def campaign_inputs(bundle: LakeBundle, seed: int) -> CampaignInputs:
    """Every (row, value column) of the lake as a tuple object (gold
    VERIFIED) plus distinct labelled claims, shuffled into rounds."""
    rng = random.Random(f"campaign/{seed}")
    cells: List[Tuple[str, int, str]] = []
    for table in sorted(bundle.lake.tables(), key=lambda t: t.table_id):
        for row in range(table.num_rows):
            for column in _value_columns(table):
                cells.append((table.table_id, row, column))
    rng.shuffle(cells)
    workload = build_claim_workload(
        bundle, num_claims=8 * len(bundle.tables), seed=seed,
        claims_per_table=8,
    )
    seen: Set[Tuple[str, str]] = set()
    claims = []
    for task in workload:
        key = (task.claim.text, task.claim.context)
        if key not in seen:
            seen.add(key)
            claims.append(task)
    rng.shuffle(claims)

    count = min(len(cells) // ROUND_TUPLES, len(claims) // ROUND_CLAIMS)
    rounds, gold = [], []
    for r in range(count):
        objs, labels = [], []
        tuples = cells[r * ROUND_TUPLES:(r + 1) * ROUND_TUPLES]
        tasks = claims[r * ROUND_CLAIMS:(r + 1) * ROUND_CLAIMS]
        for i, (table_id, row, column) in enumerate(tuples):
            table = bundle.lake.table(table_id)
            objs.append(TupleObject(
                f"c{r:04d}-t{i:02d}", table.row(row), attribute=column
            ))
            labels.append(VERIFIED)
            if i % 3 == 2:
                task = tasks[i // 3]
                objs.append(ClaimObject(
                    f"c{r:04d}-c{i // 3:02d}", task.claim.text,
                    context=task.claim.context,
                ))
                labels.append(VERIFIED if task.label else REFUTED)
        rounds.append(objs)
        gold.append(labels)
    warmup = rounds[count - WARMUP_ROUNDS:]
    rounds, gold = rounds[:count - WARMUP_ROUNDS], gold[:count - WARMUP_ROUNDS]
    return CampaignInputs(
        rounds=rounds,
        gold=gold,
        warmup=warmup,
        digest=harness.digest(
            _object_key(obj) for objs in rounds for obj in objs
        ),
    )


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
#: share of requests that repeat an earlier body
REPEAT_SHARE = 0.5
#: request kinds in every block of ten, in a seeded order per block
KIND_BLOCK = ("claim",) * 4 + ("tuple",) * 4 + ("batch",) * 2
#: warm-up requests sent once the server is ready (a disjoint mix)
WARMUP_REQUESTS = 24


@dataclass
class ServeInputs:
    requests: List[PlannedRequest]
    warmup: List[PlannedRequest]
    unique: int
    digest: str


def serve_inputs(lake: DataLake, seed: int, count: int) -> ServeInputs:
    """``count`` requests (a multiple of ten) with a fixed kind mix.

    Each slot's kind comes from a shuffled :data:`KIND_BLOCK`; the body
    is the next new one from that kind's seeded ``build_request_mix``
    pool or, with probability ``REPEAT_SHARE``, an earlier body of the
    same kind, skewed towards the first ones sent (popular bodies).
    """
    if count % len(KIND_BLOCK):
        raise ValueError(f"count must be a multiple of {len(KIND_BLOCK)}")
    kinds = sorted(set(KIND_BLOCK))
    pools = {
        kind: build_request_mix(
            lake, count, seed=seed * len(kinds) + n, weights=((kind, 1.0),)
        )
        for n, kind in enumerate(kinds)
    }
    rng = random.Random(f"serve/{seed}")
    sent: Dict[str, List[PlannedRequest]] = {kind: [] for kind in kinds}
    schedule: List[PlannedRequest] = []
    for _ in range(count // len(KIND_BLOCK)):
        block = list(KIND_BLOCK)
        rng.shuffle(block)
        for kind in block:
            earlier = sent[kind]
            if earlier and rng.random() < REPEAT_SHARE:
                schedule.append(earlier[int(len(earlier) * rng.random() ** 3)])
            else:
                earlier.append(pools[kind][len(earlier)])
                schedule.append(earlier[-1])
    warmup = build_request_mix(lake, WARMUP_REQUESTS, seed=seed + 1_000_003)
    return ServeInputs(
        requests=schedule,
        warmup=warmup,
        unique=sum(len(bodies) for bodies in sent.values()),
        digest=mix_digest(schedule),
    )


class ServeGold:
    """Gold verdicts for the bodies ``build_request_mix`` writes.

    A tuple body names a lake cell; it is true unless it carries a
    ``value`` that differs from the cell.  A claim body reads "the
    COLUMN of SUBJECT is VALUE"; it is true when some table has that
    value in that column of SUBJECT's row.
    """

    def __init__(self, lake: DataLake) -> None:
        self._lake = lake
        self._claims: Dict[str, Set[str]] = {}
        for table in lake.tables():
            key_column = table.key_column or table.columns[0]
            for row in table.iter_rows():
                subject = row.get(key_column) or ""
                for column in table.columns:
                    if column == key_column:
                        continue
                    prefix = f"the {column} of {subject} is "
                    self._claims.setdefault(prefix, set()).add(
                        row.get(column) or ""
                    )

    def verdict(self, body: Dict[str, object]) -> Optional[str]:
        if body.get("kind") == "tuple":
            if "value" not in body:
                return VERIFIED
            table = self._lake.table(str(body["table_id"]))
            cell = table.row(int(body["row"])).get(str(body["column"]))
            return VERIFIED if body["value"] == cell else REFUTED
        text = str(body.get("text", ""))
        start = text.find(" is ")
        while start >= 0:
            values = self._claims.get(text[:start + 4])
            if values is not None:
                return VERIFIED if text[start + 4:] in values else REFUTED
            start = text.find(" is ", start + 1)
        return None

    def verdicts(self, payload: Dict[str, object]) -> List[Optional[str]]:
        """One gold verdict per object of a /verify or /verify-batch body."""
        if "objects" in payload:
            return [self.verdict(body) for body in payload["objects"]]
        return [self.verdict(payload)]


# ----------------------------------------------------------------------
# churn
# ----------------------------------------------------------------------
#: every this many churn operations one edits the lake (1 in 10)
WRITE_EVERY = 10


@dataclass(frozen=True)
class ChurnOp:
    """A read (``obj`` with ``gold``) or a write (``instance``)."""

    kind: str
    obj: object = None
    gold: str = ""
    instance: object = None

    def key(self) -> list:
        if self.kind == "read":
            return ["read", *_object_key(self.obj)]
        instance = self.instance
        if isinstance(instance, Table):
            return ["write", instance.table_id, instance.rows]
        return ["write", instance.doc_id, instance.text]


class ChurnStream:
    """Seeded closed-loop operations over the lake's current state.

    Every ``WRITE_EVERY``-th operation edits the lake, a table cell and
    a document sentence in turn; the rest are reads alternating a tuple
    (gold
    VERIFIED: the row as the lake holds it now) and a claim generated
    from a table as it stands now (gold: the generator's label).  The
    table or document last written is read next, so every modality a
    write touches is read again.
    """

    def __init__(self, lake: DataLake, seed: int) -> None:
        self.lake = lake
        self._rng = random.Random(f"churn/{seed}")
        self._claims = ClaimGenerator(seed=seed)
        self._table_ids = sorted(t.table_id for t in lake.tables())
        self._doc_ids = sorted(d.doc_id for d in lake.documents())
        self._reads = 0
        self._count = 0
        self._recent: Optional[str] = None

    def _table(self) -> Table:
        if self._recent is not None and self._recent in self._table_ids:
            table_id, self._recent = self._recent, None
        else:
            table_id = self._rng.choice(self._table_ids)
        return self.lake.table(table_id)

    def next(self) -> ChurnOp:
        self._count += 1
        if self._count % WRITE_EVERY == 0:
            return self._write()
        self._reads += 1
        table = self._table()
        while table.num_rows == 0 or not _value_columns(table):
            table = self.lake.table(self._rng.choice(self._table_ids))
        if self._reads % 2:
            row = table.row(self._rng.randrange(table.num_rows))
            column = self._rng.choice(_value_columns(table))
            return ChurnOp("read", TupleObject(
                f"r{self._count:06d}", row, attribute=column
            ), VERIFIED)
        generated = self._claims.generate_for_table(table, 2)
        if not generated:
            row = table.row(self._rng.randrange(table.num_rows))
            return ChurnOp("read", TupleObject(
                f"r{self._count:06d}", row,
                attribute=self._rng.choice(_value_columns(table)),
            ), VERIFIED)
        pick = generated[self._rng.randrange(len(generated))]
        return ChurnOp("read", ClaimObject(
            f"r{self._count:06d}", pick.claim.text,
            context=pick.claim.context,
        ), VERIFIED if pick.label else REFUTED)

    def _write(self) -> ChurnOp:
        # a fixed write mix keeps the re-sealing work the same per run
        if self._count // WRITE_EVERY % 2:
            table = self.lake.table(self._rng.choice(self._table_ids))
            while not table.num_rows or not _value_columns(table):
                table = self.lake.table(self._rng.choice(self._table_ids))
            self._recent = table.table_id
            return ChurnOp("write", instance=self._edit_cell(table))
        doc = self.lake.document(self._rng.choice(self._doc_ids))
        return ChurnOp("write", instance=self._edit_sentence(doc))

    def _edit_cell(self, table: Table) -> Table:
        """A copy of ``table`` with one value cell taken from another
        row of the same column (or its digits nudged)."""
        row = self._rng.randrange(table.num_rows)
        column = self._rng.choice(_value_columns(table))
        at = table.columns.index(column)
        values = table.column_values(column)
        others = [v for v in values if v != values[row]]
        new = self._rng.choice(others) if others else _nudge(values[row])
        rows = list(table.rows)
        rows[row] = rows[row][:at] + (new,) + rows[row][at + 1:]
        return dataclasses.replace(table, rows=rows)

    def _edit_sentence(self, doc: TextDocument) -> TextDocument:
        """A copy of ``doc`` with one sentence replaced by a sentence of
        another document."""
        parts = sentences(doc.text) or [doc.text]
        donor = self.lake.document(self._rng.choice(self._doc_ids))
        donor_parts = sentences(donor.text) or [donor.text]
        parts[self._rng.randrange(len(parts))] = self._rng.choice(donor_parts)
        return dataclasses.replace(doc, text=" ".join(parts))


def _nudge(value: str) -> str:
    digits = [i for i, ch in enumerate(value) if ch.isdigit()]
    if not digits:
        return value + " (revised)"
    i = digits[-1]
    return value[:i] + str((int(value[i]) + 1) % 10) + value[i + 1:]


def ops_digest(ops: Sequence[ChurnOp]) -> str:
    return harness.digest(op.key() for op in ops)
