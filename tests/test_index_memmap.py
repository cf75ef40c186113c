"""Durability proof of the sealed memmap persistence layer.

The contract under test (src/repro/index/persistence.py): a sealed
index persisted with ``save_sealed_index`` and re-opened with
``attach_sealed_index`` — in this process or a *fresh* one — answers
every query with exactly the (id, score) pairs the writable index
produced, attaches without re-analysis (zero-copy ``np.memmap``), and
refuses both mutation and corrupted snapshots with a clean
``VerificationError`` rather than garbage rankings.
"""

import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.index.inverted import InvertedIndex
from repro.index.persistence import attach_sealed_index, save_sealed_index
from repro.verify.base import VerificationError

from tests.bm25_oracle import oracle_search

WORDS = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta",
    "theta", "iota", "kappa", "sigma", "omega",
]

QUERIES = [
    "alpha beta",
    "gamma delta epsilon",
    "theta iota kappa alpha",
    "zeta zeta sigma",
    "",  # empty query must round-trip to [] as well
    "unknowntoken",
]


def corpus(n=80, seed=13):
    rng = random.Random(seed)
    return {
        f"doc-{i:04d}": " ".join(rng.choices(WORDS, k=rng.randint(5, 30)))
        for i in range(n)
    }


def build_index(docs=None) -> InvertedIndex:
    index = InvertedIndex(name="bm25-test")
    for doc_id, payload in (docs or corpus()).items():
        index.add(doc_id, payload)
    return index


def ranking(index, query, k=10):
    return [(h.instance_id, h.score) for h in index.search(query, k)]


@pytest.fixture()
def snapshot_dir(tmp_path):
    target = tmp_path / "sealed"
    save_sealed_index(build_index(), target)
    return target


# ---------------------------------------------------------------------------
# round trip: exact (id, score) equality
# ---------------------------------------------------------------------------
class TestRoundTrip:
    def test_attach_reproduces_every_ranking_exactly(self, snapshot_dir):
        original = build_index()
        attached = attach_sealed_index(snapshot_dir)
        assert attached.is_attached
        assert len(attached) == len(original)
        for query in QUERIES:
            for k in (1, 3, 10, 1000):
                expected = [
                    (h.instance_id, h.score)
                    for h in oracle_search(original, query, k)
                ]
                assert ranking(original, query, k) == expected
                assert ranking(attached, query, k) == expected

    def test_attach_uses_memmap_not_reanalysis(self, snapshot_dir):
        attached = attach_sealed_index(snapshot_dir)
        # the heavy arrays are memmaps over the snapshot files
        sealed = attached._sealed
        assert isinstance(sealed.tf_flat, np.memmap)
        assert isinstance(sealed.doc_idx, np.memmap)
        # the dict write form was never rebuilt
        assert not attached._postings

    def test_matrix_kernel_identical_on_attached_index(self, snapshot_dir):
        original = build_index()
        attached = attach_sealed_index(snapshot_dir)
        batched = attached.search_matrix(QUERIES, 10)
        for query, hits in zip(QUERIES, batched):
            assert [
                (h.instance_id, h.score) for h in hits
            ] == ranking(original, query, 10)

    def test_single_doc_and_empty_token_geometry(self, tmp_path):
        index = InvertedIndex(name="tiny")
        index.add("only-doc", "alpha beta alpha")
        save_sealed_index(index, tmp_path / "tiny")
        attached = attach_sealed_index(tmp_path / "tiny")
        assert ranking(attached, "alpha") == ranking(index, "alpha")
        assert ranking(attached, "missing") == []

    def test_fresh_process_attach_is_bit_identical(
        self, snapshot_dir, tmp_path
    ):
        """The whole point of the manifest: a worker that never saw the
        corpus attaches the snapshot and reproduces the exact scores."""
        expected = {
            query: ranking(build_index(), query) for query in QUERIES
        }
        out_path = tmp_path / "fresh.json"
        script = textwrap.dedent(
            f"""
            import json
            from repro.index.persistence import attach_sealed_index

            index = attach_sealed_index({str(snapshot_dir)!r})
            queries = {QUERIES!r}
            result = {{
                q: [
                    (h.instance_id, h.score) for h in index.search(q, 10)
                ]
                for q in queries
            }}
            with open({str(out_path)!r}, "w") as fh:
                json.dump(result, fh)
            """
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        subprocess.run(
            [sys.executable, "-c", script], check=True, env=env
        )
        fresh = json.loads(out_path.read_text())
        for query in QUERIES:
            assert [
                tuple(pair) for pair in fresh[query]
            ] == expected[query], query


# ---------------------------------------------------------------------------
# attached indexes are read-only
# ---------------------------------------------------------------------------
class TestAttachedIsReadOnly:
    def test_mutations_refused(self, snapshot_dir):
        attached = attach_sealed_index(snapshot_dir)
        with pytest.raises(VerificationError):
            attached.add("new-doc", "alpha")
        with pytest.raises(VerificationError):
            attached.remove("doc-0000")
        with pytest.raises(VerificationError):
            attached.invalidate_seal()
        # refusal left the index fully usable
        assert ranking(attached, "alpha") == ranking(
            build_index(), "alpha"
        )


# ---------------------------------------------------------------------------
# corruption: clean VerificationError, never garbage
# ---------------------------------------------------------------------------
class TestCorruption:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(VerificationError, match="manifest"):
            attach_sealed_index(tmp_path / "nowhere")

    def test_unparseable_manifest(self, snapshot_dir):
        (snapshot_dir / "manifest.json").write_text("{not json")
        with pytest.raises(VerificationError):
            attach_sealed_index(snapshot_dir)

    def test_wrong_kind(self, snapshot_dir):
        manifest = json.loads((snapshot_dir / "manifest.json").read_text())
        manifest["kind"] = "something-else"
        (snapshot_dir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(VerificationError, match="kind"):
            attach_sealed_index(snapshot_dir)

    def test_future_version(self, snapshot_dir):
        manifest = json.loads((snapshot_dir / "manifest.json").read_text())
        manifest["version"] = 999
        (snapshot_dir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(VerificationError, match="version"):
            attach_sealed_index(snapshot_dir)

    @pytest.mark.parametrize(
        "array_name", ["tf_flat", "doc_idx", "norm", "idf_flat", "tok_start"]
    )
    def test_truncated_array_file(self, snapshot_dir, array_name):
        path = snapshot_dir / f"{array_name}.bin"
        path.write_bytes(path.read_bytes()[:8])
        with pytest.raises(VerificationError, match="truncated"):
            attach_sealed_index(snapshot_dir)

    def test_missing_array_file(self, snapshot_dir):
        (snapshot_dir / "tf_flat.bin").unlink()
        with pytest.raises(VerificationError):
            attach_sealed_index(snapshot_dir)

    def test_inconsistent_geometry(self, snapshot_dir):
        manifest = json.loads((snapshot_dir / "manifest.json").read_text())
        manifest["doc_ids"] = manifest["doc_ids"][:-1]
        manifest["doc_lengths"] = manifest["doc_lengths"][:-1]
        (snapshot_dir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(VerificationError):
            attach_sealed_index(snapshot_dir)
