"""Inverted-index snapshot/restore through the sealed snapshot format.

Complements tests/test_index_memmap.py (memmap attach, corruption) with
non-default BM25 parameters and the empty index."""

import json

import pytest

from repro.index.inverted import InvertedIndex
from repro.index.persistence import attach_sealed_index, save_sealed_index
from repro.verify.base import VerificationError


@pytest.fixture()
def index():
    idx = InvertedIndex(name="snap", k1=1.5, b=0.6)
    idx.add("d1", "tom jenkins republican ohio votes 102,000")
    idx.add("d2", "bill hess republican ohio")
    idx.add("d3", "basketball jordan chicago")
    return idx


class TestRoundTrip:
    def test_identical_search_results(self, index, tmp_path):
        save_sealed_index(index, tmp_path / "snap")
        loaded = attach_sealed_index(tmp_path / "snap")
        for query in ("tom jenkins", "ohio republican", "102,000", "zzz"):
            original = [(h.instance_id, h.score)
                        for h in index.search(query, 3)]
            restored = [(h.instance_id, h.score)
                        for h in loaded.search(query, 3)]
            assert original == restored

    def test_parameters_preserved(self, index, tmp_path):
        save_sealed_index(index, tmp_path / "snap")
        loaded = attach_sealed_index(tmp_path / "snap")
        assert loaded.name == "snap"
        assert loaded.k1 == 1.5
        assert loaded.b == 0.6
        assert len(loaded) == len(index)
        assert loaded.avg_doc_length == index.avg_doc_length

    def test_bad_version_rejected(self, index, tmp_path):
        save_sealed_index(index, tmp_path / "snap")
        path = tmp_path / "snap" / "manifest.json"
        payload = json.loads(path.read_text())
        payload["version"] = 0
        path.write_text(json.dumps(payload))
        with pytest.raises(VerificationError, match="version"):
            attach_sealed_index(tmp_path / "snap")

    def test_empty_index(self, tmp_path):
        save_sealed_index(InvertedIndex(), tmp_path / "empty")
        loaded = attach_sealed_index(tmp_path / "empty")
        assert len(loaded) == 0
        assert loaded.search("anything") == []
