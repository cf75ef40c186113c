"""Index persistence: the sealed memmap snapshot.

Rebuilding a BM25 index over a large lake on every process start is the
dominant cold-start cost.  :func:`save_sealed_index` writes the compiled
read form's flat contiguous arrays (see
:class:`~repro.index.inverted.InvertedIndex`) as raw binaries next to a
versioned ``manifest.json``; :func:`attach_sealed_index` re-creates the
index **zero-copy**: the arrays are ``np.memmap``-attached read-only,
so processes attaching one snapshot share one set of OS page-cache
pages, and cold start skips tokenization, BM25 statistics, and sealing
entirely.  Attached indexes refuse mutation; rankings are
bit-identical to the in-memory sealed index the snapshot was written
from.

Every manifest carries a format version and array geometry; a
truncated, corrupted, or version-skewed snapshot fails with a clean
:class:`~repro.verify.base.VerificationError` instead of a numpy
traceback.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.index.inverted import InvertedIndex, _SealedPostings

_SEALED_FORMAT_VERSION = 1
_SEALED_KIND = "sealed-inverted"

#: the flat sealed arrays and their on-disk dtypes, in manifest order
_SEALED_ARRAYS = {
    "tok_start": "int64",
    "doc_idx": "int64",
    "tf_flat": "float64",
    "norm": "float64",
    "idf_flat": "float64",
}


def _snapshot_error(message: str) -> Exception:
    from repro.verify.base import VerificationError

    return VerificationError(f"sealed index snapshot: {message}")


def _load_manifest(path: Path, expected_kind: str) -> dict:
    """Read and validate a sealed-snapshot manifest, failing with a
    clean :class:`VerificationError` on any malformation."""
    if not path.is_file():
        raise _snapshot_error(f"manifest not found at {path}")
    try:
        with path.open("r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as exc:
        raise _snapshot_error(
            f"manifest at {path} is unreadable: {exc}"
        ) from None
    if not isinstance(manifest, dict):
        raise _snapshot_error(f"manifest at {path} is not an object")
    if manifest.get("kind") != expected_kind:
        raise _snapshot_error(
            f"manifest at {path} has kind {manifest.get('kind')!r}, "
            f"expected {expected_kind!r}"
        )
    if manifest.get("version") != _SEALED_FORMAT_VERSION:
        raise _snapshot_error(
            f"unsupported sealed format version "
            f"{manifest.get('version')!r} at {path}"
        )
    return manifest


def _attach_array(
    directory: Path, name: str, spec: dict
) -> "np.ndarray":
    """Memmap one flat array read-only, verifying its size first."""
    try:
        dtype = np.dtype(spec["dtype"])
        count = int(spec["count"])
        file_name = spec["file"]
    except (KeyError, TypeError, ValueError):
        raise _snapshot_error(
            f"array {name!r} has a malformed manifest entry"
        ) from None
    path = directory / file_name
    if not path.is_file():
        raise _snapshot_error(f"array file {path} is missing")
    expected = count * dtype.itemsize
    actual = path.stat().st_size
    if actual != expected:
        raise _snapshot_error(
            f"array file {path} is truncated or padded: expected "
            f"{expected} bytes ({count} x {dtype}), found {actual}"
        )
    if count == 0:
        # np.memmap refuses zero-length files; an empty array is exact
        return np.empty(0, dtype=dtype)
    return np.memmap(path, dtype=dtype, mode="r", shape=(count,))


def _write_json(payload: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, ensure_ascii=False)


def save_sealed_index(
    index: InvertedIndex, directory: Union[str, Path]
) -> Path:
    """Persist an index's sealed form as flat binaries + manifest.

    Seals first when needed (so idf/norm bake in whatever
    ``corpus_stats`` view is assigned — a shard persisted this way
    keeps its *global* statistics).  Returns the snapshot directory.
    """
    index.seal()
    sealed = index._sealed
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    arrays: Dict[str, "np.ndarray"] = {
        "tok_start": np.ascontiguousarray(sealed.tok_start, dtype=np.int64),
        "doc_idx": np.ascontiguousarray(sealed.doc_idx, dtype=np.int64),
        "tf_flat": np.ascontiguousarray(sealed.tf_flat, dtype=np.float64),
        "norm": np.ascontiguousarray(sealed.norm, dtype=np.float64),
        "idf_flat": np.ascontiguousarray(sealed.idf_flat, dtype=np.float64),
    }
    manifest = {
        "version": _SEALED_FORMAT_VERSION,
        "kind": _SEALED_KIND,
        "name": index.name,
        "k1": index.k1,
        "b": index.b,
        "remove_stopwords": index.remove_stopwords,
        "stemming": index.stemming,
        "doc_ids": sealed.doc_ids,
        "doc_lengths": [
            index._doc_length[doc_id] for doc_id in sealed.doc_ids
        ],
        "total_length": index._total_length,
        "tokens": sealed.tokens,
        "arrays": {
            name: {
                "file": f"{name}.bin",
                "dtype": _SEALED_ARRAYS[name],
                "count": int(arrays[name].size),
            }
            for name in _SEALED_ARRAYS
        },
    }
    for name, array in arrays.items():
        array.tofile(directory / f"{name}.bin")
    _write_json(manifest, directory / "manifest.json")
    return directory


def attach_sealed_index(
    directory: Union[str, Path], name: Optional[str] = None
) -> InvertedIndex:
    """Zero-copy attach of a sealed snapshot written by
    :func:`save_sealed_index`.

    The flat arrays are ``np.memmap``-attached read-only — no corpus
    pickling, no re-analysis, no BM25 recomputation — so N processes
    attaching the same snapshot share one set of page-cache pages.
    The returned index ranks bit-identically to the index the snapshot
    was written from and refuses mutation.  A corrupted, truncated, or
    version-skewed snapshot raises
    :class:`~repro.verify.base.VerificationError`.
    """
    directory = Path(directory)
    manifest = _load_manifest(directory / "manifest.json", _SEALED_KIND)
    try:
        doc_ids = list(manifest["doc_ids"])
        doc_lengths = [int(n) for n in manifest["doc_lengths"]]
        tokens = list(manifest["tokens"])
        array_specs = manifest["arrays"]
        index = InvertedIndex(
            name=name if name is not None else manifest["name"],
            k1=manifest["k1"],
            b=manifest["b"],
            remove_stopwords=manifest["remove_stopwords"],
            stemming=manifest["stemming"],
        )
        total_length = int(manifest["total_length"])
    except (KeyError, TypeError, ValueError) as exc:
        raise _snapshot_error(
            f"manifest in {directory} is missing or malforms a field: {exc}"
        ) from None
    if len(doc_lengths) != len(doc_ids):
        raise _snapshot_error(
            f"manifest in {directory} carries {len(doc_ids)} doc ids but "
            f"{len(doc_lengths)} doc lengths"
        )
    arrays = {
        array_name: _attach_array(
            directory, array_name, array_specs.get(array_name, {})
        )
        for array_name in _SEALED_ARRAYS
    }
    tok_start = arrays["tok_start"]
    doc_idx = arrays["doc_idx"]
    if tok_start.size != len(tokens) + 1:
        raise _snapshot_error(
            f"tok_start carries {tok_start.size} offsets for "
            f"{len(tokens)} tokens (want tokens + 1)"
        )
    if tokens and int(tok_start[-1]) != doc_idx.size:
        raise _snapshot_error(
            f"postings length mismatch: offsets end at {int(tok_start[-1])} "
            f"but doc_idx carries {doc_idx.size} entries"
        )
    if arrays["tf_flat"].size != doc_idx.size:
        raise _snapshot_error(
            f"tf_flat carries {arrays['tf_flat'].size} entries but doc_idx "
            f"carries {doc_idx.size}"
        )
    if arrays["idf_flat"].size != len(tokens):
        raise _snapshot_error(
            f"idf_flat carries {arrays['idf_flat'].size} values for "
            f"{len(tokens)} tokens"
        )
    if arrays["norm"].size != len(doc_ids):
        raise _snapshot_error(
            f"norm carries {arrays['norm'].size} values for "
            f"{len(doc_ids)} documents"
        )
    if doc_idx.size and (
        int(doc_idx.max()) >= len(doc_ids) or int(doc_idx.min()) < 0
    ):
        raise _snapshot_error(
            f"doc_idx references documents outside [0, {len(doc_ids)})"
        )
    index._doc_length = dict(zip(doc_ids, doc_lengths))
    index._total_length = total_length
    index._sealed = _SealedPostings(
        doc_ids,
        arrays["norm"],
        tokens,
        tok_start,
        doc_idx,
        arrays["tf_flat"],
        arrays["idf_flat"],
    )
    index._attached = True
    return index
