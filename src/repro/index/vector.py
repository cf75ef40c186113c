"""Exact (flat) vector index — the semantic-based index baseline.

``FlatVectorIndex`` is the pgvector/Faiss ``IndexFlat`` equivalent:
brute-force cosine or L2 search over a dense matrix.  It also defines the
``VectorIndex`` interface the approximate indexes implement.
"""

from __future__ import annotations

import abc
import threading
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.analysis import sanitizer as _sanitizer
from repro.index.base import SearchHit, SearchIndex, top_k


class VectorIndex(SearchIndex):
    """Index over dense vectors; string queries go through an encoder."""

    def __init__(
        self,
        dim: int,
        encoder: Optional[Callable[[str], np.ndarray]] = None,
        metric: str = "cosine",
        name: str = "vector",
    ) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        if metric not in ("cosine", "l2"):
            raise ValueError(f"metric must be 'cosine' or 'l2', got {metric!r}")
        self.dim = dim
        self.metric = metric
        self.name = name
        self._encoder = encoder
        self._ids: List[str] = []
        self._id_set: set = set()

    # -- encoding -------------------------------------------------------
    def encode(self, text: str) -> np.ndarray:
        """Encode a string query with the configured encoder."""
        if self._encoder is None:
            raise RuntimeError(
                f"{type(self).__name__} has no encoder; use add_vector/"
                "search_vector or construct with encoder="
            )
        return np.asarray(self._encoder(text), dtype=np.float64)

    def _check_vector(self, vector: np.ndarray) -> np.ndarray:
        vector = np.asarray(vector, dtype=np.float64).ravel()
        if vector.shape != (self.dim,):
            raise ValueError(
                f"expected vector of dim {self.dim}, got shape {vector.shape}"
            )
        return vector

    # -- SearchIndex interface -----------------------------------------
    def add(self, instance_id: str, payload: str) -> None:
        self.add_vector(instance_id, self.encode(payload))

    def search(self, query: str, k: int = 10) -> List[SearchHit]:
        return self.search_vector(self.encode(query), k)

    def remove(self, instance_id: str) -> None:
        """Evict one stored vector (KeyError when absent).

        The flat backend supports this exactly; approximate backends
        may override or refuse."""
        self.remove_vector(instance_id)

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, instance_id: str) -> bool:
        return instance_id in self._id_set

    # -- vector interface ----------------------------------------------
    def add_vector(self, instance_id: str, vector: np.ndarray) -> None:
        if instance_id in self._id_set:
            raise ValueError(f"duplicate instance id: {instance_id}")
        vector = self._check_vector(vector)
        self._id_set.add(instance_id)
        self._ids.append(instance_id)
        self._store(instance_id, vector)

    def remove_vector(self, instance_id: str) -> None:
        """Backend-specific eviction; exact backends implement it."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support removal"
        )

    @abc.abstractmethod
    def _store(self, instance_id: str, vector: np.ndarray) -> None:
        """Backend-specific insertion."""

    @abc.abstractmethod
    def search_vector(self, vector: np.ndarray, k: int = 10) -> List[SearchHit]:
        """Top-k nearest stored vectors."""

    # -- scoring helpers -------------------------------------------------
    def _scores_against(self, matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
        """Similarity scores of ``vector`` against rows of ``matrix``."""
        if self.metric == "cosine":
            norms = np.linalg.norm(matrix, axis=1) * (np.linalg.norm(vector) or 1.0)
            norms[norms == 0] = 1.0
            return (matrix @ vector) / norms
        # l2: negate distance so that larger is better
        diff = matrix - vector
        return -np.sqrt(np.einsum("ij,ij->i", diff, diff))


class FlatVectorIndex(VectorIndex):
    """Brute-force exact nearest-neighbour search (Faiss IndexFlat)."""

    def __init__(
        self,
        dim: int,
        encoder: Optional[Callable[[str], np.ndarray]] = None,
        metric: str = "cosine",
        name: str = "flat",
    ) -> None:
        super().__init__(dim, encoder=encoder, metric=metric, name=name)
        self._rows: List[np.ndarray] = []
        self._matrix: Optional[np.ndarray] = None
        # serializes the lazy vstack in _get_matrix(): batch workers
        # and serve request threads search one shared index, and two
        # searchers hitting an invalidated cache must not build (and
        # publish) twice
        self._matrix_lock = threading.Lock()

    def _store(self, instance_id: str, vector: np.ndarray) -> None:
        self._rows.append(vector)
        with self._matrix_lock:
            self._matrix = None  # invalidate cache

    def remove_vector(self, instance_id: str) -> None:
        """Evict one vector and its id (KeyError when absent).

        O(n) — the flat index is a dense list; fine for the live-
        mutation rates the indexer sees (bulk churn goes through a
        rebuild)."""
        try:
            index = self._ids.index(instance_id)
        except ValueError:
            raise KeyError(
                f"no vector with id {instance_id!r} in {self.name!r}"
            ) from None
        del self._ids[index]
        del self._rows[index]
        self._id_set.discard(instance_id)
        with self._matrix_lock:
            self._matrix = None  # invalidate cache

    def _get_matrix(self) -> np.ndarray:
        matrix = self._matrix
        if matrix is None:
            with self._matrix_lock:
                matrix = self._matrix
                if matrix is None:
                    matrix = (
                        np.vstack(self._rows)
                        if self._rows
                        else np.zeros((0, self.dim), dtype=np.float64)
                    )
                    self._matrix = matrix
                    _sanitizer.note_write(
                        self, "_matrix", lock=self._matrix_lock
                    )
        return matrix

    def search_vector(self, vector: np.ndarray, k: int = 10) -> List[SearchHit]:
        vector = self._check_vector(vector)
        matrix = self._get_matrix()
        if matrix.shape[0] == 0 or k <= 0:
            return []
        scores = self._scores_against(matrix, vector)
        score_map: Dict[str, float] = {
            self._ids[i]: float(scores[i]) for i in range(len(self._ids))
        }
        return top_k(score_map, k, self.name)

    def vector_of(self, instance_id: str) -> np.ndarray:
        """Stored vector of an instance (for tests and rerankers)."""
        return self._rows[self._ids.index(instance_id)]
