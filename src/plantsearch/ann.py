"""Exact nearest-neighbor search over L2-normalized embedding rows."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graph_embed import EmbeddingTable


@dataclass
class FlatIndex:
    """Brute-force cosine index; rows are unit-norm (zero rows kept as-is)."""

    ids: list[str]
    matrix: np.ndarray  # (n, dim) float64, rows normalized

    def __post_init__(self) -> None:
        self._row = {node_id: i for i, node_id in enumerate(self.ids)}

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._row

    def row(self, node_id: str) -> int:
        return self._row[node_id]

    def row_mask(self, ids: Iterable[str]) -> np.ndarray:
        """Boolean mask over the rows of the given indexed ids."""
        mask = np.zeros(len(self.ids), dtype=bool)
        for node_id in ids:
            if node_id not in self._row:
                raise KeyError(f"candidate id {node_id!r} not in index")
            mask[self._row[node_id]] = True
        return mask

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for node_id in self.ids:
            h.update(node_id.encode("utf-8"))
            h.update(b"\0")
        h.update(np.ascontiguousarray(self.matrix, dtype="<f8").tobytes())
        return h.hexdigest()[:16]


def build_index(emb: EmbeddingTable, eligible: Iterable[str]) -> FlatIndex:
    """Index the eligible subset of an embedding table, rows in sorted-id order.

    Zero-norm vectors stay zero rows; they score 0 against everything
    instead of poisoning the normalization.
    """
    ids = sorted(set(eligible))
    if not ids:
        raise ValueError("no eligible ids to index")
    missing = [i for i in ids if i not in emb]
    if missing:
        raise KeyError(f"ids not in embedding table: {missing[:5]!r}")
    matrix = np.stack([emb.vector(i) for i in ids]).astype(np.float64)
    norms = np.linalg.norm(matrix, axis=1)
    safe = np.where(norms == 0.0, 1.0, norms)
    return FlatIndex(ids, matrix / safe[:, None])


def knn(
    idx: FlatIndex, query_id: str, k: int, among: np.ndarray | None = None
) -> list[tuple[str, float]]:
    """Top-k cosine neighbors of an indexed node, query excluded.

    Sorted by descending cosine, ties broken by ascending id, so the
    result is a total order. ``among``, a ``FlatIndex.row_mask``,
    restricts candidates to a subset of the indexed ids (build the mask
    once when many queries share one subset); ``None`` takes them all.
    k must not exceed the candidate count.
    """
    if query_id not in idx:
        raise KeyError(f"query id {query_id!r} not in index")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if among is None:
        mask = np.ones(len(idx), dtype=bool)
    elif not isinstance(among, np.ndarray) or among.dtype != bool or among.shape != (len(idx),):
        raise ValueError(f"row mask must be bool of shape ({len(idx)},)")
    else:
        mask = among.copy()
    q = idx.row(query_id)
    mask[q] = False
    rows = np.flatnonzero(mask)
    if k > rows.size:
        raise ValueError(f"k={k} exceeds {rows.size} available candidates")
    # One ddot per row (np.vecdot): a row's score does not depend on which
    # other rows are scored, so equal rows tie exactly. A gemv (matrix @ q)
    # rounds by row position and can split such ties.
    scores = np.vecdot(idx.matrix, idx.matrix[q])[rows]
    # Rows ascend in id order, so a stable sort breaks ties by ascending id.
    top = np.argsort(-scores, kind="stable")[:k]
    return [(idx.ids[r], s) for r, s in zip(rows[top].tolist(), scores[top].tolist())]
