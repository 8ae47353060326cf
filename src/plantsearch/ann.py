"""Exact nearest-neighbor search over L2-normalized embedding rows."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graph_embed import EmbeddingTable

# Queries scored per block: the (64, n) score block is 400 KB at n = 800.
KNN_BLOCK = 64


@dataclass
class FlatIndex:
    """Brute-force cosine index; rows are unit-norm (zero rows kept as-is)."""

    ids: list[str]
    matrix: np.ndarray  # (n, dim) float64, rows normalized

    def __post_init__(self) -> None:
        self._row = {node_id: i for i, node_id in enumerate(self.ids)}

    def __len__(self) -> int:
        return len(self.ids)

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


def knn_rows(
    idx: FlatIndex, rows: np.ndarray, k: int, among: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k neighbor rows and cosines of the query rows ``rows``, each query excluded:
    two (len(rows), k) arrays, each row by descending cosine with ties broken by
    ascending id. ``among``, a ``FlatIndex.row_mask``, restricts the candidates to a
    subset of the indexed ids; ``None`` takes them all. k must not exceed any query's
    candidate count.

    Queries are scored ``KNN_BLOCK`` at a time, one ddot per pair
    (``np.vecdot``): a pair's score does not depend on which other rows
    are scored, so equal rows tie exactly. A gemm or gemv rounds by row
    position and can split such ties. Each query's top k are the
    candidates scoring above its k-th best score, then those at that
    score in ascending row order, sorted stably by descending score;
    rows ascend in id order, so ties break by ascending id.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if among is None:
        among = np.ones(len(idx), dtype=bool)
    elif not isinstance(among, np.ndarray) or among.dtype != bool or among.shape != (len(idx),):
        raise ValueError(f"row mask must be bool of shape ({len(idx)},)")
    rows = np.asarray(rows, dtype=np.int64)
    available = np.count_nonzero(among) - among[rows]
    if rows.size and k > available.min():
        raise ValueError(f"k={k} exceeds {int(available.min())} available candidates")
    outside = np.flatnonzero(~among)
    cols = np.empty((rows.size, k), dtype=np.int64)
    scores = np.empty((rows.size, k))
    for lo in range(0, rows.size, KNN_BLOCK):
        block = rows[lo : lo + KNN_BLOCK]
        b = np.arange(block.size)
        sims = np.vecdot(idx.matrix, idx.matrix[block][:, None, :])  # (block, n)
        neg = -sims
        neg[:, outside] = np.inf
        neg[b, block] = np.inf
        kth = np.partition(neg, k - 1, axis=1)[:, k - 1 : k]
        above, at_kth = neg < kth, neg == kth
        room = k - np.count_nonzero(above, axis=1)[:, None]
        take = above | (at_kth & (np.cumsum(at_kth, axis=1) <= room))
        top = np.nonzero(take)[1].reshape(block.size, k)  # ascending rows per query
        top = np.take_along_axis(top, np.argsort(neg[b[:, None], top], axis=1, kind="stable"),
                                 axis=1)
        cols[lo : lo + block.size] = top
        scores[lo : lo + block.size] = sims[b[:, None], top]
    return cols, scores
