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

    def __len__(self) -> int:
        return len(self.ids)

    def fingerprint(self) -> str:
        h = hashlib.sha256("".join(f"{i}\0" for i in self.ids).encode("utf-8"))
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


def knn_rows(idx: FlatIndex, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every row's top-k neighbor rows and cosines, from the other rows: two (len(idx), k)
    arrays, each row by descending cosine with ties broken by ascending id. k must be
    below the row count.

    Rows are scored ``KNN_BLOCK`` at a time against every row, one ddot per
    pair (``np.vecdot``): a pair's score does not depend on which other rows
    are scored, so equal rows tie exactly. A gemm or gemv rounds by row
    position and can split such ties. Each row's top k are the rows scoring
    above its k-th best score, then those at that score in ascending row
    order, sorted stably by descending score; rows ascend in id order, so
    ties break by ascending id. Most rows hold exactly k rows at or above
    their k-th score and take them all; the cumulative cut among the ties
    runs only on the rows that hold more.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n, matrix = len(idx), idx.matrix
    if k > n - 1:
        raise ValueError(f"k={k} exceeds {n - 1} available candidates")
    cols = np.empty((n, k), dtype=np.int64)
    scores = np.empty((n, k))
    for lo in range(0, n, KNN_BLOCK):
        block = matrix[lo : lo + KNN_BLOCK]
        b = np.arange(len(block))
        sims = np.vecdot(matrix, block[:, None, :])  # (block, n)
        neg = -sims
        neg[b, lo + b] = np.inf
        kth = np.partition(neg, k - 1, axis=1)[:, k - 1 : k]
        take = neg <= kth
        full = np.flatnonzero(np.count_nonzero(take, axis=1) > k)  # more ties than room
        if full.size:
            sub, cut = neg[full], kth[full]
            above, at_kth = sub < cut, sub == cut
            room = k - np.count_nonzero(above, axis=1)[:, None]
            take[full] = above | (at_kth & (np.cumsum(at_kth, axis=1) <= room))
        top = np.nonzero(take)[1].reshape(len(block), k)  # ascending columns per row
        top = np.take_along_axis(top, np.argsort(neg[b[:, None], top], axis=1, kind="stable"),
                                 axis=1)
        cols[lo : lo + len(block)] = top
        scores[lo : lo + len(block)] = sims[b[:, None], top]
    return cols, scores
