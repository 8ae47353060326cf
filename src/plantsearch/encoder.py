"""Hashed bag-of-features text encoder.

Features are lowercased word unigrams plus character 3-grams of each
word with boundary markers (the word "pumpe" contributes "<pumpe>" and
the 3-grams of "<pumpe>"). Feature strings are hashed with FNV-1a-64
into a fixed bucket table; a text's vector is the count-weighted mean
of its bucket rows, so the encoder is linear in its parameters.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .storage import EmbeddingFileError, read_matrix, write_matrix

DEFAULT_DIM = 64
DEFAULT_VOCAB_BUCKETS = 1 << 16
HASH_ALGO = "fnv1a-64"

_WORD_RE = re.compile(r"\w+")

# Dense pooling-weight elements per gemm block (2 MiB of float64); the flat
# positions of a block's weights fit an int32.
_POOL_BLOCK = 1 << 18

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a_64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & _MASK64
    return h


def word_tokens(text: str) -> list[str]:
    """Lowercased word tokens (unicode word characters, umlauts included)."""
    return _WORD_RE.findall(text.lower())


def _word_features(word: str) -> list[str]:
    marked = f"<{word}>"
    return [marked] + [marked[i : i + 3] for i in range(len(marked) - 2)]


def feature_strings(text: str) -> list[str]:
    """All feature strings of a text, with multiplicity."""
    return [f for word in word_tokens(text) for f in _word_features(word)]


@dataclass(frozen=True)
class TokenFeatures:
    """Multiset of hashed feature ids, stored as (unique ids, counts)."""

    bucket_ids: np.ndarray  # int64, sorted unique
    counts: np.ndarray  # int64, parallel to bucket_ids
    total: int


def featurize(text: str, vocab_buckets: int = DEFAULT_VOCAB_BUCKETS) -> TokenFeatures:
    feats = feature_strings(text)
    if not feats:
        empty = np.empty(0, dtype=np.int64)
        return TokenFeatures(empty, empty.copy(), 0)
    hashed = np.fromiter(
        (fnv1a_64(f.encode("utf-8")) % vocab_buckets for f in feats),
        dtype=np.int64,
        count=len(feats),
    )
    ids, counts = np.unique(hashed, return_counts=True)
    return TokenFeatures(ids, counts, len(feats))


@dataclass(frozen=True)
class FeatureMatrix:
    """Featurized texts in CSR layout: row i spans ``indptr[i]:indptr[i + 1]``."""

    indptr: np.ndarray  # int64, n_texts + 1 offsets
    bucket_ids: np.ndarray  # int64, sorted unique within each row
    counts: np.ndarray  # int64, parallel to bucket_ids
    totals: np.ndarray  # int64, feature count of each text

    def row(self, i: int) -> TokenFeatures:
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return TokenFeatures(self.bucket_ids[lo:hi], self.counts[lo:hi], int(self.totals[i]))

    def pooling_weights(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(u, W) for texts ``rows``: sorted distinct bucket ids and dense pooling weights.

        ``W[i, j]`` is count / total of bucket ``u[j]`` in text ``rows[i]``
        (an empty text is a zero row), so ``W @ table[u]`` mean-pools the
        texts and ``W.T @ G`` is the table gradient of vector gradients G.
        """
        u, flat, weight = self._pooling_entries(rows)
        w = np.zeros((len(rows), len(u)))
        w.ravel()[flat] = weight
        return u, w

    def _pooling_entries(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``u`` of :meth:`pooling_weights` and the nonzero weights of ``W`` at flat positions."""
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        text = np.repeat(np.arange(len(rows)), lengths)
        entry = np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths,
                                                     lengths)
        u, col = np.unique(self.bucket_ids[entry], return_inverse=True)
        return u, text * len(u) + col, self.counts[entry] / self.totals[rows][text]

    def pooling(self) -> Pooling:
        """Every text's pooling weights in compact form, in blocks of bounded dense size.

        Texts with equal pooling weights (equal texts, or one text's words
        reordered or recased) share one row, so their vectors are bit-identical.
        """
        first: dict[bytes, int] = {}
        inverse = np.array([
            first.setdefault(self.bucket_ids[lo:hi].tobytes()
                             + (self.counts[lo:hi] / total).tobytes(), i)
            for i, (lo, hi, total) in enumerate(zip(self.indptr[:-1], self.indptr[1:],
                                                     self.totals))
        ], dtype=np.int64)
        rows, inverse = np.unique(inverse, return_inverse=True)
        step = max(1, _POOL_BLOCK // max(1, len(np.unique(self.bucket_ids))))
        blocks = []
        for lo in range(0, len(rows), step):
            block = rows[lo : lo + step]
            u, flat, weight = self._pooling_entries(block)
            blocks.append((len(block), u, flat.astype(np.int32), weight))
        return Pooling(blocks, inverse)


@dataclass(frozen=True)
class Pooling:
    """Mean pooling of many texts, held without a dense matrix and independent of any table.

    Block ``(n, u, flat, weight)`` pools ``n`` distinct rows over the sorted
    buckets ``u``: its dense weights ``W`` (n × len(u)) are zero but for
    ``W.flat[flat] = weight``. Text i pools distinct row ``inverse[i]``.
    """

    blocks: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]
    inverse: np.ndarray  # int64, text -> distinct row

    def encode(self, table: np.ndarray) -> np.ndarray:
        """Every text's mean-pooled vector: one gemm ``W @ table[u]`` per block."""
        out = np.zeros((sum(n for n, *_ in self.blocks), table.shape[1]))
        lo = 0
        for n, u, flat, weight in self.blocks:
            w = np.zeros((n, len(u)))
            w.ravel()[flat] = weight
            out[lo : lo + n] = w @ table[u]
            lo += n
        return out[self.inverse]


def featurize_many(texts: Sequence[str],
                   vocab_buckets: int = DEFAULT_VOCAB_BUCKETS) -> FeatureMatrix:
    """Featurize texts into one matrix whose row i equals ``featurize(texts[i])``.

    Each distinct word is hashed once per call; texts share its bucket ids.
    """
    word_buckets: dict[str, list[int]] = {}
    hashed: list[int] = []
    totals: list[int] = []
    for text in texts:
        start = len(hashed)
        for word in word_tokens(text):
            got = word_buckets.get(word)
            if got is None:
                got = word_buckets[word] = [fnv1a_64(f.encode("utf-8")) % vocab_buckets
                                            for f in _word_features(word)]
            hashed += got
        totals.append(len(hashed) - start)
    lengths = np.array(totals, dtype=np.int64)
    # One sort of (text, bucket) keys gives every row's sorted unique ids and counts.
    rows = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    keys, counts = np.unique(rows * vocab_buckets + np.array(hashed, dtype=np.int64),
                             return_counts=True)
    row_of = keys // vocab_buckets
    indptr = np.searchsorted(row_of, np.arange(len(lengths) + 1))
    return FeatureMatrix(indptr, keys - row_of * vocab_buckets, counts, lengths)


@dataclass
class EncoderParams:
    """Bucket embedding table plus the hashing configuration.

    Pooling is always the mean; persisted headers record it as ``"pooling":
    "mean"`` so that they stay self-describing.
    """

    embedding_table: np.ndarray  # (vocab_buckets, dim) float64
    vocab_buckets: int = DEFAULT_VOCAB_BUCKETS

    def __post_init__(self) -> None:
        if self.embedding_table.ndim != 2 or self.embedding_table.shape[0] != self.vocab_buckets:
            raise ValueError(
                f"embedding table shape {self.embedding_table.shape} does not match "
                f"vocab_buckets={self.vocab_buckets}"
            )
        if not np.isfinite(self.embedding_table).all():
            raise ValueError("embedding table contains non-finite values")

    @property
    def dim(self) -> int:
        return int(self.embedding_table.shape[1])

    def copy(self) -> "EncoderParams":
        return EncoderParams(self.embedding_table.copy(), self.vocab_buckets)


def init_encoder(
    dim: int = DEFAULT_DIM,
    vocab_buckets: int = DEFAULT_VOCAB_BUCKETS,
    seed: int = 0,
) -> EncoderParams:
    """Seeded Gaussian(0, 1/sqrt(dim)) bucket table."""
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    if vocab_buckets < 1:
        raise ValueError(f"vocab_buckets must be positive, got {vocab_buckets}")
    rng = np.random.default_rng(seed)
    table = rng.normal(0.0, 1.0 / np.sqrt(dim), size=(vocab_buckets, dim))
    return EncoderParams(table, vocab_buckets)


def encode_features(p: EncoderParams, feats: TokenFeatures) -> np.ndarray:
    if feats.total == 0:
        return np.zeros(p.dim, dtype=np.float64)
    rows = p.embedding_table[feats.bucket_ids]
    return (feats.counts.astype(np.float64) @ rows) / feats.total


def encode(p: EncoderParams, text: str) -> np.ndarray:
    """Mean-pooled vector of a text; the empty feature set maps to zeros."""
    return encode_features(p, featurize(text, p.vocab_buckets))


def encode_batch(p: EncoderParams, texts: Sequence[str]) -> np.ndarray:
    """Row i equals ``encode(p, texts[i])`` within a few ulps (a gemm sums in another order).

    Texts are featurized once together and pooled with one gemm per block of
    rows (:meth:`FeatureMatrix.pooling`); equal texts get bit-identical rows.
    """
    return featurize_many(texts, p.vocab_buckets).pooling().encode(p.embedding_table)


def save_encoder(p: EncoderParams, matrix_path: str | Path, header_path: str | Path) -> None:
    write_matrix(matrix_path, p.embedding_table)
    header = {"dim": p.dim, "vocab_buckets": p.vocab_buckets, "hash_algo": HASH_ALGO,
              "pooling": "mean"}
    Path(header_path).write_text(json.dumps(header, sort_keys=True) + "\n", encoding="utf-8")


def load_encoder(matrix_path: str | Path, header_path: str | Path) -> EncoderParams:
    """Read a saved encoder; a corrupt header or matrix raises EmbeddingFileError naming it."""
    try:
        header = json.loads(Path(header_path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise EmbeddingFileError(f"{header_path}: unreadable encoder header ({exc})") from None
    if not isinstance(header, dict) or any(type(header.get(key)) is not int
                                           for key in ("dim", "vocab_buckets")):
        raise EmbeddingFileError(f"{header_path}: encoder header needs integer dim and "
                                 f"vocab_buckets")
    if header.get("hash_algo") != HASH_ALGO:
        raise EmbeddingFileError(
            f"{header_path}: unsupported hash algorithm {header.get('hash_algo')!r}")
    if header.get("pooling", "mean") != "mean":
        raise EmbeddingFileError(f"{header_path}: unsupported pooling {header['pooling']!r}")
    table = read_matrix(matrix_path)
    if table.shape != (header["vocab_buckets"], header["dim"]):
        raise EmbeddingFileError(
            f"{matrix_path}: matrix shape {table.shape} does not match header "
            f"({header['vocab_buckets']}, {header['dim']})"
        )
    return EncoderParams(table, header["vocab_buckets"])
