"""Hashed bag-of-features text encoder.

Features are lowercased word unigrams plus character 3-grams of each
word with boundary markers (the word "pumpe" contributes "<pumpe>" and
the 3-grams of "<pumpe>"). Feature strings are hashed with FNV-1a-64
into a fixed bucket table; a text's vector is the count-weighted mean
of its bucket rows, so the encoder is linear in its parameters. The
table is held as the seed of its init draw plus the rows training
changed (:class:`EncoderParams`).

The init rows come in blocks of ``_INIT_BLOCK`` buckets, each block from
its own seeded stream: bucket j's row is row ``j % 16`` of
``default_rng([seed, j // 16]).normal(0, 1/sqrt(dim), (16, dim))``. A
read draws only the blocks of the buckets it names, once per seed, so no
whole table is ever drawn. The memo's index holds one int64 per block up to
the highest drawn, so ``MAX_VOCAB_BUCKETS`` bounds it at 8 MB.
"""

from __future__ import annotations

import json
import logging
import re
import time
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .storage import EmbeddingFileError, read_matrix, write_matrix

logger = logging.getLogger(__name__)

DEFAULT_DIM = 64
DEFAULT_VOCAB_BUCKETS = 1 << 16
# Keeps the init memo's block index within 8 MB and featurize_many's (text, bucket) keys
# far inside int64.
MAX_VOCAB_BUCKETS = 1 << 24
HASH_ALGO = "fnv1a-64"

# Buckets per init block: each block's rows are one draw from its own stream.
_INIT_BLOCK = 16
INIT_SCHEME = f"gaussian-block{_INIT_BLOCK}"

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


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``starts[i] .. starts[i] + lengths[i] - 1`` for every i, concatenated."""
    return np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)


def _renumbered(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(ids, return_inverse=True)`` from a presence mask over ids 0 .. max, not a
    sort; when every id up to the max is present, the ids are their own positions."""
    present = np.zeros(int(ids.max()) + 1 if ids.size else 0, dtype=bool)
    present[ids] = True
    if present.all():
        return np.arange(len(present)), ids
    return np.flatnonzero(present), np.cumsum(present)[ids] - 1


@dataclass(frozen=True)
class FeatureMatrix:
    """Featurized texts in CSR layout: row i spans ``indptr[i]:indptr[i + 1]``.

    Each entry's pooling weight, count / total, is divided once per matrix (:attr:`weights`)
    and read by every :meth:`pooling_weights` and :meth:`pooling` call. :meth:`take` slices
    rows into a new matrix, so a stage featurizes its texts once and each run trains on its
    own rows (``Featurizer``).
    """

    indptr: np.ndarray  # int64, n_texts + 1 offsets
    bucket_ids: np.ndarray  # int64, sorted unique within each row
    counts: np.ndarray  # int64, parallel to bucket_ids
    totals: np.ndarray  # int64, feature count of each text

    @cached_property
    def weights(self) -> np.ndarray:
        """Every entry's pooling weight, count / total of its text, divided once per matrix."""
        return self.counts / np.repeat(self.totals, np.diff(self.indptr))

    def pooling_weights(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(u, W) for texts ``rows``: sorted distinct bucket ids and dense pooling weights.

        ``W[i, j]`` is count / total of bucket ``u[j]`` in text ``rows[i]``
        (an empty text is a zero row), so ``W @ table[u]`` mean-pools the
        texts and ``W.T @ G`` is the table gradient of vector gradients G.
        ``u`` and the columns come from a presence mask over ids 0 .. max,
        not a sort, so this is meant for a :meth:`compact` matrix, whose ids
        are dense. When the texts hold every id up to their max, ``u`` is
        that range and the ids are the columns. :meth:`pooling` sorts
        instead: its ids span every bucket.
        """
        text, entry = self._entries(rows)
        u, col = _renumbered(self.bucket_ids[entry])
        w = np.zeros((len(rows), len(u)))
        w.ravel()[text * len(u) + col] = self.weights[entry]
        return u, w

    def _entries(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The position among ``rows`` and the CSR entry of every bucket of those texts."""
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        return np.repeat(np.arange(len(rows)), lengths), concat_ranges(starts, lengths)

    def pooling(self) -> Pooling:
        """Every text's pooling weights in compact form, in blocks of bounded dense size.

        Texts with equal pooling weights (equal texts, or one text's words
        reordered or recased) share one row, so their vectors are bit-identical.
        """
        first: dict[bytes, int] = {}
        bounds = zip(self.indptr[:-1].tolist(), self.indptr[1:].tolist())
        inverse = np.array([
            first.setdefault(self.bucket_ids[lo:hi].tobytes() + self.weights[lo:hi].tobytes(), i)
            for i, (lo, hi) in enumerate(bounds)
        ], dtype=np.int64)
        rows, inverse = np.unique(inverse, return_inverse=True)
        step = max(1, _POOL_BLOCK // max(1, len(np.unique(self.bucket_ids))))
        blocks = []
        for lo in range(0, len(rows), step):
            block = rows[lo : lo + step]
            text, entry = self._entries(block)
            u, col = np.unique(self.bucket_ids[entry], return_inverse=True)
            blocks.append((len(block), u, (text * len(u) + col).astype(np.int32),
                           self.weights[entry]))
        return Pooling(blocks, inverse)

    def compact(self) -> tuple[FeatureMatrix, np.ndarray]:
        """This matrix with each bucket id renumbered to its position among the sorted
        distinct ids, and those ids.

        The renumbering is monotone, so every row's ids stay sorted and
        :meth:`pooling_weights` gives the same ``W`` over positions into a
        table gathered at those buckets. The new ids are dense in
        ``[0, len(buckets))``, so the presence mask of a
        :meth:`pooling_weights` call has at most that many flags. The ids are
        renumbered through a presence mask too when it has fewer flags than
        four per entry (its flags and counts then take less memory than a
        sort's buffers), and through ``np.unique`` otherwise, so the bucket
        count sets no allocation size.
        """
        ids = self.bucket_ids
        if ids.size and ids.max() < 4 * ids.size:
            buckets, local = _renumbered(ids)
        else:
            buckets, local = np.unique(ids, return_inverse=True)
        return replace(self, bucket_ids=local), buckets

    def take(self, rows: np.ndarray) -> FeatureMatrix:
        """The matrix of texts ``rows`` (repeats allowed), in that order."""
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        entry = concat_ranges(starts, lengths)
        return FeatureMatrix(np.concatenate([[0], np.cumsum(lengths)]), self.bucket_ids[entry],
                             self.counts[entry], self.totals[rows])


@dataclass(frozen=True)
class Pooling:
    """Mean pooling of many texts, held without a dense matrix and independent of any table.

    Block ``(n, u, flat, weight)`` pools ``n`` distinct rows over the sorted
    buckets ``u``: its dense weights ``W`` (n × len(u)) are zero but for
    ``W.flat[flat] = weight``. Text i pools distinct row ``inverse[i]``.
    """

    blocks: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]
    inverse: np.ndarray  # int64, text -> distinct row

    def encode(self, p: EncoderParams) -> np.ndarray:
        """Every text's mean-pooled vector: one gemm ``W @ p.rows(u)`` per block."""
        out = np.zeros((sum(n for n, *_ in self.blocks), p.dim))
        lo = 0
        for n, u, flat, weight in self.blocks:
            w = np.zeros((n, len(u)))
            w.ravel()[flat] = weight
            out[lo : lo + n] = w @ p.rows(u)
            lo += n
        return out[self.inverse]


def featurize_many(texts: Sequence[str],
                   vocab_buckets: int = DEFAULT_VOCAB_BUCKETS) -> FeatureMatrix:
    """Featurize texts into one matrix whose row i equals ``featurize(texts[i])``.

    Each distinct word is hashed once per call; texts share its bucket ids.
    """
    _check_vocab_buckets(vocab_buckets)
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


def _check_vocab_buckets(vocab_buckets: int) -> None:
    if not 1 <= vocab_buckets <= MAX_VOCAB_BUCKETS:
        raise ValueError(f"vocab_buckets must be in [1, {MAX_VOCAB_BUCKETS}], got {vocab_buckets}")


class Featurizer:
    """Featurizes each distinct text once over its life, into one :class:`FeatureMatrix`.

    Each ``take`` featurizes the texts it asks for that no earlier one held, in one
    ``featurize_many`` call. One lives as long as one pipeline stage, so that stage featurizes
    each text once.
    The held matrix keeps its bucket ids in the smallest unsigned type below
    ``vocab_buckets`` and its counts as int32, 6 bytes an entry instead of 16 at the default
    65,536 buckets; ``take`` returns int64 arrays.
    """

    def __init__(self, vocab_buckets: int = DEFAULT_VOCAB_BUCKETS):
        self.vocab_buckets = vocab_buckets
        self.requested = 0  # texts asked for by every take
        self._row: dict[str, int] = {}
        self._fm = FeatureMatrix(np.zeros(1, dtype=np.int64),
                                 np.empty(0, dtype=np.min_scalar_type(vocab_buckets - 1)),
                                 np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int64))

    @property
    def distinct(self) -> int:
        return len(self._row)

    def take(self, texts: Sequence[str], vocab_buckets: int) -> FeatureMatrix:
        """The matrix whose row i equals ``featurize(texts[i], vocab_buckets)``."""
        if vocab_buckets != self.vocab_buckets:
            raise ValueError(f"{vocab_buckets} buckets asked of a featurizer of "
                             f"{self.vocab_buckets}")
        fresh = list(dict.fromkeys(t for t in texts if t not in self._row))
        if fresh:
            new, old = featurize_many(fresh, vocab_buckets), self._fm
            for text in fresh:
                self._row[text] = len(self._row)
            self._fm = FeatureMatrix(
                np.concatenate([old.indptr, new.indptr[1:] + old.indptr[-1]]),
                np.concatenate([old.bucket_ids, new.bucket_ids.astype(old.bucket_ids.dtype)]),
                np.concatenate([old.counts, new.counts.astype(old.counts.dtype)]),
                np.concatenate([old.totals, new.totals]))
        self.requested += len(texts)
        fm = self._fm.take(np.array([self._row[t] for t in texts], dtype=np.int64))
        return replace(fm, bucket_ids=fm.bucket_ids.astype(np.int64),
                       counts=fm.counts.astype(np.int64))


@dataclass(frozen=True)
class _InitBlocks:
    """The init blocks of one ``(seed, dim)`` drawn so far: block b's rows are
    ``rows[start[b]:start[b] + _INIT_BLOCK]``. ``start`` is -1 for a block not drawn, and it
    ends at the highest block drawn."""

    key: tuple[int, int]
    start: np.ndarray  # int64
    rows: np.ndarray  # (drawn blocks * _INIT_BLOCK, dim) float64, read-only


# The init blocks of the last (seed, dim) read.
_init_memo: _InitBlocks | None = None


def _init_rows(seed: int, dim: int, u: np.ndarray) -> np.ndarray:
    """Init rows ``u`` of the seeded Gaussian(0, 1/sqrt(dim)) table, as a new array.

    The one-entry memo draws each block once per ``(seed, dim)`` and drops the
    blocks it holds before it draws for another key. When every block of ``u``
    is held, the read is index arithmetic and one gather.
    """
    global _init_memo
    memo = _init_memo
    if memo is None or memo.key != (seed, dim):
        _init_memo = None
        memo = _InitBlocks((seed, dim), np.empty(0, dtype=np.int64), np.empty((0, dim)))
    block = u // _INIT_BLOCK
    try:
        start = memo.start[block]
    except IndexError:  # a block past the highest drawn
        start = None
    if start is None or start.min(initial=0) < 0:
        memo = _with_blocks(memo, block)
        start = memo.start[block]
    _init_memo = memo
    return memo.rows[start + u % _INIT_BLOCK]


def _with_blocks(memo: _InitBlocks, block: np.ndarray) -> _InitBlocks:
    """``memo`` with the blocks ``block`` names, drawing each one it lacks."""
    t0 = time.perf_counter()
    seed, dim = memo.key
    start = np.full(max(len(memo.start), block.max() + 1), -1, dtype=np.int64)
    start[: len(memo.start)] = memo.start
    new = np.unique(block[start[block] < 0])
    start[new] = len(memo.rows) + _INIT_BLOCK * np.arange(len(new))
    rows = np.empty((len(memo.rows) + _INIT_BLOCK * len(new), dim))
    rows[: len(memo.rows)] = memo.rows
    scale = 1.0 / np.sqrt(dim)
    for b, lo in zip(new.tolist(), start[new].tolist()):
        rows[lo : lo + _INIT_BLOCK] = np.random.default_rng([seed, b]).normal(
            0.0, scale, size=(_INIT_BLOCK, dim))
    rows.flags.writeable = False
    logger.debug("encoder init seed %d: drew %d blocks in %.4f s", seed, len(new),
                 time.perf_counter() - t0)
    return _InitBlocks(memo.key, start, rows)


@dataclass(frozen=True, eq=False)
class EncoderParams:
    """A bucket embedding table held as its init draw's seed plus the rows training changed.

    Row b is ``trained[i]`` where ``bucket_ids[i] == b``. Every other row is
    bucket b's init row (see the module docstring), rounded to float32 when
    ``rounded`` is set, as it is for every table read from disk.
    Pooling is always the mean; persisted headers record it as ``"pooling":
    "mean"`` so that they stay self-describing.
    """

    seed: int
    dim: int
    vocab_buckets: int
    bucket_ids: np.ndarray  # int64, strictly increasing, below vocab_buckets
    trained: np.ndarray  # (len(bucket_ids), dim) float64
    rounded: bool = False

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        _check_vocab_buckets(self.vocab_buckets)
        ids = self.bucket_ids
        if ids.ndim != 1 or (len(ids) and (ids[0] < 0 or ids[-1] >= self.vocab_buckets
                                           or (np.diff(ids) <= 0).any())):
            raise ValueError(f"bucket ids must increase strictly within [0, {self.vocab_buckets})")
        if self.trained.shape != (len(ids), self.dim):
            raise ValueError(f"trained rows of shape {self.trained.shape} do not match "
                             f"{len(ids)} bucket ids of dim {self.dim}")
        if not np.isfinite(self.trained).all():
            raise ValueError("trained rows contain non-finite values")

    def rows(self, u: np.ndarray) -> np.ndarray:
        """Rows ``u`` of the table, as a new float64 array: init rows from the memo, with the
        trained rows laid over them. When every row of ``u`` is held, no init row is read,
        so no block is drawn."""
        held = None
        if len(self.bucket_ids):
            pos = np.minimum(np.searchsorted(self.bucket_ids, u), len(self.bucket_ids) - 1)
            held = self.bucket_ids[pos] == u
            if held.all():
                return self.trained[pos]
        out = _init_rows(self.seed, self.dim, u)
        if self.rounded:
            out = out.astype(np.float32).astype(np.float64)
        if held is not None:
            out[held] = self.trained[pos[held]]
        return out

    def with_rows(self, ids: np.ndarray, rows: np.ndarray) -> EncoderParams:
        """This table with rows ``ids`` (strictly increasing) set to ``rows``; of those, only
        the rows that differ from this table's are held."""
        changed = (rows != self.rows(ids)).any(axis=1)
        kept = ~np.isin(self.bucket_ids, ids[changed])
        merged = np.concatenate([self.bucket_ids[kept], ids[changed]])
        order = np.argsort(merged, kind="stable")
        return replace(self, bucket_ids=merged[order],
                       trained=np.concatenate([self.trained[kept], rows[changed]])[order])


def init_encoder(
    dim: int = DEFAULT_DIM,
    vocab_buckets: int = DEFAULT_VOCAB_BUCKETS,
    seed: int = 0,
) -> EncoderParams:
    """Seeded Gaussian(0, 1/sqrt(dim)) bucket table, drawn block by block as its rows are
    first read."""
    return EncoderParams(seed, dim, vocab_buckets, np.empty(0, dtype=np.int64), np.empty((0, dim)))


def encode_features(p: EncoderParams, feats: TokenFeatures) -> np.ndarray:
    if feats.total == 0:
        return np.zeros(p.dim, dtype=np.float64)
    return (feats.counts.astype(np.float64) @ p.rows(feats.bucket_ids)) / feats.total


def encode(p: EncoderParams, text: str) -> np.ndarray:
    """Mean-pooled vector of a text; the empty feature set maps to zeros."""
    return encode_features(p, featurize(text, p.vocab_buckets))


def encode_batch(p: EncoderParams, texts: Sequence[str]) -> np.ndarray:
    """Row i equals ``encode(p, texts[i])`` within a few ulps (a gemm sums in another order).

    Texts are featurized once together and pooled with one gemm per block of
    rows (:meth:`FeatureMatrix.pooling`); equal texts get bit-identical rows.
    """
    return featurize_many(texts, p.vocab_buckets).pooling().encode(p)


def save_encoder(p: EncoderParams, matrix_path: str | Path, header_path: str | Path) -> None:
    """Write the held rows as float32 to ``matrix_path``, and their bucket ids with the
    init scheme and seed, dim and bucket count to the JSON header."""
    write_matrix(matrix_path, p.trained)
    header = {"bucket_ids": p.bucket_ids.tolist(), "dim": p.dim, "hash_algo": HASH_ALGO,
              "init": INIT_SCHEME, "pooling": "mean", "seed": p.seed,
              "vocab_buckets": p.vocab_buckets}
    Path(header_path).write_text(json.dumps(header, sort_keys=True) + "\n", encoding="utf-8")
    logger.debug("saved encoder %s: %d of %d rows held", matrix_path, len(p.bucket_ids),
                 p.vocab_buckets)


def load_encoder(matrix_path: str | Path, header_path: str | Path) -> EncoderParams:
    """Read a saved encoder; a corrupt header or matrix raises EmbeddingFileError naming it.

    Rows the file does not hold are the float32-rounded init rows.
    """
    try:
        header = json.loads(Path(header_path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise EmbeddingFileError(f"{header_path}: unreadable encoder header ({exc})") from None
    if not isinstance(header, dict) or any(type(header.get(key)) is not int
                                           for key in ("dim", "vocab_buckets", "seed")):
        raise EmbeddingFileError(f"{header_path}: encoder header needs integer dim, "
                                 f"vocab_buckets and seed")
    if header.get("hash_algo") != HASH_ALGO:
        raise EmbeddingFileError(
            f"{header_path}: unsupported hash algorithm {header.get('hash_algo')!r}")
    if header.get("init") != INIT_SCHEME:
        raise EmbeddingFileError(f"{header_path}: unsupported init scheme {header.get('init')!r}")
    if header.get("pooling", "mean") != "mean":
        raise EmbeddingFileError(f"{header_path}: unsupported pooling {header['pooling']!r}")
    ids = header.get("bucket_ids")
    if not isinstance(ids, list) or any(type(b) is not int or not 0 <= b < header["vocab_buckets"]
                                        for b in ids):
        raise EmbeddingFileError(f"{header_path}: bucket_ids must be a list of integers in "
                                 f"[0, {header['vocab_buckets']})")
    trained = read_matrix(matrix_path)
    if trained.shape != (len(ids), header["dim"]):
        raise EmbeddingFileError(f"{header_path}: {len(ids)} bucket ids of dim {header['dim']} "
                                 f"for a matrix of shape {trained.shape} in {matrix_path}")
    try:
        return EncoderParams(header["seed"], header["dim"], header["vocab_buckets"],
                             np.array(ids, dtype=np.int64), trained, rounded=True)
    except ValueError as exc:
        raise EmbeddingFileError(f"{header_path}: {exc}") from None
