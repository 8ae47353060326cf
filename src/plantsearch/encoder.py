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
``default_rng([seed, j // 16]).normal(0, 1/sqrt(dim), (16, dim))``. Each
table reads every row from one store of the rows it has read, trained or
init, as sorted bucket ids plus rows; a read of init rows it lacks draws
each of their blocks once and keeps only those rows, so no whole table is
ever drawn and nothing is held for the process.
"""

from __future__ import annotations

import json
import logging
import re
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import MutableMapping, Sequence

import numpy as np

from .storage import EmbeddingFileError, read_matrix, write_matrix

logger = logging.getLogger(__name__)

DEFAULT_DIM = 64
DEFAULT_VOCAB_BUCKETS = 1 << 16
# Keeps featurize_many's (text, bucket) keys far inside int64.
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


def has_word_token(text: str) -> bool:
    """Whether ``text`` has a word token; a text without one pools to the zero vector."""
    return _WORD_RE.search(text.lower()) is not None


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
    sort."""
    present = np.zeros(int(ids.max()) + 1 if ids.size else 0, dtype=bool)
    present[ids] = True
    return np.flatnonzero(present), np.cumsum(present)[ids] - 1


@dataclass(frozen=True)
class FeatureMatrix:
    """Featurized texts in CSR layout: row i spans ``indptr[i]:indptr[i + 1]``.

    :meth:`take` slices rows into a new matrix, so a stage featurizes its texts once and each
    run reads its own rows (``Featurizer``). Every encoder read turns a matrix into one dense
    count matrix over its :meth:`compact` buckets (:func:`count_matrix`; a single text's ids
    are its buckets already) and drops it.
    """

    indptr: np.ndarray  # int64, n_texts + 1 offsets
    bucket_ids: np.ndarray  # sorted unique per row; int64, or a Featurizer's uint8/16/32
    counts: np.ndarray  # parallel to bucket_ids; int64, or a Featurizer's int32
    totals: np.ndarray  # int64, feature count of each text

    def compact(self) -> tuple[FeatureMatrix, np.ndarray]:
        """This matrix with each bucket id renumbered to its position among the sorted
        distinct ids, and those ids.

        The renumbering is monotone, so every row's ids stay sorted and pool
        the same weights over positions into a table gathered at those
        buckets. The new ids are dense in ``[0, len(buckets))``, so a matrix
        of the texts' counts over them has one column per bucket. The ids are
        renumbered through a presence mask when it has fewer flags than
        four per entry (its flags and counts then take less memory than a
        sort's buffers), and otherwise by a search of the sorted distinct
        ids, so the bucket count sets no allocation size.
        """
        ids = self.bucket_ids
        if ids.size and ids.max() < 4 * ids.size:
            buckets, local = _renumbered(ids)
        else:
            buckets = np.unique(ids)
            local = np.searchsorted(buckets, ids)
        return replace(self, bucket_ids=local), buckets.astype(np.int64, copy=False)

    def take(self, rows: np.ndarray) -> FeatureMatrix:
        """The matrix of texts ``rows`` (repeats allowed), in that order."""
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        entry = concat_ranges(starts, lengths)
        return FeatureMatrix(np.concatenate([[0], np.cumsum(lengths)]), self.bucket_ids[entry],
                             self.counts[entry], self.totals[rows])


def featurize_many(texts: Sequence[str], vocab_buckets: int = DEFAULT_VOCAB_BUCKETS,
                   words: MutableMapping[str, list[int]] | None = None) -> FeatureMatrix:
    """Featurize texts into one matrix whose row i equals ``featurize(texts[i])``.

    Each distinct word is hashed once per call; texts share its bucket ids. ``words`` maps
    words to their bucket ids at ``vocab_buckets``: the call reads each word it holds and adds
    each word it hashes, so an empty dict collects the texts' word table. A reader passes
    ``ChainMap({}, table)``, which hashes only the words the table lacks, into the call's own
    dict, and leaves the table as it was.
    """
    _check_vocab_buckets(vocab_buckets)
    word_buckets = {} if words is None else words
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
    ``featurize_many`` call. The ``cli`` run store holds one, so that a ``pipeline``
    featurizes each training text once.
    The held matrix keeps its bucket ids in the smallest unsigned type below
    ``vocab_buckets`` and its counts as int32, 6 bytes an entry instead of 16 at the default
    65,536 buckets, and ``take`` returns them in those types.
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
        return self._fm.take(np.array([self._row[t] for t in texts], dtype=np.int64))


def _find(ids: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each of ``u`` is in the sorted ``ids`` (clipped to the last), and whether it is
    there."""
    if not len(ids):
        return np.zeros(len(u), dtype=np.int64), np.zeros(len(u), dtype=bool)
    pos = np.minimum(np.searchsorted(ids, u), len(ids) - 1)
    return pos, ids[pos] == u


@dataclass(frozen=True, eq=False)
class EncoderParams:
    """A bucket embedding table held as its init draw's seed plus the rows training changed.

    Row b is ``trained[i]`` where ``bucket_ids[i] == b``. Every other row is
    bucket b's init row (see the module docstring), rounded to float32 when
    ``rounded`` is set, as it is for every table read from disk. Every read
    takes its rows from one store of the rows the table has read (:meth:`rows`).
    Pooling is always the mean; persisted headers record it as ``"pooling":
    "mean"`` so that they stay self-describing.

    The table takes ownership of ``bucket_ids`` and ``trained`` and makes them
    read-only, so it never changes once built and memos may key on its
    identity; an array that is a view of another is copied first, so no write
    through its base can change the table.
    """

    seed: int
    dim: int
    vocab_buckets: int
    bucket_ids: np.ndarray  # int64, strictly increasing, below vocab_buckets
    trained: np.ndarray  # (len(bucket_ids), dim) float64
    rounded: bool = False
    # Every row read so far, trained or init, as sorted bucket ids and their rows (init rows
    # rounded when ``rounded`` is set). A table that ``with_rows`` makes starts with none.
    _read: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

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
        for name in ("bucket_ids", "trained"):
            array = getattr(self, name)
            if array.base is not None:
                array = array.copy()
                object.__setattr__(self, name, array)
            array.flags.writeable = False
        object.__setattr__(self, "_read", (np.empty(0, dtype=np.int64), np.empty((0, self.dim))))

    def rows(self, u: np.ndarray) -> np.ndarray:
        """Rows ``u`` of the table, as a new float64 array, from the one store of every row this
        table has read. A read of rows it lacks takes their trained rows, draws the init rows of
        the others (:meth:`_draw`) and keeps them all, so no row is taken or drawn twice."""
        ids, rows = self._read
        pos, held = _find(ids, u)
        if not held.all():
            new = np.unique(u[~held])
            where, trained = _find(self.bucket_ids, new)
            got = np.empty((len(new), self.dim))
            got[trained] = self.trained[where[trained]]
            if not trained.all():
                got[~trained] = self._draw(new[~trained])
            at = np.searchsorted(ids, new)
            ids, rows = np.insert(ids, at, new), np.insert(rows, at, got, axis=0)
            object.__setattr__(self, "_read", (ids, rows))  # a memo: the table stays the same
            pos = np.searchsorted(ids, u)
        return rows[pos]

    def _draw(self, new: np.ndarray) -> np.ndarray:
        """Init rows ``new`` (sorted, distinct), drawing each of their blocks once."""
        t0 = time.perf_counter()
        blocks = np.split(new, np.flatnonzero(np.diff(new // _INIT_BLOCK)) + 1)
        drawn = np.concatenate([np.random.default_rng([self.seed, int(b[0]) // _INIT_BLOCK])
                                .normal(0.0, 1.0 / np.sqrt(self.dim), (_INIT_BLOCK, self.dim))
                                [b % _INIT_BLOCK] for b in blocks])
        if self.rounded:
            drawn = drawn.astype(np.float32).astype(np.float64)
        logger.debug("encoder init seed %d: drew %d blocks for %d rows in %.4f s", self.seed,
                     len(blocks), len(new), time.perf_counter() - t0)
        return drawn

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
    """Seeded Gaussian(0, 1/sqrt(dim)) bucket table, whose init rows are drawn as they are
    first read."""
    return EncoderParams(seed, dim, vocab_buckets, np.empty(0, dtype=np.int64), np.empty((0, dim)))


def encode(p: EncoderParams, text: str) -> np.ndarray:
    """Mean-pooled vector of a text; the empty feature set maps to zeros."""
    feats = featurize(text, p.vocab_buckets)
    if feats.total == 0:
        return np.zeros(p.dim, dtype=np.float64)
    return (feats.counts.astype(np.float64) @ p.rows(feats.bucket_ids)) / feats.total


def count_matrix(fm: FeatureMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``fm``'s texts as a dense (texts × compact buckets) count matrix in the smallest unsigned
    type that holds its largest count, their totals clamped to 1 (an empty text's zero row
    divides by 1), and the int64 buckets of its columns (:meth:`FeatureMatrix.compact`). Text
    i's pooling weights are ``counts[i] / totals[i]``, for training and for :func:`pool`.

    A single text's ids are already its sorted distinct buckets, so its counts are the one row
    as they stand, with no renumbering and no scatter (a search query takes this path)."""
    dtype = np.min_scalar_type(fm.counts.max(initial=0))
    if len(fm.totals) == 1:
        return (fm.counts.astype(dtype)[None, :], np.maximum(fm.totals, 1),
                fm.bucket_ids.astype(np.int64, copy=False))
    fm, buckets = fm.compact()
    counts = np.zeros((len(fm.totals), len(buckets)), dtype=dtype)
    counts[np.repeat(np.arange(len(fm.totals)), np.diff(fm.indptr)), fm.bucket_ids] = fm.counts
    return counts, np.maximum(fm.totals, 1), buckets


def pool(p: EncoderParams, matrix: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """Every text's mean-pooled vector under ``p``, from its :func:`count_matrix`.

    Texts with equal pooling weights, which are proportional count rows ("pumpe" and "pumpe
    pumpe", words reordered or recased), share one row keyed by the counts over their gcd, so
    their vectors are bit-identical. The distinct rows, each a key's first text, are pooled in
    blocks of at most ``_POOL_BLOCK`` dense weights, each one gemm over the buckets its own rows
    hold. Every column is held by some distinct row, so a single block takes every column, and
    a single text, which has no twin, is that block with no key built.
    """
    counts, totals, buckets = matrix
    if len(counts) == 1:
        return (counts / totals[:, None]) @ p.rows(buckets)
    gcd = np.maximum(np.gcd.reduce(counts, axis=1), 1)
    first: dict[bytes, int] = {}
    at = np.array([first.setdefault((row // d).tobytes(), i)
                   for i, (row, d) in enumerate(zip(counts, gcd))], dtype=np.intp)
    rows = np.fromiter(first.values(), np.intp, len(first))  # ascending
    step = max(1, _POOL_BLOCK // max(1, counts.shape[1]))
    if len(rows) <= step:
        out = (counts[rows] / totals[rows, None]) @ p.rows(buckets)
    else:
        out = np.empty((len(rows), p.dim))
        for lo in range(0, len(rows), step):
            block = rows[lo : lo + step]
            c = counts[block]
            u = np.flatnonzero(c.any(axis=0))
            out[lo : lo + step] = (c[:, u] / totals[block, None]) @ p.rows(buckets[u])
    return out[np.searchsorted(rows, at)]


def encode_batch(p: EncoderParams, texts: Sequence[str],
                 words: MutableMapping[str, list[int]] | None = None) -> np.ndarray:
    """Row i equals ``encode(p, texts[i])`` within a few ulps (a gemm sums in another order).

    Texts are featurized once together, through ``words`` as :func:`featurize_many` takes it,
    and pooled by :func:`pool`; texts with equal pooling weights get bit-identical rows.
    """
    return pool(p, count_matrix(featurize_many(texts, p.vocab_buckets, words)))


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
