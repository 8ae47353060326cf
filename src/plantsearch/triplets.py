"""Nearest-neighbor band sampling of training triplets.

A query document takes its positives from the top of its cosine
neighbor list, hard negatives from a band deeper in the list, and easy
negatives uniformly from the rest of the corpus. Band positions live in
the half-open interval (k - c, k]: with c=3 and k=10 that is the 8th,
9th and 10th neighbor.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence, TypeVar

import numpy as np

from .ann import FlatIndex, build_index, knn_rows
from .graph_embed import EmbeddingTable
from .kg import KnowledgeGraph
from .storage import field, read_json_lines, write_json_lines

logger = logging.getLogger(__name__)

T = TypeVar("T")


class NegKind(str, Enum):
    EASY = "easy"
    HARD = "hard"


@dataclass
class SamplingParams:
    k_pos: int = 2
    c_pos: int = 2
    k_hard: int = 50
    c_hard: int = 1
    c_easy: int = 1
    min_text_chars: int = 100
    rng_seed: int = 0

    def validate(self) -> None:
        for band, k, c in (("positive", self.k_pos, self.c_pos), ("hard", self.k_hard, self.c_hard)):
            if k < 1:
                raise ValueError(f"{band} band k must be >= 1, got {k}")
            if not (1 <= c <= k):
                raise ValueError(f"{band} band needs 1 <= c <= k, got c={c}, k={k}")
        if self.c_easy < 1:
            raise ValueError(f"c_easy must be >= 1, got {self.c_easy}")
        # Disjoint bands keep the three triplet ids distinct.
        if self.k_pos > self.k_hard - self.c_hard:
            raise ValueError("positive band overlaps hard-negative band")
        if self.min_text_chars < 0:
            raise ValueError(f"min_text_chars must be >= 0, got {self.min_text_chars}")


class Triplet(NamedTuple):
    query: str
    positive: str
    negative: str
    neg_kind: NegKind


@dataclass
class TripletSet:
    """Sampled triplets, the fingerprint of the index they were mined from, and the number
    of queries skipped."""

    triplets: list[Triplet]
    index_fingerprint: str = ""
    skipped: int = 0


def band_sample(neighbors: Sequence[T], k: int, c: int) -> list[T]:
    """Entries at 1-based positions k-c+1 .. k of an ordered neighbor list."""
    if not (1 <= c <= k):
        raise ValueError(f"need 1 <= c <= k, got c={c}, k={k}")
    if len(neighbors) < k:
        raise ValueError(f"need at least {k} neighbors, got {len(neighbors)}")
    return list(neighbors[k - c : k])


def positional_sample(
    n: int, excluded: np.ndarray, c: int, rng: np.random.Generator
) -> np.ndarray:
    """c of the positions 0 .. n-1 outside the sorted distinct ``excluded``, uniformly
    without replacement.

    One ``rng.choice`` over the free count draws picks, and :func:`_free_positions`
    maps pick p to the p-th free position. So the draw equals picking from the
    filtered list of free positions, without building it.
    """
    free = n - len(excluded)
    if free < c:
        raise ValueError(f"cannot draw {c} ids from {free} remaining candidates")
    return _free_positions(excluded, rng.choice(free, size=c, replace=False))


def _free_positions(excluded: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """The p-th position outside the sorted distinct ``excluded`` for each pick p, row by
    row when both are 2-d: ``excluded[j] - j`` free positions precede ``excluded[j]``."""
    before = excluded - np.arange(excluded.shape[-1])
    return picks + (before[..., None, :] <= picks[..., None]).sum(axis=-1)


def sample_triplets(emb: EmbeddingTable, g: KnowledgeGraph, p: SamplingParams) -> TripletSet:
    """Per-query easy and hard triplets over the text logs of ``g``, whose rows ``emb``
    must hold (KeyError names the ones it lacks).

    Only logs with at least ``min_text_chars`` characters participate,
    as query, positive or negative alike. Queries are visited in sorted
    id order; one shared seeded generator makes the output
    deterministic. A query is skipped (and counted) when it is too
    short or when the eligible corpus cannot fill the hard band plus an
    easy draw. The fingerprint is the one of the index over every text
    log.

    The eligible logs' rows of that index make a second index, and one
    :func:`knn_rows` call gives every query its neighbors in it; a
    query's bands are columns of that neighbor matrix, and every triplet
    id is a position in the sorted eligible ids. A query's easy negatives
    are positions outside its neighbors and itself: what one
    ``rng.choice(free, size=c_easy, replace=False)`` per query picks
    over the filtered id list. With ``c_easy == 1`` that call makes one
    bounded draw (Floyd's algorithm with one pick, whose shuffle of one
    item draws nothing), so one ``rng.integers(0, free, size=n)`` draws
    every query's pick in the same stream; any other ``c_easy`` takes
    one :func:`positional_sample` call per query.
    """
    p.validate()
    index = build_index(emb, [n.id for n in g.text_logs()])
    nodes = g.nodes
    rows = [r for r, i in enumerate(index.ids) if len(nodes[i].text) >= p.min_text_chars]
    rng = np.random.default_rng(p.rng_seed)
    triplets: list[Triplet] = []
    # Hard band needs k_hard neighbors and the easy draw needs c_easy ids
    # beyond them; skip rather than clamp when the corpus is small.
    if len(rows) - 1 < p.k_hard + p.c_easy:
        rows = []
    skipped = len(index) - len(rows)
    if rows:
        eligible = [index.ids[r] for r in rows]
        n = len(eligible)
        neighbors, _ = knn_rows(FlatIndex(eligible, index.matrix[rows]), p.k_hard)
        excluded = np.sort(np.column_stack([neighbors, np.arange(n)]), axis=1)
        if p.c_easy == 1:
            easy = _free_positions(excluded,
                                   rng.integers(0, n - excluded.shape[1], size=(n, 1)))
        else:
            easy = np.array([positional_sample(n, row, p.c_easy, rng) for row in excluded])
        columns = range(p.k_hard)
        negatives = np.hstack([easy, neighbors[:, band_sample(columns, p.k_hard, p.c_hard)]])
        # The e-th negative of a query pairs with its positive e modulo the band width.
        pos_columns = band_sample(columns, p.k_pos, p.c_pos)
        positives = neighbors[:, [pos_columns[e % p.c_pos] for e in range(negatives.shape[1])]]
        kinds = [NegKind.EASY] * p.c_easy + [NegKind.HARD] * p.c_hard
        triplets = [Triplet(query, eligible[pos], eligible[neg], kind)
                    for query, pos_row, neg_row in zip(eligible, positives.tolist(),
                                                       negatives.tolist())
                    for pos, neg, kind in zip(pos_row, neg_row, kinds)]
    if skipped:
        logger.info("sample_triplets: skipped %d of %d queries", skipped, len(index))
    return TripletSet(triplets, index.fingerprint(), skipped)


# Each kind's value by dict: a ``.value`` read is a Python-level call per record.
_NEG_KIND_VALUES = {kind: kind.value for kind in NegKind}


def save_triplets(triplets: Iterable[Triplet], path: str | Path) -> None:
    write_json_lines(path, [{"q": q, "pos": pos, "neg": neg,
                             "neg_kind": _NEG_KIND_VALUES[kind]}
                            for q, pos, neg, kind in triplets])


def _triplet(rec: dict) -> Triplet:
    return Triplet(field(rec, "q", str), field(rec, "pos", str), field(rec, "neg", str),
                   NegKind(rec["neg_kind"]))


def load_triplets(path: str | Path) -> list[Triplet]:
    return read_json_lines(
        path, _triplet,
        "triplet line is not a record with string q, pos and neg ids and a known neg_kind",
    )
