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
from typing import Iterable, Sequence, TypeVar

import numpy as np

from .ann import FlatIndex, knn_rows
from .kg import KnowledgeGraph, NodeKind
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


@dataclass(frozen=True)
class Triplet:
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

    One ``rng.choice`` over the free count draws picks, and pick p maps
    to the p-th free position by ``searchsorted``: ``excluded[j] - j``
    free positions precede ``excluded[j]``. So the draw equals picking
    from the filtered list of free positions, without building it.
    """
    free = n - len(excluded)
    if free < c:
        raise ValueError(f"cannot draw {c} ids from {free} remaining candidates")
    picks = rng.choice(free, size=c, replace=False)
    return picks + np.searchsorted(excluded - np.arange(len(excluded)), picks, side="right")


def sample_triplets(index: FlatIndex, g: KnowledgeGraph, p: SamplingParams) -> TripletSet:
    """Per-query easy and hard triplets over an indexed text-log corpus.

    Only logs with at least ``min_text_chars`` characters participate,
    as query, positive or negative alike. Queries are visited in sorted
    id order; one shared seeded generator makes the output
    deterministic. A query is skipped (and counted) when it is too
    short or when the eligible corpus cannot fill the hard band plus an
    easy draw.

    The neighbor lists of all queries come from one :func:`knn_rows`
    call, in blocks of queries. A query's easy negatives are positions
    in the sorted eligible ids outside its neighbors and itself, drawn
    by :func:`positional_sample`: one ``rng.choice`` per query, as over
    the filtered id list.
    """
    p.validate()
    for node_id in index.ids:
        if node_id not in g.nodes:
            raise KeyError(f"indexed id {node_id!r} not in graph")
        if g.nodes[node_id].kind is not NodeKind.TEXT_LOG:
            raise ValueError(f"indexed id {node_id!r} is not a text log")

    corpus = sorted(index.ids)
    eligible = [i for i in corpus if len(g.nodes[i].text) >= p.min_text_chars]
    rng = np.random.default_rng(p.rng_seed)
    triplets: list[Triplet] = []
    # Hard band needs k_hard neighbors and the easy draw needs c_easy ids
    # beyond them; skip rather than clamp when the corpus is small.
    if len(eligible) - 1 < p.k_hard + p.c_easy:
        eligible = []
    skipped = len(corpus) - len(eligible)
    if eligible:
        rows = np.array([index.row(i) for i in eligible])
        neighbors, _ = knn_rows(index, rows, p.k_hard, among=index.row_mask(eligible))
        position = np.empty(len(index), dtype=np.int64)  # index row -> place in eligible
        position[rows] = np.arange(len(eligible))
        excluded = np.sort(np.column_stack([position[neighbors], np.arange(len(eligible))]),
                           axis=1)
        for j, query in enumerate(eligible):
            ranked = neighbors[j].tolist()
            positives = [index.ids[r] for r in band_sample(ranked, p.k_pos, p.c_pos)]
            hard = [index.ids[r] for r in band_sample(ranked, p.k_hard, p.c_hard)]
            easy = positional_sample(len(eligible), excluded[j], p.c_easy, rng)
            negatives = ([(eligible[e], NegKind.EASY) for e in easy.tolist()]
                         + [(neg, NegKind.HARD) for neg in hard])
            for emitted, (neg, kind) in enumerate(negatives):
                triplets.append(Triplet(query, positives[emitted % len(positives)], neg, kind))
    if skipped:
        logger.info("sample_triplets: skipped %d of %d queries", skipped, len(corpus))
    return TripletSet(triplets, index.fingerprint(), skipped)


def save_triplets(triplets: Iterable[Triplet], path: str | Path) -> None:
    write_json_lines(
        path,
        (
            {"q": t.query, "pos": t.positive, "neg": t.negative, "neg_kind": t.neg_kind.value}
            for t in triplets
        ),
    )


def _triplet(rec: dict) -> Triplet:
    return Triplet(field(rec, "q", str), field(rec, "pos", str), field(rec, "neg", str),
                   NegKind(rec["neg_kind"]))


def load_triplets(path: str | Path) -> list[Triplet]:
    return read_json_lines(
        path, _triplet,
        "triplet line is not a record with string q, pos and neg ids and a known neg_kind",
    )
