"""Query-document pair construction from graph-embedding triplets.

Covers extractive query generation (top TF-IDF terms of the query
document), conversion of triplets into labeled pairs, the scored
quality filter over triplets, and composition of pair datasets from
multiple tagged sources.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .encoder import EncoderParams, encode_batch, word_tokens
from .losses import cosine
from .storage import field, read_json_lines, write_json_lines
from .triplets import Triplet, TripletSet

logger = logging.getLogger(__name__)


class PairLabel(Enum):
    POSITIVE = 1
    NEGATIVE = 0


class PairSource(str, Enum):
    GET = "GET"
    SID = "SID"
    DRMM = "DRMM"


@dataclass(frozen=True)
class QueryDocPair:
    query_text: str
    doc_id: str
    label: PairLabel
    source: PairSource


@dataclass
class CorpusStats:
    """Document frequencies used for TF-IDF query generation."""

    n_docs: int
    doc_freq: Mapping[str, int]

    @classmethod
    def from_texts(cls, texts: Iterable[str]) -> "CorpusStats":
        df: Counter[str] = Counter()
        n = 0
        for text in texts:
            n += 1
            df.update(set(word_tokens(text)))
        return cls(n, df)

    def idf(self, term: str) -> float:
        return math.log((1 + self.n_docs) / (1 + self.doc_freq.get(term, 0)))


def generate_query(doc_text: str, m: int, corpus_stats: CorpusStats) -> str:
    """Extractive query: the doc's m highest TF-IDF terms, space-joined.

    Ties break toward the earlier first occurrence in the document; a
    repeated term counts once. Documents with no word tokens are an
    error.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    tokens = word_tokens(doc_text)
    if not tokens:
        raise ValueError("document has no word tokens")
    tf = Counter(tokens)
    first_pos = {}
    for pos, tok in enumerate(tokens):
        first_pos.setdefault(tok, pos)
    ranked = sorted(tf, key=lambda t: (-tf[t] * corpus_stats.idf(t), first_pos[t]))
    return " ".join(ranked[:m])


@dataclass
class EncoderCosineScorer:
    """Frozen-encoder cosine, scaled into roughly the 0..10 band.

    Stand-in for an externally trained relevance scorer: deterministic
    given its params, with scores in [-scale, scale]. Zero-vector texts
    score 0. Each distinct text is encoded once per call.
    """

    params: EncoderParams
    scale: float = 10.0

    def score_pairs(self, pairs: Sequence[tuple[str, str]]) -> list[float]:
        texts = list(dict.fromkeys(t for pair in pairs for t in pair))
        vecs = dict(zip(texts, encode_batch(self.params, texts)))
        return [self.scale * cosine(vecs[a], vecs[b]) for a, b in pairs]


def quality_filter(
    tset: TripletSet,
    texts: Mapping[str, str],
    scorer: EncoderCosineScorer,
    t_pos: float,
    t_margin: float,
) -> TripletSet:
    """Keep triplets whose positive scores high and clearly above the negative.

    A triplet survives iff score(q, pos) >= t_pos and score(q, pos) -
    score(q, neg) >= t_margin; the result keeps ``tset``'s fingerprint
    and skip count. ``scorer.score_pairs`` scores (query-doc text, doc
    text) pairs, higher for more related. Filtering is idempotent for a
    deterministic scorer.
    """
    for t in tset.triplets:
        for doc_id in (t.query, t.positive, t.negative):
            if doc_id not in texts:
                raise KeyError(f"no text for document {doc_id!r}")
    scores = scorer.score_pairs([
        (texts[t.query], texts[d]) for t in tset.triplets for d in (t.positive, t.negative)
    ])
    kept = [
        t for t, s_pos, s_neg in zip(tset.triplets, scores[0::2], scores[1::2])
        if s_pos >= t_pos and s_pos - s_neg >= t_margin
    ]
    logger.info("quality_filter: kept %d of %d triplets", len(kept), len(tset.triplets))
    return TripletSet(kept, tset.index_fingerprint, tset.skipped)


def triplets_to_pairs(
    triplets: Sequence[Triplet], queries: Mapping[str, str]
) -> list[QueryDocPair]:
    """GET pairs: each query doc positive for its own query, triplet docs negative.

    ``queries`` maps query-doc id -> generated query text. Each query
    doc contributes (query, itself, positive) plus one negative row per
    distinct positive/negative doc of its triplets; duplicate (query,
    doc) combinations collapse. Output is sorted by (query doc id, doc
    id).
    """
    out: list[QueryDocPair] = []
    seen: set[tuple[str, str]] = set()
    query_ids = sorted({t.query for t in triplets})
    for q in query_ids:
        if q not in queries:
            raise KeyError(f"no generated query for document {q!r}")
    rows: list[tuple[str, str, PairLabel]] = []
    for q in query_ids:
        rows.append((q, q, PairLabel.POSITIVE))
    for t in triplets:
        rows.append((t.query, t.positive, PairLabel.NEGATIVE))
        rows.append((t.query, t.negative, PairLabel.NEGATIVE))
    for q, doc_id, label in sorted(rows, key=lambda r: (r[0], r[1])):
        key = (queries[q], doc_id)
        if key in seen:
            continue
        seen.add(key)
        out.append(QueryDocPair(queries[q], doc_id, label, PairSource.GET))
    return out


@dataclass
class SourceCount:
    total: int = 0
    positives: int = 0
    negatives: int = 0


@dataclass
class CompositionReport:
    per_source: dict[str, SourceCount]
    total: int
    positives: int
    negatives: int
    overlap: int  # duplicate (query, doc) combinations across components


def compose_dataset(
    components: Sequence[Sequence[QueryDocPair]],
) -> tuple[list[QueryDocPair], CompositionReport]:
    """Concatenate loaded pair components in order and count the mix.

    Each row keeps its source tag (``load_pairs`` gives untagged rows their
    file's source). Overlapping (query, doc) rows across components are
    kept, but counted in the report.
    """
    pairs = [pr for rows in components for pr in rows]
    per_source: dict[str, SourceCount] = {}
    seen = Counter((pr.query_text, pr.doc_id) for pr in pairs)
    for pr in pairs:
        sc = per_source.setdefault(pr.source.value, SourceCount())
        sc.total += 1
        if pr.label is PairLabel.POSITIVE:
            sc.positives += 1
        else:
            sc.negatives += 1
    report = CompositionReport(
        per_source=per_source,
        total=len(pairs),
        positives=sum(sc.positives for sc in per_source.values()),
        negatives=sum(sc.negatives for sc in per_source.values()),
        overlap=sum(c - 1 for c in seen.values()),
    )
    return pairs, report


def save_pairs(pairs: Sequence[QueryDocPair], path: str | Path) -> None:
    write_json_lines(
        path,
        (
            {
                "query": pr.query_text,
                "doc_id": pr.doc_id,
                "label": pr.label.value,
                "source": pr.source.value,
            }
            for pr in pairs
        ),
    )


def load_pairs(path: str | Path, default_source: PairSource | None = None) -> list[QueryDocPair]:
    """A pair file's rows; a record without ``source`` takes ``default_source``."""

    def parse(rec: dict) -> QueryDocPair:
        source = rec.get("source")
        return QueryDocPair(field(rec, "query", str), field(rec, "doc_id", str),
                            PairLabel(field(rec, "label", int)),
                            PairSource(default_source if source is None else source))

    return read_json_lines(path, parse, "pair line is not a record with a string query and "
                                        "doc_id, an integer 0/1 label and a known source")
